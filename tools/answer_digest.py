"""Digest of the canonical answers of the benchmark workloads.

    python3 tools/answer_digest.py [SEED ...]                (default: seed 1)
    python3 tools/answer_digest.py --against REV [SEED ...]

For each workload of perfbench/workloads.py and each seed, runs one pass
of the workload's jobs on a fresh import of residua from src/ and prints

    workload seed sha256

where sha256 is taken over the canonical JSON answers of the jobs, one a
line, in job order.  Two checkouts (or two hash seeds) that print the same
lines give byte-identical answers.  perfbench/ is only imported, never
changed.

With --against REV, the git revision REV (which must contain this tool) is
extracted with git archive into a temporary directory, its own copy of
this tool digests the same seeds there, and the lines that differ from
this tree's are printed as "-REV line" / "+this line"; the exit status is
1 on any difference and 0 when the digests agree.
"""

import hashlib
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from run import import_fresh  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digest(name, seed):
    wl = WORKLOADS[name]
    mods = import_fresh()
    specs = wl.generate(random.Random(f"{name}:{seed}"), mods)
    answers = [
        json.dumps(wl.answer(wl.run(wl.build(spec, mods), mods)), sort_keys=True)
        for spec in specs
    ]
    return hashlib.sha256("\n".join(answers).encode()).hexdigest()


def digest_lines(seeds):
    for seed in seeds:
        for name in WORKLOADS:
            yield f"{name} {seed} {digest(name, seed)}"


def extract(rev, tree):
    """Write the files of git revision rev into the directory tree; exit
    with "git archive REV failed" when git cannot archive rev."""
    archive = ["git", "-C", str(ROOT), "archive", rev]
    with subprocess.Popen(archive, stdout=subprocess.PIPE) as git:
        tar = subprocess.run(["tar", "-x", "-C", tree], stdin=git.stdout, stderr=subprocess.PIPE)
    if git.returncode:
        raise SystemExit(f"git archive {rev} failed")
    if tar.returncode:
        raise SystemExit(f"tar could not unpack git archive {rev}: {tar.stderr.decode().strip()}")


def digest_lines_at(rev, seeds):
    """The digest lines of the tree of git revision rev, for the seeds."""
    with tempfile.TemporaryDirectory() as tree:
        extract(rev, tree)
        tool = Path(tree) / "tools" / "answer_digest.py"
        if not tool.is_file():
            raise SystemExit(f"{rev} has no tools/answer_digest.py")
        run = subprocess.run(
            [sys.executable, str(tool), *map(str, seeds)],
            cwd=tree,
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        return run.stdout.splitlines()


def main(argv):
    rev = None
    if argv[:1] == ["--against"]:
        if len(argv) < 2:
            raise SystemExit("--against needs a git revision")
        rev, argv = argv[1], argv[2:]
    seeds = [int(s) for s in argv] or [1]
    if rev is None:
        for line in digest_lines(seeds):
            print(line)
        return 0
    theirs = digest_lines_at(rev, seeds)
    ours = list(digest_lines(seeds))
    differ = [(a, b) for a, b in zip(theirs, ours) if a != b]
    for a, b in differ:
        print(f"-{rev} {a}")
        print(f"+this {b}")
    if len(theirs) != len(ours):
        print(f"{rev} printed {len(theirs)} lines, this tree {len(ours)}")
    elif not differ:
        print(f"{len(ours)} digests agree with {rev}")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
