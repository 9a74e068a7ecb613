"""Digest of the canonical answers of the benchmark workloads.

    python3 tools/answer_digest.py [SEED ...]        (default: seed 1)

For each workload of perfbench/workloads.py and each seed, runs one pass
of the workload's jobs on a fresh import of residua from src/ and prints

    workload seed sha256

where sha256 is taken over the canonical JSON answers of the jobs, one a
line, in job order.  Two checkouts (or two hash seeds) that print the same
lines give byte-identical answers.  perfbench/ is only imported, never
changed.
"""

import hashlib
import json
import random
import sys
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


if __name__ == "__main__":
    for seed in [int(s) for s in sys.argv[1:]] or [1]:
        for name in WORKLOADS:
            print(name, seed, digest(name, seed))
