"""The command-line tools of tools/, run as subprocesses."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOLS / args[0]), *args[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "args",
    [
        ("answer_digest.py", "--against", "nosuchrev"),
        ("code_lines.py", "--against", "nosuchrev"),
        ("bench_pairs.py", "--against", "nosuchrev", "--workload", "groebner", "--pairs", "1"),
    ],
    ids=["answer_digest", "code_lines", "bench_pairs"],
)
def test_a_bad_revision_exits_with_a_message(args):
    proc = run_tool(*args)
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1] == "git archive nosuchrev failed"
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cyclic_prints_size_digest_and_time():
    proc = run_tool("cyclic.py", "4")
    assert proc.returncode == 0
    head, _, seconds = proc.stdout.strip().rpartition(", ")
    assert head == (
        "cyclic-4: 7 elements, "
        "sha256 4b0ea77571f4145d45d1f58ee7b019c44dc17cee473cfc011ade211c3e2b5c14"
    )
    assert seconds.endswith(" s") and float(seconds[:-2]) >= 0


def test_cyclic_rejects_a_bad_size():
    proc = run_tool("cyclic.py", "1")
    assert proc.returncode == 1
    assert "usage" in proc.stderr
