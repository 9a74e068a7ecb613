"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs in about two minutes, from the root of a source checkout:

1. a one-menu run of every workload passes all checks, on seed 1 and on
   seed 2 (so later claims can be re-checked on a seed not used before);
2. a corrupted answer is caught: with the last element of every reduced
   basis dropped, the groebner run fails its checks and exits 1;
3. a traced run reports every per-layer metric, and its counts repeat
   exactly on a second traced run with the same seed;
4. the metrics printed match BENCHMARK.json by name and unit;
5. in a directory holding only BENCHMARK.json and perfbench/, the command
   exits nonzero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = ("groebner", "resolutions", "rank_loci", "scripts")


def invoke(workload, seed, trace=0, tamper=None):
    """Run the benchmark in this process; -> (exit code, result dict)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
            tamper=tamper,
        )
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    return bool(cond)


def main():
    for wl in WORKLOADS.values():
        wl.SETS = 1  # one menu per pass keeps the test short
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True

    for seed in (1, 2):
        for name in WORKLOAD_NAMES:
            code, res = invoke(name, seed)
            ok &= expect(code == 0 and res["correct"] and res["failed"] == 0,
                         f"{name} seed {seed}: {res['attempted']} jobs, {res['failed']} failed")
            units = {m: v["unit"] for m, v in res["metrics"].items()}
            ok &= expect(units == {m["name"]: m["unit"] for m in spec["end_to_end"]},
                         f"{name}: end-to-end metrics match BENCHMARK.json")

    def drop_last_basis_element(mods):
        original = mods.groebner.groebner_basis
        mods.groebner.groebner_basis = lambda obj, order=None: original(obj, order)[:-1]

    code, res = invoke("groebner", 1, tamper=drop_last_basis_element)
    ok &= expect(code == 1 and not res["correct"] and res["failed"] == res["attempted"],
                 f"corrupted bases caught: exit {code}, {res['failed']} of {res['attempted']} failed")

    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in WORKLOAD_NAMES:
        runs = [invoke(name, 3, trace=1) for _ in range(2)]
        ok &= expect(all(code == 0 for code, _ in runs), f"{name}: traced runs pass their checks")
        first, second = (res["metrics"] for _, res in runs)
        ok &= expect({m: v["unit"] for m, v in first.items()} == per_layer,
                     f"{name}: per-layer metrics match BENCHMARK.json")
        counts = [m for m, v in first.items()
                  if v["unit"] == "count/pass" or (m.endswith("_ratio") and m != "trace.overhead_ratio")]
        ok &= expect(all(first[m]["value"] == second[m]["value"] for m in counts),
                     f"{name}: {len(counts)} counts repeat exactly across two traced runs")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "groebner", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    ok &= expect(proc.returncode != 0 and not proc.stdout.strip(),
                 f"without sources: exit {proc.returncode}, no result printed")

    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
