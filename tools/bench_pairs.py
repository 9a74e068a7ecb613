"""Alternating pairs of benchmark runs of a git revision and of this tree.

    python3 tools/bench_pairs.py --against REV --workload W --pairs N
                                 [--seed S] [--out FILE]

The git revision REV is extracted with git archive into a temporary
directory ("parent"); this tree is the "change".  Each pair runs
perfbench/run.py --trace 0 for run_seconds of BENCHMARK.json once in each
tree, the parent first in odd pairs and the change first in even ones.
Both trees must hold the same perfbench/ and BENCHMARK.json, so both
sides run identical benchmark code.

For each end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the pairs the change won (ties count for neither side), and
two verdicts:

- gain: the change won at least nine tenths of the pairs, and the medians
  differ by more than the parent's interquartile range;
- worse than its bound: the change's median is worse than the parent's
  by more than the metric's bound.

With --out FILE the runs and the summary are written to FILE as JSON
(workloads keyed "W:S", every run under "runs"); an existing FILE keeps
its other workloads, runs and keys.  The exit status is 1 when a run
failed its answer checks, else 0.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from answer_digest import extract

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def git(*args):
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE, text=True, check=True
    ).stdout.strip()


def benchmark_files(tree):
    """{path: bytes} of the benchmark's code and data in a tree."""
    tree = Path(tree)
    bench = tree / "perfbench"
    files = [tree / "BENCHMARK.json", *sorted(bench.glob("*.py")), *sorted(bench.glob("*.json"))]
    return {str(f.relative_to(tree)): f.read_bytes() for f in files}


def run_once(tree, workload, seed):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "exit": out.returncode, "metrics": {}}
    result = json.loads(lines[-1])
    if out.returncode:
        result["correct"] = False
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs):
    """Per metric: each side's runs, median and quartiles, the pairs the
    change won and the relative change of the median."""
    out = {}
    for name, spec in METRICS.items():
        sides = {
            side: [r[side]["metrics"][name]["value"] for r in pairs]
            for side in ("parent", "change")
        }
        sign = 1 if spec["better"] == "higher" else -1
        entry = {}
        for side, values in sides.items():
            q1, med, q3 = quartiles(values)
            entry[side] = {
                "median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
                "runs": [round(v, 4) for v in values],
            }
        entry["change_better_pairs"] = sum(
            sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"])
        )
        p_med, c_med = entry["parent"]["median"], entry["change"]["median"]
        entry["change_vs_parent"] = round((c_med - p_med) / p_med, 4) if p_med else None
        out[name] = entry
    return out


def verdicts(name, entry, pairs):
    """(gain, worse than its bound) for one summarized metric."""
    spec = METRICS[name]
    sign = 1 if spec["better"] == "higher" else -1
    parent, change = entry["parent"], entry["change"]
    better = sign * (change["median"] - parent["median"])
    gain = entry["change_better_pairs"] * 10 >= 9 * pairs and better > parent["q3"] - parent["q1"]
    worse = parent["median"] and -better / abs(parent["median"]) > spec["bound"]
    return gain, bool(worse)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        raise SystemExit("--pairs must be positive")
    pairs, runs = [], []
    with tempfile.TemporaryDirectory() as parent:
        extract(args.against, parent)
        rev = git("rev-parse", "--short", args.against)
        if benchmark_files(parent) != benchmark_files(ROOT):
            raise SystemExit(f"perfbench/ or BENCHMARK.json differs between {rev} and this tree")
        trees = {"parent": parent, "change": str(ROOT)}
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            pair = {}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, args.seed)
                runs.append({"tree": side, "workload": args.workload, "seed": args.seed,
                             "pair": i, "result": pair[side]})
                jps = pair[side]["metrics"].get("jobs_per_s", {}).get("value")
                print(f"pair {i} {side}: jobs_per_s {jps}", file=sys.stderr)
            pairs.append(pair)

    all_correct = all(r["result"].get("correct") for r in runs)
    if not all_correct:
        print("a run failed its answer checks; no summary", file=sys.stderr)
        return 1
    metrics = summarize(pairs)
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {SECONDS:g} s runs, "
          f"{rev} (parent) against this tree (change)")
    for name, entry in metrics.items():
        p, c = entry["parent"], entry["change"]
        gain, worse = verdicts(name, entry, args.pairs)
        print(f"  {name:12s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
              f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
              f"change better in {entry['change_better_pairs']}/{args.pairs}  "
              f"{'gain' if gain else 'no gain'}"
              f"{', worse than its bound' if worse else ''}")

    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.setdefault("command", "python3 perfbench/run.py --workload W --seed S "
                                  f"--seconds {SECONDS:g} --trace 0")
        doc.setdefault("machine", f"{os.cpu_count()} cores, Python {platform.python_version()}; "
                                  "parent and change alternated (odd pairs parent first)")
        doc["parent"] = rev
        doc.setdefault("workloads", {})[f"{args.workload}:{args.seed}"] = {
            "seed": args.seed,
            "pairs": args.pairs,
            "seconds": SECONDS,
            "order": "alternating (odd pairs parent first)",
            "all_correct": all_correct,
            "metrics": metrics,
        }
        doc["runs"] = [
            r for r in doc.get("runs", [])
            if (r["workload"], r["seed"]) != (args.workload, args.seed)
        ] + runs
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
