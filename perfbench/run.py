"""End-to-end and per-layer benchmark of residua.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

residua is imported from the src/ directory next to perfbench/.
Workloads (see workloads.py): groebner, resolutions, rank_loci, scripts.

One process, one thread, closed loop: the next job starts when the previous
one has finished.  Set-up (fresh import of residua plus input generation)
is repeated SETUP_REPS times and its median reported as setup_s.  The
timed phase then runs whole passes over the workload's job list (100 jobs
or more) until --seconds have passed, rebuilding the inputs before every
pass.  A job's latency is the wall time of the library call alone,
scaled to a fixed machine speed (speed.py: other load on a shared machine
changes the speed of the same code by up to 2x for minutes at a time), and
taken as the median over the passes.  job_p50_ms and job_p90_ms are
quantiles of those per-job latencies, jobs_per_s is the number of jobs over
their sum, and setup_s is scaled the same way.  The unscaled figures are
printed too, under "raw" in the stamp line.  peak_rss_mb is the process's
peak resident memory at the end of the timed phase, and ok_ratio the share
of attempted jobs that passed every check (1 - fail_ratio).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes (tracing.py) and prints the per-layer metrics, per traced
pass, so the counts repeat exactly for a given seed; the spans of the last
traced run of each workload are written to perfbench/out/.

Every answer is checked: each job's canonical answer must repeat byte for
byte on every pass (traced or not), and the first answer of every job is
compared with a reference that shares no code with residua (oracle.py).
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 1 when any check failed and 2 when
the residua sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 11
LAYER_MODULES = ("kernel", "polyring", "groebner", "homalg", "residues", "cli")

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# spans whose calls and self time are reported, per traced pass
_CALLS = {
    "kernel.reduce_terms", "kernel.add_scaled_inplace", "kernel.leading_key",
    "polyring.poly_parse", "polyring.Polynomial.mul",
    "groebner.groebner_basis", "groebner.normal_form", "groebner.Ideal.groebner",
    "groebner.ideal_member", "groebner.syzygies", "groebner.module_member",
    "groebner.dimension", "groebner.ModuleLifter.lift",
    "homalg.free_resolution", "homalg.minimalize", "homalg.ChainComplex.init",
    "homalg.mat_mul", "homalg.minors_ideal", "homalg.generic_rank",
    "residues.build_current_recipe", "residues.annihilator_member",
}
_SELF = {
    "kernel.reduce_terms", "polyring.poly_parse", "polyring.Polynomial.mul",
    "polyring.Polynomial.add", "groebner.groebner_basis", "groebner.normal_form",
    "groebner.ideal_member", "groebner.syzygies", "groebner.module_member",
    "groebner.dimension", "groebner.ModuleLifter.init", "groebner.ModuleLifter.lift",
    "homalg.free_resolution", "homalg.minimalize", "homalg.ChainComplex.init",
    "homalg.mat_mul", "homalg.minors_ideal", "homalg.generic_rank",
    "homalg.buchsbaum_eisenbud_check", "homalg.rank_loci",
    "homalg.proper_intersection_check", "homalg.detect_periodicity",
    "residues.build_current_recipe", "residues.annihilator_member",
    "residues.comparison_morphism", "residues.structure_form_shape",
    "residues.poincare_residue", "cli.parse_script", "cli.encode", "cli.run_script",
}
# counts kept by the tracer's hooks, per traced pass
_EXTRA = {
    "groebner.groebner_basis.basis_len", "homalg.betti_sum", "homalg.minors_ideal.gens",
    "cli.statements", "cli.statement_errors",
}
_RATIOS = {  # metric -> (numerator extra key, span whose calls are the base)
    "groebner.gb_cache.hit_ratio": ("groebner.gb_cache.hits", "groebner.Ideal.groebner"),
    "groebner.module_member.true_ratio": ("groebner.module_member.true", "groebner.module_member"),
}


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{n}.calls", "count/pass") for n in sorted(_CALLS)]
    out += [(f"{n}.self_s", "s/pass") for n in sorted(_SELF)]
    out += [(n, "count/pass") for n in sorted(_EXTRA)]
    out += [(n, "ratio") for n in sorted(_RATIOS)]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def import_fresh():
    """Import residua from scratch (dropping any loaded copy) and return its
    layer modules; the first import in a checkout also compiles them."""
    for name in [n for n in sys.modules if n == "residua" or n.startswith("residua.")]:
        del sys.modules[name]
    mods = argparse.Namespace(residua=importlib.import_module("residua"))
    for name in LAYER_MODULES:
        setattr(mods, name, importlib.import_module("residua." + name))
    return mods


def commit_id():
    """The checked-out commit, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload, seed, seconds, trace, tamper=None):
    """Run one workload; -> (result dict, failure messages, stamp)."""
    import tracing
    from speed import WINDOW, Speed
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    speed = Speed()
    setups = []  # (scaled, raw) seconds
    for _ in range(SETUP_REPS):
        gc.collect()  # the garbage of the previous repetition is not set-up work
        for _ in range(WINDOW):
            speed.sample()
        t0 = time.perf_counter()
        mods = import_fresh()
        specs = wl.generate(random.Random(f"{workload}:{seed}"), mods)
        inputs = [wl.build(s, mods) for s in specs]
        dt = time.perf_counter() - t0
        setups.append((dt * speed.scale(), dt))
    if tamper is not None:
        tamper(mods)

    gc.collect()
    tracer = tracing.Tracer() if trace else None
    first = [None] * len(specs)  # canonical answer of each job's first run
    runs = [0] * len(specs)
    bad_runs = [0] * len(specs)
    messages = []
    # traced? -> per-job (scaled, raw) latencies
    lat = {False: [[] for _ in specs], True: [[] for _ in specs]}
    passes = {False: 0, True: 0}
    job = 0
    started = time.perf_counter()
    while True:
        traced = trace and passes[False] > passes[True]
        for i, inp in enumerate(inputs):
            speed.sample()
            if traced:
                tracer.job = job
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = wl.run(inp, mods)
                error = None
            except Exception as e:  # a failed job is counted and reported, the loop goes on
                error = f"job {i} raised {type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            lat[traced][i].append((dt * speed.scale(), dt))
            runs[i] += 1
            job += 1
            if error is None:
                ans = json.dumps(wl.answer(out), sort_keys=True)
                if first[i] is None:
                    first[i] = ans
                elif ans != first[i]:
                    error = f"job {i}: answer differs from its first run ({'traced' if traced else 'untraced'} pass)"
            if error is not None:
                bad_runs[i] += 1
                messages.append(error)
        passes[traced] += 1
        if time.perf_counter() - started >= seconds and (not trace or passes[True]):
            break
        inputs = [wl.build(s, mods) for s in specs]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for i, spec in enumerate(specs):
        if first[i] is None:
            continue
        try:
            problem = wl.check(spec, json.loads(first[i]))
        except Exception as e:  # a broken answer can break the check itself
            problem = f"check raised {type(e).__name__}: {e}"
        if problem:
            messages.append(f"job {i}: {problem}")
            bad_runs[i] = runs[i]

    attempted, failed = sum(runs), sum(bad_runs)
    if trace:
        metrics = _per_layer(tracer, lat, passes[True])
    else:
        def timings(k):  # k = 0: scaled, 1: raw
            out = _timings([[t[k] for t in job] for job in lat[False]])
            out["setup_s"] = statistics.median(s[k] for s in setups)
            return out

        values, raw = timings(0), timings(1)
        values.update(peak_rss_mb=peak_rss_mb, ok_ratio=(attempted - failed) / attempted)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    stamp = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "backend": mods.residua.BACKEND, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit_id(), "passes": passes[False] + passes[True],
        "jobs_per_pass": len(specs),
    }
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{workload}.jsonl.gz", stamp)
    else:
        stamp["jobs_beyond_p90"] = values["beyond_p90"]
        stamp["raw"] = {k: raw[k] for k in ("jobs_per_s", "job_p50_ms", "job_p90_ms", "setup_s")}
    return result, messages, stamp


def _timings(per_job):
    """jobs_per_s, job_p50_ms and job_p90_ms from each job's latencies over
    the passes (seconds); each job counts with its median."""
    typical = [statistics.median(t) for t in per_job]
    p90 = statistics.quantiles(typical, n=10)[8] if len(typical) > 1 else typical[0]
    return {
        "jobs_per_s": len(typical) / sum(typical),
        "job_p50_ms": statistics.median(typical) * 1000,
        "job_p90_ms": p90 * 1000,
        "beyond_p90": sum(t > p90 for t in typical),
    }


def _per_layer(tracer, lat, traced_passes):
    """Per-layer metrics, counts and self times per traced pass."""
    totals = tracer.totals()
    values = {}
    for name, unit in per_layer_names():
        base = name.rsplit(".", 1)[0]
        if name.endswith(".calls"):
            v = totals.get(base, (0, 0))[0] / traced_passes
        elif name.endswith(".self_s"):
            v = totals.get(base, (0, 0))[1] / traced_passes
        elif name in _EXTRA:
            v = tracer.extra[name] / traced_passes
        elif name in _RATIOS:
            hits, span = _RATIOS[name]
            calls = totals.get(span, (0, 0))[0]
            v = tracer.extra[hits] / calls if calls else 0.0
        else:  # trace.overhead_ratio: traced over untraced jobs per second
            v = _timings([[s for s, _ in t] for t in lat[True]])["jobs_per_s"] / _timings(
                [[s for s, _ in t] for t in lat[False]])["jobs_per_s"]
        values[name] = {"value": v, "unit": unit}
    return values


def main(argv=None, tamper=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("groebner", "resolutions", "rank_loci", "scripts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "residua" / "__init__.py").is_file():
        print(f"error: no residua sources in {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for p in (str(HERE), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)

    result, messages, stamp = run(args.workload, args.seed, args.seconds, bool(args.trace), tamper)
    for msg in messages[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    print("# " + json.dumps(stamp, sort_keys=True))
    print(f"# fail_ratio {result['failed'] / result['attempted']:.6g}"
          f" ({result['failed']} of {result['attempted']} jobs)")
    for name, m in result["metrics"].items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
