"""trigdunkl benchmark: time to a checked solution on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Each workload runs closed-loop, one call in flight, in fresh
worker processes started one after another (``worker.py``) with the BLAS
thread count fixed at 1.  Processes are started until ``--seconds`` have
passed, and at least ``MIN_PROCS`` of them; each times its set-up, a cold
pass and warm passes for ``--seconds / WARM_SHARE`` (at least one).  The
outputs are checked against independent mpmath references
(``reference.py``) outside the timed region.

With ``--trace 0`` the last line reports the end-to-end metrics:

    setup_s       median time in a fresh process to import trigdunkl and
                  build the inputs from the seed
    cold_s        median first pass of a fresh process (empty rule caches)
    wall_s        median warm pass: time to a solution at the stated accuracy
    pass_frac     jobs within tolerance / jobs attempted (1 - fail_frac)
    digits_mean   mean clamp(-log10(rel_err), 0, 16) over checked outputs
    peak_rss_mib  median ru_maxrss of the worker processes

The three times are scaled to a reference host speed (``hostspeed.py``):
each pass is bracketed by a fixed calibration loop run in the same process
(the set-up is followed by one), and its time is multiplied by
``hostspeed.REFERENCE_S`` / the loop's time.  On a shared host this takes
out the drift of CPU speed between runs, which is larger than the bounds.
The report above the last line gives each timing's sample count and the
times as measured.

With ``--trace 1`` one fresh process alternates traced and untraced warm
passes and the last line reports the per-layer metrics (``spans.py``) and
``trace_overhead_frac``.  Metric names and units come from BENCHMARK.json.

Every pass of every process must return bit-identical outputs, as a
deterministic program does, so one pass's outputs are judged against the
cross-checked references: outputs outside tolerance, and calls that raised,
are counted in ``failed`` (fail_frac = failed / attempted).  ``correct`` is
true when the outputs are identical and the workload's pass condition
holds: no failure at all, except on ``spectral``, where failures at
lam >= 12 are the known hyp2f1 defect and are only counted.
See METRICS.md for which layer metric moves which end-to-end metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = HERE / ".cache"

MIN_PROCS = 4       # fresh processes per run, at least: cold_s and setup_s samples
WARM_SHARE = 4      # each process runs warm passes for --seconds / WARM_SHARE
BLAS_THREADS = 1
PROC_TIMEOUT = 170.0


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(args, result_path, budget, trace=0):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--budget", str(budget),
           "--trace", str(trace), "--out", str(result_path)]
    subprocess.run(cmd, env=_env(), cwd=ROOT, check=True, timeout=PROC_TIMEOUT,
                   stdin=subprocess.DEVNULL)
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def _provenance(args, numpy_version, python_version):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "trigdunkl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": python_version,
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
    }


def _end_to_end(fresh, tally):
    warm = [t for r in fresh for t in r["warm_scaled_s"]]
    return {
        "setup_s": statistics.median(r["setup_scaled_s"] for r in fresh),
        "cold_s": statistics.median(r["cold_scaled_s"] for r in fresh),
        "wall_s": statistics.median(warm),
        "pass_frac": 1.0 - tally.failed / tally.attempted,
        "digits_mean": statistics.fmean(tally.digits) if tally.digits else 0.0,
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in fresh),
    }, {"processes (setup_s, cold_s samples)": len(fresh), "warm passes": len(warm)}


def _as_measured(fresh):
    """Medians of the times as measured, before scaling to the reference speed."""
    loops = [t for r in fresh for t in r["loop_s"]]
    q = statistics.quantiles(loops, n=4)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in fresh),
        "cold_s": statistics.median(r["cold_s"] for r in fresh),
        "wall_s": statistics.median(t for r in fresh for t in r["warm_s"]),
        "hostspeed.loop_s": statistics.median(loops),
        "hostspeed.loop_iqr_frac": (q[2] - q[0]) / statistics.median(loops),
    }


def _per_layer(result):
    layers = result["layers"]
    # counts repeat exactly from pass to pass; times are medians over passes
    out = {key: value if isinstance(value, int) else statistics.median(p[key] for p in layers)
           for key, value in layers[0].items()}
    out["quadrature.gj.cold_misses"] = result["cold_layers"]["quadrature.gj.misses"]
    out["quadrature.cold_rule_gen_s"] = result["cold_layers"]["quadrature.rule_gen_s"]
    out["trace.wall_s"] = statistics.median(result["traced_s"])
    out["trace.untraced_wall_s"] = statistics.median(result["warm_s"])
    out["trace_overhead_frac"] = out["trace.wall_s"] / out["trace.untraced_wall_s"] - 1.0
    return out, {"traced passes": len(layers), "untraced passes": len(result["warm_s"])}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=workloads.SIZES,
                    help="input size; 'mini' is for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "trigdunkl" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'trigdunkl'}; "
              "run from the root of a trigdunkl checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(exist_ok=True)
    result_path = SCRATCH / f"worker-{os.getpid()}.json"
    # compile the package and load its libraries once, untimed, so every
    # timed process starts from the same state
    subprocess.run([sys.executable, "-c", "import trigdunkl"], env=_env(), cwd=ROOT,
                   check=True, timeout=PROC_TIMEOUT, stdin=subprocess.DEVNULL)

    if args.trace:
        runs = [_worker(args, result_path, args.seconds, trace=1)]
    else:
        runs = []
        start = time.perf_counter()
        while len(runs) < MIN_PROCS or time.perf_counter() - start < args.seconds:
            runs.append(_worker(args, result_path, args.seconds / WARM_SHARE))

    workload = workloads.WORKLOADS[args.workload]
    jobs = workload.make_jobs(args.seed, args.size)
    tasks = workload.reference_tasks(jobs)
    refs = {}
    if tasks:
        import reference

        refs = reference.references(tasks, f"{args.workload}-{args.size}-{args.seed}")
    tally = check.Tally()
    passed = workload.check(jobs, runs[0]["output"], refs, tally)
    identical = len({d for r in runs for d in r["digests"]}) == 1
    correct = passed and identical
    if not identical:
        print("perfbench: passes returned different outputs", file=sys.stderr)
    if not passed:
        print(f"perfbench: {args.workload} failed its pass condition", file=sys.stderr)
    if args.trace:
        metrics, passes = _per_layer(runs[0])
    else:
        metrics, passes = _end_to_end(runs, tally)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    prov = _provenance(args, runs[0]["numpy"], runs[0]["python"])

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          + ", ".join(f"{v} {k}" for k, v in passes.items()))
    for key, value in metrics.items():
        print(f"  {key:34s} {value:.6g} {units[key]}")
    print(f"  {'fail_frac':34s} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} jobs)")
    if not args.trace:
        print(f"  as measured, before scaling to loop time {hostspeed.REFERENCE_S} s:")
        for key, value in _as_measured(runs).items():
            print(f"    {key:32s} {value:.6g}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
