"""One fresh benchmark process: set up, one cold pass, then warm passes.

    python3 perfbench/worker.py --workload NAME --seed N --size full \
        --budget SECONDS --trace 0|1 --out RESULT.json

``run.py`` starts it with ``src`` on PYTHONPATH and the BLAS thread count
fixed.  The set-up time covers ``import trigdunkl`` and building the
workload's inputs from the seed.  Warm passes run until ``--budget`` seconds
have passed after the cold pass, and at least once.  Each pass is
bracketed by ``hostspeed`` calibration loops, the set-up followed by one,
and each time is recorded both as measured and scaled to the reference
host speed.  With
``--trace 1`` the cold pass is traced, and traced and untraced warm passes
alternate, so the trace overhead is measured in the same process.

Only the first pass's outputs are kept, with a digest of every pass's
outputs, so the process's peak memory does not grow with the pass count.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import hostspeed  # sibling modules, standard library only
import workloads


def _timed_pass(trigdunkl, workload, prepared, scratch):
    with hostspeed.Timed() as timed:
        raw = workload.run(trigdunkl, prepared, scratch)
    return timed, workload.encode(raw, scratch)


def digest(out):
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    # the set-up imports numpy, so its calibration loop runs after it
    start = time.perf_counter()
    import trigdunkl
    jobs = workload.make_jobs(args.seed, args.size)
    prepared = workload.prepare(trigdunkl, jobs)
    setup_s = time.perf_counter() - start
    setup_loop_s = hostspeed.loop_s()

    import numpy
    scratch = args.out + ".pass.json"
    tracer = None
    result = {}
    if args.trace:
        from spans import Tracer

        tracer = Tracer(trigdunkl)
        prepared = workload.count_test_functions(prepared, tracer.count_function)
        tracer.install()
        tracer.start_pass()
    cold, first = _timed_pass(trigdunkl, workload, prepared, scratch)
    digests = [digest(first)]
    if tracer:
        tracer.uninstall()
        result["cold_layers"] = tracer.summarize()

    warm, traced, layers = [], [], []
    deadline = time.perf_counter() + args.budget
    while not warm or time.perf_counter() < deadline:
        timed, out = _timed_pass(trigdunkl, workload, prepared, scratch)
        warm.append(timed)
        digests.append(digest(out))
        if tracer:
            tracer.install()
            tracer.start_pass()
            timed, out = _timed_pass(trigdunkl, workload, prepared, scratch)
            tracer.uninstall()
            traced.append(timed.seconds)
            layers.append(tracer.summarize())
            digests.append(digest(out))
        del out
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if os.path.exists(scratch):
        os.unlink(scratch)

    # times as measured ("*_s") and scaled to the reference host speed
    result.update({
        "setup_s": setup_s,
        "setup_scaled_s": hostspeed.scale(setup_s, setup_loop_s),
        "cold_s": cold.seconds,
        "cold_scaled_s": cold.scaled,
        "warm_s": [t.seconds for t in warm],
        "warm_scaled_s": [t.scaled for t in warm],
        "loop_s": [setup_loop_s] + [t.loop_s for t in [cold] + warm],
        "traced_s": traced,
        "layers": layers,
        "rss_mib": rss_mib,
        "output": first,
        "digests": digests,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    })
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
