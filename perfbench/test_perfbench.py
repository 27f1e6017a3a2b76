"""Tests of the benchmark itself, at the "mini" input size.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import hostspeed  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".points", ".node_evals", ".max_points", ".misses",
                  "f_evals", "cold_misses")


def run_bench(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--size", "mini"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_completes_at_mini_size(workload):
    result = last_json(run_bench(workload, 1, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_count_metrics_repeat_with_same_seed(workload):
    first = last_json(run_bench(workload, 3, 1))
    second = last_json(run_bench(workload, 3, 1))
    assert set(first["metrics"]) == declared("per_layer")
    counts = [k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES)]
    assert "kernel.batch.node_evals" in counts and "operators.f_evals" in counts
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def _shape(jobs):
    if jobs[0][0] == "SCAN":
        _, pairs, xs, fracs, samples = jobs[0]
        return len(pairs), len(xs), len(fracs), len(samples)
    return [job[0] for job in jobs]


@pytest.mark.parametrize("workload", ["scan_dense", "complex_k", "spectral"])
@pytest.mark.parametrize("size", workloads.SIZES)
def test_other_seed_other_inputs_same_job_counts(workload, size):
    make_jobs = workloads.WORKLOADS[workload].make_jobs
    a = make_jobs(1, size)
    b = make_jobs(2, size)
    assert a != b
    assert _shape(a) == _shape(b)
    assert make_jobs(1, size) == a


def test_scan_dense_exceeds_rule_cache_and_probes_diagonal():
    _, pairs, xs, fracs, samples = workloads.WORKLOADS["scan_dense"].make_jobs(5)[0]
    assert len(set(pairs)) >= 144          # 2 rules per pair > 256 cache entries
    assert len(xs) == 6 and all(0.3 <= abs(x) <= 3.0 for x in xs)
    assert -0.9999 in fracs and 0.9999 in fracs
    assert {j % len(fracs) for j in samples} == set(range(len(fracs)))


SPECTRAL = workloads.WORKLOADS["spectral"]


@pytest.fixture(scope="module")
def spectral_mini():
    jobs = SPECTRAL.make_jobs(1, "mini")
    refs = reference.references(SPECTRAL.reference_tasks(jobs), "spectral-mini-1")
    return jobs, refs


def _exact_outputs(jobs, refs):
    return [[refs[("G", *args)].real, refs[("G", *args)].imag] for _, *args in jobs]


def test_exact_results_pass(spectral_mini):
    jobs, refs = spectral_mini
    tally = check.Tally()
    assert SPECTRAL.check(jobs, _exact_outputs(jobs, refs), refs, tally)
    assert (tally.attempted, tally.failed) == (len(jobs), 0)
    assert tally.digits == [16.0] * len(jobs)


def _perturbed(out, i):
    out = list(out)
    out[i] = [out[i][0] + 1e-5 * (1 + abs(complex(*out[i]))), out[i][1]]
    return out


def test_perturbed_and_raised_results_fail(spectral_mini):
    jobs, refs = spectral_mini
    assert jobs[0][3] < SPECTRAL.KNOWN_DEFECT_LAM
    out = _perturbed(_exact_outputs(jobs, refs), 0)
    out[1] = "NonConvergenceError: series did not converge"
    tally = check.Tally()
    assert not SPECTRAL.check(jobs, out, refs, tally)
    assert (tally.attempted, tally.failed) == (len(jobs), 2)
    assert tally.digits[1] == 0.0 and tally.digits[0] < 6.0


def test_known_defect_failure_is_counted_not_fatal(spectral_mini):
    jobs, refs = spectral_mini
    i = next(i for i, job in enumerate(jobs) if job[3] >= SPECTRAL.KNOWN_DEFECT_LAM)
    tally = check.Tally()
    assert SPECTRAL.check(jobs, _perturbed(_exact_outputs(jobs, refs), i), refs, tally)
    assert tally.failed == 1


def test_perturbed_complex_k_job_fails():
    wl = workloads.WORKLOADS["complex_k"]
    jobs = wl.make_jobs(1, "mini")
    refs = {task: 1.0 for task in wl.reference_tasks(jobs)}
    exact = [[1.0, 0.0]] * len(jobs)
    assert wl.check(jobs, exact, refs, check.Tally())
    tally = check.Tally()
    assert not wl.check(jobs, _perturbed(exact, len(jobs) - 1), refs, tally)
    assert tally.failed == 1


def test_perturbed_scan_cell_and_verify_row_fail():
    wl = workloads.WORKLOADS["scan_dense"]
    jobs = wl.make_jobs(1, "mini")
    _, pairs, xs, fracs, samples = jobs[0]
    values = [1.0] * (len(pairs) * len(xs) * len(fracs))
    refs = {task: 1.0 for task in wl.reference_tasks(jobs)}
    assert wl.check(jobs, {"all_positive": True, "values": values}, refs, check.Tally())
    unsampled = next(c for c in range(len(values)) if c not in samples)
    values[unsampled] = -1e-300
    tally = check.Tally()
    assert not wl.check(jobs, {"all_positive": True, "values": values}, refs, tally)
    assert tally.failed == 1
    values = [1.0] * len(values)
    values[samples[0]] = 1.0 + 1e-6
    tally = check.Tally()
    assert not wl.check(jobs, {"all_positive": True, "values": values}, refs, tally)
    assert tally.failed == 1

    verify = workloads.WORKLOADS["verify_all"]
    rows = [["eigenfunction", 1e-12, True], ["duality_pairing", 2e-6, True],
            ["kernel_positive", 0.0, True]]
    assert verify.check([], {"exit": 0, "rows": rows}, {}, check.Tally())
    rows[1][2] = False
    tally = check.Tally()
    assert not verify.check([], {"exit": 1, "rows": rows}, {}, tally)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.digits == [12.0, pytest.approx(-math.log10(2e-6))]


def test_kernel_references_agree():
    # quadrature of the defining integral against the closed form, including
    # complex k and y next to -x
    for args in [(0.5, 0.5, 1.0, 0.3), (0.1, 2.9, -3.0, 2.9997),
                 (0.7 + 0.3j, 0.5 - 0.4j, 2.0, -1.5)]:
        re, im = reference.reference(("K", *args))
        assert abs(complex(re, im)) > 0


def test_without_package_source_exits_nonzero():
    # a directory holding only BENCHMARK.json and the benchmark's files
    (HERE / ".cache").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=HERE / ".cache"))
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".cache", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("spectral", 1, 0, cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_timed_section_is_scaled_by_the_calibration_loop():
    with hostspeed.Timed() as timed:
        sum(range(10_000))
    assert timed.seconds > 0 and timed.loop_s > 0
    assert timed.scaled == pytest.approx(timed.seconds * hostspeed.REFERENCE_S / timed.loop_s)
