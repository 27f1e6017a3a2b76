"""Independent mpmath references, each cross-checked at 50 digits.

* ``G``: the two hyp2f1 blocks of the eigenfunction at 30 digits, checked
  against the same blocks at 50 digits.
* ``K``: tanh-sinh quadrature of the defining kernel integral at 30 digits,
  checked against its closed form (two Euler-integral hyp2f1 terms) at 50
  digits.

A reference whose two evaluations disagree by more than ``CROSS_TOL``
relative raises ``ReferenceMismatch``: the benchmark then stops instead of
judging the program against a value it cannot trust.  None of this runs
inside a timed region; results are cached per (workload, size, seed) in
``.cache`` next to this file.

The tasks are split over ``WORKERS`` child processes of this module,

    python3 perfbench/reference.py TASKS.txt VALUES.json

each started with ``subprocess`` and waited for, so that no process outlives
the benchmark (a multiprocessing pool leaves its resource tracker behind).
"""

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import mpmath as mp

PRIMARY_DPS = 30
CHECK_DPS = 50
CROSS_TOL = 1e-18
CACHE_DIR = Path(__file__).resolve().parent / ".cache"
WORKERS = 2     # reference processes; they run after the timed workers have ended


class ReferenceMismatch(RuntimeError):
    pass


def opdam_G(k1, k2, lam, x, dps):
    """G_{i lam}(x) from its two hypergeometric blocks at ``dps`` digits."""
    with mp.workdps(dps):
        k1, k2, lam, x = (mp.mpmathify(v) for v in (k1, k2, lam, x))
        rho, s = k1 / 2 + k2, k1 + k2
        z = -mp.sinh(x / 2) ** 2
        f1 = mp.hyp2f1(rho + 1j * lam, rho - 1j * lam, s + 0.5, z)
        f2 = mp.hyp2f1(rho + 1 + 1j * lam, rho + 1 - 1j * lam, s + 1.5, z)
        return f1 + (rho + 1j * lam) / (2 * s + 1) * mp.sinh(x) * f2


def _kernel_parts(k1, k2, x, y):
    """Prefactor and the pieces of the u = cosh(z/2), u = b + D s substitution.

    K(x, y) = (c/4) A(x)^{-1} int_{|y|}^{|x|} sigma (cosh(z/2) - cosh(y/2))^{k1-1}
              (cosh x - cosh z)^{k2-1} sinh(z/2) dz
            = pref * int_0^1 s^{k1-1} (1-s)^{k2-1} sigma(s) (a + b + D s)^{k2-1} ds
    with sigma(s) = sign(x) (P - Q (b + D s)).
    """
    k1, k2, x, y = (mp.mpmathify(v) for v in (k1, k2, x, y))
    a, b = mp.cosh(abs(x) / 2), mp.cosh(abs(y) / 2)
    d = a - b
    sgn = 1 if x > 0 else -1
    p, q = mp.exp(x) + 1, 2 * mp.exp(-y / 2)
    c = 2 ** (3 * (k1 + k2)) * mp.gamma(k1 + k2 + 0.5) / (mp.sqrt(mp.pi) * mp.gamma(k1) * mp.gamma(k2))
    weight = mp.exp(2 * k1 * mp.log(abs(2 * mp.sinh(x / 2))) + 2 * k2 * mp.log(abs(2 * mp.sinh(x))))
    pref = c / 4 / weight * 2 * 2 ** (k2 - 1) * d ** (k1 + k2 - 1)
    return k1, k2, a, b, d, sgn, p, q, pref


def kernel_quad(k1, k2, x, y, dps=PRIMARY_DPS):
    """Kernel by quadrature of its defining integral."""
    with mp.workdps(dps):
        k1, k2, a, b, d, sgn, p, q, pref = _kernel_parts(k1, k2, x, y)

        def smooth(s):
            u = b + d * s
            return sgn * (p - q * u) * (a + u) ** (k2 - 1)

        def end_piece(kk, other, g):
            # int_0^{1/2} t^{kk-1} (1-t)^{other-1} g(t) dt with t = r^{1/Re kk},
            # which leaves a bounded integrand at the singular end
            re = mp.re(kk)
            return mp.quad(
                lambda r: r ** (1j * mp.im(kk) / re) * (1 - r ** (1 / re)) ** (other - 1)
                * g(r ** (1 / re)),
                [0, mp.mpf(0.5) ** re],
            ) / re

        integral = end_piece(k1, k2, smooth) + end_piece(k2, k1, lambda t: smooth(1 - t))
        return pref * integral


def kernel_closed(k1, k2, x, y, dps=CHECK_DPS):
    """Kernel from Euler's integral: two hyp2f1 terms, no quadrature."""
    with mp.workdps(dps):
        k1, k2, a, b, d, sgn, p, q, pref = _kernel_parts(k1, k2, x, y)
        w = -d / (a + b)
        t1 = (p - q * b) * mp.beta(k1, k2) * mp.hyp2f1(1 - k2, k1, k1 + k2, w)
        t2 = q * d * mp.beta(k1 + 1, k2) * mp.hyp2f1(1 - k2, k1 + 1, k1 + k2 + 1, w)
        return pref * sgn * (a + b) ** (k2 - 1) * (t1 - t2)


def reference(task):
    """Cross-checked reference value of one task, as (re, im)."""
    kind, *args = task
    if kind == "G":
        primary, check = opdam_G(*args, PRIMARY_DPS), opdam_G(*args, CHECK_DPS)
    elif kind == "K":
        primary, check = kernel_quad(*args), kernel_closed(*args)
    else:
        raise ValueError(f"unknown reference kind {kind!r}")
    with mp.workdps(CHECK_DPS):
        if not abs(primary - check) <= CROSS_TOL * abs(check):
            raise ReferenceMismatch(f"{task}: {mp.nstr(primary, 20)} vs {mp.nstr(check, 20)}")
    value = complex(check)
    return value.real, value.imag


def references(tasks, cache_key):
    """Reference values for the unique ``tasks``, computed or read from cache.

    The cache file is named after ``cache_key`` and a digest of this module
    and of the tasks, so a changed input or reference method recomputes.
    """
    digest = hashlib.sha256(Path(__file__).read_bytes())
    digest.update(repr(tasks).encode())
    path = CACHE_DIR / f"refs-{cache_key}-{digest.hexdigest()[:16]}.json"
    if path.is_file():
        values = json.loads(path.read_text())
    else:
        CACHE_DIR.mkdir(exist_ok=True)
        values = _computed(tasks, path.with_suffix(""))
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(values))
        tmp.replace(path)
    return dict(zip(tasks, (complex(*v) for v in values)))


def _computed(tasks, stem):
    """Values of ``tasks`` from ``WORKERS`` child processes, in task order."""
    shards = [shard for shard in (tasks[i::WORKERS] for i in range(WORKERS)) if shard]
    files = [(Path(f"{stem}.{i}.tasks.txt"), Path(f"{stem}.{i}.values.json"))
             for i in range(len(shards))]
    procs = []
    try:
        for shard, (tasks_path, values_path) in zip(shards, files):
            tasks_path.write_text(repr(shard))     # complex k: no JSON
            procs.append(subprocess.Popen([sys.executable, __file__, str(tasks_path),
                                           str(values_path)], stdin=subprocess.DEVNULL))
        codes = [proc.wait() for proc in procs]
        if any(codes):
            raise RuntimeError(f"reference processes exited with {codes}")
        parts = [json.loads(values_path.read_text()) for _, values_path in files]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for tasks_path, values_path in files:
            tasks_path.unlink(missing_ok=True)
            values_path.unlink(missing_ok=True)
    values = [None] * len(tasks)
    for i, part in enumerate(parts):
        values[i::WORKERS] = part
    return values


def main(argv):
    tasks_path, values_path = argv
    tasks = ast.literal_eval(Path(tasks_path).read_text())
    Path(values_path).write_text(json.dumps([reference(task) for task in tasks]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
