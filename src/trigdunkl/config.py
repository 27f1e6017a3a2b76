"""Central defaults: numeric knobs, tolerances, and verification grids.

The tolerances, grids and numeric knobs live here.  Internal sizes live
with their code: ``quadrature._OUTER_NODES``, ``_MIN_TS_LEVEL`` and
``_MAX_TS_LEVEL``, ``operators._SCAN_CHUNK`` and ``kernel._LOG_TAIL``.
The only per-run override is ``trigdunkl verify --tol``; no environment
variables are consulted.  The grids below are the built-in verification
grids driven by ``trigdunkl.verify`` and the acceptance tests.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Numerics:
    """Quadrature and finite-difference knobs.

    No rule size is set here: kernel values are closed-form series, and the
    outer integrals pick their own level (``quadrature._outer_sums``).

    jacobi_nodes      not read by the package; the benchmark's trace counts
                      node evaluations with it (and ``tanh_sinh_level``).
    tanh_sinh_level   see ``jacobi_nodes``.
    fd_step_scale     relative step for finite-difference derivatives of
                      integral-operator outputs.
    series_max_terms  hypergeometric series term cap.
    """

    jacobi_nodes: int = 64
    tanh_sinh_level: int = 8
    fd_step_scale: float = 1e-4
    series_max_terms: int = 20_000


NUMERICS = Numerics()


# Default tolerances of the verification suites (overridable via --tol).
TOL_EIGEN = 1e-6          # |V(e^{i lam .})(x) - G(x)|  <=  tol * (1 + |G|)
TOL_KERNEL = 1e-7         # relative gap, direct kernel vs assembled kernel
TOL_BYPARTS = 1e-8        # relative gap between the two K-tilde integrals
TOL_DERIV = 1e-8          # relative gap, dK-tilde/dy vs Richardson difference
TOL_LIMITS = 1e-6         # relative gap, kernel extrapolated to k = 0 vs closed form
TOL_DUALITY = 1e-6        # normalized duality gap
TOL_INTERTWINE = 1e-10    # |D(Vf) - V(f')|, Richardson-difference limited

# Multiplicity grid shared by all suites.
K_VALUES = (0.3, 0.7, 1.5)
K_GRID = tuple((a, b) for a in K_VALUES for b in K_VALUES)

# Eigenfunction / intertwining grid.
EIGEN_LAMBDAS = (0.0, 1.0, 2.5)
EIGEN_X = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)

# Kernel-consistency grid: y runs over fractions of |x|.
KERNEL_X = (-2.4, -1.3, -0.6, 0.6, 1.3, 2.4)
KERNEL_Y_FRACS = (0.0, 0.2, -0.2, 0.7, -0.7, 0.95, -0.95)

# Positivity scan grid; the fractions approaching -1 probe the regime of the
# historically disputed sign.
POSITIVITY_X = (-2.4, -1.3, -0.6, 0.6, 1.3, 2.4)
POSITIVITY_FRACS = (0.0, 0.5, -0.5, 0.9, -0.9, 0.99, -0.99, 0.9999, -0.9999)

# Vanishing-multiplicity consistency: kernel at k = LIMIT_EPS and 2 LIMIT_EPS,
# extrapolated to 0, against the closed forms, 9 points per side.
LIMIT_EPS = 1e-4
LIMIT_K_OTHER = 0.75
LIMIT_X = (0.8, 1.5, 2.2)
LIMIT_FRACS = (-0.6, 0.0, 0.6)

# Dirac-at-zero behaviour: Vf(x) -> f(0) linearly in x.  The linear constant
# is fitted at the coarsest x; the margin absorbs the second-order term,
# whose sign makes the raw coarsest-point constant a slight underestimate.
DELTA_X = (0.1, 0.01, 0.001)
DELTA_MARGIN = 3.0

# Compact support half-width of the registered bump function.
BUMP_SUPPORT = 2.0

# Random-sample count for the Cherednik two-form agreement check.
CHEREDNIK_SAMPLES = 100
CHEREDNIK_SEED = 20260809
