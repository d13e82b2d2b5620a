"""Expected one-iteration decrease of random-subspace derivative-free steps.

The quantities here answer: applying one iteration of coordinate polling
("ds") or of a linear-model step ("mb") inside a uniformly random
p-dimensional subspace of R^d, to a linear objective whose unit gradient is
uniformly random, with unit step size, what objective decrease do we get on
average?  Every such decrease separates as dim(d) * pf(p), the dimension
factor dim(d) = Gamma(d/2)/Gamma(d/2+1/2) = ``gamma_half_ratio(d)`` common to
both variants times a p-factor pf(p) that tells them apart:

* polling reduces to the mean largest absolute coordinate among the first p
  coordinates of a random point on the sphere S^{d-1}.  Writing that point as
  z/||z|| for a standard Gaussian z, whose norm is independent of its
  direction, pf(p) = ``polling_factor(p)`` = E[max_{i<=p} |z_i|]/sqrt(2), a
  one-dimensional integral over the distribution of the maximum evaluated
  here by quadrature for every p (closed forms exist for p = 1 and p = 2);
* the model step reduces to the mean Euclidean norm of the first p
  coordinates, which collapses to pf(p) = 1/``gamma_half_ratio(p)``.

One frozen ``Variant`` record per variant, looked up by name with
``Variant.named``, holds every difference between the two.  Per-evaluation
values divide by the new objective evaluations an iteration consumes, which
is its number of evaluation rounds on one core; the parallel value divides by
its rounds on a given number of cores.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

from numpy.polynomial.legendre import leggauss

from .errors import DomainError, InvalidDimensionError
from .specfun import SQRT_PI, gamma_half_ratio

METHOD_CLOSED = "closed-form"
METHOD_QUADRATURE = "quadrature"
METHOD_ASYMPTOTIC = "asymptotic"
_METHODS = (METHOD_CLOSED, METHOD_QUADRATURE, METHOD_ASYMPTOTIC)

# Error attributed to closed forms evaluated through log-gamma differences.
_CLOSED_FORM_ERROR = 1e-12
# Relative error bound of polling_factor; against adaptive quadrature and the
# p <= 4 closed forms it is within 5e-16 for p from 1 to 1e100.
_QUADRATURE_ERROR = 1e-14

# Composite Gauss-Legendre rule for polling_factor: 20 nodes per panel.  One
# rule with hundreds of nodes is no substitute, because numpy's nodes lose
# accuracy at large n.  Panels cluster around the bulk of the maximum,
# sqrt(2 ln p), at offsets in units of its spread 1/sqrt(2 ln p); beyond
# sqrt(2 (ln p + 45)) the integrand is below p * exp(-(ln p + 45)) = e^-45.
_GL_NODES, _GL_WEIGHTS = leggauss(20)
_PANEL_OFFSETS = (-8, -4, -2, -1, 0, 1, 2, 4, 8)
_TAIL_LOG = 45.0


def _check_pd(p: int, d: int) -> None:
    if p < 1 or d < 1 or p > d:
        raise InvalidDimensionError(f"need 1 <= p <= d, got p={p}, d={d}")


@dataclass(frozen=True)
class FormulaResult:
    """Expected decrease per iteration (or per evaluation) for one (p, d) cell."""

    value: float
    method: str
    p: int
    d: int
    estimated_abs_error: float

    def __post_init__(self) -> None:
        _check_pd(self.p, self.d)
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not (0.0 < self.value <= 1.0):
            raise ValueError(f"expected decrease must lie in (0, 1], got {self.value!r}")
        if self.estimated_abs_error < 0.0:
            raise ValueError("error estimate must be nonnegative")


def _one_minus_cdf_max(x: float, p: int) -> float:
    """P(max_{i<=p} |z_i| > x) = 1 - erf(x/sqrt2)^p, without cancellation."""
    u = x / math.sqrt(2.0)
    log_cdf = math.log(math.erf(u)) if u < 1.0 else math.log1p(-math.erfc(u))
    return -math.expm1(p * log_cdf)


@functools.lru_cache(maxsize=None)
def polling_factor(p: int) -> float:
    """E[max_{i<=p} |z_i|] / sqrt(2) for independent standard normals z_i.

    The polling decrease is this times the dimension factor.  The mean is
    the integral over x >= 0 of P(max |z_i| > x), evaluated by composite
    Gauss-Legendre quadrature; it equals 1/sqrt(pi) at p = 1 and
    sqrt(2/pi) at p = 2.
    """
    if p < 1:
        raise InvalidDimensionError(f"subspace dimension must be positive, got {p}")
    log_p = math.log(p)
    top = math.sqrt(2.0 * (log_p + _TAIL_LOG))
    centre = math.sqrt(2.0 * log_p)
    width = 1.0 / max(centre, 1.0)
    inner = {min(max(centre + k * width, 0.0), top) for k in _PANEL_OFFSETS}
    edges = sorted(inner | {0.0, top})
    panels = []
    for lo, hi in zip(edges, edges[1:]):
        half, mid = (hi - lo) / 2.0, (hi + lo) / 2.0
        values = [_one_minus_cdf_max(mid + half * x, p) for x in _GL_NODES]
        panels.append(half * float(_GL_WEIGHTS @ values))
    return math.fsum(panels) / math.sqrt(2.0)


def expected_decrease_ds(p: int, d: int) -> FormulaResult:
    """Expected per-iteration decrease of complete coordinate polling.

    Closed forms cover p = 1 and p = 2; every larger p multiplies the
    dimension factor by the quadrature value of ``polling_factor(p)``.  The
    degenerate one-dimensional problem returns exactly 1.
    """
    _check_pd(p, d)
    if p == 1 and d == 1:
        return FormulaResult(1.0, METHOD_CLOSED, p, d, 0.0)
    ratio = gamma_half_ratio(d).value
    if p == 1:
        return FormulaResult(ratio / SQRT_PI, METHOD_CLOSED, p, d, _CLOSED_FORM_ERROR)
    if p == 2:
        return FormulaResult(
            math.sqrt(2.0) * ratio / SQRT_PI, METHOD_CLOSED, p, d, _CLOSED_FORM_ERROR
        )
    value = ratio * polling_factor(p)
    err = (_CLOSED_FORM_ERROR + _QUADRATURE_ERROR) * value
    return FormulaResult(value, METHOD_QUADRATURE, p, d, err)


def expected_decrease_mb(p: int, d: int) -> FormulaResult:
    """Expected per-iteration decrease of the linear-model step.

    Closed form Gamma(d/2) Gamma(p/2+1/2) / (Gamma(d/2+1/2) Gamma(p/2)),
    evaluated as the shared dimension factor times a p-only factor so that
    ratios between subspace dimensions cancel the dimension factor cleanly.
    The full-dimensional case is exactly 1.
    """
    _check_pd(p, d)
    if p == d:
        return FormulaResult(1.0, METHOD_CLOSED, p, d, 0.0)
    value = gamma_half_ratio(d).value / gamma_half_ratio(p).value
    return FormulaResult(value, METHOD_CLOSED, p, d, _CLOSED_FORM_ERROR)


def _divided(result: FormulaResult, by: float) -> FormulaResult:
    return FormulaResult(
        result.value / by, result.method, result.p, result.d, result.estimated_abs_error / by
    )


@dataclass(frozen=True)
class Variant:
    """Everything that tells polling ("ds") from the model step ("mb").

    ``exact`` is the per-iteration decrease dim(d) * pf(p) and ``p_factor``
    its pf(p).  One iteration evaluates ``points`` new points per subspace
    direction (an opposite pair when polling, one forward difference for the
    model step) and ``trial`` trial points.  Its decrease is the ``norm`` of
    the unit gradient projected on the subspace: the max-norm when polling,
    the 2-norm for the model step.
    ``sweep_d`` and ``sweep_cores`` are the defaults of its parallel sweep.
    """

    name: str
    exact: Callable[[int, int], FormulaResult]
    p_factor: Callable[[int], float]
    points: int
    trial: int
    norm: float
    sweep_d: int
    sweep_cores: tuple[int, ...]

    @classmethod
    def named(cls, name: str) -> Variant:
        """The record of the variant called ``name``."""
        if name not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {name!r}")
        return _RECORDS[name]

    def rounds(self, p: int, cores: int) -> float:
        """Evaluation rounds one iteration needs on ``cores`` parallel cores.

        The points * p direction points take ceil(points * p / cores) rounds,
        and the trial point one more.  At p = 1 the trial point coincides
        with the already-evaluated poll point half the time, so it costs 1/2
        on average no matter how many cores are available.  On one core the
        rounds are the new objective evaluations of the iteration.
        """
        if p < 1:
            raise InvalidDimensionError(f"subspace dimension must be positive, got {p}")
        if cores < 1:
            raise DomainError(f"core count must be positive, got {cores}")
        trial = self.trial / 2.0 if p == 1 else self.trial
        return float(-((-self.points * p) // cores)) + trial

    def per_work(self, p: int, d: int, cores: int) -> FormulaResult:
        """Expected decrease per evaluation round on ``cores`` cores."""
        return _divided(self.exact(p, d), self.rounds(p, cores))

    def sweep_step(self, cores: int) -> int:
        """Spacing of the sweep's p grid: the directions one round covers."""
        return max(cores // self.points, 1)


def _model_factor(p: int) -> float:
    return 1.0 / gamma_half_ratio(p).value


_POLLING = Variant(
    "ds", expected_decrease_ds, polling_factor,
    points=2, trial=0, norm=math.inf, sweep_d=64, sweep_cores=(2, 4, 8),
)
_MODEL = Variant(
    "mb", expected_decrease_mb, _model_factor,
    points=1, trial=1, norm=2.0, sweep_d=128, sweep_cores=(1, 2, 4, 8),
)
VARIANTS = (_POLLING.name, _MODEL.name)
_RECORDS = dict(zip(VARIANTS, (_POLLING, _MODEL)))


def per_evaluation_ds(p: int, d: int, opportunistic: bool = False) -> FormulaResult:
    """Expected decrease per new objective evaluation for coordinate polling.

    Complete polling evaluates 2p points per iteration.  Opportunistic polling
    accepts the first improving point of each opposite pair; on a linear
    objective the first pair already improves, costing 3/2 evaluations on
    average for the decrease of the p = 1 case, so the value is independent
    of p.
    """
    _check_pd(p, d)
    if opportunistic:
        value = (2.0 / (3.0 * SQRT_PI)) * gamma_half_ratio(d).value
        return FormulaResult(value, METHOD_CLOSED, p, d, _CLOSED_FORM_ERROR)
    return _POLLING.per_work(p, d, 1)


def per_evaluation_mb(p: int, d: int) -> FormulaResult:
    """Expected decrease per new objective evaluation for the linear-model step.

    The step costs p + 1 evaluations (p for the forward differences, one for
    the trial point), except at p = 1 where the trial point coincides with the
    already-evaluated poll point half the time, for an average cost of 3/2.
    """
    return _MODEL.per_work(p, d, 1)


def parallel_rounds(p: int, cores: int, variant: str) -> float:
    """Evaluation rounds one iteration needs on ``cores`` parallel cores.

    Complete polling batches its 2p points into ceil(2p/c) rounds.  The model
    step needs ceil(p/c) rounds for the forward differences plus one for the
    trial point, or 3/2 in all at p = 1 (see ``Variant.rounds``).  At c = 1
    this is the number of new objective evaluations one iteration consumes.
    """
    return Variant.named(variant).rounds(p, cores)


def parallel_per_work(p: int, d: int, cores: int, variant: str) -> FormulaResult:
    """Expected decrease per batched evaluation round on ``cores`` parallel cores."""
    return Variant.named(variant).per_work(p, d, cores)


def asymptotic_decrease(p: int, d: int, variant: str) -> FormulaResult:
    """Large-d limit of the per-iteration decrease, evaluated at d.

    The dimension factor tends to sqrt(2/d), so the limit is sqrt(2/d) * pf(p)
    at every p.  It lies below the exact value by a relative gap of about
    1/(4d), whatever p is: 0.25% at d = 100.
    """
    record = Variant.named(variant)
    _check_pd(p, d)
    value = math.sqrt(2.0 / d) * record.p_factor(p)
    return FormulaResult(value, METHOD_ASYMPTOTIC, p, d, _CLOSED_FORM_ERROR)
