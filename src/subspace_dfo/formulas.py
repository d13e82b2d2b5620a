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
``Variant.named``, holds every difference between the two and gives a
variant's numbers by its name: ``exact(p, d)`` per iteration (this is
``expected_decrease_ds`` or ``expected_decrease_mb``, both public and called
directly where the variant is fixed), ``per_work(p, d, cores)`` per
evaluation round on ``cores`` cores (at one core, per new objective
evaluation) and ``asymptotic(p, d)`` for the large-d limit.  Every value is a
plain float; each exact and asymptotic decrease is checked to lie in (0, 1].
Opportunistic polling, whose per-evaluation value no record holds, has
``per_evaluation_opportunistic``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

from numpy.polynomial.legendre import leggauss

from .errors import _check_cores, _check_pd, _check_positive
from .specfun import SQRT_PI, gamma_half_ratio

# Composite Gauss-Legendre rule for polling_factor: 20 nodes per panel.  One
# rule with hundreds of nodes is no substitute, because numpy's nodes lose
# accuracy at large n.  Panels cluster around the bulk of the maximum,
# sqrt(2 ln p), at offsets in units of its spread 1/sqrt(2 ln p); beyond
# sqrt(2 (ln p + 45)) the integrand is below p * exp(-(ln p + 45)) = e^-45.
_GL_NODES, _GL_WEIGHTS = leggauss(20)
_PANEL_OFFSETS = (-8, -4, -2, -1, 0, 1, 2, 4, 8)
_TAIL_LOG = 45.0


def _checked(value: float) -> float:
    """``value`` itself, after checking that it is a decrease in (0, 1]."""
    if not (0.0 < value <= 1.0):
        raise ValueError(f"expected decrease must lie in (0, 1], got {value!r}")
    return value


def _one_minus_cdf_max(x: float, p: int) -> float:
    """P(max_{i<=p} |z_i| > x) = 1 - erf(x/sqrt2)^p, without cancellation."""
    u = x / math.sqrt(2.0)
    log_cdf = math.log(math.erf(u)) if u < 1.0 else math.log1p(-math.erfc(u))
    return -math.expm1(p * log_cdf)


# Typed, so that True and 2.0 miss the cached values of 1 and 2 and are refused.
@functools.lru_cache(maxsize=None, typed=True)
def polling_factor(p: int) -> float:
    """E[max_{i<=p} |z_i|] / sqrt(2) for independent standard normals z_i.

    The polling decrease is this times the dimension factor.  The mean is
    the integral over x >= 0 of P(max |z_i| > x), evaluated by composite
    Gauss-Legendre quadrature; it equals 1/sqrt(pi) at p = 1 and
    sqrt(2/pi) at p = 2.
    """
    _check_positive(p, "subspace dimension")
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


def expected_decrease_ds(p: int, d: int) -> float:
    """Expected per-iteration decrease of complete coordinate polling.

    Closed forms cover p = 1 and p = 2; every larger p multiplies the
    dimension factor by the quadrature value of ``polling_factor(p)``.  The
    degenerate one-dimensional problem returns exactly 1.
    """
    _check_pd(p, d)
    if p == 1 and d == 1:
        value = 1.0
    elif p == 1:
        value = gamma_half_ratio(d) / SQRT_PI
    elif p == 2:
        value = math.sqrt(2.0) * gamma_half_ratio(d) / SQRT_PI
    else:
        value = gamma_half_ratio(d) * polling_factor(p)
    return _checked(value)


def expected_decrease_mb(p: int, d: int) -> float:
    """Expected per-iteration decrease of the linear-model step.

    Closed form Gamma(d/2) Gamma(p/2+1/2) / (Gamma(d/2+1/2) Gamma(p/2)),
    evaluated as the shared dimension factor times a p-only factor so that
    ratios between subspace dimensions cancel the dimension factor cleanly.
    The full-dimensional case is exactly 1.
    """
    _check_pd(p, d)
    value = 1.0 if p == d else gamma_half_ratio(d) / gamma_half_ratio(p)
    return _checked(value)


def per_evaluation_opportunistic(p: int, d: int) -> float:
    """Expected decrease per new objective evaluation of opportunistic polling.

    Opportunistic polling accepts the first improving point of each opposite
    pair; on a linear objective the first pair already improves, costing 3/2
    evaluations on average for the decrease of the p = 1 case, so the value
    is independent of p.
    """
    _check_pd(p, d)
    return _checked((2.0 / (3.0 * SQRT_PI)) * gamma_half_ratio(d))


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
    exact: Callable[[int, int], float]
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
        _check_positive(p, "subspace dimension")
        _check_cores(cores)
        trial = self.trial / 2.0 if p == 1 else self.trial
        return float(-((-self.points * p) // cores)) + trial

    def per_work(self, p: int, d: int, cores: int) -> float:
        """Expected decrease per evaluation round on ``cores`` cores; at one
        core, per new objective evaluation."""
        return self.exact(p, d) / self.rounds(p, cores)

    def asymptotic(self, p: int, d: int) -> float:
        """Large-d limit of the per-iteration decrease, evaluated at d.

        The dimension factor tends to sqrt(2/d), so the limit is
        sqrt(2/d) * pf(p) at every p.  It lies below the exact value by a
        relative gap of about 1/(4d), whatever p is: 0.25% at d = 100.
        """
        _check_pd(p, d)
        return _checked(math.sqrt(2.0 / d) * self.p_factor(p))

    def sweep_step(self, cores: int) -> int:
        """Spacing of the sweep's p grid: the directions one round covers."""
        return max(cores // self.points, 1)


def _model_factor(p: int) -> float:
    return 1.0 / gamma_half_ratio(p)


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
