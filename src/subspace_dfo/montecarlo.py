"""Seeded Monte Carlo estimation of expected one-iteration decrease.

This is both the evaluation path for subspace dimensions beyond the
quadrature cap and the independent check of every closed form.  Two sampling
modes exist:

* ``reduced`` draws only the random gradient direction and scores its first p
  coordinates (largest absolute coordinate for polling, Euclidean norm for the
  model step).  This is distributionally exact because composing a uniformly
  random basis with a uniformly random direction is again uniform.  The
  direction is a normalized Gaussian z in R^d, and the score reads only
  z_1..z_p and the norm of z.  Since ||z||^2 = ||z_{1:p}||^2 + ||z_{p+1:d}||^2
  with the two parts independent, and the second is chi-square with d - p
  degrees of freedom, each replicate draws p normals plus one chi-square
  tail: the same distribution as d normals, at O(p) cost per replicate
  instead of O(d).  At p = d the tail is exactly zero.
* ``full-basis`` draws the basis as well and scores the projected gradient,
  reproducing the raw two-sample definition at O(d p^2) per replicate.  It
  exists to validate the reduction.

Replicates are generated in fixed-size blocks, each from its own child
stream, and reduced in block order, so results are bit-identical whether the
blocks run serially or are dispatched to workers and combined in order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError
from .formulas import VARIANTS
from .rng import RngStream, split_stream

REDUCTIONS = ("reduced", "full-basis")

# How the reduced path draws a replicate; recorded in every run manifest.
SAMPLER = "reduced: p normals + chi-square tail"

# Replicates per block in reduced mode; full-basis blocks shrink so the
# stacked basis array stays within a fixed memory budget.
_BLOCK = 4096
_FULL_BASIS_BUDGET = 2_000_000


def evaluation_cost(variant: str, p: int) -> float:
    """New objective evaluations one iteration consumes.

    Complete polling: 2p.  Model step: p + 1, except p = 1 where the trial
    point reuses the poll point half the time, for 3/2 on average (the same
    3/2 applies to opportunistic polling).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if p < 1:
        raise InvalidDimensionError(f"subspace dimension must be positive, got {p}")
    if variant == "ds":
        return 2.0 * p
    return 1.5 if p == 1 else p + 1.0


@dataclass(frozen=True)
class DecreaseEstimate:
    """Monte Carlo mean with its standard error for one (variant, p, d) cell."""

    mean: float
    std_error: float
    n_sims: int
    p: int
    d: int
    variant: str
    seed: int

    def __post_init__(self) -> None:
        if self.n_sims < 1:
            raise ValueError("need at least one replicate")
        if not (0.0 <= self.mean <= 1.0):
            raise ValueError(f"decrease estimate must lie in [0, 1], got {self.mean!r}")
        if self.std_error < 0.0:
            raise ValueError("standard error cannot be negative")


@dataclass(frozen=True)
class PairedDelta:
    """Difference of two estimates built from common random numbers."""

    delta_mean: float
    delta_std_error: float


def _check_cell(variant: str, p: int, d: int, n_sims: int) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if p < 1 or d < 1 or p > d:
        raise InvalidDimensionError(f"need 1 <= p <= d, got p={p}, d={d}")
    if n_sims < 1:
        raise ValueError(f"need at least one replicate, got {n_sims}")


def _draw_reduced(
    gen: np.random.Generator, m: int, p: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first p coordinates of m Gaussian draws in R^d, and each draw's norm.

    The d - p remaining coordinates enter only through their squared norm, a
    chi-square with d - p degrees of freedom: twice a Gamma((d - p)/2) draw,
    which numpy returns as exactly 0 for shape 0 (p = d).
    """
    head = gen.standard_normal((m, p))
    tail = 2.0 * gen.standard_gamma((d - p) / 2.0, m)
    return head, np.sqrt(_squared_norms(head) + tail)


def _squared_norms(x: np.ndarray) -> np.ndarray:
    # einsum sums the row products without an (m, p) temporary.
    return np.einsum("ij,ij->i", x, x)


def _score_reduced(head: np.ndarray, norm: np.ndarray, variant: str, p: int) -> np.ndarray:
    """Decrease per replicate from the first p head coordinates.

    Scoring the unnormalized coordinates as a ratio keeps the p = d model case
    exact: numerator and denominator are then the same float, so every
    replicate is exactly 1.
    """
    z = head[:, :p]
    if variant == "ds":
        num = np.max(np.abs(z), axis=1)
    else:
        num = np.sqrt(_squared_norms(z))
    return num / norm


def _score_full_basis(gen: np.random.Generator, m: int, variant: str, p: int, d: int) -> np.ndarray:
    g = gen.standard_normal((m, d))
    a = gen.standard_normal((m, d, p))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.einsum("kii->ki", r))
    signs[signs == 0.0] = 1.0
    basis = q * signs[:, None, :]
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    proj = np.einsum("kdp,kd->kp", basis, g)
    if variant == "ds":
        return np.max(np.abs(proj), axis=1)
    return np.linalg.norm(proj, axis=1)


def _block_size(reduction: str, p: int, d: int) -> int:
    if reduction == "reduced":
        return _BLOCK
    return max(1, min(_BLOCK, _FULL_BASIS_BUDGET // (d * p)))


def replicate_decreases(
    variant: str,
    p: int,
    d: int,
    n_sims: int,
    rng: RngStream,
    reduction: str = "reduced",
) -> np.ndarray:
    """Per-replicate decrease values, each in [0, 1], in deterministic order."""
    _check_cell(variant, p, d, n_sims)
    if reduction not in REDUCTIONS:
        raise ValueError(f"reduction must be one of {REDUCTIONS}, got {reduction!r}")
    block = _block_size(reduction, p, d)
    out = np.empty(n_sims)
    for j, start in enumerate(range(0, n_sims, block)):
        m = min(block, n_sims - start)
        gen = split_stream(rng, j).generator()
        if reduction == "reduced":
            out[start : start + m] = _score_reduced(*_draw_reduced(gen, m, p, d), variant, p)
        else:
            out[start : start + m] = _score_full_basis(gen, m, variant, p, d)
    return out


def _summarize(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / np.sqrt(values.size))


def estimate(
    variant: str,
    p: int,
    d: int,
    n_sims: int,
    rng: RngStream,
    reduction: str = "reduced",
) -> DecreaseEstimate:
    """Estimate the expected per-iteration decrease with its standard error."""
    values = replicate_decreases(variant, p, d, n_sims, rng, reduction)
    mean, std_error = _summarize(values)
    return DecreaseEstimate(
        mean=mean, std_error=std_error, n_sims=n_sims, p=p, d=d, variant=variant, seed=rng.seed
    )


def estimate_per_evaluation(
    variant: str,
    p: int,
    d: int,
    n_sims: int,
    rng: RngStream,
    reduction: str = "reduced",
) -> DecreaseEstimate:
    """Estimate the expected decrease per new objective evaluation.

    Divides the per-iteration estimate and its standard error by the
    deterministic evaluation cost of one iteration.
    """
    base = estimate(variant, p, d, n_sims, rng, reduction)
    cost = evaluation_cost(variant, p)
    return DecreaseEstimate(
        mean=base.mean / cost,
        std_error=base.std_error / cost,
        n_sims=base.n_sims,
        p=p,
        d=d,
        variant=variant,
        seed=rng.seed,
    )


def _paired_values(
    variant: str, p1: int, p2: int, d: int, n_sims: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Reduced-mode replicate values for p1 and p2 from the same draws.

    Each replicate draws max(p1, p2) head coordinates and one chi-square tail
    with d - max(p1, p2) degrees of freedom; both scores share its norm.
    """
    _check_cell(variant, p1, d, n_sims)
    _check_cell(variant, p2, d, n_sims)
    top = max(p1, p2)
    v1 = np.empty(n_sims)
    v2 = np.empty(n_sims)
    for j, start in enumerate(range(0, n_sims, _BLOCK)):
        m = min(_BLOCK, n_sims - start)
        head, norm = _draw_reduced(split_stream(rng, j).generator(), m, top, d)
        v1[start : start + m] = _score_reduced(head, norm, variant, p1)
        v2[start : start + m] = _score_reduced(head, norm, variant, p2)
    return v1, v2


def paired_compare(
    variant: str, p1: int, p2: int, d: int, n_sims: int, rng: RngStream
) -> PairedDelta:
    """Estimate the per-evaluation decrease gap between subspace dimensions.

    Uses common random numbers: each replicate scores the same sphere draw at
    both p1 and p2, so the difference of per-evaluation values has far lower
    variance than two independent estimates.  Returns the mean and standard
    error of (per-eval value at p1) - (per-eval value at p2).
    """
    v1, v2 = _paired_values(variant, p1, p2, d, n_sims, rng)
    diffs = v1 / evaluation_cost(variant, p1) - v2 / evaluation_cost(variant, p2)
    mean, std_error = _summarize(diffs)
    return PairedDelta(delta_mean=mean, delta_std_error=std_error)


def paired_ratio_gap(
    variant: str,
    p1: int,
    p2: int,
    d: int,
    target_ratio: float,
    n_sims: int,
    rng: RngStream,
    per_evaluation: bool = False,
) -> PairedDelta:
    """Test statistic for a claimed ratio E[p2, d] / E[p1, d] = target_ratio.

    Scores (value at p2) - target_ratio * (value at p1) on common random
    numbers; if the claimed ratio is exact the mean is zero up to sampling
    noise, and the returned standard error calibrates that noise.  With
    ``per_evaluation`` both sides are first divided by their evaluation costs.
    """
    v1, v2 = _paired_values(variant, p1, p2, d, n_sims, rng)
    if per_evaluation:
        v1 = v1 / evaluation_cost(variant, p1)
        v2 = v2 / evaluation_cost(variant, p2)
    diffs = v2 - target_ratio * v1
    mean, std_error = _summarize(diffs)
    return PairedDelta(delta_mean=mean, delta_std_error=std_error)
