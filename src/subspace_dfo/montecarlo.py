"""Seeded Monte Carlo estimation of expected one-iteration decrease.

This is the independent check of every formula, closed form and quadrature
alike.  Two sampling modes exist:

* ``reduced`` draws only the random gradient direction and scores its first p
  coordinates (largest absolute coordinate for polling, Euclidean norm for the
  model step).  This is distributionally exact because composing a uniformly
  random basis with a uniformly random direction is again uniform.  The
  direction is a normalized Gaussian z in R^d, and the score reads only
  z_1..z_p and the norm of z.  Since ||z||^2 = ||z_{1:p}||^2 + ||z_{p+1:d}||^2
  with independent chi-square parts, polling draws p normals plus one
  chi-square tail (O(p) per replicate), and the model step, which reads
  only the two squared norms, draws one chi-square each (O(1)).  At p = d
  the tail is exactly zero.
* ``full-basis`` draws the basis as well and scores the projected gradient,
  reproducing the raw two-sample definition at O(d p^2) per replicate.  It
  exists to validate the reduction.  The draw does not depend on the
  variant: one draw fixes the projection Q^T g, and both variants' scores
  (its max-norm and its 2-norm) are read from it, so ``full_basis_estimates``
  scores a cell for both variants at the cost of one.

Replicates are generated in fixed-size blocks, each from its own child
stream, and each block writes its own slice of the result, so the values are
bit-identical however the blocks are scheduled.  A cell whose blocks each
draw at least 2^16 values runs them on a thread pool with one worker per
usable CPU (numpy releases the interpreter lock while it draws and reduces);
smaller cells, which threads would only slow, run serially.  Within a block
the normals are drawn in row chunks, in stream order, of at most 2^18 values
(2 MB) or one replicate's row if that is more: p values when polling, and
d (p + 1) for a full-basis replicate.  A full-basis worker holds about three
such chunks (24 MB at d = p = 1024) and its block's unit gradients, at most
2 * 10^6 values or one row of d.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import _check_pd, _is_int
from .formulas import VARIANTS, Variant
from .rng import RngStream, split_stream

REDUCTIONS = ("reduced", "full-basis")

# How each path draws a replicate; recorded in every run manifest.
SAMPLER = (
    "reduced: ds p normals + chi-square tail, mb chi-square head + tail; "
    "full-basis: R of QR([A, g])"
)

# Replicates per block in reduced mode; full-basis blocks shrink so the
# stacked basis array stays within a fixed memory budget.
_BLOCK = 4096
_FULL_BASIS_BUDGET = 2_000_000
# Most values drawn at once within a block: 2 MB of float64.
_CHUNK = 2**18
# Fewest values one block must draw before blocks go to worker threads.
_PARALLEL_DRAWS = 2**16


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


def _check_cell(p: int, d: int, n_sims: int) -> None:
    _check_pd(p, d)
    if not _is_int(n_sims):
        raise ValueError(f"n_sims must be an integer, got {n_sims!r}")
    if n_sims < 1:
        raise ValueError(f"need at least one replicate, got {n_sims}")


def _max_abs(x: np.ndarray) -> np.ndarray:
    # Row-wise largest |x| without an |x| copy of the array.
    return np.maximum(x.max(axis=1), -x.min(axis=1))


def _polling_scores(gen: np.random.Generator, m: int, ps: tuple[int, ...], d: int) -> list:
    """Largest |z_i| over i <= p, over ||z||, for each p in ps on the same draws.

    Draws the first max(ps) coordinates of z, in row chunks of at most
    ``_CHUNK`` values, then the squared norm of the rest as one chi-square
    with d - max(ps) degrees of freedom: twice a Gamma((d - max(ps))/2) draw,
    which numpy returns as exactly 0 for shape 0.
    """
    cuts = sorted(set(ps))
    top = cuts[-1]
    head_sq = np.empty(m)
    peaks = {p: np.empty(m) for p in cuts}
    rows = max(1, _CHUNK // top)
    for lo in range(0, m, rows):
        head = gen.standard_normal((min(rows, m - lo), top))
        # einsum sums the row products without an (m, top) temporary.
        head_sq[lo : lo + rows] = np.einsum("ij,ij->i", head, head)
        # A running max over the sorted cut points reads each column once;
        # max is exact, so each peak is the float a direct max would give.
        peak = None
        for start, stop in zip([0] + cuts, cuts):
            part = _max_abs(head[:, start:stop])
            peak = part if peak is None else np.maximum(peak, part, out=part)
            peaks[stop][lo : lo + rows] = peak
    norm = np.sqrt(head_sq + 2.0 * gen.standard_gamma((d - top) / 2.0, m))
    return [peaks[p] / norm for p in ps]


def _model_scores(gen: np.random.Generator, m: int, ps: tuple[int, ...], d: int) -> list:
    """||z_{1:p}|| / ||z|| for each p in ps on the same draws.

    The score reads z only through squared norms, so each replicate draws
    one chi-square piece per gap between sorted cut points (in increasing
    order) and one chi-square tail for the d - max(ps) coordinates beyond.
    A zero-width piece or tail is exactly 0, so p = d scores exactly 1 and
    equal cut points score the same float.
    """
    cuts = sorted(ps)
    head_sq = {}
    total = np.zeros(m)
    for lo, hi in zip([0] + cuts, cuts):
        total = total + 2.0 * gen.standard_gamma((hi - lo) / 2.0, m)
        head_sq[hi] = total
    norm_sq = total + 2.0 * gen.standard_gamma((d - max(ps)) / 2.0, m)
    return [np.sqrt(head_sq[p] / norm_sq) for p in ps]


def _full_basis_scores(gen: np.random.Generator, m: int, ps: tuple[int], d: int) -> np.ndarray:
    """Each variant's norm of the unit gradient g projected on a Haar-random
    basis, one row per variant in ``VARIANTS`` order.

    The basis is the Q factor of a Gaussian d-by-p draw A.  Q is never
    formed: the R factor of [A, g] holds Q^T g in the top p entries of its
    last column.  QR fixes each basis vector's sign by convention, which
    neither score can see (both read |Q^T g| only).  g is drawn for the whole
    block first, then A and the QR run in replicate chunks of at most
    ``_CHUNK`` values.  Rounding can push a norm of the unit projection past
    1 (at p = d it is 1 up to rounding), so scores are capped at 1.
    """
    (p,) = ps
    g = gen.standard_normal((m, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    proj = np.empty((m, p))
    rows = max(1, _CHUNK // (d * (p + 1)))
    for lo in range(0, m, rows):
        a = gen.standard_normal((min(rows, m - lo), d, p))
        ag = np.concatenate((a, g[lo : lo + rows, :, None]), axis=2)
        # Raw QR factors a copy of [A, g] and returns it transposed, R_k[i, j]
        # at [k, j, i] for i <= j, without the triangular copy of mode "r".
        proj[lo : lo + rows] = np.linalg.qr(ag, mode="raw")[0][:, p, :p]
    scores = np.array([np.linalg.norm(proj, ord=Variant.named(v).norm, axis=1) for v in VARIANTS])
    return np.minimum(scores, 1.0, out=scores)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(
    scores,
    rows: int,
    ps: tuple[int, ...],
    d: int,
    n_sims: int,
    rng: RngStream,
    block: int,
    draws: int,
) -> np.ndarray:
    """The ``rows`` rows of scores of n_sims replicates, in blocks of ``block``.

    Each block comes from its own child stream and fills its own columns, on
    worker threads when the ``draws`` values one block draws repay them.
    """
    out = np.empty((rows, n_sims))

    def fill(j: int) -> None:
        start = j * block
        m = min(block, n_sims - start)
        out[:, start : start + m] = scores(split_stream(rng, j).generator(), m, ps, d)

    blocks = -(-n_sims // block)
    workers = min(blocks, _usable_cpus())
    if workers > 1 and draws >= _PARALLEL_DRAWS:
        # Imported here: concurrent.futures pulls in logging, which would
        # lengthen every import of the package.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(fill, range(blocks)))
    else:
        for j in range(blocks):
            fill(j)
    return out


def _full_basis_replicates(p: int, d: int, n_sims: int, rng: RngStream) -> np.ndarray:
    """Full-basis replicate values of one (p, d) cell, one row per variant in
    ``VARIANTS`` order, scored on the same draws.

    Blocks shrink so the stacked basis draws stay within a fixed budget.
    """
    _check_cell(p, d, n_sims)
    block = max(1, min(_BLOCK, _FULL_BASIS_BUDGET // (d * p)))
    draws = block * d * (p + 1)
    return _run_blocks(_full_basis_scores, len(VARIANTS), (p,), d, n_sims, rng, block, draws)


def _replicates(
    variant: str, ps: tuple[int, ...], d: int, n_sims: int, rng: RngStream
) -> np.ndarray:
    """Reduced-mode replicate values, one row per cut point in ps, scored on
    common draws."""
    norm = Variant.named(variant).norm
    if not ps:
        raise ValueError("need at least one subspace dimension p, got none")
    for p in ps:
        _check_cell(p, d, n_sims)
    if norm == math.inf:
        # The max-norm reads each of the first max(ps) coordinates.
        draws = _BLOCK * (max(ps) + 1)
        return _run_blocks(_polling_scores, len(ps), ps, d, n_sims, rng, _BLOCK, draws)
    # The 2-norm reads squared norms only, one chi-square per cut point.
    draws = _BLOCK * (len(ps) + 1)
    return _run_blocks(_model_scores, len(ps), ps, d, n_sims, rng, _BLOCK, draws)


def replicate_decreases(
    variant: str,
    p: int,
    d: int,
    n_sims: int,
    rng: RngStream,
    reduction: str = "reduced",
) -> np.ndarray:
    """Per-replicate decrease values, each in [0, 1], in deterministic order.

    Full-basis mode returns the variant's row of ``_full_basis_replicates``.
    """
    if reduction not in REDUCTIONS:
        raise ValueError(f"reduction must be one of {REDUCTIONS}, got {reduction!r}")
    if reduction == "full-basis":
        Variant.named(variant)
        return _full_basis_replicates(p, d, n_sims, rng)[VARIANTS.index(variant)]
    return _replicates(variant, (p,), d, n_sims, rng)[0]


def _summarize(values: np.ndarray) -> tuple[float, float]:
    if values.size < 2:
        raise ValueError(f"a standard error needs at least 2 replicates, got n = {values.size}")
    return float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(values.size))


def estimate(
    variant: str,
    p: int,
    d: int,
    n_sims: int,
    rng: RngStream,
    reduction: str = "reduced",
) -> DecreaseEstimate:
    """Estimate the expected per-iteration decrease with its standard error."""
    mean, std_error = _summarize(replicate_decreases(variant, p, d, n_sims, rng, reduction))
    return DecreaseEstimate(mean, std_error, n_sims, p, d, variant, rng.seed)


def estimates(
    variant: str, ps: tuple[int, ...], d: int, n_sims: int, rng: RngStream
) -> tuple[DecreaseEstimate, ...]:
    """Reduced-mode estimates for each p in ps, in ps order, all scored on
    one draw from ``rng``.

    The draw depends on d and on ps: polling draws the first max(ps)
    coordinates, the model step one chi-square per gap between sorted cut
    points.  ``estimates(v, (p,), d, n_sims, rng)[0]`` equals
    ``estimate(v, p, d, n_sims, rng)`` bit for bit: both are one
    ``_replicates`` call on ps = (p,).
    """
    values = _replicates(variant, ps, d, n_sims, rng)
    return tuple(
        DecreaseEstimate(*_summarize(v), n_sims, p, d, variant, rng.seed)
        for p, v in zip(ps, values)
    )


def full_basis_estimates(
    p: int, d: int, n_sims: int, rng: RngStream
) -> tuple[DecreaseEstimate, ...]:
    """Full-basis estimates of one (p, d) cell for every variant, in
    ``VARIANTS`` order, all scored on one draw.

    Each equals ``estimate(v, p, d, n_sims, rng, "full-basis")`` bit for bit.
    """
    values = _full_basis_replicates(p, d, n_sims, rng)
    return tuple(
        DecreaseEstimate(*_summarize(v), n_sims, p, d, variant, rng.seed)
        for variant, v in zip(VARIANTS, values)
    )


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
    A target ratio of 1 gives the plain paired difference, whose common
    random numbers give it far lower variance than two independent estimates.
    """
    v1, v2 = _replicates(variant, (p1, p2), d, n_sims, rng)
    if per_evaluation:
        record = Variant.named(variant)
        v1 = v1 / record.rounds(p1, 1)
        v2 = v2 / record.rounds(p2, 1)
    return PairedDelta(*_summarize(v2 - target_ratio * v1))
