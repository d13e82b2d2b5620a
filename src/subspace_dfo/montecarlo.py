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
  exists to validate the reduction.

Replicates are generated in fixed-size blocks, each from its own child
stream, and each block writes its own slice of the result, so the values are
bit-identical however the blocks are scheduled.  A cell whose blocks each
draw at least 2^16 values runs them on a thread pool with one worker per
usable CPU (numpy releases the interpreter lock while it draws and reduces);
smaller cells, which threads would only slow, run serially.  Within a block
the normals are drawn in row chunks of at most 2^18 values (2 MB), in
stream order, so a block's memory stays bounded whatever p and d are.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import _check_pd
from .formulas import Variant
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
    top = max(ps)
    head_sq = np.empty(m)
    peaks = np.empty((len(ps), m))
    rows = max(1, _CHUNK // top)
    for lo in range(0, m, rows):
        head = gen.standard_normal((min(rows, m - lo), top))
        # einsum sums the row products without an (m, top) temporary.
        head_sq[lo : lo + rows] = np.einsum("ij,ij->i", head, head)
        for peak, p in zip(peaks, ps):
            peak[lo : lo + rows] = _max_abs(head[:, :p])
    norm = np.sqrt(head_sq + 2.0 * gen.standard_gamma((d - top) / 2.0, m))
    return [peak / norm for peak in peaks]


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


def _full_basis_scores(
    norm: float, gen: np.random.Generator, m: int, ps: tuple[int], d: int
) -> np.ndarray:
    """The ``norm`` of the unit gradient g projected on a Haar-random basis.

    The basis is the Q factor of a Gaussian d-by-p draw A.  Q is never
    formed: the R factor of [A, g] holds Q^T g in the top p entries of its
    last column.  QR fixes each basis vector's sign by convention, which
    neither score can see (both read |Q^T g| only).  g is drawn for the whole
    block first, then A and the QR run in replicate chunks of at most
    ``_CHUNK`` values.
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
    return np.linalg.norm(proj, ord=norm, axis=1)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _replicates(
    variant: str, ps: tuple[int, ...], d: int, n_sims: int, rng: RngStream, reduction: str
) -> np.ndarray:
    """Replicate values, one row per cut point in ps, scored on common draws.

    Blocks of replicates each come from their own child stream and fill
    their own columns, on worker threads when a block draws enough values
    to repay them.  Full-basis mode scores a single cut point, in blocks
    shrunk so the stacked basis draws stay within a fixed budget.
    """
    norm = Variant.named(variant).norm
    for p in ps:
        _check_cell(p, d, n_sims)
    if reduction not in REDUCTIONS:
        raise ValueError(f"reduction must be one of {REDUCTIONS}, got {reduction!r}")
    if reduction == "full-basis":
        block = max(1, min(_BLOCK, _FULL_BASIS_BUDGET // (d * ps[0])))
        draws, scores = block * d * (ps[0] + 1), partial(_full_basis_scores, norm)
    elif norm == math.inf:
        # The max-norm reads each of the first max(ps) coordinates.
        block, draws, scores = _BLOCK, _BLOCK * (max(ps) + 1), _polling_scores
    else:
        # The 2-norm reads squared norms only, one chi-square per cut point.
        block, draws, scores = _BLOCK, _BLOCK * (len(ps) + 1), _model_scores
    out = np.empty((len(ps), n_sims))

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


def replicate_decreases(
    variant: str,
    p: int,
    d: int,
    n_sims: int,
    rng: RngStream,
    reduction: str = "reduced",
) -> np.ndarray:
    """Per-replicate decrease values, each in [0, 1], in deterministic order."""
    return _replicates(variant, (p,), d, n_sims, rng, reduction)[0]


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
    v1, v2 = _replicates(variant, (p1, p2), d, n_sims, rng, "reduced")
    if per_evaluation:
        record = Variant.named(variant)
        v1 = v1 / record.rounds(p1, 1)
        v2 = v2 / record.rounds(p2, 1)
    return PairedDelta(*_summarize(v2 - target_ratio * v1))
