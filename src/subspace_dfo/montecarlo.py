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
  the tail is exactly zero.  Many (p, d) cells can share one draw: a
  Gaussian z in R^max(d), whose first d coordinates are a Gaussian in R^d.
* ``full-basis`` draws the basis as well and scores the projected gradient,
  reproducing the raw two-sample definition.  The basis enters only through
  its p Householder reflections, each drawn fresh and applied to the
  gradient, at O(d p) per replicate.  It exists to validate the reduction.
  The draw does not depend on the variant: one draw fixes the projection
  Q^T g, and both variants' scores (its max-norm and its 2-norm) are read
  from it.  Nor does it depend on p below the widest: reflection k acts on
  coordinates k..d only, so the first p entries after max(p) reflections
  are a p-column projection.  So ``full_basis_estimates`` makes one draw
  per d, read at each p, and scores every (p, d) cell at that d for both
  variants at the cost of the widest one.

Every entry point checks 1 <= p <= d and an integer n_sims >= 2 before any draw.
Replicates are generated in fixed-size blocks, each from its own child
stream, and each block writes its own slice of the result, so the values are
bit-identical however the blocks are scheduled.  A cell whose blocks each
draw at least 2^16 values runs them on a thread pool with one worker per
usable CPU (numpy releases the interpreter lock while it draws and reduces);
smaller cells, which threads would only slow, run serially.  Within a block
the normals are drawn in row chunks, in stream order.  A reduced chunk holds
at most 2^15 values (256 KB), or one row of p if that is more, and every
chunk of a block is drawn into one buffer.  A polling chunk makes one
max-reduction over the segments between its sorted cut points and one
running max along them, not a call per cut point: each numpy call takes the
interpreter lock back, so on worker threads the call count, not the work,
sets the cost.  A full-basis chunk holds
2^15 // d replicates (at least one): their gradients, then one reflection's
normals at a time, each at most 2^15 values or one row of d.  A full-basis
worker holds a few such arrays and its block's projections on the widest
p, at most 2 * 10^6 / d values: about 1 MB in all while d <= 2^15.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import _check_choice, _check_nsims, _check_pd, _check_real, _read_list
from .formulas import VARIANTS, Variant
from .rng import RngStream, split_stream

REDUCTIONS = ("reduced", "full-basis")

# How each path draws a replicate; recorded in every run manifest.
SAMPLER = (
    "reduced: ds p normals + chi-square tail, mb chi-square head + tail; "
    "full-basis: g reflected by max(p) fresh Householder reflections, "
    "one draw per d, read at each p"
)

# Replicates per block in reduced mode.  A full-basis draw is one per d,
# read at each p, and its blocks shrink so each holds at most
# _FULL_BASIS_BUDGET / (d max(p)) replicates, which spreads a costly draw
# over enough blocks to keep every worker busy.
_BLOCK = 4096
_FULL_BASIS_BUDGET = 2_000_000
# Most values one array of a block holds: 256 KB, or one row if that is more.
_CHUNK = 2**15
# Fewest values one block must draw before blocks go to worker threads.
_PARALLEL_DRAWS = 2**16


@dataclass(frozen=True)
class Estimate:
    """Sample mean of Monte Carlo replicate values with its standard error.

    The cell it describes is the arguments of the call that returned it.
    """

    mean: float
    std_error: float


def _row_norms(x: np.ndarray) -> np.ndarray:
    # einsum sums the row products without an x * x temporary.
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _polling_scores(gen: np.random.Generator, cells: tuple, out: np.ndarray) -> None:
    """Largest |z_i| over i <= p, over ||z_{1:d}||, for each (p, d) cell, into
    the rows of ``out`` (one column per replicate), all on one draw of z.

    Draws the first max(p) coordinates of z in row chunks of at most
    ``_CHUNK`` values (or one row), all into one buffer.  A d below that
    head width reads its squared norm off the head's first d columns.  The
    d at or above it add, in increasing order, one chi-square piece per gap
    from the head width: twice a Gamma(gap/2) draw, which numpy returns as
    exactly 0, drawing nothing, for shape 0.  Chunks end on whole rows and
    the buffer fills with the values a fresh array would hold, so the chunk
    size changes no value.

    A chunk finds its peaks in two calls whatever the number of cut points:
    one max-reduction over the segments between sorted cut points, then a
    running max along them.  Worker threads pay per numpy call, since each
    call takes the interpreter lock back, so a call or two per cut point
    would hold them in turn.
    """
    m = out.shape[1]
    cuts = sorted({p for p, _ in cells})
    dims = sorted({d for _, d in cells})
    top = cuts[-1]
    widths = [d for d in dims if d < top] + [top]
    starts = [0] + cuts[:-1]
    head_sq = np.empty((len(widths), m))
    peaks = np.empty((m, len(cuts)))
    rows = min(m, max(1, _CHUNK // top))
    buf = np.empty((rows, top))
    for lo in range(0, m, rows):
        hi = min(m, lo + rows)
        head = buf[: hi - lo]
        gen.standard_normal(out=head)
        # einsum sums the row products without a head * head temporary.
        for sq, width in zip(head_sq, widths):
            np.einsum("ij,ij->i", head[:, :width], head[:, :width], out=sq[lo:hi])
        np.abs(head, out=head)
        # The cuts are sorted and distinct, so no segment is empty.  |x| and
        # max are exact, so each peak is the float a direct max gives.
        np.maximum.reduceat(head, starts, axis=1, out=peaks[lo:hi])
        np.maximum.accumulate(peaks[lo:hi], axis=1, out=peaks[lo:hi])
    norm_sq = dict(zip(widths, head_sq))
    above = [d for d in dims if d >= top]
    for lo, hi in zip([top] + above, above):
        norm_sq[hi] = norm_sq[lo] + 2.0 * gen.standard_gamma((hi - lo) / 2.0, m)
    for row, (p, d) in zip(out, cells):
        np.divide(peaks[:, cuts.index(p)], np.sqrt(norm_sq[d]), out=row)


def _model_scores(gen: np.random.Generator, cells: tuple, out: np.ndarray) -> None:
    """||z_{1:p}|| / ||z_{1:d}|| for each (p, d) cell, into the rows of
    ``out``, all on one draw of z.

    The score reads z only through squared norms, so each replicate draws
    one chi-square piece per gap between the sorted points of every p and
    d, in increasing order.  Equal points draw nothing (numpy returns
    exactly 0 for shape 0), so p = d scores exactly 1.
    """
    m = out.shape[1]
    points = sorted({n for cell in cells for n in cell})
    norm_sq = {0: np.zeros(m)}
    for lo, hi in zip([0] + points, points):
        norm_sq[hi] = norm_sq[lo] + 2.0 * gen.standard_gamma((hi - lo) / 2.0, m)
    for row, (p, d) in zip(out, cells):
        np.sqrt(norm_sq[p] / norm_sq[d], out=row)


def _full_basis_scores(gen: np.random.Generator, cells: tuple, out: np.ndarray) -> None:
    """Each variant's norm of the unit gradient g projected on a Haar-random
    basis at each p of the cell set (ps, d), into the rows of ``out``: for
    each p in ``ps`` order, one row per variant in ``VARIANTS`` order.

    The basis Q is never formed.  It is H_1 ... H_p [I_p; 0], a product of
    Householder reflections, and Q^T g is the first p entries of
    H_p ... H_1 g, so the sampler reflects g p times (Stewart 1980).
    Householder QR of a Gaussian d-by-p draw A builds Q the same way, and
    after reflection k the part of A it has not yet touched is again a
    Gaussian matrix, independent of the reflections before it.  So
    reflection k + 1 is drawn fresh from d - k normals x, as the unit
    vector along x + sign(x_1) ||x|| e_1 (LAPACK's sign), acting on
    coordinates k + 1 ... d.  This is Q's law up to the sign of each
    column, which neither score can see (both read |Q^T g| only), at
    O(d p) work and d + p d - p (p - 1) / 2 normals per replicate.

    One draw serves every p: it makes max(p) reflections, and since
    reflection k leaves the first k - 1 entries alone, the first p entries
    of the result are those after p reflections.  So each p reads a prefix
    of one draw, and the widest p reads what a draw for it alone gives.

    Replicates run in chunks of ``_CHUNK // d`` rows (at least
    one).  Each chunk draws its rows of g, then each reflection's normals
    in order.  Rounding can push a norm of the unit projection past 1 (at
    p = d it is 1 up to rounding), so scores are capped at 1.
    """
    ps, d = cells
    top = max(ps)
    m = out.shape[1]
    proj = np.empty((m, top))
    rows = max(1, _CHUNK // d)
    for lo in range(0, m, rows):
        y = gen.standard_normal((min(rows, m - lo), d))
        y /= _row_norms(y)[:, None]
        for k in range(top):
            v = gen.standard_normal((len(y), d - k))
            v[:, 0] += np.copysign(_row_norms(v), v[:, 0])
            v /= _row_norms(v)[:, None]
            tail = y[:, k:]
            tail -= 2.0 * np.einsum("ij,ij->i", v, tail)[:, None] * v
        proj[lo : lo + rows] = y[:, :top]
    for row, (p, v) in zip(out, itertools.product(ps, VARIANTS)):
        norm = Variant.named(v).norm
        np.minimum(np.linalg.norm(proj[:, :p], ord=norm, axis=1), 1.0, out=row)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(
    scores, rows: int, cells: tuple, n_sims: int, rng: RngStream, block: int, draws: int
) -> np.ndarray:
    """The ``rows`` rows of scores of n_sims replicates, in blocks of ``block``.

    Each block comes from its own child stream and ``scores`` writes its
    own columns, on worker threads when the ``draws`` values one block draws
    repay them.
    """
    out = np.empty((rows, n_sims))

    def fill(j: int) -> None:
        start = j * block
        scores(split_stream(rng, j).generator(), cells, out[:, start : start + block])

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


def _full_basis_replicates(
    ps: Iterable[int], d: int, n_sims: int, rng: RngStream
) -> np.ndarray:
    """Full-basis replicate values at each p of ``ps`` at one d, indexed
    [p in ``ps`` order, variant in ``VARIANTS`` order, replicate], all scored
    on one draw.

    ``ps`` is read once; an empty or repeated list, or a p outside 1..d, is
    refused before any draw.  Blocks shrink as d max(p) grows, so a costly
    draw spans several blocks.
    """
    ps = _read_list(ps, "ps", check=lambda p: _check_pd(p, d))
    _check_nsims(n_sims)
    top = max(ps)
    block = max(1, min(_BLOCK, _FULL_BASIS_BUDGET // (d * top)))
    draws = block * (d + top * d - top * (top - 1) // 2)
    rows = len(ps) * len(VARIANTS)
    values = _run_blocks(_full_basis_scores, rows, (ps, d), n_sims, rng, block, draws)
    return values.reshape(len(ps), len(VARIANTS), n_sims)


def _replicates(variant: str, cells: Iterable, n_sims: int, rng: RngStream) -> np.ndarray:
    """Reduced-mode replicate values, one row per (p, d) cell, scored on one
    draw (see ``estimates``)."""
    norm = Variant.named(variant).norm
    cells = tuple(cells)
    if not cells or not all(isinstance(cell, tuple) and len(cell) == 2 for cell in cells):
        raise ValueError(f"cells must be a non-empty list of (p, d) pairs, got {cells!r}")
    for p, d in cells:
        _check_pd(p, d)
    _check_nsims(n_sims)
    if norm == math.inf:
        # The max-norm draws each of the first max(p) coordinates and one
        # chi-square piece per d above them.
        top = max(p for p, _ in cells)
        draws = _BLOCK * (top + len({d for _, d in cells if d > top}))
        return _run_blocks(_polling_scores, len(cells), cells, n_sims, rng, _BLOCK, draws)
    # The 2-norm reads squared norms only, one chi-square per gap between the
    # sorted distinct p and d.
    draws = _BLOCK * len({n for cell in cells for n in cell})
    return _run_blocks(_model_scores, len(cells), cells, n_sims, rng, _BLOCK, draws)


def replicate_decreases(
    variant: str,
    p: int,
    d: int,
    n_sims: int,
    rng: RngStream,
    reduction: str = "reduced",
) -> np.ndarray:
    """Per-replicate decrease values, each in [0, 1], in deterministic order.

    Full-basis mode returns the variant's row of ``_full_basis_replicates``
    at the one p.
    """
    _check_choice(reduction, REDUCTIONS, "reduction")
    if reduction == "full-basis":
        Variant.named(variant)
        return _full_basis_replicates((p,), d, n_sims, rng)[0, VARIANTS.index(variant)]
    return _replicates(variant, ((p, d),), n_sims, rng)[0]


def _summarize(values: np.ndarray) -> Estimate:
    return Estimate(float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(values.size)))


def estimate(
    variant: str,
    p: int,
    d: int,
    n_sims: int,
    rng: RngStream,
    reduction: str = "reduced",
) -> Estimate:
    """Estimate the expected per-iteration decrease with its standard error."""
    return _summarize(replicate_decreases(variant, p, d, n_sims, rng, reduction))


def estimates(
    variant: str, cells: Iterable[tuple[int, int]], n_sims: int, rng: RngStream
) -> tuple[Estimate, ...]:
    """Reduced-mode estimates for each (p, d) cell, in ``cells`` order, all
    scored on one draw from ``rng``.

    ``cells`` is read once, so an iterator works; an empty list, or a cell
    that is not a pair of integers with 1 <= p <= d, is refused before any
    draw, and a repeated cell gets the same estimate twice.  The draw is one
    Gaussian z in R^max(d), and a cell at d reads z's first d coordinates,
    which are a Gaussian in R^d, so each cell's law is exact.  The values
    depend on the whole cell set: polling draws the first max(p) coordinates
    and one chi-square per gap between the d at or above max(p), the model
    step one chi-square per gap between the sorted p and d.
    ``estimates(v, [(p, d)], n_sims, rng)[0]`` equals
    ``estimate(v, p, d, n_sims, rng)`` bit for bit: both are one
    ``_replicates`` call on that one cell.
    """
    return tuple(map(_summarize, _replicates(variant, cells, n_sims, rng)))


def full_basis_estimates(
    ps: Iterable[int], d: int, n_sims: int, rng: RngStream
) -> tuple[tuple[Estimate, ...], ...]:
    """Full-basis estimates at each p of ``ps`` at one d: one tuple per p, in
    ``ps`` order, of one estimate per variant, in ``VARIANTS`` order, all
    scored on one draw per d, read at each p.

    ``ps`` is read once, so an iterator works; an empty or repeated list,
    or a p outside 1..d, is refused before any draw.  The draw makes max(p)
    reflections in blocks sized by d max(p), so the values depend on the
    widest p, not on the others: the widest p's estimates equal
    ``estimate(v, max(ps), d, n_sims, rng, "full-basis")`` bit for bit, and
    a narrower p reads the leading entries of that draw's projection.
    """
    values = _full_basis_replicates(ps, d, n_sims, rng)
    return tuple(tuple(map(_summarize, rows)) for rows in values)


def paired_ratio_gap(
    variant: str, p1: int, p2: int, d: int, target_ratio: float, n_sims: int, rng: RngStream
) -> Estimate:
    """Test statistic for a claimed ratio E[p2, d] / E[p1, d] = target_ratio.

    Scores (value at p2) - target_ratio * (value at p1) on common random
    numbers; if the claimed ratio is exact the mean is zero up to sampling
    noise, and the returned standard error calibrates that noise.  A claim
    per evaluation, v2 / r2 = t v1 / r1 with r the evaluation costs, is the
    same test, with the same z, at target t r2 / r1.  A target ratio of 1
    gives the plain paired difference, whose common random numbers give it
    far lower variance than two independent estimates.  A ``target_ratio``
    that is not a finite real is refused before any draw.
    """
    _check_real(target_ratio, "target_ratio")
    v1, v2 = _replicates(variant, ((p1, d), (p2, d)), n_sims, rng)
    return _summarize(v2 - target_ratio * v1)
