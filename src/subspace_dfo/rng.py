"""Seeded sampling of unit directions and orthonormal subspace bases.

A unit direction is a plain array of d coordinates, and a basis is a
read-only d-by-p float array whose columns are orthonormal.

Randomness is threaded through :class:`RngStream` values rather than shared
generator objects.  A stream is an immutable (seed, spawn path) pair: the same
stream always reproduces the same draws, and child streams obtained through
:func:`split_stream` are statistically independent of each other and of their
parent.  This makes replicated experiments bit-reproducible and lets parallel
workers own disjoint streams without coordination.

A sequence of bases, such as the bases of a complete-polling or model-step
optimizer run, is read from one generator (``_bases``), and an opportunistic
polling run reads unit directions from one (``_unit_directions``), each made
orthonormal to its iteration's earlier ones by Gram-Schmidt, the process
sign-corrected QR performs, so they have the joint law of a basis's columns.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import _check_pd, _check_positive, _is_int

_UINT64_MAX = 2**64 - 1

# Re-draw guard for the measure-zero event of a numerically zero Gaussian draw.
_NORM_FLOOR = 1e-300

# Most Gaussian values one stack of bases draws and factors at once (128 KB).
_STACK_VALUES = 2**14


@dataclass(frozen=True)
class RngStream:
    """Value-like handle for a reproducible random stream.

    ``seed`` is the user-facing 64-bit seed; ``stream`` is the spawn path of
    indices accumulated by :func:`split_stream`.  Generators are materialized
    on demand from a counter-based bit generator (Philox keyed through
    ``SeedSequence``), so holding or copying a stream never consumes state.
    """

    seed: int
    stream: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not _is_int(self.seed) or not (0 <= self.seed <= _UINT64_MAX):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        stream = self.stream
        if not isinstance(stream, tuple) or not all(_is_int(k) and k >= 0 for k in stream):
            raise ValueError(f"stream indices must be nonnegative integers, got {stream!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(ss))


def split_stream(rng: RngStream, k: int) -> RngStream:
    """Return the k-th child stream of ``rng``.

    Children with distinct ``k`` are independent; the same ``k`` always
    returns the same child.
    """
    if not _is_int(k) or k < 0:
        raise ValueError(f"substream index must be a nonnegative integer, got {k!r}")
    return RngStream(rng.seed, rng.stream + (int(k),))


def _check_orthonormal(q: np.ndarray) -> None:
    """Raise unless every matrix of the (..., d, p) stack ``q`` has
    orthonormal columns; one batched product checks the whole stack."""
    gram = np.matmul(np.swapaxes(q, -1, -2), q)
    _check_defect(float(np.max(np.abs(gram - np.eye(q.shape[-1])))))


def _check_defect(defect: float) -> None:
    # Written so that a NaN defect, from a zero or non-finite column, fails.
    if not defect <= 1e-10:
        raise ValueError(f"columns are not orthonormal: defect {defect!r}")


def sample_unit_vector(d: int, rng: RngStream) -> np.ndarray:
    """Draw a uniformly distributed point on the unit sphere in R^d.

    A standard Gaussian vector is normalized, which is rotation invariant;
    the result is that unit-norm array of d coordinates.
    """
    _check_positive(d, "dimension")
    gen = rng.generator()
    while True:
        z = gen.standard_normal(d)
        norm = float(np.linalg.norm(z))
        if norm >= _NORM_FLOOR:
            return z / norm


def _orthonormalize(a: np.ndarray) -> np.ndarray:
    """The read-only (n, d, p) stack of bases from an (n, d, p) stack of
    Gaussian matrices.

    Each matrix is reduced by thin QR and each column is multiplied by the
    sign of the corresponding diagonal entry of the triangular factor.  The
    sign correction is required for exact uniformity; plain QR output is
    biased because the factorization pins the diagonal signs.  LAPACK
    factors every matrix of the stack on its own, so a basis does not depend
    on the stack it was drawn in.
    """
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    q *= signs[:, np.newaxis, :]
    _check_orthonormal(q)
    q.setflags(write=False)
    return q


def sample_stiefel(d: int, p: int, rng: RngStream) -> np.ndarray:
    """Draw a uniformly (rotation-invariantly) distributed orthonormal basis,
    a read-only d-by-p array.

    The first d-by-p block of Gaussian values from ``rng`` is orthonormalized
    by sign-corrected thin QR (see ``_orthonormalize``): it is the first basis
    ``_bases`` reads from ``rng.generator()``.
    """
    return next(_bases(d, p, rng.generator()))


def _bases(
    d: int, p: int, gen: np.random.Generator, limit: Callable[[], int] | None = None
) -> Iterator[np.ndarray]:
    """The bases of ``gen``, one at a time, endlessly: basis k is the k-th
    d-by-p block of its normals, orthonormalized, whatever the stacks of
    :func:`_normal_stacks` they are drawn, factored and checked in."""
    _check_pd(p, d)
    for stack in _normal_stacks(gen, (d, p), limit):
        yield from _orthonormalize(stack)


def _unit_directions(d: int, gen: np.random.Generator) -> Iterator[np.ndarray]:
    """The normalized Gaussian d-vectors of ``gen``, one at a time, endlessly,
    drawn in the stacks of :func:`_normal_stacks` and checked for unit norm
    to 1e-10 a stack at a time."""
    for stack in _normal_stacks(gen, (d,)):
        stack /= np.linalg.norm(stack, axis=1)[:, np.newaxis]
        _check_defect(float(np.max(np.abs(np.einsum("ij,ij->i", stack, stack) - 1.0))))
        yield from stack


def _normal_stacks(
    gen: np.random.Generator, shape: tuple[int, ...], limit: Callable[[], int] | None = None
) -> Iterator[np.ndarray]:
    """Stacks of standard normal arrays of ``shape`` from ``gen``, endlessly.

    The first stack holds one array and each refill doubles the last, capped
    at as many arrays as fit in ``_STACK_VALUES`` values (at least one) and
    at ``limit()``, read at each refill and at least 1, when it is given.  So
    a caller that stops early has drawn fewer unused arrays than it used, and
    none if ``limit()`` never exceeds the arrays it goes on to use.
    """
    cap = max(1, _STACK_VALUES // math.prod(shape))
    n = 1
    while True:
        n = min(n, cap) if limit is None else min(n, cap, limit())
        if n < 1:
            raise ValueError(f"need a limit >= 1, got {n}")
        yield gen.standard_normal((n, *shape))
        n *= 2


def _orthonormal_extension(earlier: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``z`` made orthonormal to the orthonormal rows of ``earlier``, of which
    there is at least one.

    Two passes of classical Gram-Schmidt remove the components along the
    rows, and the result is renormalized; the second pass restores the
    orthogonality that the first loses to rounding.  The new direction is
    checked against every row, and for unit norm, to 1e-10.
    """
    for _ in range(2):
        z = z - (earlier @ z) @ earlier
    b = z / math.sqrt(z @ z)
    _check_defect(max(abs(b @ b - 1.0), float(np.max(np.abs(earlier @ b)))))
    return b
