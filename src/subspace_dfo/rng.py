"""Seeded sampling of unit directions and orthonormal subspace bases.

Randomness is threaded through :class:`RngStream` values rather than shared
generator objects.  A stream is an immutable (seed, spawn path) pair: the same
stream always reproduces the same draws, and child streams obtained through
:func:`split_stream` are statistically independent of each other and of their
parent.  This makes replicated experiments bit-reproducible and lets parallel
workers own disjoint streams without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError

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
        if not (0 <= int(self.seed) <= _UINT64_MAX):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if any(k < 0 for k in self.stream):
            raise ValueError(f"stream indices must be nonnegative, got {self.stream}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(ss))


def split_stream(rng: RngStream, k: int) -> RngStream:
    """Return the k-th child stream of ``rng``.

    Children with distinct ``k`` are independent; the same ``k`` always
    returns the same child.
    """
    if k < 0:
        raise ValueError(f"substream index must be nonnegative, got {k}")
    return RngStream(rng.seed, rng.stream + (int(k),))


@dataclass(frozen=True)
class SubspaceBasis:
    """A d-by-p matrix with orthonormal columns spanning a p-dimensional subspace."""

    columns: np.ndarray

    def __post_init__(self) -> None:
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2:
            raise InvalidDimensionError("basis must be a 2-d array of column vectors")
        d, p = cols.shape
        if p < 1 or p > d:
            raise InvalidDimensionError(f"need 1 <= p <= d, got p={p}, d={d}")
        _check_orthonormal(cols)
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @property
    def d(self) -> int:
        return self.columns.shape[0]

    @property
    def p(self) -> int:
        return self.columns.shape[1]


def _check_orthonormal(q: np.ndarray) -> None:
    """Raise unless every matrix of the (..., d, p) stack ``q`` has
    orthonormal columns; one batched product checks the whole stack."""
    gram = np.matmul(np.swapaxes(q, -1, -2), q)
    defect = float(np.max(np.abs(gram - np.eye(q.shape[-1]))))
    if defect > 1e-10:
        raise ValueError(f"columns are not orthonormal: defect {defect!r}")


def sample_unit_vector(d: int, rng: RngStream) -> np.ndarray:
    """Draw a uniformly distributed point on the unit sphere in R^d.

    A standard Gaussian vector is normalized, which is rotation invariant;
    the result is that unit-norm array of d coordinates.
    """
    if d < 1:
        raise InvalidDimensionError(f"dimension must be positive, got {d}")
    gen = rng.generator()
    while True:
        z = gen.standard_normal(d)
        norm = float(np.linalg.norm(z))
        if norm >= _NORM_FLOOR:
            return z / norm


def _orthonormalize(a: np.ndarray) -> list[SubspaceBasis]:
    """Bases from an (n, d, p) stack of Gaussian matrices.

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
    # The bases skip their own check: the one above covered the whole stack.
    bases = []
    for columns in q:
        basis = object.__new__(SubspaceBasis)
        object.__setattr__(basis, "columns", columns)
        bases.append(basis)
    return bases


def _check_stiefel_shape(d: int, p: int) -> None:
    if d < 1 or p < 1 or p > d:
        raise InvalidDimensionError(f"need 1 <= p <= d, got p={p}, d={d}")


def sample_stiefel(d: int, p: int, rng: RngStream) -> SubspaceBasis:
    """Draw a uniformly (rotation-invariantly) distributed orthonormal d-by-p basis.

    A d-by-p standard Gaussian matrix from ``rng`` is orthonormalized by
    sign-corrected thin QR (see ``_orthonormalize``).
    """
    _check_stiefel_shape(d, p)
    a = rng.generator().standard_normal((d, p))
    return _orthonormalize(a[np.newaxis])[0]


def sample_stiefel_stack(
    d: int, p: int, rng: RngStream, start: int, count: int
) -> list[SubspaceBasis]:
    """The bases of the children ``start``, ``start + 1``, ... of ``rng``,
    drawn, factored and checked as one stack.

    The stack holds ``count`` bases, or as many as fit in ``_STACK_VALUES``
    Gaussian values if that is fewer, and always at least one.  Basis i is
    bit for bit ``sample_stiefel(d, p, split_stream(rng, start + i))``: each
    child still draws its d-by-p matrix from its own generator.
    """
    _check_stiefel_shape(d, p)
    if start < 0 or count < 1:
        raise ValueError(f"need start >= 0 and count >= 1, got {start} and {count}")
    n = min(count, max(1, _STACK_VALUES // (d * p)))
    a = np.empty((n, d, p))
    for i in range(n):
        split_stream(rng, start + i).generator().standard_normal((d, p), out=a[i])
    return _orthonormalize(a)
