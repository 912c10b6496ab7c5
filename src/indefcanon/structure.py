"""Jordan structure descriptions and the canonical target matrices built from them.

A :class:`JordanSpec` lists the blocks of the structure: real-eigenvalue
blocks carry a sign characteristic, nonreal eigenvalues come as conjugate
pairs described by a single ``pair`` block holding one representative.
From a spec this module builds

* the complex Jordan form (one bidiagonal block per real eigenvalue, a
  direct sum of the two conjugate blocks per pair),
* the canonical Gram matrix, block-diagonal with anti-identity (sip)
  blocks, signed on real blocks,
* the real Jordan form, with 2x2 rotation-like cells on pair blocks,
* the fixed block-diagonal unitary coupling conjugate chains into real and
  imaginary interleavings.

Each of these forms is memoized for the last spec it was built for and
returned read-only.

It also hosts the structural predicates: the selfadjointness residual in an
indefinite inner product and the conjugate-symmetry fit with its scalar.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .errors import (
    NotConjugateSymmetricError,
    NotHermitianError,
    SingularInnerProductError,
)
from .linalg import (
    RCOND_FLOOR,
    exchange,
    gate_norm,
    mat_norm,
    mat_norms,
    norm_and_rcond,
    require_finite,
)

REAL = "real"
PAIR = "pair"

#: ``h`` may deviate from Hermitian by this fraction of ``max(1, ||h||)``.
HERM_TOL = 1e-10

#: Conjugate-symmetry residuals, and drifts of the fitted scalar, are
#: accepted up to this fraction of the basis (or scalar) scale.
CS_TOL = 1e-8


@dataclass(frozen=True)
class BlockSpec:
    """One block of a Jordan structure.

    ``kind`` is ``"real"`` or ``"pair"``.  ``lam`` is the eigenvalue; pair
    blocks store one representative of the conjugate pair and ``size`` is
    the dimension of a single Jordan block (a pair block therefore occupies
    ``2 * size`` rows).  ``sign`` is the +-1 sign characteristic, an int,
    present on real blocks only.  ``width``, derived at construction, is the
    number of rows/columns the block occupies in assembled matrices.
    """

    kind: str
    lam: complex
    size: int
    sign: int | None = None

    def __post_init__(self):
        if self.kind not in (REAL, PAIR):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("block size must be >= 1")
        lam = complex(self.lam)
        if not cmath.isfinite(lam):
            raise ValueError(f"eigenvalue must be finite, got {lam}")
        object.__setattr__(self, "lam", lam)
        if self.kind == REAL:
            if lam.imag != 0.0:
                raise ValueError("real block must have a real eigenvalue")
            if self.sign not in (-1, 1):
                raise ValueError("real block needs sign +1 or -1")
            object.__setattr__(self, "sign", int(self.sign))
        else:
            if lam.imag == 0.0:
                raise ValueError("pair block must have a nonreal eigenvalue")
            if self.sign is not None:
                raise ValueError("pair block carries no sign characteristic")
        object.__setattr__(self, "width", self.size if self.kind == REAL else 2 * self.size)


@dataclass(frozen=True)
class JordanSpec:
    """Ordered list of blocks; block order is honored exactly as given.

    ``total_size`` and :meth:`offsets` are derived once, at construction.
    """

    blocks: tuple[BlockSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("spec needs at least one block")
        out, off = [], 0
        for b in self.blocks:
            out.append((off, b))
            off += b.width
        object.__setattr__(self, "_offsets", tuple(out))
        object.__setattr__(self, "total_size", off)

    def offsets(self) -> tuple[tuple[int, BlockSpec], ...]:
        """Starting column of each block, in order."""
        return self._offsets


def _block_diag(cells: list[np.ndarray], dtype) -> np.ndarray:
    n = sum(c.shape[0] for c in cells)
    out = np.zeros((n, n), dtype=dtype)
    off = 0
    for c in cells:
        k = c.shape[0]
        out[off:off + k, off:off + k] = c
        off += k
    return out


def _scatter(n: int, dtype, rows: list[int], cols: list[int], vals: list) -> np.ndarray:
    """n x n zeros with ``vals`` at the positions ``(rows, cols)``."""
    out = np.zeros((n, n), dtype=dtype)
    out[rows, cols] = vals
    return out


def _form(build):
    """Memoize a form of the last spec asked for, as a read-only array.

    A strict experiment asks for the same spec's forms on every trial; a
    weak one shifts the spec every time, and a single entry keeps at most
    one n x n form per function alive either way.
    """
    @lru_cache(maxsize=1)
    @wraps(build)
    def cached(spec: JordanSpec) -> np.ndarray:
        out = build(spec)
        out.flags.writeable = False
        return out
    return cached


@_form
def jordan_form(spec: JordanSpec) -> np.ndarray:
    """Complex Jordan form: per pair block, the eigenvalue block is followed
    by its conjugate block."""
    rows, cols, vals = [], [], []
    for off, b in spec.offsets():
        cells = [(off, b.lam)]
        if b.kind == PAIR:
            cells.append((off + b.size, b.lam.conjugate()))
        for start, lam in cells:
            k = range(start, start + b.size)
            # each diagonal entry is the eigenvalue added to a zero, as in a
            # sum of diagonal and superdiagonal matrices, so a -0.0 part of
            # it enters the form as +0.0
            rows += k
            cols += k
            vals += [lam + 0j] * b.size
            rows += k[:-1]
            cols += k[1:]
            vals += [1.0] * (b.size - 1)
    return _scatter(spec.total_size, complex, rows, cols, vals)


@_form
def sip_form(spec: JordanSpec) -> np.ndarray:
    """Canonical Gram matrix: signed anti-identity per real block, plain
    anti-identity of double size per pair block.  Real, symmetric, and an
    involution (``P @ P = I`` exactly)."""
    cells = []
    for b in spec.blocks:
        if b.kind == REAL:
            cells.append(b.sign * exchange(b.size))
        else:
            cells.append(exchange(2 * b.size))
    return _block_diag(cells, float)


@_form
def real_jordan_form(spec: JordanSpec) -> np.ndarray:
    """Real Jordan form: real blocks unchanged; a pair block with eigenvalue
    ``sigma + i tau`` contributes 2x2 cells ``[[sigma, tau], [-tau, sigma]]``
    on the diagonal and identity cells on the superdiagonal."""
    rows, cols, vals = [], [], []
    for off, b in spec.offsets():
        k = range(off, off + b.width)
        rows += k
        cols += k
        if b.kind == REAL:
            # "+ 0.0" as in jordan_form
            vals += [b.lam.real + 0.0] * b.size
            rows += k[:-1]
            cols += k[1:]
            vals += [1.0] * (b.size - 1)
            continue
        sg, tu = b.lam.real, b.lam.imag
        vals += [sg] * b.width
        even = k[::2]
        odd = k[1::2]
        rows += even
        cols += odd
        vals += [tu] * b.size
        rows += odd
        cols += even
        vals += [-tu] * b.size
        rows += k[:-2]
        cols += k[2:]
        vals += [1.0] * (b.width - 2)
    return _scatter(spec.total_size, float, rows, cols, vals)


@_form
def mixing_matrix(spec: JordanSpec) -> np.ndarray:
    """Block-diagonal unitary taking the complex canonical pair to the real one.

    Identity on real blocks.  On a pair block of size ``p`` the 2p x 2p cell
    interleaves the conjugate chains: row ``i`` of the top half carries
    ``(1, -i)/sqrt(2)`` at columns ``2i, 2i+1``, row ``i`` of the bottom half
    carries ``(-i, 1)/sqrt(2)`` there.
    """
    cells = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for b in spec.blocks:
        if b.kind == REAL:
            cells.append(np.eye(b.size, dtype=complex))
            continue
        p = b.size
        cell = np.zeros((2 * p, 2 * p), dtype=complex)
        for i in range(p):
            cell[i, 2 * i] = 1.0
            cell[i, 2 * i + 1] = -1.0j
            cell[p + i, 2 * i] = -1.0j
            cell[p + i, 2 * i + 1] = 1.0
        cells.append(cell * inv_sqrt2)
    return _block_diag(cells, complex)


def mixing_matrix_inv(spec: JordanSpec) -> np.ndarray:
    """Inverse of the unitary :func:`mixing_matrix`: its conjugate transpose."""
    return mixing_matrix(spec).conj().T


def h_selfadjoint_residual(a: np.ndarray, h: np.ndarray, *,
                           norm: str = "spectral") -> float:
    """Residual ``||h a - a* h||`` certifying selfadjointness of ``a`` in the
    inner product defined by ``h``, measured in ``norm``.

    The multiplication-side form avoids inverting ``h``.  ``h`` must be
    Hermitian within :data:`HERM_TOL` (scaled by its spectral norm, as every
    gate decides) and pass the conditioning check; violations raise rather
    than returning a number that would be meaningless.
    """
    a = require_finite(a, "a")
    h = require_finite(h, "h")
    return mat_norm(_selfadjoint_defect(a, h, *norm_and_rcond(h)), norm)


def _selfadjoint_defect(a: np.ndarray, h: np.ndarray, h_norm: float,
                        h_rcond: float) -> np.ndarray:
    """The matrix ``h a - a* h`` behind :func:`h_selfadjoint_residual`,
    after its shape, Hermitian and conditioning gates on ``h``.  ``h_norm``
    (spectral) and ``h_rcond`` are the caller's, so one singular-value call
    on ``h`` can serve the caller as well."""
    if a.shape != h.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("a and h must be square and of equal size")
    herm_limit = HERM_TOL * max(1.0, h_norm)
    herm = gate_norm(h - h.conj().T, herm_limit)
    if herm > herm_limit:
        raise NotHermitianError(f"h deviates from Hermitian by {herm:.3e}")
    if h_rcond < RCOND_FLOOR:
        raise SingularInnerProductError(f"h is numerically singular (rcond={h_rcond:.3e})")
    return h @ a - a.conj().T @ h


def conjugate_symmetry_fit(n: np.ndarray, spec: JordanSpec, *,
                           norm: str = "spectral") -> tuple[complex, float, int | None]:
    """Fit the conjugate-symmetry scalar of a basis without judging it.

    The scalar is estimated from the largest-magnitude entry of the first
    pair block (avoiding division by near-zero entries), then the deviation
    ``||second_half - gamma * conj(first_half)||`` is measured on every pair
    block.  Returns ``(gamma, worst_residual, worst_block_index)``; a spec
    without pair blocks degenerates to ``(1, 0.0, None)``.
    """
    n = require_finite(n, "basis")
    if n.shape != (spec.total_size, spec.total_size):
        raise ValueError("basis size does not match spec")
    pair_blocks = [(i, off, b) for i, (off, b) in enumerate(spec.offsets())
                   if b.kind == PAIR]
    if not pair_blocks:
        return 1.0 + 0.0j, 0.0, None

    _, off0, b0 = pair_blocks[0]
    first = n[:, off0:off0 + b0.size]
    second = n[:, off0 + b0.size:off0 + 2 * b0.size]
    ref = np.conj(first)
    k = np.unravel_index(np.argmax(np.abs(ref)), ref.shape)
    if abs(ref[k]) == 0.0:
        raise NotConjugateSymmetricError("first pair block is zero")
    gamma = complex(second[k] / ref[k])

    residuals = mat_norms([n[:, off + b.size:off + 2 * b.size]
                           - gamma * np.conj(n[:, off:off + b.size])
                           for _, off, b in pair_blocks], norm)
    worst, worst_i = -1.0, None
    for (i, _, _), res in zip(pair_blocks, residuals):
        if res > worst:
            worst, worst_i = res, i
    return gamma, worst, worst_i
