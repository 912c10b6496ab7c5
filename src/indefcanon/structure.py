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
  imaginary interleavings, together with its closed-form inverse.

It also hosts the structural predicates: the selfadjointness residual in an
indefinite inner product, the conjugate-symmetry check with its fitted
scalar, and structural equality of two specs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotConjugateSymmetricError,
    NotHermitianError,
    SingularInnerProductError,
)
from .linalg import RCOND_FLOOR, mat_norm, rcond, require_finite

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
    ``2 * size`` rows).  ``sign`` is the +-1 sign characteristic, present on
    real blocks only.
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
        object.__setattr__(self, "lam", lam)
        if self.kind == REAL:
            if lam.imag != 0.0:
                raise ValueError("real block must have a real eigenvalue")
            if self.sign not in (-1, 1):
                raise ValueError("real block needs sign +1 or -1")
        else:
            if lam.imag == 0.0:
                raise ValueError("pair block must have a nonreal eigenvalue")
            if self.sign is not None:
                raise ValueError("pair block carries no sign characteristic")

    @property
    def width(self) -> int:
        """Number of rows/columns the block occupies in assembled matrices."""
        return self.size if self.kind == REAL else 2 * self.size


@dataclass(frozen=True)
class JordanSpec:
    """Ordered list of blocks; block order is honored exactly as given."""

    blocks: tuple[BlockSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("spec needs at least one block")

    @property
    def total_size(self) -> int:
        return sum(b.width for b in self.blocks)

    def offsets(self) -> list[tuple[int, BlockSpec]]:
        """Starting column of each block, in order."""
        out, off = [], 0
        for b in self.blocks:
            out.append((off, b))
            off += b.width
        return out


def _block_diag(cells: list[np.ndarray], dtype) -> np.ndarray:
    n = sum(c.shape[0] for c in cells)
    out = np.zeros((n, n), dtype=dtype)
    off = 0
    for c in cells:
        k = c.shape[0]
        out[off:off + k, off:off + k] = c
        off += k
    return out


def _jordan_cell(lam: complex, p: int, dtype=complex) -> np.ndarray:
    return np.diag(np.full(p, lam, dtype=dtype)) + np.diag(np.ones(p - 1, dtype=dtype), 1)


def _sip(p: int) -> np.ndarray:
    return np.fliplr(np.eye(p))


def jordan_form(spec: JordanSpec) -> np.ndarray:
    """Complex Jordan form: per pair block, the eigenvalue block is followed
    by its conjugate block."""
    cells = []
    for b in spec.blocks:
        if b.kind == REAL:
            cells.append(_jordan_cell(b.lam, b.size))
        else:
            cells.append(_block_diag([_jordan_cell(b.lam, b.size),
                                      _jordan_cell(np.conj(b.lam), b.size)], complex))
    return _block_diag(cells, complex)


def sip_form(spec: JordanSpec) -> np.ndarray:
    """Canonical Gram matrix: signed anti-identity per real block, plain
    anti-identity of double size per pair block.  Real, symmetric, and an
    involution (``P @ P = I`` exactly)."""
    cells = []
    for b in spec.blocks:
        if b.kind == REAL:
            cells.append(b.sign * _sip(b.size))
        else:
            cells.append(_sip(2 * b.size))
    return _block_diag(cells, float)


def real_jordan_form(spec: JordanSpec) -> np.ndarray:
    """Real Jordan form: real blocks unchanged; a pair block with eigenvalue
    ``sigma + i tau`` contributes 2x2 cells ``[[sigma, tau], [-tau, sigma]]``
    on the diagonal and identity cells on the superdiagonal."""
    cells = []
    for b in spec.blocks:
        if b.kind == REAL:
            cells.append(_jordan_cell(b.lam.real, b.size, dtype=float))
        else:
            p = b.size
            sg, tu = b.lam.real, b.lam.imag
            cell = np.zeros((2 * p, 2 * p))
            for i in range(p):
                cell[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[sg, tu], [-tu, sg]]
                if i + 1 < p:
                    cell[2 * i:2 * i + 2, 2 * i + 2:2 * i + 4] = np.eye(2)
            cells.append(cell)
    return _block_diag(cells, float)


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
    """Closed-form inverse of :func:`mixing_matrix` (no numerical inversion)."""
    cells = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for b in spec.blocks:
        if b.kind == REAL:
            cells.append(np.eye(b.size, dtype=complex))
            continue
        p = b.size
        cell = np.zeros((2 * p, 2 * p), dtype=complex)
        for i in range(p):
            cell[2 * i, i] = 1.0
            cell[2 * i, p + i] = 1.0j
            cell[2 * i + 1, i] = 1.0j
            cell[2 * i + 1, p + i] = 1.0
        cells.append(cell * inv_sqrt2)
    return _block_diag(cells, complex)


def h_selfadjoint_residual(a: np.ndarray, h: np.ndarray, *,
                           norm: str = "spectral") -> float:
    """Residual ``||h a - a* h||`` certifying selfadjointness of ``a`` in the
    inner product defined by ``h``.

    The multiplication-side form avoids inverting ``h``.  ``h`` must be
    Hermitian within :data:`HERM_TOL` (scaled by its norm) and pass the
    conditioning check; violations raise rather than returning a number that
    would be meaningless.
    """
    a = require_finite(a, "a")
    h = require_finite(h, "h")
    if a.shape != h.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("a and h must be square and of equal size")
    hn = mat_norm(h, norm)
    herm = mat_norm(h - h.conj().T, norm)
    if herm > HERM_TOL * max(1.0, hn):
        raise NotHermitianError(f"h deviates from Hermitian by {herm:.3e}")
    rc = rcond(h)
    if rc < RCOND_FLOOR:
        raise SingularInnerProductError(f"h is numerically singular (rcond={rc:.3e})")
    return mat_norm(h @ a - a.conj().T @ h, norm)


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
        raise NotConjugateSymmetricError("first pair block is zero",
                                         block_index=pair_blocks[0][0],
                                         residual=float("inf"))
    gamma = complex(second[k] / ref[k])

    worst, worst_i = -1.0, None
    for i, off, b in pair_blocks:
        q = n[:, off:off + b.size]
        q2 = n[:, off + b.size:off + 2 * b.size]
        res = mat_norm(q2 - gamma * np.conj(q), norm)
        if res > worst:
            worst, worst_i = float(res), i
    return gamma, worst, worst_i


def conjugate_symmetry_gamma(n: np.ndarray, spec: JordanSpec, *,
                             norm: str = "spectral") -> complex:
    """Fit and verify the conjugate-symmetry scalar of a basis.

    For every pair block ``[Q | Q']`` of ``n`` the second half must equal
    ``gamma * conj(Q)`` for one global nonzero ``gamma``, verified against
    ``CS_TOL * max(1, ||n||)``.  Returns ``gamma``; a spec without pair blocks
    degenerates to 1.

    Raises
    ------
    NotConjugateSymmetricError
        With the offending block index and residual when verification fails.
    """
    gamma, worst, worst_i = conjugate_symmetry_fit(n, spec, norm=norm)
    if gamma == 0.0:
        raise NotConjugateSymmetricError("fitted gamma is zero",
                                         block_index=worst_i, residual=worst)
    scale = max(1.0, mat_norm(n, norm))
    if worst > CS_TOL * scale:
        raise NotConjugateSymmetricError(
            f"block {worst_i} violates conjugate symmetry (residual {worst:.3e})",
            block_index=worst_i, residual=worst)
    return gamma


def same_jordan_structure(a: JordanSpec, b: JordanSpec) -> bool:
    """True when the blocks of ``a`` and ``b`` biject preserving kind, size,
    and the sign multiset of real blocks; eigenvalue values are ignored."""
    def key(spec: JordanSpec):
        reals = sorted((blk.size, blk.sign) for blk in spec.blocks if blk.kind == REAL)
        pairs = sorted(blk.size for blk in spec.blocks if blk.kind == PAIR)
        return reals, pairs

    return key(a) == key(b)
