"""Construction of flipped-orthogonal conjugate-symmetric (FOCS) bases.

Starting from per-block Jordan chains, the basis is assembled as a product
of four factors, each of which keeps the conjugate-symmetry intact while
moving the Gram matrix one step closer to its canonical sip form:

1. symmetrize: real-block chains (already sip-reduced) and pair blocks
   ``[L | gamma conj(L)]`` are stacked into the chain factor; the Gram then
   has the anti-triangular Hankel pair-block shape,
2. phase: a diagonal factor rotates each pair-block Gram anchor onto the
   positive real axis,
3. scale: a scalar factor per pair block normalizes the anchor to 1,
4. flip correction: a unit-triangular Toeplitz factor per pair block zeroes
   the sub-anti-diagonal Gram entries via a finite inverse-square-root
   series, landing the Gram exactly on the sip form.

Every factor beyond the first commutes with the Jordan form, so the product
remains a Jordan basis throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chains import (
    STRUCT_RTOL,
    jordan_chains,
    reduce_real_chain,
    toeplitz_inv_sqrt,
)
from .errors import (
    NotRealError,
    PureImaginaryAnchorError,
    SingularBasisError,
    StructureMismatchError,
)
from .linalg import (
    DEFAULT_TOL,
    RCOND_FLOOR,
    _norm_lower_bound,
    affiliation_residuals,
    anti_diagonal_mean,
    exchange,
    gate_norm,
    mat_norm,
    max_imag,
    norm_and_rcond,
    require_finite,
)
from .structure import (
    CS_TOL,
    PAIR,
    REAL,
    JordanSpec,
    _selfadjoint_defect,
    conjugate_symmetry_fit,
    jordan_form,
    sip_form,
)

ROLE_FO = "fo"
ROLE_FOCS = "focs"
ROLE_RC = "rc"

#: Anchors with |Re g0| below this fraction of |g0| are rejected as purely imaginary.
ANCHOR_TOL = 1e-10

#: When the prospective Gram anchor of a pair chain lies within this
#: fraction of the imaginary axis, the chain is pre-rotated by
#: ``e^{i pi/4}``, moving the anchor decisively off the axis.
#: The rotation is a chain relabeling; anchors that are still degenerate
#: afterwards raise :class:`PureImaginaryAnchorError`.
PHASE_GUARD = 0.1


@dataclass(frozen=True)
class GramAnchor:
    """Anti-diagonal Gram entry of one pair block, split into polar pieces.

    ``r = |g0|``, ``s = |Re g0|``, ``phi = arg g0`` in (-pi, pi], derived at
    construction, which raises :class:`PureImaginaryAnchorError` for an
    anchor the phase step cannot use: zero, or ``s <= ANCHOR_TOL * r``.
    """

    g0: complex
    block_index: int
    r: float = field(init=False)
    s: float = field(init=False)
    phi: float = field(init=False)

    def __post_init__(self):
        g0 = complex(self.g0)
        r, s = abs(g0), abs(g0.real)
        if r == 0.0:
            raise PureImaginaryAnchorError(
                f"pair block {self.block_index} has zero Gram anchor",
                block_index=self.block_index)
        if s <= ANCHOR_TOL * r:
            raise PureImaginaryAnchorError(
                f"pair block {self.block_index} Gram anchor {g0:.6e} is numerically "
                "purely imaginary; the phase step divides by |Re g0|",
                block_index=self.block_index)
        # np.angle(g0) without its wrapper
        phi = float(np.arctan2(g0.imag, g0.real))
        for name, value in (("g0", g0), ("r", r), ("s", s), ("phi", phi)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Certificate:
    """Residuals certifying a canonical basis against its target pair."""

    similarity: float
    congruence: float
    cs_residual: float | None = None
    max_imag: float | None = None


@dataclass(frozen=True)
class CanonicalBasis:
    """An invertible basis matrix tagged with its role and certificates.

    ``eps`` lists the spec's sign characteristic per block (None on pair
    blocks), which the construction confirms.  ``gamma`` is the fitted
    conjugate-symmetry scalar where the role implies one.
    """

    matrix: np.ndarray
    role: str
    gamma: complex | None
    cert: Certificate
    eps: tuple[int | None, ...]


@dataclass(frozen=True)
class PipelineTrace:
    """The four factors and three intermediate Grams of one basis
    construction; the FOCS basis is their product ``Z1 Z2 Z3 Z4``."""

    chain_factor: np.ndarray      # Z1
    phase_factor: np.ndarray      # Z2
    scale_factor: np.ndarray      # Z3
    flip_factor: np.ndarray       # Z4
    gram_raw: np.ndarray
    gram_phased: np.ndarray
    gram_scaled: np.ndarray


def phase_step(anchor: GramAnchor, p: int) -> np.ndarray:
    """Diagonal 2p x 2p factor rotating the pair-block anchor onto the
    positive real axis: ``diag(e^{-i phi/2} sqrt(s/r) I, e^{+i phi/2} sqrt(s/r) I)``."""
    amp = np.sqrt(anchor.s / anchor.r)
    a = amp * np.exp(-0.5j * anchor.phi)
    b = amp * np.exp(+0.5j * anchor.phi)
    out = np.zeros((2 * p, 2 * p), dtype=complex)
    out[:p, :p] = a * np.eye(p)
    out[p:, p:] = b * np.eye(p)
    return out


def scale_step(anchor: GramAnchor, p: int) -> np.ndarray:
    """Scalar 2p x 2p factor ``(1/sqrt(s)) I`` normalizing the anchor to 1."""
    return np.eye(2 * p, dtype=complex) / np.sqrt(anchor.s)


def flip_step(gram_pair_block: np.ndarray) -> np.ndarray:
    """Unit-Toeplitz 2p x 2p factor zeroing sub-anti-diagonal Gram entries.

    The lower-left part ``G2`` of the pair-block Gram (anti-triangular
    Hankel with unit anti-diagonal) is flipped into a unit lower-triangular
    Toeplitz matrix; its inverse square root ``F`` then satisfies
    ``F_up^T G2 F_up = sip`` with ``F_up = F^T``, and the block factor is
    ``diag(F_up, conj(F_up))``.
    """
    gram_pair_block = np.asarray(gram_pair_block)
    if gram_pair_block.shape[0] % 2:
        raise ValueError("pair-block Gram must have even size")
    p = gram_pair_block.shape[0] // 2
    g2 = gram_pair_block[p:, :p]
    f = toeplitz_inv_sqrt(g2 @ exchange(p))
    f_up = f.T
    out = np.zeros((2 * p, 2 * p), dtype=complex)
    out[:p, :p] = f_up
    out[p:, p:] = np.conj(f_up)
    return out


def symmetrize_step(spec: JordanSpec, chains: list[np.ndarray],
                    gamma: complex) -> tuple[np.ndarray, float]:
    """Assemble the chain factor ``Z1`` from reduced real chains and
    symmetrized pair blocks ``[L | gamma conj(L)]``.  ``chains`` holds one
    chain matrix per block of ``spec``, a real block's already reduced.

    Returns ``(Z1, ||Z1||_2)``; the norm comes from the singular-value call
    of the conditioning check.

    Raises
    ------
    SingularBasisError
        When the assembled factor fails the conditioning check.
    """
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    cols = []
    for b, l in zip(spec.blocks, chains):
        if b.kind == REAL:
            cols.append(l.astype(complex))
        else:
            cols.append(np.concatenate([l, gamma * np.conj(l)], axis=1))
    z1 = np.concatenate(cols, axis=1)
    z1_norm, rc = norm_and_rcond(z1)
    if rc < RCOND_FLOOR:
        raise SingularBasisError(f"chain basis is numerically singular (rcond={rc:.3e})")
    return z1, z1_norm


def _anchor_g0(gram: np.ndarray, off: int, p: int) -> complex:
    """The Gram anchor of the pair block at ``off``, of size ``p``: the
    anti-diagonal mean of its lower-left p x p part, the conjugate chain
    against chain inner products."""
    return complex(anti_diagonal_mean(gram[off + p:off + 2 * p, off:off + p]))


def _check_gram_structure(gram: np.ndarray, spec: JordanSpec,
                          stol: float) -> None:
    """Verify the post-symmetrize Gram shape: block diagonal, signed sip on
    real blocks, zero diagonal sub-blocks and anti-triangular Hankel
    cross part on pair blocks."""
    leak = gram.copy()
    for off, b in spec.offsets():
        w = b.width
        leak[off:off + w, off:off + w] = 0.0
    leak_norm = gate_norm(leak, stol)
    if leak_norm > stol:
        raise StructureMismatchError(
            f"Gram is not block diagonal (leak {leak_norm:.3e} > {stol:.3e})")
    for i, (off, b) in enumerate(spec.offsets()):
        blk = gram[off:off + b.width, off:off + b.width]
        if b.kind == REAL:
            target = b.sign * exchange(b.size)
            dev = gate_norm(blk - target, stol)
            if dev > stol:
                raise StructureMismatchError(
                    f"real block {i} Gram deviates from signed sip by {dev:.3e}")
            continue
        p = b.size
        x, u = blk[:p, :p], blk[p:, p:]
        y, z = blk[:p, p:], blk[p:, :p]
        if gate_norm(x, stol) > stol or gate_norm(u, stol) > stol:
            raise StructureMismatchError(
                f"pair block {i} Gram has nonzero diagonal sub-blocks")
        if gate_norm(y - z.conj().T, stol) > stol:
            raise StructureMismatchError(
                f"pair block {i} Gram is not Hermitian across halves")
        # Python scalars: the same complex arithmetic as numpy's, cheaper
        zl = z.tolist()
        for r in range(p):
            for c in range(p):
                if r + c < p - 1 and abs(zl[r][c]) > stol:
                    raise StructureMismatchError(
                        f"pair block {i} Gram has mass above the anti-diagonal")
                if r + 1 < p and c >= 1 and abs(zl[r][c] - zl[r + 1][c - 1]) > stol:
                    raise StructureMismatchError(
                        f"pair block {i} Gram is not Hankel")


def _check_pair_shape(a: np.ndarray, h: np.ndarray, spec: JordanSpec) -> None:
    """Reject a pair that is not two square matrices of one size, or whose
    size is not the size of ``spec``."""
    if a.shape != h.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("a and h must be square and of equal size")
    if a.shape[0] != spec.total_size:
        raise StructureMismatchError(
            f"matrix size {a.shape} does not match spec size {spec.total_size}")


def _real_pair(a: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real parts of ``a`` and ``h``, refusing an imaginary part beyond
    rounding: the conjugate-symmetric synthesis needs conj(chain) to be the
    chain of the conjugate eigenvalue, which holds for real pairs only."""
    for name, m in (("a", a), ("h", h)):
        imag = max_imag(m)
        # the norm takes an SVD, which a real matrix skips
        if imag and imag > STRUCT_RTOL * max(1.0, mat_norm(m)):
            raise NotRealError(
                f"{name} has imaginary part {imag:.3e}; the "
                "conjugate-symmetric construction needs a real pair")
    return np.real(a), np.real(h)


def focs_basis(a: np.ndarray, h: np.ndarray, spec: JordanSpec,
               gamma: complex = 1.0, *,
               tol: float = DEFAULT_TOL,
               chains: tuple | None = None) -> tuple[CanonicalBasis, PipelineTrace]:
    """Construct a gamma-FOCS basis of the real h-selfadjoint matrix ``a``.

    The returned basis takes ``(a, h)`` to the canonical pair of ``spec``
    and its pair blocks satisfy ``second_half = gamma' conj(first_half)``
    with ``|gamma'| = |gamma|`` (for cold starts ``gamma'`` equals ``gamma``
    up to roundoff).  The trace carries the four factors and intermediate
    Grams for factor-wise diagnostics.

    Parameters
    ----------
    tol : float
        The certificate gate: similarity and congruence residuals, like
        every gate here in the spectral norm, must be within
        ``tol * max(1, ||h||)``.  Must be finite and positive; a NaN
        or infinite ``tol`` would pass every basis.
    chains : tuple, optional
        What ``jordan_chains(a, spec)`` returns, when the caller already has
        it, or a chain-preserving recombination of it; taken here when None.
    """
    a = require_finite(a, "a")
    h = require_finite(h, "h")
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    gamma = complex(gamma)
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    _check_pair_shape(a, h, spec)
    a, h = _real_pair(a, h)

    # one singular-value call on h serves every gate below and the
    # selfadjointness pre-check
    h_norm, h_rcond = norm_and_rcond(h)
    defect = _selfadjoint_defect(a, h, h_norm, h_rcond)
    # the pre-check decides on a lower bound of ||a|| and the Frobenius
    # bound of the residual first
    pre_tol = STRUCT_RTOL * max(1.0, _norm_lower_bound(a) * h_norm)
    pre = gate_norm(defect, pre_tol)
    if pre > pre_tol:
        pre_tol = STRUCT_RTOL * max(1.0, mat_norm(a) * h_norm)
        if pre > pre_tol:
            raise StructureMismatchError(
                f"pair is not h-selfadjoint (residual {pre:.3e} > {pre_tol:.3e})")

    if chains is None:
        chains = jordan_chains(a, spec)
    prepared = []
    for i, (b, mat) in enumerate(zip(spec.blocks, chains)):
        if b.kind == REAL:
            mat, sign = reduce_real_chain(mat, h, h_norm)
            if sign != b.sign:
                raise StructureMismatchError(
                    f"block {i}: computed sign characteristic {sign:+d} "
                    f"contradicts declared {b.sign:+d}")
        else:
            # prospective anchor; rotate the chain off the degenerate axis
            z = (gamma * np.conj(mat)).conj().T @ h @ mat
            g0 = complex(anti_diagonal_mean(z))
            if abs(g0) > 0.0 and abs(g0.real) < PHASE_GUARD * abs(g0):
                mat = mat * np.exp(0.25j * np.pi)
        prepared.append(mat)

    z1, z1_norm = symmetrize_step(spec, prepared, gamma)
    n_dim = spec.total_size
    stol = STRUCT_RTOL * max(1.0, h_norm * z1_norm ** 2)

    gram0 = z1.conj().T @ h @ z1
    _check_gram_structure(gram0, spec, stol)

    # (block index, offset, size, rows) of each pair block
    pairs = [(i, off, b.size, slice(off, off + b.width))
             for i, (off, b) in enumerate(spec.offsets()) if b.kind == PAIR]
    # the three factors start as identities, filled block by block
    z4 = np.eye(n_dim, dtype=complex)
    z2 = z4.copy()
    z3 = z4.copy()
    for i, off, p, rows in pairs:
        anc = GramAnchor(_anchor_g0(gram0, off, p), i)
        z2[rows, rows] = phase_step(anc, p)
        z3[rows, rows] = scale_step(anc, p)

    gram1 = z2.conj().T @ gram0 @ z2
    for i, off, p, _ in pairs:
        g1 = _anchor_g0(gram1, off, p)
        if abs(g1.imag) > stol or g1.real <= 0.0:
            raise StructureMismatchError(
                f"pair block {i} anchor {g1:.3e} not real positive after phase step")

    gram2 = z3.conj().T @ gram1 @ z3
    for i, off, p, rows in pairs:
        g2 = _anchor_g0(gram2, off, p)
        if abs(g2 - 1.0) > stol:
            raise StructureMismatchError(
                f"pair block {i} anchor {g2:.3e} not unit after scale step")
        z4[rows, rows] = flip_step(gram2[rows, rows])

    basis_mat = z1 @ z2 @ z3 @ z4
    p_target = sip_form(spec)
    gram_final = z4.conj().T @ gram2 @ z4
    final_dev = gate_norm(gram_final - p_target, stol)
    if final_dev > stol:
        raise StructureMismatchError(
            f"final Gram deviates from sip form by {final_dev:.3e}")

    sim, cong = affiliation_residuals(a, h, basis_mat, jordan_form(spec), p_target)
    if max(sim, cong) > tol * max(1.0, h_norm):
        raise StructureMismatchError(
            f"constructed basis misses its certificate gate: similarity "
            f"{sim:.3e}, congruence {cong:.3e} vs tol {tol:.1e}")
    gamma_out, cs_res, _ = conjugate_symmetry_fit(basis_mat, spec)
    if pairs and abs(abs(gamma_out) - abs(gamma)) > CS_TOL * abs(gamma):
        raise StructureMismatchError(
            f"conjugate-symmetry scalar drifted in modulus: requested "
            f"|{gamma}| = {abs(gamma):.6g}, got {abs(gamma_out):.6g}")
    basis = CanonicalBasis(
        matrix=basis_mat, role=ROLE_FOCS, gamma=gamma_out,
        cert=Certificate(similarity=sim, congruence=cong, cs_residual=cs_res),
        eps=tuple(b.sign for b in spec.blocks))
    trace = PipelineTrace(
        chain_factor=z1, phase_factor=z2, scale_factor=z3, flip_factor=z4,
        gram_raw=gram0, gram_phased=gram1, gram_scaled=gram2)
    return basis, trace
