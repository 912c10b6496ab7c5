"""Jordan chain extraction and sip-form reduction of real-eigenvalue chains.

The structure class handled here is deliberately restricted: one Jordan
block per distinct eigenvalue (conjugate pairs count as one pair block).
Within that class the generalized eigenspaces are found by an SVD nullspace
staircase on the shifted matrix, which is well posed because the
eigenvalues are supplied, not estimated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGramError, EigenvalueDriftError, StructureMismatchError
from .linalg import mat_norm, require_finite
from .structure import REAL, BlockSpec, JordanSpec

#: Singular values below this fraction of the shifted matrix's norm count as zero.
RANK_RTOL = 1e-8

#: A declared eigenvalue must sit this close to the computed spectrum.
DRIFT_RADIUS = 1e-6

#: A real chain's Gram anchor below this fraction of ``||h|| ||chain||^2``
#: is degenerate.
GRAM_RTOL = 1e-10


@dataclass(frozen=True)
class BlockChain:
    """Chain matrix for one block, columns ordered eigenvector first.

    For pair blocks only the chain of the stored eigenvalue is kept; the
    conjugate side is synthesized downstream.
    """

    block: BlockSpec
    offset: int
    matrix: np.ndarray


@dataclass(frozen=True)
class ChainSet:
    spec: JordanSpec
    chains: tuple[BlockChain, ...]


def _phase_normalize(v: np.ndarray) -> np.ndarray:
    """Rotate ``v`` so its first significant entry is real positive.

    'Significant' means at least 10% of the largest magnitude, which keeps
    the choice stable against rounding noise in near-zero entries.
    """
    mags = np.abs(v)
    idx = int(np.argmax(mags >= 0.1 * mags.max()))
    piv = v[idx]
    return v * (abs(piv) / piv)


def _nullspace(m: np.ndarray, threshold: float) -> np.ndarray:
    """Orthonormal nullspace basis by SVD with an absolute threshold."""
    _, s, vh = np.linalg.svd(m)
    mask = s < threshold
    return vh.conj().T[:, mask]


def _block_chain(a: np.ndarray, block: BlockSpec) -> np.ndarray:
    n = a.shape[0]
    p = block.size
    real_block = block.kind == REAL
    if real_block:
        b = a.real - block.lam.real * np.eye(n)
    else:
        b = a.astype(complex) - block.lam * np.eye(n)

    # staircase: null(B^j) = {x : B x in null(B^{j-1})} computed as the
    # nullspace of (I - V V*) B.  Every step is thresholded against the
    # scale of B itself; explicit powers are avoided because their own
    # largest singular values grow like ||B||^j and would swallow genuine
    # small directions (and a power of the nilpotent part may be the zero
    # matrix, carrying no scale at all)
    threshold = RANK_RTOL * max(mat_norm(b), np.finfo(float).tiny)
    basis = np.zeros((n, 0), dtype=b.dtype)
    nullities = []
    for _ in range(p + 1):
        projected = b - basis @ (basis.conj().T @ b) if basis.shape[1] else b
        basis = _nullspace(projected, threshold)
        nullities.append(basis.shape[1])
        if basis.shape[1] == 0:
            break
    expected = [min(j, p) for j in range(1, p + 2)]
    if nullities != expected:
        if not nullities or nullities[0] == 0:
            eigs = np.linalg.eigvals(a)
            dist = float(np.min(np.abs(eigs - block.lam)))
            if dist > DRIFT_RADIUS * max(1.0, mat_norm(a)):
                raise EigenvalueDriftError(
                    f"no spectrum point within {DRIFT_RADIUS:.1e} of {block.lam} "
                    f"(nearest at distance {dist:.3e})")
        raise StructureMismatchError(
            f"nullity staircase {nullities} contradicts a single block of "
            f"size {p} at eigenvalue {block.lam}")

    # null(B^p) basis from the staircase; the generator is the direction
    # maximizing the norm of the last chain link
    null = basis[:, :]
    last_link = null
    for _ in range(p - 1):
        last_link = b @ last_link
    _, _, wvh = np.linalg.svd(last_link)
    v = null @ wvh.conj().T[:, 0]
    v = v / np.linalg.norm(v)
    v = _phase_normalize(v)
    if real_block:
        # computed in real arithmetic already; normalization keeps it real
        v = np.real(v) if np.iscomplexobj(v) else v

    cols = [v]
    for _ in range(p - 1):
        cols.append(b @ cols[-1])
    cols.reverse()
    return np.stack(cols, axis=1)


def jordan_chains(a: np.ndarray, spec: JordanSpec) -> ChainSet:
    """Extract one Jordan chain per block of ``spec`` from ``a``.

    Each chain matrix has full column rank, satisfies the chain recurrences
    for the block eigenvalue, and is deterministic for deterministic input:
    the generator is the nullspace direction of maximal last-link norm,
    unit-normalized with a fixed phase convention.

    Raises
    ------
    StructureMismatchError
        When the rank profile of ``(a - lam I)^j`` contradicts the declared
        block size or multiplicity.
    EigenvalueDriftError
        When ``a`` has no spectrum point near a declared eigenvalue.
    """
    a = require_finite(a, "a")
    if a.shape != (spec.total_size, spec.total_size):
        raise StructureMismatchError(
            f"matrix size {a.shape} does not match spec size {spec.total_size}")
    chains = []
    for off, block in spec.offsets():
        chains.append(BlockChain(block, off, _block_chain(a, block)))
    return ChainSet(spec, tuple(chains))


def chain_combination(chain: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Apply the upper-triangular Toeplitz recombination with the given
    coefficients to a chain matrix; the result is again a Jordan chain."""
    p = chain.shape[1]
    c = np.zeros((p, p), dtype=complex)
    for j, cj in enumerate(coeffs[:p]):
        c += cj * np.diag(np.ones(p - j), j)
    return chain @ c


def fit_chain_to(chain: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares recombination of ``chain`` closest to ``target``.

    The admissible recombinations of a single-block Jordan chain are exactly
    the invertible upper-triangular Toeplitz column mixes, so the fit is a
    linear least-squares problem in the ``p`` Toeplitz coefficients.  Used to
    anchor a freshly extracted chain to a reference basis.
    """
    n, p = chain.shape
    basis = []
    shifted = chain.astype(complex)
    for _ in range(p):
        basis.append(shifted.ravel())
        shifted = np.hstack([np.zeros((n, 1)), shifted[:, :-1]])
    design = np.stack(basis, axis=1)
    coeffs, *_ = np.linalg.lstsq(design, target.astype(complex).ravel(), rcond=None)
    return chain_combination(chain, coeffs)


def reduce_real_chain(chain: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, int]:
    """Recombine a real-eigenvalue chain so its Gram matrix is the signed
    anti-identity, and report that sign.

    The Gram ``X = chain^T h chain`` of a real chain of an h-selfadjoint
    matrix is real Hankel and lower anti-triangular; its anti-diagonal value
    ``g0`` fixes the sign characteristic ``eps = sign(g0)``.  The correcting
    mix is the transposed Toeplitz inverse square root of the normalized
    Gram, scaled by ``1/sqrt(|g0|)``.

    Raises
    ------
    DegenerateGramError
        When ``|g0|`` is below ``GRAM_RTOL * ||h|| * ||chain||^2``.
    """
    from .pipeline import toeplitz_inv_sqrt  # shared kernel; no cycle at import time

    chain = np.real(require_finite(chain, "chain"))
    p = chain.shape[1]
    x = chain.T @ np.real(h) @ chain
    anti = np.diag(np.fliplr(x))
    g0 = float(np.mean(anti))
    floor = GRAM_RTOL * max(mat_norm(h) * mat_norm(chain) ** 2, np.finfo(float).tiny)
    if abs(g0) < floor:
        raise DegenerateGramError(
            f"chain Gram anchor {g0:.3e} below degeneracy floor {floor:.3e}")
    eps = 1 if g0 > 0 else -1
    g3 = (eps / abs(g0)) * (x @ np.fliplr(np.eye(p)))
    f = toeplitz_inv_sqrt(g3)
    reduced = (chain @ f.T.real) / np.sqrt(abs(g0))
    return reduced, eps
