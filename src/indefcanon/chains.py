"""Jordan chain extraction and sip-form reduction of real-eigenvalue chains.

The sip-form reduction rests on the unit-triangular Toeplitz inverse square
root, which the FOCS pipeline's flip step reuses for pair blocks.

The structure class handled here is deliberately restricted: one Jordan
block per distinct eigenvalue (conjugate pairs count as one pair block).
Within that class the generalized eigenspaces are found by an SVD nullspace
staircase on the shifted matrix, which is well posed because the
eigenvalues are supplied, not estimated.
"""

from __future__ import annotations

import cmath
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    CanonError,
    DegenerateGramError,
    EigenvalueDriftError,
    NotUnitTriangularError,
    StructureMismatchError,
)
from .linalg import anti_diagonal_mean, exchange, mat_norm, require_finite
from .structure import REAL, BlockSpec, JordanSpec

#: Singular values below this fraction of the shifted matrix's norm count as zero.
RANK_RTOL = 1e-8

#: A declared eigenvalue must sit this close to the computed spectrum.
DRIFT_RADIUS = 1e-6

#: A real chain's Gram anchor below this fraction of ``||h|| ||chain||^2``
#: is degenerate.
GRAM_RTOL = 1e-10

#: Relative scale for structural zero-pattern assertions on Gram matrices.
STRUCT_RTOL = 1e-8

_TINY = np.finfo(float).tiny


@lru_cache(maxsize=None)
def _shift_index(p: int) -> np.ndarray:
    """Read-only p x p index with ``k - j`` at ``[k, j]`` for ``k >= j`` and
    ``p`` above the diagonal: it gathers a Toeplitz pattern from a length
    ``p`` vector padded with one zero."""
    k, j = np.indices((p, p))
    out = np.where(k >= j, k - j, p)
    out.flags.writeable = False
    return out


def _phase_normalize(v: np.ndarray) -> np.ndarray:
    """Rotate ``v`` so its first significant entry is real positive.

    'Significant' means at least 10% of the largest magnitude, which keeps
    the choice stable against rounding noise in near-zero entries.
    """
    mags = np.abs(v)
    idx = int((mags >= 0.1 * np.maximum.reduce(mags)).argmax())
    piv = v[idx]
    return v * (abs(piv) / piv)


def _staircase_error(a: np.ndarray, block: BlockSpec, nullities: list[int]) -> CanonError:
    if not nullities or nullities[0] == 0:
        eigs = np.linalg.eigvals(a)
        dist = float(np.min(np.abs(eigs - block.lam)))
        if dist > DRIFT_RADIUS * max(1.0, mat_norm(a)):
            return EigenvalueDriftError(
                f"no spectrum point within {DRIFT_RADIUS:.1e} of {block.lam} "
                f"(nearest at distance {dist:.3e})")
    return StructureMismatchError(
        f"nullity staircase {nullities} contradicts a single block of "
        f"size {block.size} at eigenvalue {block.lam}")


def _block_chains(a: np.ndarray, block: BlockSpec, eye: np.ndarray) -> list:
    """The chain of ``block`` in each matrix of the stack ``a``, or, for a
    matrix that leaves the block's staircase, its nullities up to the first
    step that left it; ``eye`` is the identity of the matrices' size."""
    k, n, _ = a.shape
    p = block.size
    if block.kind == REAL:
        b = a.real - block.lam.real * eye
    else:
        b = a.astype(complex) - block.lam * eye

    # staircase: null(B^j) = {x : B x in null(B^{j-1})} computed as the
    # nullspace of (I - V V*) B.  Every step is thresholded against the
    # scale of B itself; explicit powers are avoided because their own
    # largest singular values grow like ||B||^j and would swallow genuine
    # small directions (and a power of the nilpotent part may be the zero
    # matrix, carrying no scale at all).  The first step is an SVD of B
    # itself, so its largest singular value is ||B||_2.  The singular values
    # fall, so the nullspace rows are the last ones of V*.  Every item
    # follows the nullities of a single block of size p, so each step is
    # one SVD call for the whole stack, and an item that left them is set
    # aside only after the loop
    staircase = [min(j, p) for j in range(1, p + 2)]
    thresholds = basis = None
    steps = []
    for c in staircase:
        projected = b if basis is None else b - basis @ (basis.conj().swapaxes(1, 2) @ b)
        _, s, vh = np.linalg.svd(projected)
        # the singular values fall: reversed, a bisection counts those below
        rows = s[:, ::-1].tolist()
        if thresholds is None:
            thresholds = [RANK_RTOL * max(row[-1], _TINY) for row in rows]
        steps.append([bisect_left(row, t) for row, t in zip(rows, thresholds)])
        basis = vh[:, n - c:].conj().swapaxes(1, 2)

    out: list = [None] * k
    for i, nullities in enumerate(zip(*steps)):
        left = [j for j, (got, c) in enumerate(zip(nullities, staircase)) if got != c]
        if left:
            out[i] = list(nullities[:left[0] + 1])

    # null(B^p) basis from the staircase; the generator is the direction
    # maximizing the norm of the last chain link
    last_link = basis
    for _ in range(p - 1):
        last_link = b @ last_link
    _, _, wvh = np.linalg.svd(last_link, full_matrices=False)
    generators = (basis @ wvh.conj()[:, 0, :, np.newaxis])[..., 0]
    # the chain of each item grows from its generator by matrix-vector
    # products, as cheap one by one as stacked
    for i, (v, bi) in enumerate(zip(generators, b)):
        if out[i] is not None:
            continue
        v = v / np.linalg.norm(v)
        v = _phase_normalize(v)
        chain = np.empty((n, p), dtype=v.dtype)
        chain[:, p - 1] = v
        for j in range(p - 2, -1, -1):
            v = bi @ v
            chain[:, j] = v
        out[i] = chain
    return out


def jordan_chains(a: np.ndarray, spec: JordanSpec) -> tuple[np.ndarray, ...] | list:
    """Extract one Jordan chain per block of ``spec`` from ``a``, in block
    order.

    Each chain matrix has its columns ordered eigenvector first; for a pair
    block only the chain of the stored eigenvalue is kept, and the conjugate
    side is synthesized downstream.  Each has full column rank, satisfies
    the chain recurrences for the block eigenvalue, and is deterministic for
    deterministic input: the generator is the nullspace direction of maximal
    last-link norm, unit-normalized with a fixed phase convention.  A real
    block's chain is real.

    A stack ``a`` gives a list: per matrix, bit for bit what a call on it
    alone returns, or the :class:`CanonError` it raises, at one SVD call
    per staircase step for the whole stack.

    Raises
    ------
    StructureMismatchError
        When the rank profile of ``(a - lam I)^j`` contradicts the declared
        block size or multiplicity.
    EigenvalueDriftError
        When ``a`` has no spectrum point near a declared eigenvalue.
    """
    a = require_finite(a, "a")
    stack = a if a.ndim == 3 else a[np.newaxis]
    size = spec.total_size
    if stack.shape[1:] != (size, size):
        raise StructureMismatchError(
            f"matrix size {stack.shape[1:]} does not match spec size {size}")
    eye = np.eye(size)
    out: list = [[] for _ in range(len(stack))]
    for block in spec.blocks:
        for i, found in enumerate(_block_chains(stack, block, eye)):
            if isinstance(out[i], CanonError):
                continue
            if isinstance(found, np.ndarray):
                out[i].append(found)
            else:
                out[i] = _staircase_error(stack[i], block, found)
    if stack is a:
        return [x if isinstance(x, CanonError) else tuple(x) for x in out]
    (out,) = out
    if isinstance(out, CanonError):
        raise out
    return tuple(out)


def fit_chain_to(chain: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares recombination of ``chain`` closest to ``target``.

    The admissible recombinations of a single-block Jordan chain are exactly
    the invertible upper-triangular Toeplitz column mixes, so the fit is a
    linear least-squares problem in the ``p`` Toeplitz coefficients.  Used to
    anchor a freshly extracted chain to a reference basis.
    """
    n, p = chain.shape
    index = _shift_index(p)
    # column j of the design is the chain shifted right by j columns,
    # raveled row-major: design[:, k, j] = chain[:, k - j] for k >= j
    padded = np.zeros((n, p + 1), dtype=complex)
    padded[:, :p] = chain
    design = padded[:, index]
    coeffs, *_ = np.linalg.lstsq(design.reshape(n * p, p),
                                 target.astype(complex).ravel(), rcond=None)
    # each coefficient is added to a zero, as in a sum of scaled shifts,
    # so a -0.0 part of it enters the mix as +0.0; mix[j, k] = coeffs[k - j]
    shifts = np.zeros(p + 1, dtype=complex)
    shifts[:p] += coeffs
    return chain @ shifts[index.T]


@lru_cache(maxsize=None)
def _inv_sqrt_coefficients(count: int) -> tuple[Fraction, ...]:
    """Binomial series coefficients of ``(1 + x)^(-1/2)``: 1, -1/2, 3/8, ..."""
    coeffs = [Fraction(1)]
    for k in range(1, count):
        coeffs.append(coeffs[-1] * Fraction(-(2 * k - 1), 2 * k))
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _float_inv_sqrt_coefficients(count: int) -> tuple[float, ...]:
    """:func:`_inv_sqrt_coefficients` rounded to floats."""
    return tuple(float(c) for c in _inv_sqrt_coefficients(count))


def toeplitz_inv_sqrt(g3: np.ndarray) -> np.ndarray:
    """Unit lower-triangular Toeplitz ``F`` with ``F @ F @ g3 = I``.

    ``g3`` must be unit lower triangular; writing ``g3 = I + E`` with ``E``
    strictly lower triangular (hence nilpotent), ``F`` is the binomial series
    of ``(1 + E)^(-1/2)`` truncated by nilpotency, so the defining identity
    holds as a finite polynomial identity in ``E``.  Exact inputs (object
    arrays of Fractions) are processed in exact arithmetic.

    Raises
    ------
    NotUnitTriangularError
        If the diagonal deviates from 1 or the upper part from 0 beyond
        :data:`STRUCT_RTOL` (exactly, for exact inputs).
    """
    g3 = np.atleast_2d(np.asarray(g3))
    p = g3.shape[0]
    if g3.shape != (p, p):
        raise ValueError("g3 must be square")
    # the checks read Python scalars, without numpy's per-call cost; abs of
    # a complex entry is then the scalar hypot, which may differ from
    # numpy's vector one in the last bit, far inside the gate's tolerance
    rows = g3.tolist()
    diag = [row[i] for i, row in enumerate(rows)]
    upper = [x for i, row in enumerate(rows) for x in row[i + 1:]]

    if g3.dtype == object:
        if any(d != 1 for d in diag):
            raise NotUnitTriangularError("diagonal is not exactly 1")
        if any(x != 0 for x in upper):
            raise NotUnitTriangularError("upper part is not exactly 0")
        ident = np.array([[Fraction(int(i == j)) for j in range(p)]
                          for i in range(p)], dtype=object)
        coeffs = _inv_sqrt_coefficients(p)
    else:
        entries = [x for row in rows for x in row]
        if not all(map(cmath.isfinite, entries)):
            raise ValueError("g3 contains non-finite entries")
        limit = STRUCT_RTOL * max(1.0, max(map(abs, entries)))
        if any(abs(d - 1.0) > limit for d in diag):
            raise NotUnitTriangularError("diagonal deviates from 1 beyond tolerance")
        if any(abs(x) > limit for x in upper):
            raise NotUnitTriangularError("upper part deviates from 0 beyond tolerance")
        ident = np.eye(p, dtype=g3.dtype)
        coeffs = _float_inv_sqrt_coefficients(p)

    # neither f nor the powers of e are changed in place
    f = ek = ident
    if p > 1:
        e = np.tril(g3, -1)
        for k in range(1, p):
            ek = ek @ e
            f = f + coeffs[k] * ek
    return f


def reduce_real_chain(chain: np.ndarray, h: np.ndarray,
                      h_norm: float) -> tuple[np.ndarray, int]:
    """Recombine a real-eigenvalue chain so its Gram matrix is the signed
    anti-identity, and report that sign.  ``h_norm`` is ``||h||_2``, taken
    once by the caller for all blocks.

    The Gram ``X = chain^T h chain`` of a real chain of an h-selfadjoint
    matrix is real Hankel and lower anti-triangular; its anti-diagonal value
    ``g0`` fixes the sign characteristic ``eps = sign(g0)``.  The correcting
    mix is the transposed Toeplitz inverse square root of the normalized
    Gram, scaled by ``1/sqrt(|g0|)``.

    Raises
    ------
    DegenerateGramError
        When ``|g0|`` is below ``GRAM_RTOL * ||h|| * ||chain||^2``, spectral
        norms throughout; the SVD of ``chain`` runs only when ``|g0|`` misses
        the same floor with the Frobenius norm.
    """
    chain = np.real(require_finite(chain, "chain"))
    p = chain.shape[1]
    x = chain.T @ np.real(h) @ chain
    g0 = float(anti_diagonal_mean(x))
    # the Frobenius norm bounds ||chain||_2 from above, so a floor it clears
    # is cleared by the spectral one, and only a miss takes the SVD
    floor = GRAM_RTOL * max(h_norm * float(np.linalg.norm(chain)) ** 2, _TINY)
    if abs(g0) < floor:
        floor = GRAM_RTOL * max(h_norm * mat_norm(chain) ** 2, _TINY)
        if abs(g0) < floor:
            raise DegenerateGramError(
                f"chain Gram anchor {g0:.3e} below degeneracy floor {floor:.3e}")
    eps = 1 if g0 > 0 else -1
    g3 = (eps / abs(g0)) * (x @ exchange(p))
    f = toeplitz_inv_sqrt(g3)
    return (chain @ f.T.real) / np.sqrt(abs(g0)), eps
