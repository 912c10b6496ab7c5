"""Real canonical bases and their relation to i-FOCS bases.

A real canonical basis takes a real h-selfadjoint pair to the real Jordan
form together with the sip Gram.  It is the i-FOCS basis times the fixed
block-diagonal unitary of :func:`structure.mixing_matrix`, so existence,
residual quality, and stability all transfer from the FOCS construction.

This module is the one home of that relation: :func:`to_focs` maps a basis
of any role to FOCS coordinates, and :func:`certify` measures a basis against
the canonical pair of its role.
"""

from __future__ import annotations

import numpy as np

from .errors import NotConjugateSymmetricError, NotRealError, StructureMismatchError
from .linalg import (
    DEFAULT_TOL,
    _norm_lower_bound,
    affiliation_residuals,
    mat_norm,
    require_finite,
)
from .pipeline import ROLE_FOCS, ROLE_RC, CanonicalBasis, Certificate, PipelineTrace, _focs_basis
from .structure import (
    JordanSpec,
    conjugate_symmetry_fit,
    jordan_form,
    mixing_matrix,
    mixing_matrix_inv,
    real_jordan_form,
    sip_form,
)

#: Imaginary parts up to this fraction of the basis norm are truncated;
#: anything larger signals a broken input and raises.
IMAG_RTOL = 1e-9


def rc_basis(a: np.ndarray, h: np.ndarray, spec: JordanSpec, *,
             anchor: np.ndarray | None = None,
             tol: float = DEFAULT_TOL,
             norm: str = "spectral") -> tuple[CanonicalBasis, PipelineTrace]:
    """Real canonical basis of the real h-selfadjoint pair ``(a, h)``.

    Runs the FOCS pipeline with ``gamma = i`` and applies the mixing
    transform; the result is real up to rounding, which is verified against
    ``IMAG_RTOL`` times its norm and then truncated to exactly real.

    ``anchor``, when given, is an RC reference basis; the pipeline is
    anchored to its FOCS coordinates.  ``tol`` is the certificate gate, as
    for :func:`pipeline.focs_basis`, and must be finite and positive.

    Raises
    ------
    NotRealError
        When the pre-truncation imaginary part exceeds the threshold, which
        signals a non-i conjugate-symmetry scalar or pipeline failure.
    """
    return _rc_basis(a, h, spec, anchor, tol, norm, None)


def _rc_basis(a: np.ndarray, h: np.ndarray, spec: JordanSpec,
              anchor: np.ndarray | None, tol: float, norm: str,
              chains: tuple | None) -> tuple[CanonicalBasis, PipelineTrace]:
    """:func:`rc_basis`, given ``chains`` as for :func:`pipeline._focs_basis`."""
    a = np.real(require_finite(a, "a"))
    h = np.real(require_finite(h, "h"))
    if anchor is not None:
        anchor = to_focs(anchor, spec, ROLE_RC)
    focs, trace = _focs_basis(a, h, spec, 1.0j, anchor, tol, norm, chains)
    r = focs.matrix @ mixing_matrix(spec)
    # both gates scale their limit with a norm whose value is not kept: a
    # lower bound of it decides first, and the SVD runs only on a miss
    max_imag = float(np.max(np.abs(r.imag))) if np.iscomplexobj(r) else 0.0
    if max_imag > IMAG_RTOL * max(1.0, _norm_lower_bound(r, norm)):
        threshold = IMAG_RTOL * max(1.0, mat_norm(r, norm))
        if max_imag > threshold:
            raise NotRealError(
                f"mixed basis has imaginary part {max_imag:.3e} "
                f"(threshold {threshold:.3e})")
    r_real = np.real(r)
    sim, cong = affiliation_residuals(a, h, r_real, real_jordan_form(spec),
                                      sip_form(spec), norm=norm)
    if max(sim, cong) > tol * max(1.0, _norm_lower_bound(h, norm)):
        limit = tol * max(1.0, mat_norm(h, norm))
        if max(sim, cong) > limit:
            raise StructureMismatchError(
                f"real basis misses its certificate gate: similarity {sim:.3e}, "
                f"congruence {cong:.3e} vs tol {tol:.1e} (limit {limit:.3e})")
    basis = CanonicalBasis(
        matrix=r_real, role=ROLE_RC, gamma=focs.gamma,
        cert=Certificate(similarity=sim, congruence=cong,
                         cs_residual=focs.cert.cs_residual, max_imag=max_imag),
        eps=focs.eps)
    return basis, trace


def to_focs(matrix: np.ndarray, spec: JordanSpec, role: str) -> np.ndarray:
    """FOCS coordinates of a basis of the given role.

    An RC basis is unmixed by the inverse mixing transform; it is real by
    definition, so any imaginary part is dropped first.  Bases of other
    roles are returned unchanged.
    """
    if role == ROLE_RC:
        return np.real(matrix) @ mixing_matrix_inv(spec)
    return matrix


def certify(a: np.ndarray, h: np.ndarray, matrix: np.ndarray, spec: JordanSpec,
            role: str, *, norm: str = "spectral") -> tuple[Certificate, complex | None]:
    """Residuals of ``matrix`` as a basis of ``role`` for ``(a, h)``, unjudged.

    The target is the real canonical pair for ``rc`` and the complex one
    otherwise.  An RC basis is measured by its real part, and the largest
    entry of its imaginary part goes to ``max_imag``.  For ``focs`` and
    ``rc`` the conjugate symmetry is fitted in FOCS coordinates; a zero
    first pair block, which fixes no scalar, gives an infinite residual and
    a NaN scalar.  Returns the certificate and the fitted scalar (``None``
    for ``fo``).
    """
    max_imag = None
    if role == ROLE_RC:
        max_imag = float(np.max(np.abs(matrix.imag))) if np.iscomplexobj(matrix) else 0.0
        matrix = np.real(matrix)
    target = real_jordan_form(spec) if role == ROLE_RC else jordan_form(spec)
    sim, cong = affiliation_residuals(a, h, matrix, target, sip_form(spec), norm=norm)
    gamma, cs_res = None, None
    if role in (ROLE_FOCS, ROLE_RC):
        try:
            gamma, cs_res, _ = conjugate_symmetry_fit(to_focs(matrix, spec, role), spec,
                                                      norm=norm)
        except NotConjugateSymmetricError:
            gamma, cs_res = complex("nan"), float("inf")
    return Certificate(similarity=sim, congruence=cong, cs_residual=cs_res,
                       max_imag=max_imag), gamma
