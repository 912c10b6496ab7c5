"""Real canonical bases via the fixed mixing transform.

A real canonical basis takes a real h-selfadjoint pair to the real Jordan
form together with the sip Gram.  It is obtained from an i-FOCS basis by a
single fixed block-diagonal unitary (and back), so existence, residual
quality, and stability all transfer from the FOCS construction.
"""

from __future__ import annotations

import numpy as np

from .errors import NotConjugateSymmetricError, NotRealError, StructureMismatchError
from .linalg import DEFAULT_TOL, affiliation_residuals, mat_norm, require_finite
from .pipeline import ROLE_FOCS, ROLE_RC, CanonicalBasis, Certificate, PipelineTrace, focs_basis
from .structure import (
    CS_TOL,
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

    ``anchor``, when given, is an i-FOCS reference basis passed through to
    the pipeline (callers holding an RC reference should convert it with the
    inverse mixing transform first).

    Raises
    ------
    NotRealError
        When the pre-truncation imaginary part exceeds the threshold, which
        signals a non-i conjugate-symmetry scalar or pipeline failure.
    """
    a = np.real(require_finite(a, "a"))
    h = np.real(require_finite(h, "h"))
    focs, trace = focs_basis(a, h, spec, 1.0j, anchor=anchor, tol=tol, norm=norm)
    r = focs.matrix @ mixing_matrix(spec)
    r_norm = mat_norm(r, norm)
    max_imag = float(np.max(np.abs(r.imag))) if np.iscomplexobj(r) else 0.0
    if max_imag > IMAG_RTOL * max(1.0, r_norm):
        raise NotRealError(
            f"mixed basis has imaginary part {max_imag:.3e} "
            f"(threshold {IMAG_RTOL * max(1.0, r_norm):.3e})")
    r_real = np.real(r)
    sim, cong = affiliation_residuals(a, h, r_real, real_jordan_form(spec),
                                      sip_form(spec), norm=norm)
    if max(sim, cong) > tol * max(1.0, mat_norm(h, norm)):
        raise StructureMismatchError(
            f"real basis misses its certificate gate: similarity {sim:.3e}, "
            f"congruence {cong:.3e} vs tol {tol:.1e}")
    basis = CanonicalBasis(
        matrix=r_real, role=ROLE_RC, gamma=focs.gamma,
        cert=Certificate(similarity=sim, congruence=cong,
                         cs_residual=focs.cert.cs_residual, max_imag=max_imag),
        eps=focs.eps)
    return basis, trace


def focs_from_rc(r: np.ndarray, spec: JordanSpec, *,
                 a: np.ndarray | None = None,
                 h: np.ndarray | None = None,
                 norm: str = "spectral") -> CanonicalBasis:
    """Recover the i-FOCS basis from a real canonical one.

    Multiplies by the closed-form inverse mixing transform and verifies the
    conjugate-symmetry scalar comes out as ``i``.  When ``a`` and ``h`` are
    supplied the affiliation residuals against the complex canonical pair
    are certified as well; otherwise the certificate carries zeros.

    Raises
    ------
    NotConjugateSymmetricError
        When ``r`` was not a real canonical basis for ``spec``.
    """
    r = require_finite(r, "r")
    t = r @ mixing_matrix_inv(spec)
    gamma, cs_res, worst = conjugate_symmetry_fit(t, spec, norm=norm)
    scale = max(1.0, mat_norm(t, norm))
    if cs_res > CS_TOL * scale or abs(gamma - 1.0j) > CS_TOL * max(1.0, abs(gamma)):
        raise NotConjugateSymmetricError(
            f"recovered basis is not i-conjugate-symmetric "
            f"(gamma {gamma:.6f}, residual {cs_res:.3e})",
            block_index=worst, residual=cs_res)
    if a is not None and h is not None:
        sim, cong = affiliation_residuals(a, h, t, jordan_form(spec),
                                          sip_form(spec), norm=norm)
    else:
        sim, cong = 0.0, 0.0
    return CanonicalBasis(
        matrix=t, role=ROLE_FOCS, gamma=gamma,
        cert=Certificate(similarity=sim, congruence=cong, cs_residual=cs_res),
        eps=tuple(b.sign for b in spec.blocks))
