"""Real canonical bases and the conversion to and from i-FOCS form."""

from dataclasses import replace

import numpy as np
import pytest

from indefcanon import (
    BlockSpec,
    JordanSpec,
    focs_basis,
    generate_instance,
    jordan_form,
    mat_norm,
    mixing_matrix,
    mixing_matrix_inv,
    rc_basis,
    real_jordan_form,
    sip_form,
)
from indefcanon import rc
from indefcanon.errors import NotRealError, StructureMismatchError
from indefcanon.linalg import affiliation_residuals
from indefcanon.pipeline import CanonicalBasis, Certificate
from indefcanon.rc import IMAG_RTOL, certify, to_focs

from conftest import Reached, cs_gamma, raise_reached, random_spec


def test_rc_paper_example(ex_a, ex_h, ex_spec, ex_jr, ex_p, ex_r):
    basis, _ = rc_basis(ex_a, ex_h, ex_spec)
    assert not np.iscomplexobj(basis.matrix)
    assert basis.cert.similarity <= 1e-10
    assert basis.cert.congruence <= 1e-10
    assert basis.cert.max_imag <= 1e-9 * mat_norm(basis.matrix)
    # the printed reference basis is one valid gauge representative: the
    # connecting matrix must commute with the real Jordan form and preserve
    # the sip Gram
    c = np.linalg.solve(basis.matrix, ex_r)
    assert mat_norm(np.imag(c)) <= 1e-12
    c = np.real(c)
    assert mat_norm(c @ ex_jr - ex_jr @ c) <= 1e-10
    assert mat_norm(c.T @ ex_p @ c - ex_p) <= 1e-10


def test_rc_canonical_pair(ex_spec):
    jr = real_jordan_form(ex_spec)
    p = sip_form(ex_spec)
    basis, _ = rc_basis(jr, p, ex_spec)
    assert basis.cert.similarity <= 1e-12 and basis.cert.congruence <= 1e-12
    assert not np.iscomplexobj(basis.matrix)


def test_rc_single_pair_hand_expansion():
    # p = 1: the real columns are (t + conj t)/sqrt(2) and i(conj t - t)/sqrt(2)
    spec = JordanSpec((BlockSpec("pair", 1j, 1),))
    inst = generate_instance(spec, 3)
    focs, _ = focs_basis(inst.a0, inst.h0, spec, 1.0j)
    rc, _ = rc_basis(inst.a0, inst.h0, spec)
    t1 = focs.matrix[:, 0]
    hand = np.stack([(t1 + np.conj(t1)) / np.sqrt(2),
                     1j * (np.conj(t1) - t1) / np.sqrt(2)], axis=1)
    assert mat_norm(np.imag(hand)) <= 1e-12
    np.testing.assert_allclose(rc.matrix, np.real(hand), atol=1e-12)


def test_rc_round_trip(ex_a, ex_h, ex_spec):
    basis, _ = rc_basis(ex_a, ex_h, ex_spec)
    cert, gamma = certify(ex_a, ex_h, basis.matrix, ex_spec, "rc")
    assert gamma == pytest.approx(1.0j, abs=1e-10)
    assert cert.similarity <= 1e-10 and cert.congruence <= 1e-10
    assert cert.max_imag == 0.0
    back = to_focs(basis.matrix, ex_spec, "rc") @ mixing_matrix(ex_spec)
    assert mat_norm(back - basis.matrix) <= 1e-12 * max(1.0, mat_norm(basis.matrix))


def test_focs_from_rc_paper_r(ex_r, ex_spec, ex_a, ex_h):
    cert, gamma = certify(ex_a, ex_h, ex_r, ex_spec, "rc")
    assert gamma == pytest.approx(1.0j, abs=1e-12)
    assert cert.similarity <= 1e-10 and cert.congruence <= 1e-10


def test_focs_from_rc_identity_on_canonical(ex_spec):
    # R = I for the real canonical pair recovers the inverse mixing matrix,
    # which is i-conjugate-symmetric by its printed structure
    t = to_focs(np.eye(4), ex_spec, "rc")
    np.testing.assert_allclose(t, mixing_matrix_inv(ex_spec), atol=1e-15)
    assert cs_gamma(t, ex_spec) == pytest.approx(1.0j)
    cert, gamma = certify(real_jordan_form(ex_spec), sip_form(ex_spec), np.eye(4),
                          ex_spec, "rc")
    assert gamma == pytest.approx(1.0j)
    assert cert.similarity == 0.0 and cert.congruence == 0.0


def test_focs_from_rc_rejects_non_rc(ex_a, ex_h, ex_spec):
    # any real matrix times the inverse mixing transform is automatically
    # i-conjugate-symmetric, so the failure mode is a basis that is not real:
    # its imaginary part is reported, and only its real part is measured
    rng = np.random.default_rng(2)
    real_r = rng.normal(size=(4, 4))
    bad = real_r + 1j * rng.normal(size=(4, 4))
    cert, gamma = certify(ex_a, ex_h, bad, ex_spec, "rc")
    assert cert.max_imag == np.max(np.abs(bad.imag))
    real_cert, real_gamma = certify(ex_a, ex_h, real_r, ex_spec, "rc")
    assert real_cert.max_imag == 0.0
    assert replace(cert, max_imag=0.0) == real_cert
    assert gamma == real_gamma == pytest.approx(1.0j)


@pytest.mark.parametrize("role", ["focs", "rc"])
def test_certify_reports_a_zero_first_pair_block(role):
    spec = JordanSpec((BlockSpec("real", 1.5, 2, 1), BlockSpec("pair", -0.7 - 1.3j, 2)))
    inst = generate_instance(spec, 3, kind=role)
    t = inst.t0.matrix.copy()
    # the first half of the pair block, or every RC column it mixes into
    t[:, 2:4 if role == "focs" else 6] = 0.0
    cert, gamma = certify(inst.a0, inst.h0, t, spec, role)
    assert cert.cs_residual == float("inf")
    assert np.isnan(gamma)
    assert cert.congruence > 1e-3


def test_certify_fo_fits_no_scalar(ex_a, ex_h, ex_spec):
    focs, _ = focs_basis(ex_a, ex_h, ex_spec, 1.0)
    cert, gamma = certify(ex_a, ex_h, focs.matrix, ex_spec, "fo")
    assert gamma is None and cert.cs_residual is None and cert.max_imag is None
    assert (cert.similarity, cert.congruence) == affiliation_residuals(
        ex_a, ex_h, focs.matrix, jordan_form(ex_spec), sip_form(ex_spec))


def test_rc_realness_randomized():
    rng = np.random.default_rng(23)
    for k in range(10):
        spec = random_spec(rng, max_total=8)
        inst = generate_instance(spec, 1000 + k, kind="rc")
        r = inst.t0
        assert not np.iscomplexobj(r.matrix)
        assert r.cert.max_imag <= 1e-9 * max(1.0, mat_norm(r.matrix))
        sim, cong = affiliation_residuals(inst.a0, inst.h0, r.matrix,
                                          real_jordan_form(spec), sip_form(spec))
        assert sim <= 1e-10 and cong <= 1e-10


def test_rc_gauge_closure(ex_a, ex_h, ex_spec):
    # a conjugate-symmetry-preserving phase gauge on the i-FOCS basis still
    # realifies; the block sign gauge additionally preserves the affiliation
    focs, _ = focs_basis(ex_a, ex_h, ex_spec, 1.0j)
    rng = np.random.default_rng(8)
    for _ in range(6):
        th = rng.uniform(-np.pi, np.pi)
        d = np.diag([np.exp(1j * th)] * 2 + [np.exp(-1j * th)] * 2)
        r = (focs.matrix @ d) @ mixing_matrix(ex_spec)
        assert np.max(np.abs(r.imag)) <= 1e-12 * max(1.0, mat_norm(r.real))
    for sign in (1.0, -1.0):
        r = (sign * focs.matrix) @ mixing_matrix(ex_spec)
        assert np.max(np.abs(r.imag)) <= 1e-12 * max(1.0, mat_norm(r.real))
        sim, cong = affiliation_residuals(ex_a, ex_h, np.real(r),
                                          real_jordan_form(ex_spec), sip_form(ex_spec))
        assert sim <= 1e-10 and cong <= 1e-10


#: All-real structure, so the mixing transform is the identity.
REAL4 = JordanSpec(tuple(BlockSpec("real", 1.0 + k, 1, 1) for k in range(4)))

#: Spectral norm 40, twice its largest column norm.
ONES40 = 10.0 * np.ones((4, 4))


def _stub_focs(monkeypatch, matrix):
    basis = CanonicalBasis(matrix, "focs", 1j, Certificate(0.0, 0.0, 0.0), (1, 1, 1, 1))
    monkeypatch.setattr(rc, "_focs_basis", lambda *args, **kwargs: (basis, None))


def test_rc_realness_threshold_is_spectral(monkeypatch):
    # an imaginary part between IMAG_RTOL times R's largest column norm and
    # IMAG_RTOL times ||R||_2 passes
    monkeypatch.setattr(rc, "affiliation_residuals", raise_reached)
    for imag, passes in ((3e-8, True), (5e-8, False)):
        m = ONES40 + 0j
        m[0, 0] += 1j * imag
        threshold = IMAG_RTOL * mat_norm(m)
        assert IMAG_RTOL * np.max(np.linalg.norm(m, axis=0)) < imag
        _stub_focs(monkeypatch, m)
        if passes:
            assert imag <= threshold
            with pytest.raises(Reached):
                rc_basis(np.eye(4), np.eye(4), REAL4)
        else:
            with pytest.raises(NotRealError,
                               match=f"part {imag:.3e} \\(threshold {threshold:.3e}\\)"):
                rc_basis(np.eye(4), np.eye(4), REAL4)


def test_rc_certificate_limit_is_spectral(monkeypatch):
    # residuals between tol times H's largest column norm and tol times
    # ||H||_2 pass
    _stub_focs(monkeypatch, np.eye(4) + 0j)
    tol = 1e-10
    limit = tol * mat_norm(ONES40)
    assert tol * np.max(np.linalg.norm(ONES40, axis=0)) < 3e-9 <= limit < 5e-9
    for sim, passes in ((3e-9, True), (5e-9, False)):
        monkeypatch.setattr(rc, "affiliation_residuals", lambda *args, **kwargs: (sim, 0.0))
        if passes:
            basis, _ = rc_basis(np.eye(4), ONES40, REAL4, tol=tol)
            assert basis.cert.similarity == sim
        else:
            with pytest.raises(StructureMismatchError,
                               match=f"similarity {sim:.3e}, .* \\(limit {limit:.3e}\\)"):
                rc_basis(np.eye(4), ONES40, REAL4, tol=tol)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_rc_rejects_a_tol_that_is_not_finite_and_positive(ex_a, ex_h, ex_spec, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        rc_basis(ex_a, ex_h, ex_spec, tol=tol)
