"""Canonical target builders and structural predicates."""

import numpy as np
import pytest

from indefcanon import (
    BlockSpec,
    JordanSpec,
    NotHermitianError,
    SingularInnerProductError,
    conjugate_symmetry_fit,
    estimate_lipschitz,
    generate_instance,
    h_selfadjoint_residual,
    jordan_form,
    mat_norm,
    mixing_matrix,
    mixing_matrix_inv,
    real_jordan_form,
    sip_form,
)
from indefcanon.structure import CS_TOL

from conftest import cs_gamma, random_spec


def test_block_spec_validation():
    with pytest.raises(ValueError):
        BlockSpec("real", 1j, 1, 1)          # nonreal eigenvalue on a real block
    with pytest.raises(ValueError):
        BlockSpec("real", 1.0, 1)            # missing sign
    with pytest.raises(ValueError):
        BlockSpec("pair", 3.0, 1)            # real eigenvalue on a pair block
    with pytest.raises(ValueError):
        BlockSpec("pair", 1j, 0)             # empty block
    with pytest.raises(ValueError):
        BlockSpec("diag", 1.0, 1, 1)


def test_build_j_paper_pair(ex_spec, ex_j):
    np.testing.assert_array_equal(jordan_form(ex_spec), ex_j)


def test_build_j_scalar_real_block():
    spec = JordanSpec((BlockSpec("real", 3.0, 1, 1),))
    np.testing.assert_array_equal(jordan_form(spec), [[3.0 + 0j]])


def test_build_j_direct_sum_assembly():
    spec = JordanSpec((BlockSpec("real", 1.0, 2, -1), BlockSpec("pair", 1j, 1)))
    expected = np.array([[1, 1, 0, 0],
                         [0, 1, 0, 0],
                         [0, 0, 1j, 0],
                         [0, 0, 0, -1j]], dtype=complex)
    np.testing.assert_array_equal(jordan_form(spec), expected)


def test_build_p_paper_pair(ex_spec, ex_p):
    np.testing.assert_array_equal(sip_form(ex_spec), ex_p)


def test_build_p_signed_scalar():
    spec = JordanSpec((BlockSpec("real", 0.5, 1, -1),))
    np.testing.assert_array_equal(sip_form(spec), [[-1.0]])


def test_build_p_involution_randomized():
    rng = np.random.default_rng(11)
    for _ in range(20):
        spec = random_spec(rng)
        p = sip_form(spec)
        np.testing.assert_array_equal(p @ p, np.eye(spec.total_size))


def test_build_jr_paper_pair(ex_spec, ex_jr):
    np.testing.assert_array_equal(real_jordan_form(ex_spec), ex_jr)


def test_build_jr_single_pair_hand_case():
    # 2x2 case checked by hand against S^-1 J S
    spec = JordanSpec((BlockSpec("pair", 1j, 1),))
    np.testing.assert_array_equal(real_jordan_form(spec), [[0, 1], [-1, 0]])
    s = mixing_matrix(spec)
    lhs = mixing_matrix_inv(spec) @ jordan_form(spec) @ s
    assert mat_norm(lhs - real_jordan_form(spec)) <= 1e-14


def test_build_jr_plain_real_block():
    spec = JordanSpec((BlockSpec("real", 5.0, 3, 1),))
    expected = np.array([[5, 1, 0], [0, 5, 1], [0, 0, 5]], dtype=float)
    np.testing.assert_array_equal(real_jordan_form(spec), expected)


def test_mixing_matrix_single_pair_identities():
    spec = JordanSpec((BlockSpec("pair", 0.3 + 1j, 1),))
    s = mixing_matrix(spec)
    expected = np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2)
    np.testing.assert_allclose(s, expected, atol=1e-15)
    sip = np.fliplr(np.eye(2))
    assert mat_norm(s.conj().T @ sip @ s - sip) <= 1e-14


def test_mixing_matrix_all_real_is_identity():
    spec = JordanSpec((BlockSpec("real", 1.0, 2, 1), BlockSpec("real", -3.0, 1, -1)))
    np.testing.assert_array_equal(mixing_matrix(spec), np.eye(3))


def test_mixing_identities_randomized():
    rng = np.random.default_rng(3)
    for _ in range(25):
        spec = random_spec(rng)
        s = mixing_matrix(spec)
        s_inv = mixing_matrix_inv(spec)
        n = spec.total_size
        assert mat_norm(s @ s_inv - np.eye(n)) <= 1e-14
        p = sip_form(spec)
        assert mat_norm(s.conj().T @ p @ s - p) <= 1e-12
        jr = real_jordan_form(spec)
        assert mat_norm(s_inv @ jordan_form(spec) @ s - jr) <= 1e-12
        assert not np.iscomplexobj(jr)


FORMS = (jordan_form, sip_form, real_jordan_form, mixing_matrix)


def _spec(sign=1, lam=-0.7 - 1.3j):
    return JordanSpec((BlockSpec("real", 1.5, 2, sign), BlockSpec("pair", lam, 2)))


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
def test_cached_forms_are_read_only(form):
    m = form(_spec())
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        m += 1.0


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
def test_equal_specs_built_separately_give_equal_forms(form):
    first = form(_spec()).copy()
    np.testing.assert_array_equal(form(_spec()), first)
    # __wrapped__ is the builder without the memo
    np.testing.assert_array_equal(form.__wrapped__(_spec()), first)


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
def test_specs_one_sign_or_eigenvalue_apart_get_their_own_forms(form):
    specs = [_spec(), _spec(sign=-1), _spec(lam=-0.7 - 1.2j), _spec()]
    for spec in specs:
        np.testing.assert_array_equal(form(spec), form.__wrapped__(spec))
    assert not np.array_equal(sip_form(specs[0]), sip_form(specs[1]))
    assert not np.array_equal(jordan_form(specs[0]), jordan_form(specs[2]))
    assert not np.array_equal(real_jordan_form(specs[0]), real_jordan_form(specs[2]))


def test_weak_run_leaves_one_entry_per_form_cache():
    # weak trials shift the eigenvalues, so every trial asks for new forms
    inst = generate_instance(_spec(), 3, kind="rc")
    misses = [form.cache_info().misses for form in FORMS]
    report = estimate_lipschitz(inst, [1e-3, 1e-4], 3, mode="weak")
    assert all(t.status == "ok" for t in report.trials)
    for form, before in zip(FORMS, misses):
        info = form.cache_info()
        assert info.misses - before >= len(report.trials), form.__name__
        assert info.maxsize == 1 and info.currsize == 1, form.__name__


def test_canonical_pair_is_selfadjoint_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        spec = random_spec(rng)
        assert h_selfadjoint_residual(jordan_form(spec), sip_form(spec)) == 0.0


def test_h_selfadjoint_paper_pair(ex_a, ex_h):
    assert h_selfadjoint_residual(ex_a, ex_h) == 0.0


def test_h_selfadjoint_nonhermitian_deviation():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    res = h_selfadjoint_residual(a, np.eye(2))
    assert res == pytest.approx(mat_norm(a - a.T))


def test_h_selfadjoint_rejects_nonhermitian_h():
    with pytest.raises(NotHermitianError):
        h_selfadjoint_residual(np.eye(2), np.array([[0.0, 1.0], [0.0, 1.0]]))


def test_h_selfadjoint_rejects_singular_h():
    with pytest.raises(SingularInnerProductError):
        h_selfadjoint_residual(np.eye(2), np.zeros((2, 2)))


def test_cs_gamma_paper_m(ex_m, ex_spec):
    assert cs_gamma(ex_m, ex_spec) == pytest.approx(1.0)


def test_cs_gamma_paper_l(ex_l, ex_spec, ex_h, ex_l_gram):
    assert cs_gamma(ex_l, ex_spec) == pytest.approx(1.0)
    np.testing.assert_allclose(ex_l.conj().T @ ex_h @ ex_l, ex_l_gram, atol=1e-14)


def test_cs_fails_on_paper_t(ex_t, ex_spec):
    _, res, block = conjugate_symmetry_fit(ex_t, ex_spec)
    assert block == 0
    assert res > CS_TOL * max(1.0, mat_norm(ex_t))
    assert res > 1.0


def test_cs_no_pair_blocks_degenerates():
    spec = JordanSpec((BlockSpec("real", 2.0, 2, 1),))
    assert cs_gamma(np.eye(2), spec) == 1.0


def test_cs_phase_gauge_invariance(ex_m, ex_spec):
    # diag(e^{i t} I, e^{-i t} I) per pair block leaves the scalar alone
    rng = np.random.default_rng(0)
    for _ in range(10):
        th = rng.uniform(-np.pi, np.pi)
        d = np.diag([np.exp(1j * th)] * 2 + [np.exp(-1j * th)] * 2)
        g = cs_gamma(ex_m @ d, ex_spec)
        assert g == pytest.approx(1.0, abs=1e-12)
