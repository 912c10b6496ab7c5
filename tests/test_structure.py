"""Canonical target builders and structural predicates."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    for lam in (float("inf"), complex(0.5, float("nan"))):
        with pytest.raises(ValueError, match="eigenvalue must be finite"):
            BlockSpec("pair" if lam.imag else "real", lam, 1, None if lam.imag else 1)


@pytest.mark.parametrize("sign, want", [(np.int64(-1), -1), (np.int32(1), 1),
                                        (True, 1), (-1.0, -1)])
def test_block_spec_stores_its_sign_as_an_int(sign, want):
    b = BlockSpec("real", 1.0, 1, sign)
    assert type(b.sign) is int and b.sign == want


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


# ---------------------------------------------------------------------------
# the forms and the spec layout against the constructions they replaced


def _cell_block_diag(cells, dtype):
    n = sum(c.shape[0] for c in cells)
    out = np.zeros((n, n), dtype=dtype)
    off = 0
    for c in cells:
        k = c.shape[0]
        out[off:off + k, off:off + k] = c
        off += k
    return out


def _diag_sum_jordan_cell(lam, p, dtype=complex):
    return np.diag(np.full(p, lam, dtype=dtype)) + np.diag(np.ones(p - 1, dtype=dtype), 1)


def _per_cell_jordan_form(spec):
    """``jordan_form`` as it was built from per-cell ``np.diag`` sums."""
    cells = []
    for b in spec.blocks:
        if b.kind == "real":
            cells.append(_diag_sum_jordan_cell(b.lam, b.size))
        else:
            cells.append(_cell_block_diag([_diag_sum_jordan_cell(b.lam, b.size),
                                             _diag_sum_jordan_cell(np.conj(b.lam), b.size)],
                                            complex))
    return _cell_block_diag(cells, complex)


def _per_cell_real_jordan_form(spec):
    """``real_jordan_form`` as it was built from per-cell copies."""
    cells = []
    for b in spec.blocks:
        if b.kind == "real":
            cells.append(_diag_sum_jordan_cell(b.lam.real, b.size, dtype=float))
        else:
            p = b.size
            sg, tu = b.lam.real, b.lam.imag
            cell = np.zeros((2 * p, 2 * p))
            for i in range(p):
                cell[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[sg, tu], [-tu, sg]]
                if i + 1 < p:
                    cell[2 * i:2 * i + 2, 2 * i + 2:2 * i + 4] = np.eye(2)
            cells.append(cell)
    return _cell_block_diag(cells, float)


def _recomputed_layout(spec):
    """``(total_size, offsets, widths)`` as the properties computed them on
    every call."""
    widths = [b.size if b.kind == "real" else 2 * b.size for b in spec.blocks]
    offsets, off = [], 0
    for b, w in zip(spec.blocks, widths):
        offsets.append((off, b))
        off += w
    return sum(widths), offsets, widths


#: Eigenvalue parts, signed zeros included.
_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.5]),
                   st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False))


@st.composite
def _any_spec(draw):
    """Any valid spec of up to 5 blocks of size 1-4; eigenvalues may repeat."""
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(1, 4))
        re = draw(_PARTS)
        if draw(st.booleans()):
            im = draw(_PARTS.filter(lambda x: x != 0.0))
            blocks.append(BlockSpec("pair", complex(re, im), size))
        else:
            im = draw(st.sampled_from([0.0, -0.0]))
            blocks.append(BlockSpec("real", complex(re, im), size, draw(st.sampled_from([-1, 1]))))
    return JordanSpec(tuple(blocks))


@settings(max_examples=300, deadline=None)
@given(_any_spec())
def test_forms_match_their_per_cell_construction_bit_for_bit(spec):
    for form, reference in ((jordan_form, _per_cell_jordan_form),
                         (real_jordan_form, _per_cell_real_jordan_form)):
        got, want = form.__wrapped__(spec), reference(spec)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes(), form.__name__


@settings(max_examples=200, deadline=None)
@given(_any_spec())
def test_spec_layout_equality_hash_and_pickle_are_unchanged(spec):
    total, offsets, widths = _recomputed_layout(spec)
    assert spec.total_size == total
    assert list(spec.offsets()) == offsets
    assert [b.width for b in spec.blocks] == widths
    twin = JordanSpec(tuple(BlockSpec(b.kind, b.lam, b.size, b.sign) for b in spec.blocks))
    assert twin == spec and hash(twin) == hash(spec)
    for back in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert back == spec and hash(back) == hash(spec)
        assert back.total_size == total and list(back.offsets()) == offsets
        assert [b.width for b in back.blocks] == widths
        assert pickle.dumps(back) == pickle.dumps(spec)


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


@pytest.mark.parametrize("norm", ["spectral", "frobenius"])
def test_h_selfadjoint_gates_hermitian_in_the_spectral_norm(norm):
    # ||h - h*||_2 = 1.5e-10 > HERM_TOL ||h||_2; the Frobenius call gated
    # 2.1e-10 against HERM_TOL ||h||_F = 2.8e-10 and returned a residual
    h = np.fliplr(np.eye(8))
    h[0, 1], h[1, 0] = 0.75e-10, -0.75e-10
    with pytest.raises(NotHermitianError, match="by 1.500e-10"):
        h_selfadjoint_residual(np.diag(np.arange(1.0, 9.0)), h, norm=norm)


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
