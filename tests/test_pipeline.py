"""The four-factor FOCS construction and its Toeplitz kernel."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indefcanon import (
    BlockSpec,
    CanonError,
    GramAnchor,
    JordanSpec,
    NotRealError,
    NotUnitTriangularError,
    PureImaginaryAnchorError,
    SingularBasisError,
    StructureMismatchError,
    anchored_canonize,
    flip_step,
    focs_basis,
    jordan_chains,
    mat_norm,
    phase_step,
    real_jordan_form,
    scale_step,
    sip_form,
    symmetrize_step,
    toeplitz_inv_sqrt,
)
from indefcanon import pipeline
from indefcanon.chains import STRUCT_RTOL, _inv_sqrt_coefficients
from indefcanon.harness import _draw_similarity
from indefcanon.linalg import exchange, gate_norm

from conftest import (
    TOEPLITZ_RTOL,
    Reached,
    cs_gamma,
    frac_gap,
    frac_identity,
    frac_inv_sqrt_coefficients,
    frac_matmul,
    frac_toeplitz_inv_sqrt,
    raise_reached,
    random_spec,
)

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def rand_unit_lower_toeplitz(rng, p, scale=1.0):
    """Unit lower-triangular Toeplitz with subdiagonals in the scaled unit disc."""
    g3 = np.eye(p, dtype=complex)
    for d in range(1, p):
        mag = scale * np.sqrt(rng.uniform())
        ang = rng.uniform(0.0, 2.0 * np.pi)
        g3 += mag * np.exp(1j * ang) * np.diag(np.ones(p - d), -d)
    return g3


# ---------------------------------------------------------------------------
# toeplitz_inv_sqrt


def test_toeplitz_identity():
    np.testing.assert_array_equal(toeplitz_inv_sqrt(np.eye(3)), np.eye(3))


def test_toeplitz_two_by_two_hand_case():
    a = 0.8 - 0.3j
    g3 = np.array([[1, 0], [a, 1]], dtype=complex)
    f = toeplitz_inv_sqrt(g3)
    np.testing.assert_allclose(f, [[1, 0], [-a / 2, 1]], atol=1e-15)
    np.testing.assert_allclose(f @ f @ g3, np.eye(2), atol=1e-15)


def test_toeplitz_three_by_three_hand_expansion():
    # subdiagonals (a, b): series gives I - (a/2) E + (3a^2/8 - b/2) E^2
    a, b = 0.37, -1.2
    g3 = np.eye(3) + a * np.diag([1, 1], -1) + b * np.diag([1], -2)
    f = toeplitz_inv_sqrt(g3)
    e = np.diag([1.0, 1.0], -1)
    expected = np.eye(3) - (a / 2) * e + (3 * a * a / 8 - b / 2) * (e @ e)
    np.testing.assert_allclose(f, expected, atol=1e-14)
    np.testing.assert_allclose(f @ f @ g3, np.eye(3), atol=1e-14)


def test_toeplitz_rejects_bad_input():
    with pytest.raises(NotUnitTriangularError):
        toeplitz_inv_sqrt(np.array([[2.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(NotUnitTriangularError):
        toeplitz_inv_sqrt(np.array([[1.0, 0.5], [1.0, 1.0]]))


@pytest.mark.parametrize("g3, error, message", [
    pytest.param(np.ones((2, 3)), ValueError, "g3 must be square", id="not_square"),
    # Fractions would otherwise run through float arithmetic unnoticed
    pytest.param(np.array(frac_identity(2), dtype=object), ValueError,
                 "g3 must be a float or complex array, not dtype object", id="object_array"),
])
def test_toeplitz_rejects_a_malformed_input(g3, error, message):
    with pytest.raises(error, match=message):
        toeplitz_inv_sqrt(g3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-20, max_value=20), min_size=0, max_size=7))
def test_toeplitz_exact_rational_contract(subdiagonals):
    # the exact series solves F F G = I, and the kernel on G rounded to
    # floats lands on it entrywise
    p = len(subdiagonals) + 1
    g3 = frac_identity(p)
    for d, v in enumerate(subdiagonals, start=1):
        for i in range(d, p):
            g3[i][i - d] = v
    f = frac_toeplitz_inv_sqrt(g3)
    assert frac_matmul(frac_matmul(f, f), g3) == frac_identity(p)
    assert frac_gap(toeplitz_inv_sqrt(np.array(g3, dtype=float)), f) <= TOEPLITZ_RTOL


def test_inv_sqrt_coefficients_are_the_exact_series_rounded():
    # every size up to the largest catalogue block, and a long prefix
    largest = max(b["size"] for workload in json.loads(REFERENCE.read_text()).values()
                  for entry in workload["entries"] for b in entry["spec"]["blocks"])
    for count in (*range(1, largest + 1), 400):
        got = _inv_sqrt_coefficients(count)
        assert all(type(c) is float for c in got)
        assert got == tuple(map(float, frac_inv_sqrt_coefficients(count)))


def _numpy_checked_toeplitz_inv_sqrt(g3):
    """``toeplitz_inv_sqrt`` as it checked its input with numpy reductions
    and rounded its coefficients on every call; the reference for the
    property below."""
    g3 = np.atleast_2d(np.asarray(g3))
    p = g3.shape[0]
    if g3.shape != (p, p):
        raise ValueError("g3 must be square")
    if g3.size and not np.all(np.isfinite(g3)):
        raise ValueError("g3 contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(g3))))
    if np.max(np.abs(np.diag(g3) - 1.0)) > STRUCT_RTOL * scale:
        raise NotUnitTriangularError("diagonal deviates from 1 beyond tolerance")
    if p > 1 and np.max(np.abs(np.triu(g3, 1))) > STRUCT_RTOL * scale:
        raise NotUnitTriangularError("upper part deviates from 0 beyond tolerance")
    e = np.tril(g3, -1)
    coeffs = frac_inv_sqrt_coefficients(p)
    f = np.eye(p, dtype=g3.dtype)
    ek = f.copy()
    for k in range(1, p):
        ek = ek @ e
        f = f + float(coeffs[k]) * ek
    return f


#: Entry edits: a factor of the gate's limit on the diagonal's deviation or
#: on one upper entry (away from 1 by far more than the last-bit difference
#: between numpy's vector hypot and the scalar one), a signed zero, or a
#: value no gate lets through.
_TOEPLITZ_EDITS = ("none", "diag", "upper", "minus_zero", "nan", "inf", "-inf",
                   "bad_diag", "bad_upper")


@st.composite
def _toeplitz_inputs(draw):
    p = draw(st.integers(1, 5))
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    sub = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
    g3 = np.eye(p, dtype=dtype)
    for i in range(1, p):
        for j in range(i):
            g3[i, j] = draw(sub)
            if dtype is np.complex128:
                g3[i, j] += 1j * draw(sub)
    limit = 1e-8 * max(1.0, float(np.max(np.abs(g3))))
    phase = 1.0 if dtype is np.float64 else np.exp(1j * draw(st.floats(0.0, 6.28)))
    edit = draw(st.sampled_from(_TOEPLITZ_EDITS))
    i = draw(st.integers(0, p - 1))
    j = draw(st.integers(i, p - 1))
    factor = draw(st.sampled_from([0.5, 0.999, 1.001, 2.0]))
    if edit == "diag":
        g3[i, i] = 1.0 + factor * limit * phase
    elif edit == "upper" and j > i:
        g3[i, j] = factor * limit * phase
    elif edit == "minus_zero":
        g3[i, j] = -0.0
    elif edit in ("nan", "inf", "-inf"):
        g3[draw(st.integers(0, p - 1)), i] = float(edit)
    elif edit == "bad_diag":
        g3[i, i] = 2.0
    elif edit == "bad_upper" and j > i:
        g3[i, j] = 0.5
    return g3


@settings(max_examples=400, deadline=None)
@given(_toeplitz_inputs())
def test_toeplitz_matches_its_numpy_checked_construction_bit_for_bit(g3):
    try:
        want = _numpy_checked_toeplitz_inv_sqrt(g3)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            toeplitz_inv_sqrt(g3)
        assert str(got.value) == str(exc)
        return
    got = toeplitz_inv_sqrt(g3)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def test_toeplitz_numeric_contract():
    rng = np.random.default_rng(41)
    for _ in range(100):
        p = int(rng.integers(1, 9))
        g3 = rand_unit_lower_toeplitz(rng, p, scale=0.9)
        f = toeplitz_inv_sqrt(g3)
        assert mat_norm(f @ f @ g3 - np.eye(p)) <= 1e-12
        # F is unit lower triangular Toeplitz itself
        assert np.allclose(np.diag(f), 1.0)
        for d in range(1, p):
            diag = np.diag(f, -d)
            assert np.allclose(diag, diag[0])


# ---------------------------------------------------------------------------
# per-block steps


def test_phase_step_trivial_anchor():
    anc = GramAnchor(1.0 + 0.0j, 0)
    np.testing.assert_allclose(phase_step(anc, 2), np.eye(4), atol=1e-15)


def test_phase_step_rotated_anchor():
    g0 = 2.0 * np.exp(1j * np.pi / 3)
    anc = GramAnchor(g0, 0)
    assert anc.r == pytest.approx(2.0)
    assert anc.s == pytest.approx(1.0)
    z2 = phase_step(anc, 1)
    np.testing.assert_allclose(np.diag(z2),
                               [np.exp(-1j * np.pi / 6) / np.sqrt(2),
                                np.exp(+1j * np.pi / 6) / np.sqrt(2)], atol=1e-15)
    # transformed anchor: conj(b) * a * g0 = s
    assert np.conj(z2[1, 1]) * z2[0, 0] * g0 == pytest.approx(1.0)


def test_phase_step_negative_real_anchor():
    anc = GramAnchor(-3.0 + 0.0j, 0)
    assert anc.s == pytest.approx(3.0) and anc.phi == pytest.approx(np.pi)
    z2 = phase_step(anc, 1)
    np.testing.assert_allclose(np.diag(z2), [np.exp(-0.5j * np.pi),
                                             np.exp(+0.5j * np.pi)], atol=1e-15)
    assert np.conj(z2[1, 1]) * z2[0, 0] * (-3.0) == pytest.approx(3.0)


def test_pure_imaginary_anchor_raises():
    # refused at construction, with the block index, before any step reads it
    for g0, i, message in ((0.25j, 3, "purely imaginary"), (0j, 0, "zero Gram anchor"),
                           (complex(pipeline.ANCHOR_TOL, 1.0), 5, "purely imaginary"),
                           (complex(-0.5 * pipeline.ANCHOR_TOL, -2.0), 6, "purely imaginary")):
        with pytest.raises(PureImaginaryAnchorError, match=message) as err:
            GramAnchor(g0, i)
        assert err.value.block_index == i


def test_anchor_derives_its_polar_pieces_at_construction():
    anc = GramAnchor(complex(2.0 * pipeline.ANCHOR_TOL, 1.0), 2)
    assert (anc.g0, anc.block_index) == (complex(2.0 * pipeline.ANCHOR_TOL, 1.0), 2)
    assert (anc.r, anc.s) == (abs(anc.g0), 2.0 * pipeline.ANCHOR_TOL)
    assert anc.phi == float(np.angle(anc.g0))
    assert GramAnchor(-3 + 0j, 0) == GramAnchor(-3.0, 0)


def test_scale_step_values():
    anc1 = GramAnchor(1.0 + 0j, 0)
    np.testing.assert_array_equal(scale_step(anc1, 2), np.eye(4))
    anc4 = GramAnchor(4.0 + 0j, 0)
    np.testing.assert_allclose(scale_step(anc4, 1), 0.5 * np.eye(2))
    anc2 = GramAnchor(2.0 + 0j, 0)
    z3 = scale_step(anc2, 1)
    np.testing.assert_allclose(z3, np.eye(2) / np.sqrt(2))
    assert np.conj(z3[1, 1]) * z3[0, 0] * 2.0 == pytest.approx(1.0)


def test_flip_step_identity_case():
    blk = np.zeros((4, 4), dtype=complex)
    blk[2:, :2] = np.fliplr(np.eye(2))
    blk[:2, 2:] = np.fliplr(np.eye(2))
    np.testing.assert_allclose(flip_step(blk), np.eye(4), atol=1e-15)


def test_flip_step_random_hankel_blocks():
    rng = np.random.default_rng(17)
    for p in range(2, 7):
        for _ in range(10):
            # unit anti-diagonal lower anti-triangular Hankel cross part
            g2 = np.zeros((p, p), dtype=complex)
            vals = rng.normal(size=p - 1) + 1j * rng.normal(size=p - 1)
            for r in range(p):
                for c in range(p):
                    k = r + c - (p - 1)
                    if k == 0:
                        g2[r, c] = 1.0
                    elif k > 0:
                        g2[r, c] = vals[k - 1]
            blk = np.zeros((2 * p, 2 * p), dtype=complex)
            blk[p:, :p] = g2
            blk[:p, p:] = g2.conj().T
            z4 = flip_step(blk)
            f_up = z4[:p, :p]
            assert mat_norm(f_up.T @ g2 @ f_up - np.fliplr(np.eye(p))) <= 1e-12


# ---------------------------------------------------------------------------
# symmetrize and the full pipeline


def test_symmetrize_reproduces_paper_gram(ex_l, ex_h, ex_spec, ex_l_gram):
    z1, z1_norm = symmetrize_step(ex_spec, [ex_l[:, :2]], 1.0)
    assert z1_norm == mat_norm(z1)
    np.testing.assert_allclose(z1, ex_l, atol=1e-14)
    np.testing.assert_allclose(z1.conj().T @ ex_h @ z1, ex_l_gram, atol=1e-13)


def test_symmetrize_conditioning_check(ex_spec):
    # a real chain makes both halves collide, which must be rejected
    with pytest.raises(SingularBasisError):
        symmetrize_step(ex_spec, [np.eye(4, dtype=complex)[:, :2]], 1.0)


def test_symmetrize_gamma_scales_second_half(ex_l, ex_h, ex_spec):
    chains = [ex_l[:, :2]]
    z1, _ = symmetrize_step(ex_spec, chains, 1j)
    np.testing.assert_allclose(z1[:, 2:], 1j * np.conj(ex_l[:, :2]), atol=1e-14)
    # the conjugate-against-plain Gram block picks up conj(gamma); verify
    # against a direct recomputation from the gamma = 1 assembly
    direct = z1.conj().T @ ex_h @ z1
    base, _ = symmetrize_step(ex_spec, chains, 1.0)
    base_gram = base.conj().T @ ex_h @ base
    np.testing.assert_allclose(direct[2:, :2], -1j * base_gram[2:, :2], atol=1e-13)


def test_focs_paper_example_matches_m(ex_a, ex_h, ex_spec, ex_m, ex_j, ex_p):
    basis, trace = focs_basis(ex_a, ex_h, ex_spec, 1.0)
    assert basis.cert.similarity <= 1e-10
    assert basis.cert.congruence <= 1e-10
    assert basis.gamma == pytest.approx(1.0, abs=1e-12)
    # equal to the known FOCS matrix up to the residual sign gauge
    d_plus = mat_norm(basis.matrix - ex_m)
    d_minus = mat_norm(basis.matrix + ex_m)
    assert min(d_plus, d_minus) <= 1e-12 * mat_norm(ex_m)


def test_focs_rejects_complex_pair(ex_spec, ex_j, ex_p):
    # the complex canonical pair sits outside the construction's real domain
    with pytest.raises(NotRealError):
        focs_basis(ex_j, ex_p, ex_spec, 1.0)


def test_focs_all_real_canonical_pair_gives_identity():
    spec = JordanSpec((BlockSpec("real", 2.0, 2, 1), BlockSpec("real", -1.0, 1, -1)))
    j = real_jordan_form(spec)
    p = sip_form(spec)
    basis, _ = focs_basis(j, p, spec, 1.0)
    assert mat_norm(basis.matrix - np.eye(3)) <= 1e-12
    assert basis.cert.similarity <= 1e-12 and basis.cert.congruence <= 1e-12


def test_focs_real_canonical_pair_zero_residuals(ex_spec):
    a = real_jordan_form(ex_spec)
    p = sip_form(ex_spec)
    basis, _ = focs_basis(a, p, ex_spec, 1.0j)
    assert basis.cert.similarity <= 1e-12 and basis.cert.congruence <= 1e-12
    assert basis.gamma == pytest.approx(1.0j, abs=1e-12)


def test_focs_gamma_i_column_relation(ex_a, ex_h, ex_spec):
    # two bases with different scalars cannot share first halves (the
    # flipped-orthogonality couples the halves); the actual relation is a
    # fixed eighth-turn block phase, unique up to sign
    b1, _ = focs_basis(ex_a, ex_h, ex_spec, 1.0)
    bi, _ = focs_basis(ex_a, ex_h, ex_spec, 1.0j)
    assert bi.cert.similarity <= 1e-10 and bi.cert.congruence <= 1e-10
    assert abs(abs(bi.gamma) - 1.0) <= 1e-10
    assert cs_gamma(bi.matrix, ex_spec) == pytest.approx(bi.gamma)
    turn = np.exp(0.25j * np.pi)
    dev = min(mat_norm(bi.matrix - turn * b1.matrix),
              mat_norm(bi.matrix + turn * b1.matrix))
    assert dev <= 1e-12 * mat_norm(b1.matrix)


def test_focs_trace_stays_cs_after_every_step(ex_a, ex_h, ex_spec):
    basis, tr = focs_basis(ex_a, ex_h, ex_spec, 1.0)
    stage = tr.chain_factor
    for factor in (tr.phase_factor, tr.scale_factor, tr.flip_factor):
        g = cs_gamma(stage, ex_spec)
        assert abs(abs(g) - 1.0) <= 1e-10
        stage = stage @ factor
    np.testing.assert_allclose(stage, basis.matrix, atol=1e-13)


def test_focs_factors_commute_with_jordan_form(ex_a, ex_h, ex_spec, ex_j):
    _, tr = focs_basis(ex_a, ex_h, ex_spec, 1.0)
    for z in (tr.phase_factor, tr.scale_factor, tr.flip_factor):
        assert mat_norm(z @ ex_j - ex_j @ z) <= 1e-10 * mat_norm(z)


def test_focs_table_gram_assertions(ex_a, ex_h, ex_spec, ex_p):
    _, tr = focs_basis(ex_a, ex_h, ex_spec, 1.0)
    p = 2
    z = tr.gram_raw[p:, :p]
    assert abs(z[0, 0]) <= 1e-10                       # anti-triangular zero
    assert abs(z[0, 1] - z[1, 0]) <= 1e-10             # Hankel
    anc1 = np.mean(np.diag(np.fliplr(tr.gram_phased[p:, :p])))
    assert abs(anc1.imag) <= 1e-10 and anc1.real > 0   # real anchor
    anc2 = np.mean(np.diag(np.fliplr(tr.gram_scaled[p:, :p])))
    assert abs(anc2 - 1.0) <= 1e-10                    # unit anchor
    z4 = tr.flip_factor
    final = z4.conj().T @ tr.gram_scaled @ z4
    assert mat_norm(final - ex_p) <= 1e-10             # sip Gram


def _spread(value, n):
    """n x n matrix with ``value`` at four entries in distinct rows and
    columns: spectral norm ``value``, Frobenius norm ``2 value``."""
    e = np.zeros((n, n))
    for r, c in ((0, 1), (1, 0), (2, 3), (3, 2)):
        e[r, c] = value
    return e


def test_final_sip_gate_is_spectral(ex_a, ex_h, ex_spec, monkeypatch):
    # Frobenius above stol but spectral below passes, spectral above
    # raises: the final deviation from the sip form is shifted by moving
    # the target; tol=1 keeps the certificate gate out of the way
    _, tr = focs_basis(ex_a, ex_h, ex_spec, 1.0)
    stol = pipeline.STRUCT_RTOL * max(1.0, mat_norm(ex_h) * mat_norm(tr.chain_factor) ** 2)
    for value, passes in ((0.9 * stol, True), (1.1 * stol, False)):
        shift = _spread(value, 4)
        monkeypatch.setattr(pipeline, "sip_form", lambda spec: sip_form(spec) + shift)
        if passes:
            assert np.linalg.norm(shift) > stol
            focs_basis(ex_a, ex_h, ex_spec, 1.0, tol=1.0)
        else:
            with pytest.raises(StructureMismatchError, match="final Gram deviates"):
                focs_basis(ex_a, ex_h, ex_spec, 1.0, tol=1.0)


def test_selfadjoint_precheck_limit_is_spectral(ex_spec, monkeypatch):
    # ||a||_2 = 40 is twice a's largest column norm, so a residual between
    # STRUCT_RTOL times the two passes
    monkeypatch.setattr(pipeline, "jordan_chains", raise_reached)
    h = np.eye(4)
    skew = np.zeros((4, 4))
    skew[0, 1], skew[1, 0] = 1.0, -1.0
    for residual, passes in ((3e-7, True), (5e-7, False)):
        a = 10.0 * np.ones((4, 4)) + 0.5 * residual * skew
        limit = pipeline.STRUCT_RTOL * mat_norm(a) * mat_norm(h)
        assert pipeline.STRUCT_RTOL * np.max(np.linalg.norm(a, axis=0)) < residual
        assert mat_norm(h @ a - a.T @ h) == pytest.approx(residual, rel=1e-6)
        if passes:
            assert residual <= limit
            with pytest.raises(Reached):
                focs_basis(a, h, ex_spec)
        else:
            with pytest.raises(StructureMismatchError,
                               match=f"residual {residual:.3e} > {limit:.3e}"):
                focs_basis(a, h, ex_spec)


def test_focs_rejects_wrong_sign_characteristic():
    spec_plus = JordanSpec((BlockSpec("real", 2.0, 2, 1),))
    spec_minus = JordanSpec((BlockSpec("real", 2.0, 2, -1),))
    j = np.array([[2.0, 1.0], [0.0, 2.0]])
    p = sip_form(spec_plus)
    basis, _ = focs_basis(j, p, spec_plus)
    assert basis.eps == (1,)
    with pytest.raises(StructureMismatchError):
        focs_basis(j, p, spec_minus)


def test_focs_eps_is_the_specs_signs():
    spec = JordanSpec((BlockSpec("real", 2.0, 2, np.int64(-1)), BlockSpec("pair", 1j, 1)))
    basis, _ = focs_basis(real_jordan_form(spec), sip_form(spec), spec, 1j)
    assert basis.eps == (-1, None) and type(basis.eps[0]) is int


def test_focs_rejects_non_selfadjoint_pair(ex_spec):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4))
    with pytest.raises(StructureMismatchError):
        focs_basis(a, np.eye(4), ex_spec)


def test_phase_guard_saves_systematic_degenerate_case(ex_spec, monkeypatch):
    # gamma = 1 on the real canonical pair puts the raw anchor exactly on
    # the imaginary axis; the documented chain pre-rotation makes it pass
    a = real_jordan_form(ex_spec)
    p = sip_form(ex_spec)
    basis, _ = focs_basis(a, p, ex_spec, 1.0)
    assert basis.cert.congruence <= 1e-12
    monkeypatch.setattr(pipeline, "PHASE_GUARD", 0.0)
    with pytest.raises(PureImaginaryAnchorError):
        focs_basis(a, p, ex_spec, 1.0)


@pytest.mark.parametrize("gamma", [complex("nan"), complex(float("inf"), 0.0),
                                   complex(1.0, float("nan"))])
def test_focs_rejects_non_finite_gamma(ex_a, ex_h, ex_spec, gamma):
    with pytest.raises(ValueError, match="finite"):
        focs_basis(ex_a, ex_h, ex_spec, gamma)


@pytest.mark.parametrize("gamma", [1e308, 1e308 + 1e308j, -1e308j])
def test_focs_refuses_an_overflowing_gamma_without_warnings(ex_a, ex_h, ex_spec, gamma):
    # the prospective anchor, and here the chain factor too, overflow; under
    # the suite's warnings-as-errors their RuntimeWarning would be raised in
    # place of the conditioning check's error
    with pytest.raises(SingularBasisError, match="chain basis is numerically singular"):
        focs_basis(ex_a, ex_h, ex_spec, gamma)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_focs_rejects_a_tol_that_is_not_finite_and_positive(ex_a, ex_h, ex_spec, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        focs_basis(ex_a, ex_h, ex_spec, 1.0, tol=tol)


def test_focs_anchored_reproduces_reference(ex_a, ex_h, ex_spec):
    # chains fitted to the reference's own columns rebuild the reference
    ref, _ = focs_basis(ex_a, ex_h, ex_spec, 1.0)
    again, tr = anchored_canonize(ex_a, ex_h, ex_spec, ref)
    assert mat_norm(again.matrix - ref.matrix) <= 1e-12
    n = ex_a.shape[0]
    for z in (tr.phase_factor, tr.scale_factor, tr.flip_factor):
        assert mat_norm(z - np.eye(n)) <= 1e-12


# ---------------------------------------------------------------------------
# each construction gate trips on one corrupted upstream value


def _corrupt(monkeypatch, name, corrupt):
    """Replace ``pipeline.<name>`` by ``corrupt`` of the real function's result."""
    real = getattr(pipeline, name)
    monkeypatch.setattr(pipeline, name, lambda *a, **k: corrupt(real(*a, **k)))


def _negate_second_half(z2):
    p = z2.shape[0] // 2
    out = z2.copy()
    out[p:, p:] *= -1.0
    return out


@pytest.mark.parametrize("case", ["phase_step", "scale_step", "certificate", "gamma_drift"])
def test_each_construction_gate_trips(ex_a, ex_h, ex_spec, monkeypatch, case):
    gamma = 1.0
    error = StructureMismatchError
    if case in ("phase_step", "scale_step"):
        # the phase and scale steps have no gate of their own: an anchor of
        # -1 or 4 reaches flip_step, whose unit-diagonal check refuses it
        corrupt = _negate_second_half if case == "phase_step" else lambda z3: 2.0 * z3
        _corrupt(monkeypatch, case, corrupt)
        error, message = NotUnitTriangularError, "diagonal deviates from 1 beyond tolerance"
    elif case == "certificate":
        monkeypatch.setattr(pipeline, "affiliation_residuals", lambda *a, **k: (2e-9, 3e-9))
        message = r"similarity 2\.000e-09, congruence 3\.000e-09 vs tol 1\.0e-10"
    else:
        gamma = 1.0j
        _corrupt(monkeypatch, "conjugate_symmetry_fit", lambda fit: (1.5 * fit[0], *fit[1:]))
        message = r"requested \|1j\| = 1, got 1\.5"
    with pytest.raises(error, match=message):
        focs_basis(ex_a, ex_h, ex_spec, gamma)


# ---------------------------------------------------------------------------
# the later gates refuse every chain set the intermediate Gram gate refused


def _check_gram_structure(gram, spec, stol):
    """The check ``focs_basis`` ran on the Gram ``Z1^H H Z1`` of its chain
    factor before the phase step, kept here as the reference of the
    property below: block diagonal, signed sip on real blocks, zero
    diagonal sub-blocks and an anti-triangular Hankel cross part on pair
    blocks.  Raises :class:`StructureMismatchError` where it refused."""
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
        if b.kind == "real":
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
        zl = z.tolist()
        for r in range(p):
            for c in range(p):
                if r + c < p - 1 and abs(zl[r][c]) > stol:
                    raise StructureMismatchError(
                        f"pair block {i} Gram has mass above the anti-diagonal")
                if r + 1 < p and c >= 1 and abs(zl[r][c] - zl[r + 1][c - 1]) > stol:
                    raise StructureMismatchError(
                        f"pair block {i} Gram is not Hankel")


def _corrupt_chains(chains, rng, how, level):
    """``chains`` with a cross-block leak (block j's chain, mixed, added to
    block i's) or with random noise added to every chain, at ``level``
    relative to the chain it lands on in the Frobenius norm."""
    out = [c.copy() for c in chains]
    if how == "leak":
        i, j = rng.choice(len(out), size=2, replace=False)
        add = chains[j] @ rng.standard_normal((chains[j].shape[1], chains[i].shape[1]))
        if not np.iscomplexobj(out[i]):
            add = add.real
        out[i] += level * np.linalg.norm(chains[i]) / np.linalg.norm(add) * add
    else:
        for c in out:
            add = rng.standard_normal(c.shape)
            if np.iscomplexobj(c):
                add = add + 1j * rng.standard_normal(c.shape)
            c += level * np.linalg.norm(c) / np.linalg.norm(add) * add
    return out


def _refusals(spec, seed, corruption_seed, how, level, gamma):
    """``(reference, code)`` for one corrupted chain set of ``spec``'s pair
    drawn from ``seed``: the Gram gate's refusal message (None where it
    passes, or where ``focs_basis`` stopped before the chain factor) and the
    code of the error ``focs_basis`` raised (None where it returned)."""
    _, a, h = _draw_similarity(spec, seed)
    chains = _corrupt_chains(jordan_chains(a, spec), np.random.default_rng(corruption_seed),
                             how, level)
    # Z1 is seen even when focs_basis raises after the symmetrize step
    seen = []
    symmetrize = pipeline.symmetrize_step

    def spy(*args):
        seen.append(symmetrize(*args))
        return seen[-1]

    code = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "symmetrize_step", spy)
        try:
            focs_basis(a, h, spec, gamma, chains=chains)
        except CanonError as exc:
            code = exc.code
    if not seen:
        return None, code
    ((z1, z1_norm),) = seen
    stol = STRUCT_RTOL * max(1.0, mat_norm(h) * z1_norm ** 2)
    try:
        _check_gram_structure(z1.conj().T @ h @ z1, spec, stol)
    except StructureMismatchError as exc:
        return str(exc), code
    return None, code


@settings(max_examples=60, deadline=None)
@given(spec_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
       corruption_seed=st.integers(0, 2**32 - 1), how=st.sampled_from(["leak", "noise"]),
       level=st.sampled_from([1e-9, 1e-7, 1e-5, 1e-3]), gamma=st.sampled_from([1.0, 1j]))
def test_later_gates_refuse_what_the_gram_gate_refused(spec_seed, seed, corruption_seed,
                                                       how, level, gamma):
    spec = random_spec(np.random.default_rng(spec_seed))
    assume(len(spec.blocks) >= 2)
    reference, code = _refusals(spec, seed, corruption_seed, how, level, gamma)
    if reference is not None:
        assert code in ("STRUCTURE_MISMATCH", "NOT_UNIT_TRIANGULAR"), (reference, code)


#: Largest gap of a pair block's Gram anchor from its target after the
#: phase step (relative to s) and after the scale step (from 1): 100 times
#: 9.22e-16, the worst gap of a 10 000-example run of the property below,
#: rounded up.
ANCHOR_STEP_BOUND = 9.3e-14


def _step_anchor_gaps(spec_seed, seed, gamma):
    """The gaps |g1 / s - 1| and |g2 - 1| of each pair block of a random
    spec's FOCS construction at ``gamma``, where ``g1`` and ``g2`` are the
    anchors after the phase and the scale step."""
    spec = random_spec(np.random.default_rng(spec_seed))
    _, a, h = _draw_similarity(spec, seed)
    _, tr = focs_basis(a, h, spec, gamma)
    gaps = []
    for i, (off, b) in enumerate(spec.offsets()):
        if b.kind == "pair":
            s = GramAnchor(pipeline._anchor_g0(tr.gram_raw, off, b.size), i).s
            gaps.append((abs(pipeline._anchor_g0(tr.gram_phased, off, b.size) / s - 1),
                         abs(pipeline._anchor_g0(tr.gram_scaled, off, b.size) - 1)))
    return gaps


@settings(max_examples=200, deadline=None)
@given(spec_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
       modulus=st.one_of(st.just(1.0), st.floats(0.25, 4.0)),
       angle=st.floats(-np.pi, np.pi))
def test_phase_and_scale_steps_set_the_anchor(spec_seed, seed, modulus, angle):
    # no gate checks these steps: they set each anchor to s, then to 1, by
    # construction, and flip_step refuses an anchor far from 1
    gaps = _step_anchor_gaps(spec_seed, seed, modulus * np.exp(1j * angle))
    assume(gaps)
    for phased, scaled in gaps:
        assert phased <= ANCHOR_STEP_BOUND and scaled <= ANCHOR_STEP_BOUND
