"""Matrix core: norms, refined inverses, affiliation residuals, JSON codec."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from indefcanon import (
    SingularMatrixError,
    affiliation_residuals,
    mat_norm,
    matrix_from_json,
    matrix_to_json,
)
from indefcanon import linalg
from indefcanon.linalg import (
    gate_norm,
    max_imag,
    norm_and_rcond,
    refined_inverse,
    require_number,
)

from conftest import bisect_largest_root, frac_charpoly, frac_inv, frac_matmul, frac_transpose


def test_spectral_norm_identity():
    assert mat_norm(np.eye(3)) == pytest.approx(1.0)


def test_spectral_norm_sip(ex_p):
    assert mat_norm(ex_p) == pytest.approx(1.0)


def test_spectral_norm_zero_and_empty():
    assert mat_norm(np.zeros((3, 3))) == 0.0
    assert mat_norm(np.zeros((0, 0))) == 0.0


def test_spectral_norm_against_charpoly_oracle(ex_h):
    # independent oracle: largest eigenvalue of H^T H as a root of its exact
    # characteristic polynomial (square-free part), located by bisection
    h128 = (ex_h * 128).astype(int).tolist()
    hth = frac_matmul(frac_transpose(h128), h128)
    coeffs = frac_charpoly(hth)
    scaled = bisect_largest_root(coeffs)
    expected = np.sqrt(scaled) / 128.0
    assert mat_norm(ex_h) == pytest.approx(expected, rel=1e-12)
    # frozen value from the oracle, so a regression cannot hide in both paths
    assert expected == pytest.approx(0.6389262726948128, rel=1e-12)


def test_max_imag_is_zero_for_a_real_or_empty_matrix():
    assert max_imag(np.array([[1.0, -2.0]])) == 0.0
    assert max_imag(np.zeros((0, 3), dtype=complex)) == 0.0
    assert max_imag(np.array([[1.0 + 2.0j, 3.0 - 5.0j]])) == 5.0


def test_frobenius_norm_flag():
    m = np.array([[3.0, 0.0], [0.0, 4.0]])
    assert mat_norm(m, "frobenius") == pytest.approx(5.0)
    assert mat_norm(m, "spectral") == pytest.approx(4.0)
    with pytest.raises(ValueError):
        mat_norm(m, "nuclear")


def test_gate_norm_takes_the_svd_only_above_the_limit(monkeypatch):
    spectral_calls = []
    real = linalg.mat_norm

    def counted(m, kind="spectral"):
        spectral_calls.append(kind)
        return real(m, kind)

    monkeypatch.setattr(linalg, "mat_norm", counted)
    m = np.array([[3.0, 0.0], [0.0, 4.0]])       # spectral 4, Frobenius 5
    assert gate_norm(m, 5.0) == 5.0               # within the limit: Frobenius
    assert spectral_calls == []
    assert gate_norm(m, 4.5) == 4.0               # above it: the exact value
    assert gate_norm(m, 3.5) == 4.0
    assert spectral_calls == ["spectral", "spectral"]
    assert gate_norm(np.zeros((0, 0)), 0.0) == 0.0


def test_norm_and_rcond_match_the_separate_calls():
    rng = np.random.default_rng(4)
    for m in (rng.normal(size=(6, 6)), rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)),
              np.zeros((3, 3)), np.diag([2.0, 0.0])):
        s = np.linalg.svd(m, compute_uv=False)
        assert norm_and_rcond(m) == (mat_norm(m), float(s[-1] / s[0]) if s[0] else 0.0)
    assert norm_and_rcond(np.zeros((0, 0))) == (0.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7),
               elements=st.floats(-1e6, 1e6, allow_subnormal=False)),
    hnp.arrays(np.complex128, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7),
               elements=st.complex_numbers(max_magnitude=1e6, allow_subnormal=False))))
@example(np.zeros((0, 0)))
@example(np.zeros((0, 3)))
@example(np.zeros((4, 0)))
@example(np.arange(5.0).reshape(5, 1))
@example(np.array([[1.0 + 2.0j], [-3.0j]]))
@example(np.arange(6.0).reshape(2, 3) - 2.5j)
def test_mat_norm_is_the_spectral_norm_bit_for_bit(m):
    # real, complex, rectangular, single-column and empty matrices
    want = float(np.linalg.norm(m, 2))
    assert mat_norm(m) == want
    assert norm_and_rcond(m)[0] == mat_norm(m)


def test_solve_identity_and_scale():
    b = np.arange(6.0).reshape(3, 2)
    np.testing.assert_allclose(refined_inverse(np.eye(3)) @ b, b)
    np.testing.assert_allclose(refined_inverse(2 * np.eye(3)), 0.5 * np.eye(3))


def test_solve_paper_similarity(ex_a, ex_t, ex_j):
    x = refined_inverse(ex_t.astype(complex)) @ (ex_a @ ex_t)
    assert mat_norm(x - ex_j) <= 1e-10


def test_solve_rejects_singular():
    with pytest.raises(SingularMatrixError):
        refined_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_solve_requires_finite():
    with pytest.raises(ValueError):
        refined_inverse(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _svd_gated_refined_inverse(m):
    """``refined_inverse`` as it took the rcond from an SVD before every
    solve; the reference for the property below."""
    m = linalg.require_finite(m, "m")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("m must be square")
    rc = norm_and_rcond(m)[1]
    if rc < linalg.RCOND_FLOOR:
        raise SingularMatrixError(f"matrix is numerically singular (rcond={rc:.3e})")
    eye = np.eye(m.shape[0], dtype=m.dtype)
    v = np.linalg.solve(m, eye)
    return v @ (2.0 * eye - m @ v)


#: Condition numbers around both ends of the bound's margin: the floor
#: itself and ten times it.
_CONDS = (1.0, 1e3, 1e8, 1e11, 0.05 / linalg.RCOND_FLOOR, 0.1 / linalg.RCOND_FLOOR,
          0.2 / linalg.RCOND_FLOOR, 0.5 / linalg.RCOND_FLOOR, 0.99 / linalg.RCOND_FLOOR,
          1.01 / linalg.RCOND_FLOOR, 2.0 / linalg.RCOND_FLOOR, 1e16, float("inf"))


@st.composite
def _conditioned_matrices(draw):
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cplx = draw(st.booleans())

    def orthogonal():
        g = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if cplx else 0.0)
        return np.linalg.qr(g)[0]

    cond = draw(st.sampled_from(_CONDS))
    s = np.geomspace(1.0, 1.0 / cond, n) if np.isfinite(cond) else np.ones(n)
    if not np.isfinite(cond):
        s[draw(st.integers(0, n - 1)):] = 0.0
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return (orthogonal() * (scale * s)) @ orthogonal()


@settings(max_examples=300, deadline=None)
@given(_conditioned_matrices())
@example(np.diag([1.0, 1e-14]))
@example(np.zeros((3, 3)))
@example(np.array([[1.0, 2.0], [2.0, 4.0]]))
def test_refined_inverse_matches_its_svd_gated_construction_bit_for_bit(m):
    try:
        want = _svd_gated_refined_inverse(m)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            refined_inverse(m)
        assert str(got.value) == str(exc)
        return
    got = refined_inverse(m)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def test_refined_inverse_reports_the_exact_rcond():
    with pytest.raises(SingularMatrixError, match=r"rcond=1\.000e-14"):
        refined_inverse(np.diag([1.0, 1e-14]))


def test_refined_inverse_takes_the_svd_only_when_its_bound_misses(monkeypatch):
    calls = []
    real = linalg.norm_and_rcond
    monkeypatch.setattr(linalg, "norm_and_rcond", lambda m: calls.append(m) or real(m))
    rng = np.random.default_rng(5)
    refined_inverse(rng.normal(size=(6, 6)) + 6.0 * np.eye(6))
    assert calls == []
    # rcond 1e-12 clears the floor, but the bound misses its margin of 10
    refined_inverse(np.diag([1.0, 1e-12]))
    assert len(calls) == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([(0, 0), (1, 3), (3, 3), (4, 4), (4, 2)]),
                          st.booleans(), st.integers(0, 2**32 - 1)), min_size=1, max_size=6),
       st.sampled_from(["spectral", "frobenius"]))
def test_mat_norms_match_mat_norm_bit_for_bit(specs, kind):
    ms = []
    for shape, cplx, seed in specs:
        rng = np.random.default_rng(seed)
        m = rng.normal(size=shape) * 10.0 ** rng.uniform(-5, 5)
        ms.append(m + 1j * rng.normal(size=shape) if cplx else m)
    got = linalg.mat_norms(ms, kind)
    assert [float.hex(x) for x in got] == [float.hex(mat_norm(m, kind)) for m in ms]


@pytest.mark.parametrize("kind", ["spectral", "frobenius"])
def test_mat_norms_of_a_non_finite_matrix_are_inf_without_an_svd(monkeypatch, kind):
    # an SVD of a matrix with an inf or NaN entry does not converge
    finite = np.arange(9.0).reshape(3, 3)
    ms = [finite, finite + np.diag([np.inf, 0.0, 0.0]), finite * np.nan]
    want = mat_norm(finite, kind)
    svd = np.linalg.svd

    def finite_svd(m, **kw):
        assert np.isfinite(m).all()
        return svd(m, **kw)

    monkeypatch.setattr(np.linalg, "svd", finite_svd)
    assert linalg.mat_norms(ms, kind) == [want, np.inf, np.inf]


def test_affiliation_residuals_of_an_overflowing_basis_are_inf(ex_a, ex_h, ex_m, ex_j, ex_p):
    # a basis entry of 1e308 overflows the products, with no warning
    t = ex_m.copy()
    t[0, 0] = 1e308
    sim, _ = affiliation_residuals(ex_a, ex_h, t, ex_j, ex_p)
    assert sim == np.inf


def test_affiliation_paper_fixture(ex_a, ex_h, ex_t, ex_j, ex_p):
    sim, cong = affiliation_residuals(ex_a, ex_h, ex_t, ex_j, ex_p)
    assert sim <= 1e-10 and cong <= 1e-10


def test_affiliation_focs_fixture(ex_a, ex_h, ex_m, ex_j, ex_p):
    sim, cong = affiliation_residuals(ex_a, ex_h, ex_m, ex_j, ex_p)
    assert sim <= 1e-10 and cong <= 1e-10


def test_affiliation_identity(ex_j, ex_p):
    sim, cong = affiliation_residuals(ex_j, ex_p, np.eye(4), ex_j, ex_p)
    assert sim == 0.0 and cong == 0.0


def test_affiliation_exact_rational_oracle():
    # integer unimodular T with integer J, P: A = T J T^-1 and H = T^-* P T^-1
    # computed exactly stay integral, so the float residuals are exactly zero
    t = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
    j = [[2, 1, 0], [0, 2, 0], [0, 0, 5]]
    p = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
    t_inv = frac_inv(t)
    a = frac_matmul(frac_matmul(t, j), t_inv)
    h = frac_matmul(frac_matmul(frac_transpose(t_inv), p), t_inv)
    a_f = np.array([[float(x) for x in row] for row in a])
    h_f = np.array([[float(x) for x in row] for row in h])
    assert all(x.denominator == 1 for row in a for x in row)
    sim, cong = affiliation_residuals(a_f, h_f, np.array(t, dtype=float),
                                      np.array(j, dtype=float),
                                      np.array(p, dtype=float))
    assert sim == 0.0 and cong == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(-8, 8).filter(lambda c: abs(c) > 1e-3))
def test_norm_scaling_property(seed, c):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert mat_norm(c * m) == pytest.approx(abs(c) * mat_norm(m), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_norm_submultiplicative_property(seed):
    rng = np.random.default_rng(seed)
    m1 = rng.normal(size=(5, 5))
    m2 = rng.normal(size=(5, 5))
    assert mat_norm(m1 @ m2) <= mat_norm(m1) * mat_norm(m2) * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_solve_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(6, 6)) + np.eye(6) * 3.0
    x = rng.normal(size=(6, 2))
    got = refined_inverse(m) @ (m @ x)
    cond = np.linalg.cond(m)
    assert mat_norm(got - x) <= 1e-12 * cond * max(1.0, mat_norm(x))


def test_matrix_json_roundtrip_complex():
    m = np.array([[1 + 2j, 0], [3.5, -1j]])
    obj = matrix_to_json(m)
    back = matrix_from_json(obj)
    np.testing.assert_array_equal(back, m)


def _per_entry_matrix_to_json(m):
    """The per-entry construction ``matrix_to_json`` had before it took one
    array conversion; the reference for the property below."""
    m = np.atleast_2d(np.asarray(m))
    rows, cols = m.shape
    if np.iscomplexobj(m):
        data = [[float(x.real), float(x.imag)] for x in m.ravel()]
    else:
        data = [float(x) for x in m.ravel()]
    return {"rows": rows, "cols": cols, "data": data}


def _bits(obj):
    """``obj`` with every float as ``float.hex``, so signed zeros count and a
    non-float entry shows up as itself."""
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_bits(v) for v in obj]
    if type(obj) is float:
        return float.hex(obj)
    return (type(obj).__name__, obj)


@st.composite
def _codec_inputs(draw):
    """Matrices of every dtype the codec meets, as plain, transposed or
    strided views, including single rows, empty shapes, NaN, infinities,
    subnormals and signed zeros (the dtype's full range)."""
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64, np.bool_,
                                  np.complex128, np.complex64]))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5))
    m = draw(hnp.arrays(dtype, shape))
    view = draw(st.sampled_from(["plain", "transposed", "strided"]))
    if view == "transposed":
        m = m.T
    elif view == "strided":
        m = m[::-1, ::2] if m.ndim == 2 else m[::2]
    return m


@settings(max_examples=200, deadline=None)
@given(_codec_inputs())
@example(np.array([[5e-324, -0.0, np.nan], [np.inf, -np.inf, 0.0]]))
@example(np.array([[complex(-0.0, 5e-324), complex(np.nan, -0.0)]]))
@example(np.array([[complex(-0.0, -0.0), 1 + 0j]], dtype=np.complex64).T)
@example(np.zeros((0, 3)))
@example(np.zeros((2, 0), dtype=complex))
def test_matrix_to_json_matches_the_per_entry_construction(m):
    got = matrix_to_json(m)
    assert _bits(got) == _bits(_per_entry_matrix_to_json(m))


def test_matrix_json_bare_real_form():
    obj = {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0, 4.0]}
    m = matrix_from_json(obj)
    assert m.dtype == float
    np.testing.assert_array_equal(m, [[1, 2], [3, 4]])


def test_matrix_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [1.0, 2.0]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "data": [1.0, 2.0]})
    # rows and cols are JSON integers >= 0: nothing is truncated or coerced
    for rows, cols in [(2.9, 2), (2.0, 2), ("2", 2), (True, 4), (2, True), (-2, -2)]:
        with pytest.raises(ValueError, match="rows|cols"):
            matrix_from_json({"rows": rows, "cols": cols, "data": [1.0, 2.0, 3.0, 4.0]})


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: require_number(10**400, "lambda"),
                 r"lambda is out of range, got 1000", id="number_out_of_range"),
    pytest.param(lambda: matrix_from_json({"rows": 1, "cols": 2, "data": [[1.0, 0.0], [2.0]]}),
                 r"all \[re, im\] pairs or all bare reals", id="pairs_and_bare_entries"),
])
def test_json_values_are_refused_with_their_reason(call, message):
    with pytest.raises(ValueError, match=message):
        call()
