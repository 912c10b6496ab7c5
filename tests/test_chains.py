"""Chain extraction and real-block sip reduction."""

import numpy as np
import pytest

from indefcanon import (
    BlockSpec,
    DegenerateGramError,
    EigenvalueDriftError,
    JordanSpec,
    StructureMismatchError,
    fit_chain_to,
    jordan_chains,
    jordan_form,
    mat_norm,
    real_jordan_form,
    reduce_real_chain,
    sip_form,
)

from indefcanon import chains
from indefcanon.chains import GRAM_RTOL, _jordan_chains

from conftest import crat_from_int_matrix, crat_matmul, crat_rank, random_spec


def chain_residuals(a, lam, chain):
    """Max residual of the chain recurrences."""
    n = a.shape[0]
    b = a.astype(complex) - lam * np.eye(n)
    res = [np.linalg.norm(b @ chain[:, 0])]
    for j in range(1, chain.shape[1]):
        res.append(np.linalg.norm(b @ chain[:, j] - chain[:, j - 1]))
    return max(res)


def test_chains_of_canonical_form_are_standard_basis(ex_spec):
    j = jordan_form(ex_spec)
    chain = jordan_chains(j, ex_spec)[0]
    np.testing.assert_allclose(chain, np.eye(4, dtype=complex)[:, :2], atol=1e-12)


def test_chains_paper_example(ex_a, ex_spec):
    chain = jordan_chains(ex_a, ex_spec)[0]
    assert chain_residuals(ex_a, -2j, chain) <= 1e-10
    b = ex_a.astype(complex) + 2j * np.eye(4)
    assert np.linalg.norm(b @ chain[:, 1]) > 0.1  # generator genuinely order 2


def test_chains_rank_oracle_paper_example(ex_a):
    # exact rank of (A + 2iI)^j over the Gaussian rationals
    a_int = ex_a.astype(int).tolist()
    b = crat_from_int_matrix(a_int, 0, 2)    # A + 2i I
    b2 = crat_matmul(b, b)
    assert crat_rank(b) == 3                 # nullity 1
    assert crat_rank(b2) == 2                # nullity 2
    b3 = crat_matmul(b2, b)
    assert crat_rank(b3) == 2                # nullity saturates at the block size


def test_chains_wrong_size_spec_is_rejected(ex_a):
    bad = JordanSpec((BlockSpec("pair", -2j, 1), BlockSpec("pair", 2j * 1.0001, 1)))
    with pytest.raises((StructureMismatchError, EigenvalueDriftError)):
        jordan_chains(ex_a, bad)


def test_chains_wrong_size_matrix_is_rejected(ex_a, ex_spec):
    with pytest.raises(StructureMismatchError,
                       match=r"matrix size \(3, 3\) does not match spec size 4"):
        jordan_chains(ex_a[:3, :3], ex_spec)


def test_chains_eigenvalue_drift(ex_a, ex_spec):
    shifted = JordanSpec((BlockSpec("pair", -2j + 0.5, 2),))
    with pytest.raises(EigenvalueDriftError):
        jordan_chains(ex_a, shifted)


def test_staircase_error_lists_the_nullities_up_to_the_first_step_off():
    # a pair block declared as size 2 that the matrix holds at size 1: the
    # nullities 1, 1 leave the staircase 1, 2, 2 at the second step
    held = JordanSpec((BlockSpec("pair", 1.0 + 2.0j, 1), BlockSpec("real", 3.0, 1, 1),
                       BlockSpec("real", -3.0, 1, 1)))
    declared = JordanSpec((BlockSpec("pair", 1.0 + 2.0j, 2),))
    with pytest.raises(StructureMismatchError, match=r"nullity staircase \[1, 1\] "):
        jordan_chains(real_jordan_form(held), declared)


def test_each_failing_item_builds_one_error(monkeypatch):
    # every block runs on the whole stack; an item whose spectrum is off
    # every block still gets only the error of the first block
    from indefcanon import generate_instance
    spec = JordanSpec((BlockSpec("pair", -0.9 - 1.7j, 3), BlockSpec("real", 2.2, 2, 1),
                       BlockSpec("pair", 1.4 + 0.8j, 2), BlockSpec("real", -2.8, 2, -1),
                       BlockSpec("pair", 0.5 + 2.6j, 2)))
    a = generate_instance(spec, 13).a0
    shifted = a + 0.25 * np.eye(len(a))
    built = []
    staircase_error = chains._staircase_error

    def counted(a, block, nullities):
        built.append((block, nullities))
        return staircase_error(a, block, nullities)

    monkeypatch.setattr(chains, "_staircase_error", counted)
    with pytest.raises(EigenvalueDriftError):
        jordan_chains(shifted, spec)
    assert built == [(spec.blocks[0], [0])]
    out = _jordan_chains(np.stack([shifted, a, shifted]), spec)
    assert [type(x) for x in out] == [EigenvalueDriftError, tuple, EigenvalueDriftError]
    assert built == [(spec.blocks[0], [0])] * 3


def test_chains_real_blocks_stay_real():
    spec = JordanSpec((BlockSpec("real", 2.0, 2, 1),))
    j = np.array([[2.0, 1.0], [0.0, 2.0]])
    assert not np.iscomplexobj(jordan_chains(j, spec)[0])


def test_chain_recurrences_randomized():
    rng = np.random.default_rng(21)
    for _ in range(15):
        spec = random_spec(rng, max_total=8)
        n = spec.total_size
        w = rng.uniform(-1, 1, (n, n))
        while np.linalg.cond(w) > 50:
            w = rng.uniform(-1, 1, (n, n))
        a = w @ real_jordan_form(spec) @ np.linalg.inv(w)
        for b, chain in zip(spec.blocks, jordan_chains(a, spec)):
            assert chain_residuals(a, b.lam, chain) <= 1e-8
            assert np.linalg.matrix_rank(chain) == b.size


def test_pair_gram_has_expected_block_shape(ex_a, ex_h, ex_spec):
    # with the conjugate side synthesized, the pair Gram must have zero
    # diagonal sub-blocks and an anti-triangular Hankel cross block
    chain = jordan_chains(ex_a, ex_spec)[0]
    full = np.concatenate([chain, np.conj(chain)], axis=1)
    g = full.conj().T @ ex_h @ full
    p = 2
    assert mat_norm(g[:p, :p]) <= 1e-12
    assert mat_norm(g[p:, p:]) <= 1e-12
    z = g[p:, :p]
    assert abs(z[0, 0]) <= 1e-12                      # above the anti-diagonal
    assert abs(z[0, 1] - z[1, 0]) <= 1e-12            # Hankel constancy


def test_reduce_noop_when_already_reduced():
    h = np.fliplr(np.eye(2))
    chain = np.eye(2)
    red, eps = reduce_real_chain(chain, h, mat_norm(h))
    np.testing.assert_allclose(red, chain, atol=1e-14)
    assert eps == 1


def test_reduce_scalar_case():
    h = np.array([[-4.0]])
    red, eps = reduce_real_chain(np.array([[1.0]]), h, mat_norm(h))
    assert eps == -1
    np.testing.assert_allclose(red, [[0.5]])


def test_reduce_two_by_two_against_hand_solve():
    # Gram [[0, 2], [2, 3]]: the hand-solved Toeplitz mix is
    # (1/sqrt(2)) [[1, -3/4], [0, 1]], giving the plain sip and sign +1
    h = np.array([[0.0, 2.0], [2.0, 3.0]])
    chain = np.eye(2)
    red, eps = reduce_real_chain(chain, h, mat_norm(h))
    assert eps == 1
    np.testing.assert_allclose(red.T @ h @ red, np.fliplr(np.eye(2)), atol=1e-14)
    hand = np.array([[1.0, -0.75], [0.0, 1.0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(red, hand, atol=1e-14)


def test_reduce_degenerate_gram():
    h = np.array([[1.0, 0.0], [0.0, -1.0]])
    chain = np.array([[1.0], [1.0]])         # isotropic vector: v^T h v = 0
    with pytest.raises(DegenerateGramError):
        reduce_real_chain(chain, h, mat_norm(h))


def _gram_probe(g0):
    """Chain ``[e1, e2]`` (spectral norm 1, Frobenius norm sqrt(2)) and an h
    of norm 1 giving it the Gram anchor ``g0``."""
    h = np.zeros((3, 3))
    h[0, 1] = h[1, 0] = g0
    h[2, 2] = 1.0
    return np.eye(3)[:, :2], h


def test_reduce_degeneracy_floor_is_spectral():
    # |g0| between the spectral floor and the Frobenius one passes
    chain, h = _gram_probe(1.5 * GRAM_RTOL)
    assert GRAM_RTOL * mat_norm(chain) ** 2 <= 1.5 * GRAM_RTOL
    assert GRAM_RTOL * np.linalg.norm(chain) ** 2 > 1.5 * GRAM_RTOL
    red, eps = reduce_real_chain(chain, h, mat_norm(h))
    assert eps == 1
    np.testing.assert_allclose(red.T @ h @ red, np.fliplr(np.eye(2)), atol=1e-12)
    # below the spectral floor it raises, reporting the spectral floor
    chain, h = _gram_probe(0.5 * GRAM_RTOL)
    with pytest.raises(DegenerateGramError,
                       match=r"anchor 5\.000e-11 below degeneracy floor 1\.000e-10"):
        reduce_real_chain(chain, h, mat_norm(h))


def test_reduce_idempotent_and_scale_invariant():
    rng = np.random.default_rng(5)
    spec = JordanSpec((BlockSpec("real", 1.25, 3, -1),))
    n = 3
    w = rng.uniform(-1, 1, (n, n)) + np.eye(n) * 2
    a = w @ real_jordan_form(spec) @ np.linalg.inv(w)
    h = np.linalg.inv(w).T @ sip_form(spec) @ np.linalg.inv(w)
    h = (h + h.T) / 2
    chain = jordan_chains(a, spec)[0]
    red, eps = reduce_real_chain(chain, h, mat_norm(h))
    assert eps == -1
    again, eps2 = reduce_real_chain(red, h, mat_norm(h))
    assert eps2 == eps
    np.testing.assert_allclose(again, red, atol=1e-10)
    # rescaling the chain flips nothing: the Gram scales by a positive square
    red3, eps3 = reduce_real_chain(chain * 7.0, h, mat_norm(h))
    assert eps3 == eps
    np.testing.assert_allclose(red3, red, atol=1e-9)


def test_chains_survive_large_norms():
    # power-based rank thresholds swallow genuine directions once the
    # matrix norm is large; the staircase must not
    from indefcanon import generate_instance
    spec = JordanSpec((BlockSpec("pair", -0.9 - 1.7j, 3), BlockSpec("real", 2.2, 2, 1),
                       BlockSpec("pair", 1.4 + 0.8j, 2), BlockSpec("real", -2.8, 2, -1),
                       BlockSpec("pair", 0.5 + 2.6j, 2)))
    inst = generate_instance(spec, 13)
    for b, chain in zip(spec.blocks, jordan_chains(inst.a0, spec)):
        assert chain_residuals(inst.a0, b.lam, chain) \
            <= 1e-8 * max(1.0, mat_norm(inst.a0))


def test_fit_chain_recovers_target_combination():
    rng = np.random.default_rng(9)
    spec = JordanSpec((BlockSpec("pair", 1 - 1j, 3),))
    j = jordan_form(spec)
    chain = jordan_chains(j, spec)[0]
    coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
    coeffs[0] += 3.0
    target = np.zeros_like(chain)
    for k, c in enumerate(coeffs):
        target[:, k:] += c * chain[:, :3 - k]
    fitted = fit_chain_to(chain, target)
    np.testing.assert_allclose(fitted, target, atol=1e-12)


def _fit_chain_by_stacking(chain, target):
    """The column-stacking form of :func:`fit_chain_to`, kept as its
    reference: the same design matrix, lstsq call and Toeplitz mix."""
    n, p = chain.shape
    basis = []
    shifted = chain.astype(complex)
    for _ in range(p):
        basis.append(shifted.ravel())
        shifted = np.hstack([np.zeros((n, 1)), shifted[:, :-1]])
    coeffs, *_ = np.linalg.lstsq(np.stack(basis, axis=1),
                                 target.astype(complex).ravel(), rcond=None)
    mix = np.zeros((p, p), dtype=complex)
    for j, cj in enumerate(coeffs):
        mix += cj * np.diag(np.ones(p - j), j)
    return chain @ mix


def test_fit_chain_matches_its_stacking_reference_bit_for_bit():
    rng = np.random.default_rng(17)
    for p in range(1, 5):
        for real in (True, False):
            chain = rng.normal(size=(9, p))
            target = chain + 0.1 * rng.normal(size=(9, p))
            if not real:
                chain = chain + 1j * rng.normal(size=(9, p))
                target = target + 1j * rng.normal(size=(9, p))
            want = _fit_chain_by_stacking(chain, target)
            got = fit_chain_to(chain, target)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            # signed zeros too
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
