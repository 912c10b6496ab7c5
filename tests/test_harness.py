"""Instance generation, perturbation, matching, anchoring, and the experiment."""

import numpy as np
import pytest

from indefcanon import (
    AmbiguousMatchError,
    BlockSpec,
    JordanSpec,
    KindMismatchError,
    anchored_canonize,
    estimate_lipschitz,
    generate_instance,
    jordan_form,
    match_eigenvalues,
    perturb_instance,
    real_jordan_form,
    sip_form,
    spectral_norm,
)
from indefcanon import harness
from indefcanon.linalg import affiliation_residuals
from indefcanon.structure import h_selfadjoint_residual

SPEC = JordanSpec((
    BlockSpec("real", 1.5, 2, 1),
    BlockSpec("pair", -0.7 - 1.3j, 2),
    BlockSpec("real", -2.0, 1, -1),
))


@pytest.fixture(scope="module")
def inst():
    return generate_instance(SPEC, 7)


@pytest.fixture(scope="module")
def inst_rc():
    return generate_instance(SPEC, 7, kind="rc")


def test_generate_deterministic():
    a = generate_instance(SPEC, 42)
    b = generate_instance(SPEC, 42)
    np.testing.assert_array_equal(a.a0, b.a0)
    np.testing.assert_array_equal(a.h0, b.h0)
    np.testing.assert_array_equal(a.t0.matrix, b.t0.matrix)


def test_generate_invariants(inst):
    assert h_selfadjoint_residual(inst.a0, inst.h0) <= 1e-12
    assert not np.iscomplexobj(inst.a0) and not np.iscomplexobj(inst.h0)
    assert inst.t0.cert.similarity <= 1e-10
    assert inst.t0.cert.congruence <= 1e-10


def test_generate_forced_identity_similarity():
    inst_i = generate_instance(SPEC, 0, w_override=np.eye(SPEC.total_size))
    np.testing.assert_allclose(inst_i.a0, real_jordan_form(SPEC), atol=1e-15)
    np.testing.assert_allclose(inst_i.h0, sip_form(SPEC), atol=1e-15)


def test_generate_rejects_zero_eigenvalue():
    bad = JordanSpec((BlockSpec("real", 0.0, 1, 1),))
    with pytest.raises(ValueError):
        generate_instance(bad, 1)


def test_generate_rejects_shared_eigenvalue():
    bad = JordanSpec((BlockSpec("real", 2.0, 1, 1), BlockSpec("real", 2.0, 2, 1)))
    with pytest.raises(ValueError):
        generate_instance(bad, 1)


def test_generate_retry_exhausted_on_bad_override():
    from indefcanon import RetryExhaustedError
    singular = np.zeros((SPEC.total_size, SPEC.total_size))
    with pytest.raises(RetryExhaustedError):
        generate_instance(SPEC, 1, w_override=singular)


def test_perturb_zero_delta_short_circuits(inst):
    pair = perturb_instance(inst, 0.0, "strict", 5)
    np.testing.assert_array_equal(pair.a, inst.a0)
    np.testing.assert_array_equal(pair.h, inst.h0)


def test_perturb_deterministic(inst):
    p1 = perturb_instance(inst, 1e-3, "strict", 11)
    p2 = perturb_instance(inst, 1e-3, "strict", 11)
    np.testing.assert_array_equal(p1.a, p2.a)
    np.testing.assert_array_equal(p1.h, p2.h)


def test_perturb_respects_delta_and_quality(inst):
    for delta in (1e-2, 1e-4, 1e-6):
        for seed in range(5):
            pair = perturb_instance(inst, delta, "strict", seed)
            measured = (spectral_norm(pair.a - inst.a0)
                        + spectral_norm(pair.h - inst.h0))
            assert 0.0 < measured <= delta
            assert h_selfadjoint_residual(pair.a, pair.h) <= 1e-10
            assert not np.iscomplexobj(pair.a)


def test_perturb_strict_preserves_spectrum():
    # simple eigenvalues so the computed spectra are trustworthy to 1e-10
    spec = JordanSpec((BlockSpec("real", 1.0, 1, 1),
                       BlockSpec("pair", 2j, 1),
                       BlockSpec("real", -1.5, 1, -1)))
    simple = generate_instance(spec, 3)
    pair = perturb_instance(simple, 1e-3, "strict", 1)
    got = np.sort_complex(np.linalg.eigvals(pair.a))
    want = np.sort_complex(np.linalg.eigvals(simple.a0))
    assert np.max(np.abs(got - want)) <= 1e-10


def test_perturb_weak_shifts_eigenvalues(inst):
    pair = perturb_instance(inst, 1e-3, "weak", 2)
    shifts = [abs(b.lam - b0.lam) for b, b0 in zip(pair.spec.blocks, inst.spec.blocks)]
    assert any(s > 0 for s in shifts)
    assert all(s <= 1e-4 + 1e-15 for s in shifts)
    assert h_selfadjoint_residual(pair.a, pair.h) <= 1e-10


def test_match_identity(inst):
    matched, mspec = match_eigenvalues(inst.spec, inst.a0, cluster_radius=1e-3)
    for m, b in zip(matched, inst.spec.blocks):
        assert abs(m - b.lam) <= 1e-6


def test_match_shifted_spectrum():
    spec = JordanSpec((BlockSpec("real", 1.0, 1, 1), BlockSpec("pair", 2j, 1)))
    shifted = JordanSpec((BlockSpec("real", 1.0 + 1e-6, 1, 1),
                          BlockSpec("pair", 1e-6 + 2.000001j, 1)))
    a = real_jordan_form(shifted)
    matched, mspec = match_eigenvalues(spec, a, cluster_radius=1e-4)
    assert abs(matched[0] - (1.0 + 1e-6)) <= 1e-9
    assert abs(matched[1] - (1e-6 + 2.000001j)) <= 1e-9
    assert mspec.blocks[0].sign == 1


def test_match_ambiguous_equidistant():
    # spectrum {1, 3}: the declared eigenvalue 2 sits equidistant to both
    spec = JordanSpec((BlockSpec("real", 2.0, 1, 1), BlockSpec("real", 10.0, 1, 1)))
    a = np.diag([1.0, 3.0])
    with pytest.raises(AmbiguousMatchError):
        match_eigenvalues(spec, a, cluster_radius=1e-3)


def test_match_kind_mismatch():
    spec = JordanSpec((BlockSpec("pair", 1j, 1),))
    a = np.diag([1.0, 2.0])
    with pytest.raises((KindMismatchError, AmbiguousMatchError)):
        match_eigenvalues(spec, a, cluster_radius=1e-3)


def test_anchored_self_canonize_is_exact(inst):
    basis, trace, _ = anchored_canonize(inst.a0, inst.h0, inst.spec, inst.t0)
    assert spectral_norm(basis.matrix - inst.t0.matrix) <= 1e-12
    n = inst.spec.total_size
    for z in (trace.phase_factor, trace.scale_factor, trace.flip_factor):
        assert spectral_norm(z - np.eye(n)) <= 1e-12
    assert basis.cert.similarity <= 1e-10 and basis.cert.congruence <= 1e-10


def test_anchored_recovers_gauge_flip(inst):
    # flip one pair block by the sip-preserving global phase and anchor to it
    t0 = inst.t0
    d = np.eye(inst.spec.total_size, dtype=complex)
    off = 2  # the pair block starts after the first real block
    d[off:off + 4, off:off + 4] *= np.exp(1j * np.pi / 3)
    flipped = t0.matrix @ d
    from indefcanon.pipeline import CanonicalBasis
    t0_flipped = CanonicalBasis(matrix=flipped, role=t0.role,
                                gamma=t0.gamma * np.exp(2j * np.pi / 3),
                                cert=t0.cert, eps=t0.eps)
    basis, _, _ = anchored_canonize(inst.a0, inst.h0, inst.spec, t0_flipped)
    assert spectral_norm(basis.matrix - flipped) <= 1e-10
    assert basis.cert.congruence <= 1e-9


def test_anchored_output_certificates(inst):
    pair = perturb_instance(inst, 1e-3, "strict", 9)
    basis, trace, _ = anchored_canonize(pair.a, pair.h, inst.spec, inst.t0)
    sim, cong = affiliation_residuals(pair.a, pair.h, basis.matrix,
                                      jordan_form(inst.spec), sip_form(inst.spec))
    assert sim <= 1e-10 and cong <= 1e-10
    assert abs(abs(basis.gamma) - 1.0) <= 1e-10


def test_anchoring_near_optimal_over_gauge(inst):
    pair = perturb_instance(inst, 1e-3, "strict", 13)
    basis, _, _ = anchored_canonize(pair.a, pair.h, inst.spec, inst.t0)
    base = spectral_norm(basis.matrix - inst.t0.matrix)
    rng = np.random.default_rng(0)
    off = 2
    for _ in range(8):
        th = rng.uniform(-np.pi, np.pi)
        d = np.eye(inst.spec.total_size, dtype=complex)
        d[off:off + 4, off:off + 4] *= np.exp(1j * th)
        alt = spectral_norm(basis.matrix @ d - inst.t0.matrix)
        assert alt >= base - 1e-9


def test_estimate_lipschitz_report_shape(inst):
    report = estimate_lipschitz(inst, [1e-2, 1e-4], 4)
    assert len(report.trials) == 8
    assert all(t.status == "ok" for t in report.trials)
    assert report.k_hat > 0
    assert report.boundedness_flag
    assert all(s.n_ok == 4 for s in report.per_delta)


def test_estimate_lipschitz_jobs_deterministic(inst):
    r1 = estimate_lipschitz(inst, [1e-3, 1e-5], 3)
    r2 = estimate_lipschitz(inst, [1e-3, 1e-5], 3, jobs=2)
    assert [t.ratio for t in r1.trials] == [t.ratio for t in r2.trials]


def test_estimate_lipschitz_degenerate_delta(inst):
    report = estimate_lipschitz(inst, [1e-3, 0.0], 1)
    degenerate = [t for t in report.trials if t.delta == 0.0]
    assert degenerate[0].status == "degenerate"
    assert degenerate[0].ratio is None
    assert not report.boundedness_flag  # a delta without valid ratios


def test_estimate_lipschitz_validates_arguments(inst):
    with pytest.raises(ValueError):
        estimate_lipschitz(inst, [1e-3, 1e-2], 2)     # not decreasing
    with pytest.raises(ValueError):
        estimate_lipschitz(inst, [1e-3], 0)           # no trials
    with pytest.raises(ValueError):
        estimate_lipschitz(inst, [1.0], 2)            # above DELTA_MAX
    with pytest.raises(ValueError):
        estimate_lipschitz(inst, [1e-3], 2, kind="rc")  # kind mismatch
    for bad in ([1e-3, float("nan")], [float("nan")], [1e-3, -1e-4],
                [float("-inf")]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            estimate_lipschitz(inst, bad, 2)              # before any trial


def test_estimate_lipschitz_caps_pool_at_task_count(inst, monkeypatch):
    seen = []

    class RecordingExecutor:
        """In-process stand-in for ProcessPoolExecutor; starts no process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    ref = estimate_lipschitz(inst, [1e-3, 1e-4], 2)
    capped = estimate_lipschitz(inst, [1e-3, 1e-4], 2, jobs=5000)
    assert seen == [4]
    assert [t.ratio for t in capped.trials] == [t.ratio for t in ref.trials]
    # a single task runs in-process whatever the job count
    estimate_lipschitz(inst, [1e-3], 1, jobs=5000)
    assert seen == [4]


def test_estimate_weak_mode_matches(inst):
    report = estimate_lipschitz(inst, [1e-3], 4, mode="weak")
    assert report.boundedness_flag or report.median_spread is None
    for t in report.trials:
        assert t.status == "ok"
        assert t.matches is not None and t.true_eigs is not None
        for m, true in zip(t.matches, t.true_eigs):
            assert abs(m - true) <= 1e-6


def test_frobenius_norm_experiment(inst):
    report = estimate_lipschitz(inst, [1e-3, 1e-4], 3, norm="frobenius")
    assert report.boundedness_flag
    assert all(t.status == "ok" for t in report.trials)


def test_perturb_after_serialization_roundtrip(inst):
    # a loaded instance carries no similarity matrix; it must be re-derived
    # from the seed and reproduce the same perturbations
    import json
    from indefcanon.serialize import dumps, instance_from_json, instance_to_json
    loaded = instance_from_json(json.loads(dumps(instance_to_json(inst))))
    assert loaded.w is None
    p_mem = perturb_instance(inst, 1e-3, "strict", 4)
    p_load = perturb_instance(loaded, 1e-3, "strict", 4)
    np.testing.assert_array_equal(p_mem.a, p_load.a)
    np.testing.assert_array_equal(p_mem.h, p_load.h)


def test_rc_kind_experiment(inst_rc):
    report = estimate_lipschitz(inst_rc, [1e-3, 1e-5], 4)
    assert all(t.status == "ok" for t in report.trials)
    assert report.boundedness_flag


def test_rc_vs_focs_khat_relation():
    # same seeds for both kinds: the real-basis deviation is the focs
    # deviation pushed through the mixing matrix, so the constants relate
    # through its norm
    from indefcanon import mixing_matrix
    inst_f = generate_instance(SPEC, 19, gamma=1.0j)
    inst_r = generate_instance(SPEC, 19, kind="rc")
    rep_f = estimate_lipschitz(inst_f, [1e-3, 1e-4], 6)
    rep_r = estimate_lipschitz(inst_r, [1e-3, 1e-4], 6)
    s_norm = spectral_norm(mixing_matrix(SPEC))
    assert rep_r.k_hat <= 1.1 * s_norm * rep_f.k_hat
