"""Instance generation, perturbation, matching, anchoring, and the experiment."""

import functools
import json
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indefcanon import (
    AmbiguousMatchError,
    BlockSpec,
    CanonError,
    DeltaUnreachableError,
    JordanSpec,
    KindMismatchError,
    NotRealError,
    RetryExhaustedError,
    TrialError,
    anchored_canonize,
    estimate_lipschitz,
    generate_instance,
    jordan_chains,
    jordan_form,
    mat_norm,
    match_eigenvalues,
    perturb_instance,
    real_jordan_form,
    sip_form,
)
from indefcanon import StructureMismatchError, harness, serialize
from indefcanon.linalg import affiliation_residuals
from indefcanon.pipeline import CanonicalBasis
from indefcanon.structure import h_selfadjoint_residual

from conftest import cs_gamma, raise_reached

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
    a0, h0 = harness._rebuild_pair(np.eye(SPEC.total_size), SPEC)
    np.testing.assert_allclose(a0, real_jordan_form(SPEC), atol=1e-15)
    np.testing.assert_allclose(h0, sip_form(SPEC), atol=1e-15)


def test_generate_reference_basis_must_meet_the_instance_gate(monkeypatch):
    # the reference basis is certified against the pair it was built from
    monkeypatch.setattr(harness, "INSTANCE_TOL", 0.0)
    with pytest.raises(RetryExhaustedError,
                       match="reference basis residuals .* exceed the instance gate"):
        generate_instance(SPEC, 7)


def test_generate_rejects_zero_eigenvalue():
    bad = JordanSpec((BlockSpec("real", 0.0, 1, 1),))
    with pytest.raises(ValueError):
        generate_instance(bad, 1)


def test_generate_rejects_shared_eigenvalue():
    bad = JordanSpec((BlockSpec("real", 2.0, 1, 1), BlockSpec("real", 2.0, 2, 1)))
    with pytest.raises(ValueError):
        generate_instance(bad, 1)


def test_generate_retry_exhausted_on_bad_override(monkeypatch):
    # every condition number is at least 1, so no draw passes
    monkeypatch.setattr(harness, "COND_LIMIT", 1.0)
    with pytest.raises(RetryExhaustedError, match="no acceptable similarity"):
        generate_instance(SPEC, 1)


@pytest.mark.parametrize("delta", [0.0, -1e-3, float("nan")])
def test_perturb_refuses_a_delta_that_is_not_positive(inst, delta):
    # a zero delta moves nothing, so its trial would only test reach
    with pytest.raises(ValueError, match="delta must be positive"):
        perturb_instance(inst, delta, "strict", 5)


@pytest.mark.parametrize("mode", ["strict", "weak"])
def test_perturb_refuses_a_delta_that_vanishes_in_rounding(inst, mode):
    # W + 1e-300 dW rounds to W, so the fitted pair is the unperturbed one
    with pytest.raises(DeltaUnreachableError, match="vanishes in rounding"):
        perturb_instance(inst, 1e-300, mode, 5)


def test_perturb_deterministic(inst):
    p1 = perturb_instance(inst, 1e-3, "strict", 11)
    p2 = perturb_instance(inst, 1e-3, "strict", 11)
    np.testing.assert_array_equal(p1.a, p2.a)
    np.testing.assert_array_equal(p1.h, p2.h)


def test_perturb_respects_delta_and_quality(inst):
    for delta in (1e-2, 1e-4, 1e-6):
        for seed in range(5):
            pair = perturb_instance(inst, delta, "strict", seed)
            measured = (mat_norm(pair.a - inst.a0)
                        + mat_norm(pair.h - inst.h0))
            assert 0.0 < measured <= delta
            assert h_selfadjoint_residual(pair.a, pair.h) <= 1e-10
            assert not np.iscomplexobj(pair.a)


@pytest.mark.parametrize("norm", ["spectral", "frobenius"])
@pytest.mark.parametrize("path", ["fitted", "best_redraw"])
def test_perturbed_pair_carries_its_measured_input(inst, monkeypatch, path, norm):
    if path == "best_redraw":
        # every redraw misses SELFADJ_TOL; the second is the best, not the last
        defects = iter(np.array([5.0, 3.0, 4.0, 6.0, 7.0]) * harness.SELFADJ_TOL)
        monkeypatch.setattr(harness, "_selfadj_defect", lambda a, h: next(defects))
    pair = perturb_instance(inst, 1e-4, "weak", 3, norm=norm)
    assert pair.measured == (mat_norm(pair.a - inst.a0, norm)
                             + mat_norm(pair.h - inst.h0, norm))
    assert 0.0 < pair.measured <= 1e-4


def _defect_probe(inst, value):
    """``inst``'s pair with ``a`` moved so that ``h a - a^T h`` gains a skew
    part of spectral norm ``value`` and Frobenius norm ``2 value``."""
    d = np.zeros_like(inst.a0)
    for r, c in ((0, 1), (2, 3)):
        d[r, c], d[c, r] = value, -value
    return inst.a0 + np.linalg.solve(inst.h0, d) / 2.0, inst.h0


@pytest.mark.parametrize("value, passes", [(0.8e-12, True), (1.5e-12, False)])
def test_selfadj_defect_is_spectral_at_the_gate(inst, value, passes):
    a, h = _defect_probe(inst, value)
    exact = mat_norm(h @ a - a.T @ h)
    assert exact == pytest.approx(value, rel=1e-2)
    assert np.linalg.norm(h @ a - a.T @ h) > harness.SELFADJ_TOL
    defect = harness._selfadj_defect(a, h)
    assert (defect <= harness.SELFADJ_TOL) == passes
    if not passes:
        assert defect == exact


@pytest.mark.parametrize("value, passes", [(0.8e-12, True), (1.5e-11, False)])
def test_perturb_selfadjointness_gate_is_spectral(inst, monkeypatch, value, passes):
    # every rebuild returns the probe pair: within the gate the first draw
    # is kept; beyond 10 SELFADJ_TOL the error reports the spectral defect
    a, h = _defect_probe(inst, value)
    rebuilds = []

    def rebuild(w, spec):
        rebuilds.append(w)
        return a, h

    monkeypatch.setattr(harness, "_rebuild_pair", rebuild)
    if passes:
        pair = perturb_instance(inst, 1e-3, "strict", 5)
        assert pair.a is a and len(rebuilds) == 2
    else:
        exact = mat_norm(h @ a - a.T @ h)
        with pytest.raises(harness.RetryExhaustedError,
                           match=f"quality {exact:.3e} exceeds 1.000e-11"):
            perturb_instance(inst, 1e-3, "strict", 5)


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


def test_match_two_blocks_claiming_one_cluster():
    # spectrum {1.05, 10}: 1.0 and 1.1 both take 1.05, each clearly nearest
    spec = JordanSpec((BlockSpec("real", 1.0, 1, 1), BlockSpec("real", 1.1, 1, 1)))
    with pytest.raises(AmbiguousMatchError,
                       match=r"two blocks claim the cluster at \(1\.05\+0j\)"):
        match_eigenvalues(spec, np.diag([1.05, 10.0]), cluster_radius=1e-3)


def test_match_cluster_count_contradicting_the_spec():
    # one real block of size 2 expects one cluster; the spectrum {1, 3}
    # makes two at any radius below 2
    spec = JordanSpec((BlockSpec("real", 1.0, 2, 1),))
    with pytest.raises(AmbiguousMatchError,
                       match=r"2 spectrum clusters for 1 expected eigenvalues"):
        match_eigenvalues(spec, np.diag([1.0, 3.0]), cluster_radius=1e-3)


def test_match_kind_mismatch():
    spec = JordanSpec((BlockSpec("pair", 1j, 1),))
    a = np.diag([1.0, 2.0])
    with pytest.raises((KindMismatchError, AmbiguousMatchError)):
        match_eigenvalues(spec, a, cluster_radius=1e-3)


def _union_find_clusters(eigs, radius):
    """Reference single linkage: union-find over every pair's scalar ``abs``,
    groups in order of their least index."""
    m = len(eigs)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(eigs[i] - eigs[j]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return [eigs[idx] for idx in groups.values()]


@st.composite
def _spectra(draw):
    """A spectrum and a radius: dyadic grid points, some exactly one radius
    apart, chains of them longer than the radius, free points, exact
    duplicates, a radius that is the distance of two of the points, and a
    real array as ``eigvals`` returns for real spectra."""
    unit = draw(st.sampled_from([0.25, 0.5, 1.0]))
    grid = st.builds(lambda re, im: complex(re * unit, im * unit),
                     st.integers(-4, 4), st.integers(-2, 2))
    free = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    points = draw(st.lists(st.one_of(grid, free), min_size=1, max_size=20))
    points += draw(st.lists(st.sampled_from(points), max_size=4))
    eigs = np.array(draw(st.permutations(points)))
    if draw(st.booleans()) and not eigs.imag.any():
        eigs = eigs.real.copy()
    pair_distance = st.builds(lambda i, j: abs(eigs[i] - eigs[j]),
                              *[st.integers(0, len(eigs) - 1)] * 2)
    radius = draw(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e-3]), pair_distance))
    return eigs, radius


@settings(max_examples=300, deadline=None)
@given(_spectra())
def test_cluster_spectrum_matches_the_union_find(case):
    eigs, radius = case
    got = harness._cluster_spectrum(eigs, radius)
    want = _union_find_clusters(eigs, radius)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def test_validate_names_the_first_shared_eigenvalue():
    # 1 + 1j, the first block's, repeats before 3.0 does
    bad = JordanSpec((BlockSpec("pair", 1 + 1j, 1), BlockSpec("real", 3.0, 1, 1),
                      BlockSpec("real", 3.0, 2, -1), BlockSpec("pair", 1 - 1j, 2)))
    with pytest.raises(ValueError, match=r"blocks share the eigenvalue \(1\+1j\); "):
        harness.validate_experiment_spec(bad)


def test_anchored_self_canonize_is_exact(inst):
    basis, trace = anchored_canonize(inst.a0, inst.h0, inst.spec, inst.t0)
    assert mat_norm(basis.matrix - inst.t0.matrix) <= 1e-12
    n = inst.spec.total_size
    for z in (trace.phase_factor, trace.scale_factor, trace.flip_factor):
        assert mat_norm(z - np.eye(n)) <= 1e-12
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
    basis, _ = anchored_canonize(inst.a0, inst.h0, inst.spec, t0_flipped)
    assert mat_norm(basis.matrix - flipped) <= 1e-10
    assert basis.cert.congruence <= 1e-9


@pytest.mark.parametrize("kind, cols", [("focs", slice(0, 2)), ("rc", slice(2, 6))])
@pytest.mark.parametrize("negated", ["reference", "construction"])
def test_anchored_recovers_a_negated_block(inst, inst_rc, monkeypatch, kind, cols, negated):
    # negated columns keep a basis canonical.  Negated on the reference, the
    # chain fit at extraction takes the sign over; negated on the
    # constructed basis, the real gauge turns it back (on a real block of a
    # focs basis, on any block of an rc basis)
    ref = inst.t0 if kind == "focs" else inst_rc.t0
    flip = np.ones(ref.matrix.shape[1])
    flip[cols] = -1.0
    target, t0 = ref.matrix, ref
    if negated == "reference":
        target = ref.matrix * flip
        t0 = replace(ref, matrix=target)
    else:
        name = "rc_basis" if kind == "rc" else "focs_basis"
        construct = getattr(harness, name)

        def negating(*args, **kwargs):
            basis, trace = construct(*args, **kwargs)
            return replace(basis, matrix=basis.matrix * flip), trace

        monkeypatch.setattr(harness, name, negating)
    basis, _ = anchored_canonize(inst.a0, inst.h0, inst.spec, t0)
    assert basis.role == kind
    assert mat_norm(basis.matrix - target) <= 1e-12 * mat_norm(target)
    assert mat_norm(basis.matrix - target * flip) > 1.0


@pytest.mark.xfail(strict=True, reason="the gauge gives each pair block its own "
                   "phase, which moves that block's scalar to gamma e^(2i theta_b)")
def test_anchored_focs_basis_keeps_one_scalar_across_pair_blocks():
    spec = JordanSpec((BlockSpec("real", 1.5, 2, 1), BlockSpec("pair", -0.7 - 1.3j, 2),
                       BlockSpec("pair", 0.9 + 0.6j, 1)))
    two_pairs = generate_instance(spec, 7)
    pair = perturb_instance(two_pairs, 1e-2, "strict", 11)
    basis, _ = anchored_canonize(pair.a, pair.h, spec, two_pairs.t0)
    # cs_gamma asserts the residual is within CS_TOL * max(1, ||basis||)
    assert abs(abs(cs_gamma(basis.matrix, spec)) - 1.0) <= 1e-10


def test_anchored_output_certificates(inst):
    pair = perturb_instance(inst, 1e-3, "strict", 9)
    basis, trace = anchored_canonize(pair.a, pair.h, inst.spec, inst.t0)
    sim, cong = affiliation_residuals(pair.a, pair.h, basis.matrix,
                                      jordan_form(inst.spec), sip_form(inst.spec))
    assert sim <= 1e-10 and cong <= 1e-10
    assert abs(abs(basis.gamma) - 1.0) <= 1e-10


def test_anchoring_near_optimal_over_gauge(inst):
    pair = perturb_instance(inst, 1e-3, "strict", 13)
    basis, _ = anchored_canonize(pair.a, pair.h, inst.spec, inst.t0)
    base = mat_norm(basis.matrix - inst.t0.matrix)
    rng = np.random.default_rng(0)
    off = 2
    for _ in range(8):
        th = rng.uniform(-np.pi, np.pi)
        d = np.eye(inst.spec.total_size, dtype=complex)
        d[off:off + 4, off:off + 4] *= np.exp(1j * th)
        alt = mat_norm(basis.matrix @ d - inst.t0.matrix)
        assert alt >= base - 1e-9


def test_estimate_lipschitz_report_shape(inst):
    report = estimate_lipschitz(inst, [1e-2, 1e-4], 4)
    assert len(report.trials) == 8
    assert all(t.status == "ok" for t in report.trials)
    assert report.k_hat > 0
    assert report.boundedness_flag
    assert all(s.n_ok == 4 for s in report.per_delta)


def _report_bytes(report):
    # a failed trial's NaN input never compares equal; its text does
    return (serialize.dumps(serialize.report_summary_json(report)),
            serialize.report_csv_lines(report))


def test_estimate_lipschitz_jobs_deterministic(inst):
    # five trials on two workers: each delta runs as shares of 3 and 2
    r1 = estimate_lipschitz(inst, [1e-3, 1e-5], 5)
    r2 = estimate_lipschitz(inst, [1e-3, 1e-5], 5, jobs=2)
    assert _report_bytes(r1) == _report_bytes(r2)


def test_estimate_lipschitz_degenerate_delta(inst):
    # a positive delta too small to move the pair: each of its trials records
    # why, and its decade has no median
    for mode in ("strict", "weak"):
        report = estimate_lipschitz(inst, [1e-3, 1e-300], 3, mode=mode)
        assert [t.status for t in report.trials] == ["ok"] * 3 + ["DELTA_UNREACHABLE"] * 3
        assert all(t.ratio is None for t in report.trials[3:])
        assert report.per_delta[1].n_ok == 0 and report.per_delta[1].ratio_median is None
        assert not report.boundedness_flag  # a delta without valid ratios


def test_estimate_lipschitz_validates_arguments(inst, monkeypatch):
    monkeypatch.setattr(harness, "_run_trials", raise_reached)
    with pytest.raises(ValueError):
        estimate_lipschitz(inst, [1e-3, 1e-2], 2)     # not decreasing
    with pytest.raises(ValueError):
        estimate_lipschitz(inst, [1e-3], 0)           # no trials
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            estimate_lipschitz(inst, [1e-3], 2, jobs=jobs)
    with pytest.raises(ValueError):
        estimate_lipschitz(inst, [1.0], 2)            # above DELTA_MAX
    with pytest.raises(ValueError):
        estimate_lipschitz(inst, [1e-3], 2, kind="rc")  # kind mismatch
    for bad in ([1e-3, float("nan")], [float("nan")], [1e-3, -1e-4],
                [float("-inf")], [float("inf")], [0.0], [1e-3, 0.0]):
        with pytest.raises(ValueError, match="finite and positive"):
            estimate_lipschitz(inst, bad, 2)              # before any trial


def test_estimate_lipschitz_takes_an_array_of_deltas(inst):
    # `if not deltas` raised numpy's "truth value of an array is ambiguous",
    # and a one-element array put np.float64 into the report's deltas
    report = estimate_lipschitz(inst, np.logspace(-2, -4, 3), 2)
    assert _report_bytes(report) == _report_bytes(estimate_lipschitz(inst, [1e-2, 1e-3, 1e-4], 2))
    one = estimate_lipschitz(inst, np.array([1e-3]), 1)
    assert type(one.deltas[0]) is float
    assert _report_bytes(one) == _report_bytes(estimate_lipschitz(inst, [1e-3], 1))


def test_estimate_lipschitz_rejects_an_unknown_norm_before_any_trial(inst, monkeypatch):
    # it was a TrialError of trial 0, the caller's argument taken for a fault
    monkeypatch.setattr(harness, "_run_trials", raise_reached)
    with pytest.raises(ValueError) as err:
        estimate_lipschitz(inst, [1e-3], 2, norm="bogus")
    assert type(err.value) is ValueError
    assert str(err.value) == "unknown norm kind 'bogus'"


class RecordingExecutor:
    """In-process stand-in for ProcessPoolExecutor; starts no process and
    records the worker count, and the chunk size and each task's trial
    indices of every ``map``."""

    seen: list = []

    def __init__(self, max_workers):
        self.seen.append(("max_workers", max_workers))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        self.seen.append(("chunksize", chunksize))
        self.seen.append(("trials", [list(indices) for indices in iterables[3]]))
        return map(fn, *iterables)


@pytest.fixture()
def fake_pool(monkeypatch):
    """Swap the process pool for :class:`RecordingExecutor`; yields its log."""
    monkeypatch.setattr(RecordingExecutor, "seen", [])
    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    return RecordingExecutor.seen


def test_estimate_lipschitz_caps_pool_at_task_count(inst, fake_pool):
    ref = estimate_lipschitz(inst, [1e-3, 1e-4], 2)
    capped = estimate_lipschitz(inst, [1e-3, 1e-4], 2, jobs=5000)
    # four workers for four trials: each task is one trial
    assert fake_pool == [("max_workers", 4), ("chunksize", 1),
                         ("trials", [[0], [1], [0], [1]])]
    assert [t.ratio for t in capped.trials] == [t.ratio for t in ref.trials]
    # a single task runs in-process whatever the job count
    estimate_lipschitz(inst, [1e-3], 1, jobs=5000)
    assert fake_pool == [("max_workers", 4), ("chunksize", 1),
                         ("trials", [[0], [1], [0], [1]])]
    # two workers split each delta's five trials into shares of 3 and 2
    fake_pool.clear()
    shared = estimate_lipschitz(inst, [1e-3, 1e-4], 5, jobs=2)
    assert fake_pool == [("max_workers", 2), ("chunksize", 1),
                         ("trials", [[0, 1, 2], [3, 4], [0, 1, 2], [3, 4]])]
    assert _report_bytes(shared) == _report_bytes(estimate_lipschitz(inst, [1e-3, 1e-4], 5))


@pytest.mark.parametrize("jobs", [1, 2])
def test_trial_fault_keeps_its_coordinates(inst, fake_pool, monkeypatch, jobs):
    # a delta's trials are built as one stack, so the fault is injected
    # where each trial still runs alone: its perturbation
    calls = []
    real = harness.perturb_instance

    def flaky(*args, **kwargs):
        calls.append(kwargs["norm"])
        if len(calls) == 4:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "perturb_instance", flaky)
    with pytest.raises(TrialError) as info:
        estimate_lipschitz(inst, [1e-3, 1e-4], 3, jobs=jobs)
    err = info.value
    # the fourth trial in task order is trial 0 at the second delta
    seed = int(np.random.SeedSequence([inst.seed, 1, 0]).generate_state(1)[0])
    assert (err.delta, err.index, err.seed) == (1e-4, 0, seed)
    assert f"trial 0 at delta 0.0001 (seed {seed})" in str(err)
    assert "LinAlgError: SVD did not converge" in str(err)
    assert isinstance(err.__cause__, np.linalg.LinAlgError)
    assert not isinstance(err, CanonError)


def test_stack_fault_is_rerun_one_trial_at_a_time(inst, monkeypatch):
    # trial 1 at the first delta perturbs into a pair with a NaN entry, which
    # fails its delta's chain stack; built one by one, the fault is that trial's
    poisoned = int(np.random.SeedSequence([inst.seed, 0, 1]).generate_state(1)[0])
    real = harness.perturb_instance

    def poisoning(inst_, delta, mode, seed, **kwargs):
        pair = real(inst_, delta, mode, seed, **kwargs)
        if seed != poisoned:
            return pair
        a = pair.a.copy()
        a[0, 0] = np.nan
        return replace(pair, a=a)

    monkeypatch.setattr(harness, "perturb_instance", poisoning)
    with pytest.raises(TrialError) as info:
        estimate_lipschitz(inst, [1e-3, 1e-4], 3)
    err = info.value
    assert (err.delta, err.index, err.seed) == (1e-3, 1, poisoned)
    assert "ValueError: a contains non-finite entries" in str(err)


def test_strict_report_equals_its_trials_run_one_at_a_time(inst):
    # a delta's strict trials share one chain extraction; a task of one
    # trial extracts a stack of one
    deltas = [1e-2, 1e-4, 1e-6]
    report = estimate_lipschitz(inst, deltas, 3)
    alone = [record for di, d in enumerate(deltas) for ti in range(3)
             for record in harness._run_trials(inst, d, di, [ti], "strict", "spectral")]
    assert all(t.status == "ok" for t in alone)
    assert list(report.trials) == alone


def test_chain_stack_fault_falls_back_to_one_extraction_per_trial(inst, monkeypatch):
    ref = estimate_lipschitz(inst, [1e-3, 1e-4], 3)
    stacks, singles = [], []
    real = harness.jordan_chains

    def broken_on_stacks(a, spec):
        if a.ndim == 3:
            stacks.append(len(a))
            raise RuntimeError("stack fault")
        singles.append(None)
        return real(a, spec)

    monkeypatch.setattr(harness, "jordan_chains", broken_on_stacks)
    report = estimate_lipschitz(inst, [1e-3, 1e-4], 3)
    assert (stacks, len(singles)) == ([3, 3], 6)
    assert report == ref


def test_trial_whose_chains_fail_records_its_single_call_error(inst, monkeypatch):
    # trial 1 at the first delta perturbs into a pair with a shifted
    # spectrum: its item of the delta's chain stack fails, and the trial
    # records that error without extracting its chains again
    ref = estimate_lipschitz(inst, [1e-3, 1e-4], 3)
    shifted = int(np.random.SeedSequence([inst.seed, 0, 1]).generate_state(1)[0])
    real = harness.perturb_instance
    singles = []
    real_chains = harness.jordan_chains

    def shifting(inst_, delta, mode, seed, **kwargs):
        pair = real(inst_, delta, mode, seed, **kwargs)
        if seed != shifted:
            return pair
        return replace(pair, a=pair.a + 0.37 * np.eye(len(pair.a)))

    def counted(a, spec):
        if a.ndim == 2:
            singles.append(None)
        return real_chains(a, spec)

    monkeypatch.setattr(harness, "perturb_instance", shifting)
    monkeypatch.setattr(harness, "jordan_chains", counted)
    report = estimate_lipschitz(inst, [1e-3, 1e-4], 3)
    failed = report.trials[1]
    pair = shifting(inst, 1e-3, "strict", shifted)
    with pytest.raises(CanonError) as info:
        real_chains(pair.a, inst.spec)
    assert (failed.delta, failed.index, failed.status) == (1e-3, 1, info.value.code)
    assert len(singles) == 0
    assert [t for t in report.trials if t is not failed] == \
        [t for t in ref.trials if t.index != 1 or t.delta != 1e-3]


@pytest.mark.parametrize("later_fault", [False, True])
def test_norm_fault_keeps_its_coordinates(inst, monkeypatch, later_fault):
    # each trial takes its own five reported norms; a fault there is that
    # trial's, and comes before any fault of a trial built after it
    norm_calls, builds = [], []
    real_norms, real_build = harness.mat_norms, harness.anchored_canonize

    def flaky_norms(ms, norm):
        if len(ms) == 5:
            norm_calls.append(None)
            if len(norm_calls) == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
        return real_norms(ms, norm)

    def flaky_build(*args, **kwargs):
        builds.append(None)
        if later_fault and len(builds) == 3:
            raise RuntimeError("later fault")
        return real_build(*args, **kwargs)

    monkeypatch.setattr(harness, "mat_norms", flaky_norms)
    monkeypatch.setattr(harness, "anchored_canonize", flaky_build)
    with pytest.raises(TrialError) as info:
        estimate_lipschitz(inst, [1e-3, 1e-4], 3)
    seed = int(np.random.SeedSequence([inst.seed, 0, 1]).generate_state(1)[0])
    assert (info.value.delta, info.value.index, info.value.seed) == (1e-3, 1, seed)
    assert "LinAlgError: SVD did not converge" in str(info.value)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    assert len(builds) == 2


@pytest.mark.parametrize("shape", ["wrong_size", "not_square", "stack"])
@pytest.mark.parametrize("chains", [None, "extracted"])
def test_anchored_pair_of_the_wrong_shape_is_refused_first(inst, shape, chains):
    # the shape is checked before the chain fit and the construction, also
    # when the caller hands over the chains
    chains = jordan_chains(inst.a0, inst.spec) if chains else None
    a, h = {"wrong_size": (inst.a0[:6, :6], inst.h0[:6, :6]),
            "not_square": (inst.a0[:, :6], inst.h0[:, :6]),
            "stack": (np.stack([inst.a0] * 2), np.stack([inst.h0] * 2))}[shape]
    error, message = ValueError, "a and h must be square and of equal size"
    if shape == "wrong_size":
        error, message = StructureMismatchError, r"matrix size \(6, 6\) does not match"
    with pytest.raises(error, match=message):
        anchored_canonize(a, h, inst.spec, inst.t0, chains=chains)


@pytest.mark.parametrize("mode, kind", [("strict", "focs"), ("weak", "rc")])
def test_each_trial_is_built_under_the_public_names(inst, inst_rc, monkeypatch, mode, kind):
    # in-process, every trial runs anchored_canonize once, which runs the
    # construction of its kind once; a weak trial matches its eigenvalues
    # once before it; the chains are extracted once per delta for strict
    # trials, which share the instance structure, and once per weak trial
    calls = {"match_eigenvalues": 0, "jordan_chains": 0, "anchored_canonize": 0,
             "focs_basis": 0, "rc_basis": 0}
    for name in calls:
        real = getattr(harness, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    report = estimate_lipschitz(inst if kind == "focs" else inst_rc, [1e-3, 1e-4], 3,
                                mode=mode)
    assert [t.status for t in report.trials] == ["ok"] * 6
    assert calls == {"match_eigenvalues": 6 if mode == "weak" else 0,
                     "jordan_chains": 6 if mode == "weak" else 2,
                     "anchored_canonize": 6, "focs_basis": 6 if kind == "focs" else 0,
                     "rc_basis": 6 if kind == "rc" else 0}


@pytest.mark.parametrize("name", ["a", "h"])
@pytest.mark.parametrize("chains", [None, "extracted"])
def test_anchored_complex_pair_is_refused_before_matching(inst, name, chains):
    # the realness check runs first, also when the caller hands over the
    # chains: a real block's extraction would take the real part of this a
    chains = jordan_chains(inst.a0, inst.spec) if chains else None
    a, h = inst.a0, inst.h0
    if name == "a":
        a = a + 0.1j * np.eye(len(a))
    else:
        h = h + 0.1j * np.eye(len(h))
    with pytest.raises(NotRealError, match=f"{name} has imaginary part 1.000e-01") as info:
        anchored_canonize(a, h, inst.spec, inst.t0, chains=chains)
    assert info.value.code == "NOT_REAL"


def _blas_threads():
    threads = harness._openblas_threads()
    if not threads:
        pytest.skip("numpy's BLAS exports no known OpenBLAS thread-count symbol")
    return threads


@pytest.mark.parametrize("jobs", [1, 2])
def test_trials_run_on_one_blas_thread_and_leave_the_callers_count(inst, monkeypatch, jobs):
    threads = _blas_threads()
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched construction reaches pool workers only by fork")

    def counting(*args, **kwargs):
        counts = [get() for get, _ in harness._openblas_threads()]
        if counts != [1] * len(counts):
            raise RuntimeError(f"trial ran on {counts} BLAS threads")
        # a library error is recorded, so the status shows the check ran
        raise StructureMismatchError("one BLAS thread")

    monkeypatch.setattr(harness, "anchored_canonize", counting)
    saved = [get() for get, _ in threads]
    for _, set_ in threads:
        set_(2)
    try:
        report = estimate_lipschitz(inst, [1e-3, 1e-4], 2, jobs=jobs)
        after = [get() for get, _ in threads]
    finally:
        for (_, set_), n in zip(threads, saved):
            set_(n)
    assert [t.status for t in report.trials] == ["STRUCTURE_MISMATCH"] * 4
    assert after == [2] * len(threads)


def test_trial_library_error_is_recorded_and_reported(inst, monkeypatch):
    ref = estimate_lipschitz(inst, [1e-3, 1e-4], 3)
    # trial 1 of the first delta trips a gate in its construction, and the
    # trials built after it must keep their own numbers
    calls = []
    real = harness.anchored_canonize

    def mismatching(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise StructureMismatchError("forced mismatch")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "anchored_canonize", mismatching)
    report = estimate_lipschitz(inst, [1e-3, 1e-4], 3)
    failed = report.trials[1]
    assert (failed.delta, failed.index, failed.status) == (1e-3, 1, "STRUCTURE_MISMATCH")
    assert np.isnan(failed.input)
    assert (failed.output, failed.ratio, failed.z_devs) == (None, None, None)
    # every other trial is the one the unpatched run made
    assert [t for t in report.trials if t is not failed] == \
        [t for t in ref.trials if t.index != 1 or t.delta != 1e-3]
    assert [s.n_ok for s in report.per_delta] == [2, 3]
    assert report.per_delta[1] == ref.per_delta[1]
    kept = sorted(t.ratio for t in ref.trials[:3] if t.index != 1)
    assert (report.per_delta[0].ratio_min, report.per_delta[0].ratio_max) == \
        (kept[0], kept[-1])

    lines = serialize.report_csv_lines(report)
    assert len(lines) == 1 + 6
    assert lines[2] == "0.001,1,,,,,,,,STRUCTURE_MISMATCH"
    summary = json.loads(serialize.dumps(serialize.report_summary_json(report)))
    assert summary["trials"][1] == {
        "delta": 1e-3, "trial": 1, "input": None, "output": None, "ratio": None,
        "z_devs": None, "status": "STRUCTURE_MISMATCH", "matches": None,
        "true_eigs": None}
    assert [d["n_ok"] for d in summary["per_delta"]] == [2, 3]


@pytest.mark.parametrize("max_bisect", [0, 3])
def test_perturbation_out_of_reach_is_recorded(inst, monkeypatch, max_bisect):
    # every pair measures 2, far above any delta: the corrected fit misses
    # and each halving misses again
    rebuilds = []
    real = harness._rebuild_pair

    def counted(*args):
        rebuilds.append(None)
        return real(*args)

    monkeypatch.setattr(harness, "MAX_BISECT", max_bisect)
    monkeypatch.setattr(harness, "mat_norms", lambda ms, norm: [1.0] * len(ms))
    monkeypatch.setattr(harness, "_rebuild_pair", counted)
    with pytest.raises(harness.DeltaUnreachableError,
                       match=f"under 1.000e-03 in {max_bisect} halvings"):
        perturb_instance(inst, 1e-3, "strict", 5)
    # the first fit, its linear correction and one rebuild per halving
    assert len(rebuilds) == 2 + max_bisect
    report = estimate_lipschitz(inst, [1e-3], 1)
    (trial,) = report.trials
    assert trial.status == "DELTA_UNREACHABLE" and np.isnan(trial.input)
    assert trial.ratio is None and report.per_delta[0].n_ok == 0


def test_trial_error_survives_pickling():
    import pickle
    err = pickle.loads(pickle.dumps(TrialError("boom", delta=1e-3, index=2, seed=9)))
    assert (str(err), err.delta, err.index, err.seed) == ("boom", 1e-3, 2, 9)


_GRID = [1e-2, 1e-3, 1e-4, 1e-5, 1e-300]


@settings(max_examples=15, deadline=None)
@given(deltas=st.lists(st.sampled_from(_GRID), min_size=1, max_size=3, unique=True)
       .map(lambda ds: sorted(ds, reverse=True)),
       trials=st.integers(1, 5), jobs=st.integers(1, 4),
       mode=st.sampled_from(["strict", "weak"]))
def test_estimate_lipschitz_returns_every_trial_in_order(deltas, trials, jobs, mode):
    inst = _property_instance()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RecordingExecutor, "seen", [])
        mp.setattr(harness.concurrent.futures, "ProcessPoolExecutor",
                   RecordingExecutor)
        report = estimate_lipschitz(inst, deltas, trials, mode=mode, jobs=jobs)
    assert [(t.delta, t.index) for t in report.trials] == \
        [(d, i) for d in deltas for i in range(trials)]
    assert [s.delta for s in report.per_delta] == deltas
    # whatever the shares, the report is the one of a single in-process run
    alone = estimate_lipschitz(inst, deltas, trials, mode=mode)
    assert _report_bytes(report) == _report_bytes(alone)


@functools.lru_cache(maxsize=1)
def _property_instance():
    return generate_instance(SPEC, 11)


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
    # the file carries the similarity W, and the loaded instance must
    # reproduce the in-memory perturbations
    import json
    from indefcanon.serialize import dumps, instance_from_json, instance_to_json
    loaded = instance_from_json(json.loads(dumps(instance_to_json(inst))))
    np.testing.assert_array_equal(loaded.w, inst.w)
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
    s_norm = mat_norm(mixing_matrix(SPEC))
    assert rep_r.k_hat <= 1.1 * s_norm * rep_f.k_hat
