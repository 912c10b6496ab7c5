"""Stability experiments: generate, perturb, re-canonize, measure.

An :class:`Instance` is a seeded h-selfadjoint pair with its reference
canonical basis.  Perturbations act on the generating similarity (and, in
weak mode, on the eigenvalues), then rebuild the pair, so the Jordan
structure is preserved exactly by construction rather than approximately by
hope.  Re-canonization anchors the fresh basis to the reference one at the
chain level; per-delta deviation ratios then estimate the Lipschitz
constant empirically.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby
from statistics import median

import numpy as np

from .errors import (
    AmbiguousMatchError,
    CanonError,
    DeltaUnreachableError,
    KindMismatchError,
    RetryExhaustedError,
    TrialError,
)
from .chains import fit_chain_to, jordan_chains
from .linalg import (
    check_norm_kind,
    gate_norm,
    mat_norm,
    mat_norms,
    refined_inverse,
    require_finite,
)
from .pipeline import (
    ROLE_FOCS,
    ROLE_RC,
    CanonicalBasis,
    PipelineTrace,
    _check_pair_shape,
    _real_pair,
    focs_basis,
)
from .rc import IMAG_RTOL, certify, rc_basis, to_focs
from .structure import (
    CS_TOL,
    PAIR,
    REAL,
    BlockSpec,
    JordanSpec,
    conjugate_symmetry_fit,
    real_jordan_form,
    sip_form,
)

MODE_STRICT = "strict"
MODE_WEAK = "weak"

#: Largest perturbation magnitude the experiments accept.
DELTA_MAX = 0.05

#: Eigenvalue clustering radius is this multiple of the trial delta.
CLUSTER_RADIUS_FACTOR = 10.0

#: Median ratios across delta decades may spread by at most this factor.
SPREAD_LIMIT = 10.0

#: Selfadjointness quality required of generated and perturbed pairs.
SELFADJ_TOL = 1e-12

#: Certificate residuals a reference basis must meet, generated or loaded.
INSTANCE_TOL = 1e-10

#: Generating similarities are redrawn until their condition number is
#: below this, for at most ``MAX_DRAWS`` draws.
COND_LIMIT = 100.0
MAX_DRAWS = 100

#: Weak mode shifts each eigenvalue by at most this fraction of the delta.
EIG_FRAC = 0.1

#: A perturbation is halved at most ``MAX_BISECT`` times to fit under its
#: delta, and its bump redrawn at most ``MAX_REDRAWS`` times to pass the
#: selfadjointness gate.
MAX_BISECT = 60
MAX_REDRAWS = 5

#: Eigenvalue matching rejects a second-nearest cluster closer than this
#: multiple of the nearest.
RATIO_LIMIT = 2.0


@dataclass(frozen=True)
class Instance:
    """A generated pair with its reference basis; the unit of experiment.

    ``w`` is the generating similarity, drawn from ``(spec, seed)`` and
    stored with the instance; perturbations act on it.  A loaded instance's
    ``seed`` only seeds its trials.
    """

    spec: JordanSpec
    a0: np.ndarray
    h0: np.ndarray
    t0: CanonicalBasis
    seed: int
    w: np.ndarray


@dataclass(frozen=True)
class PerturbedPair:
    """One structure-preserving perturbation of an instance.

    ``spec`` carries the true (possibly eigenvalue-shifted) structure the
    pair was rebuilt from; in strict mode it is the instance spec itself.
    ``measured`` is the input size ``||a - a0|| + ||h - h0||`` in the norm
    the perturbation was fitted in.
    """

    a: np.ndarray
    h: np.ndarray
    spec: JordanSpec
    measured: float


def validate_experiment_spec(spec: JordanSpec) -> None:
    """Reject structures the experiments do not cover.

    Eigenvalues must be nonzero (stability is studied for invertible
    matrices) and pairwise distinct across blocks, counting conjugates.
    """
    eigs: list[complex] = []
    for b in spec.blocks:
        if abs(b.lam) <= 1e-12:
            raise ValueError(
                f"eigenvalue {b.lam} is numerically zero; generated matrices "
                "must be invertible")
        eigs.append(b.lam)
        if b.kind == PAIR:
            eigs.append(complex(np.conj(b.lam)))
    for i in range(len(eigs)):
        for j in range(i + 1, len(eigs)):
            if eigs[i] == eigs[j]:
                raise ValueError(
                    f"blocks share the eigenvalue {eigs[i]}; one block per "
                    "distinct eigenvalue is required")


def _rebuild_pair(w: np.ndarray, spec: JordanSpec) -> tuple[np.ndarray, np.ndarray]:
    """Real pair ``(w J_R w^-1, w^-T P w^-1)`` of ``spec``'s real Jordan and
    sip forms from a generating similarity.

    Both products share one refined inverse and the Gram side is symmetrized
    exactly, keeping the selfadjointness defect at the rounding floor.
    """
    v = refined_inverse(w)
    a = w @ real_jordan_form(spec) @ v
    h = v.T @ sip_form(spec) @ v
    return a, (h + h.T) / 2.0


def _selfadj_defect(a: np.ndarray, h: np.ndarray) -> float:
    """``||h a - a^T h||_2``, exact whenever it exceeds :data:`SELFADJ_TOL`;
    a defect within the gate may come back as its Frobenius bound."""
    return gate_norm(h @ a - a.T @ h, SELFADJ_TOL)


def _draw_similarity(spec: JordanSpec,
                     seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded draw of the generating similarity and its rebuilt pair.

    Draws are rejected until the condition number is under
    :data:`COND_LIMIT` and the rebuilt pair passes the selfadjointness gate,
    so the procedure is a pure function of ``(spec, seed)``.
    """
    n = spec.total_size
    rng = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        w = rng.uniform(-1.0, 1.0, (n, n))
        if np.linalg.cond(w) >= COND_LIMIT:
            continue
        a0, h0 = _rebuild_pair(w, spec)
        if _selfadj_defect(a0, h0) > SELFADJ_TOL:
            continue
        return w, a0, h0
    raise RetryExhaustedError(f"no acceptable similarity in {MAX_DRAWS} draws")


def generate_instance(spec: JordanSpec, seed: int, *,
                      kind: str = ROLE_FOCS,
                      gamma: complex = 1.0) -> Instance:
    """Draw a seeded instance: a random well-conditioned similarity applied
    to the real canonical pair, plus the cold reference basis of the
    requested kind, on one BLAS thread.  Deterministic in ``seed`` alone.
    """
    validate_experiment_spec(spec)
    if kind not in (ROLE_FOCS, ROLE_RC):
        raise ValueError(f"unknown kind {kind!r}")
    with _one_blas_thread():
        w, a0, h0 = _draw_similarity(spec, seed)
        if kind == ROLE_RC:
            t0, _ = rc_basis(a0, h0, spec)
        else:
            t0, _ = focs_basis(a0, h0, spec, gamma)
    if max(t0.cert.similarity, t0.cert.congruence) > INSTANCE_TOL:
        raise RetryExhaustedError(
            f"reference basis residuals {t0.cert} exceed the instance gate")
    return Instance(spec=spec, a0=a0, h0=h0, t0=t0, seed=int(seed), w=w)


def load_instance(spec: JordanSpec, a0: np.ndarray, h0: np.ndarray,
                  t0: CanonicalBasis, seed: int, w: np.ndarray) -> Instance:
    """Instance from stored parts, checked against the pair that its stored
    generating similarity ``w`` rebuilds.

    ``w`` is kept, so trials perturb the stored pair without redrawing it;
    ``seed`` only seeds the trials.  Matrix sizes are the caller's to check.

    Raises
    ------
    ValueError
        When ``spec`` fails :func:`validate_experiment_spec`, the rebuilt
        pair differs from ``(a0, h0)`` beyond :data:`SELFADJ_TOL` relative to
        its norm, ``w`` is numerically singular or rebuilds a pair that is
        not finite, ``t0`` has a role other than ``focs`` or ``rc``, its
        residuals against the pair miss :data:`INSTANCE_TOL`, its
        conjugate-symmetry residual misses ``CS_TOL * max(1, ||t0||)``,
        (``rc``) its imaginary part misses ``IMAG_RTOL * max(1, ||t0||)``,
        or (``focs``) its stored ``gamma``, 1 when absent, is more than
        ``CS_TOL * |gamma|`` from the scalar its matrix fits.
    """
    validate_experiment_spec(spec)
    try:
        # a W far from unit scale rebuilds a pair that overflows, and an
        # infinite pair would make the gap's limit infinite
        with np.errstate(over="ignore", invalid="ignore"):
            a, h = _rebuild_pair(w, spec)
        require_finite(a, "its A0")
        require_finite(h, "its H0")
    except (CanonError, ValueError) as exc:
        raise ValueError(f"W generates no pair: {exc}") from exc
    gap = mat_norm(a - a0) + mat_norm(h - h0)
    if gap > SELFADJ_TOL * max(1.0, mat_norm(a) + mat_norm(h)):
        raise ValueError(f"A0/H0 differ by {gap:.3e} from the pair that W generates")
    if t0.role not in (ROLE_FOCS, ROLE_RC):
        raise ValueError(f"T0 has role {t0.role!r}, not {ROLE_FOCS!r} or {ROLE_RC!r}")
    cert, gamma = certify(a0, h0, t0.matrix, spec, t0.role)
    scale = max(1.0, mat_norm(t0.matrix))
    # focs trials are built with the stored scalar; rc ones always with i
    gamma_drift = abs((t0.gamma or 1.0) - gamma) if t0.role == ROLE_FOCS else None
    for name, value, limit in (("similarity", cert.similarity, INSTANCE_TOL),
                               ("congruence", cert.congruence, INSTANCE_TOL),
                               ("conjugate-symmetry residual", cert.cs_residual,
                                CS_TOL * scale),
                               ("imaginary part", cert.max_imag, IMAG_RTOL * scale),
                               ("gamma drift", gamma_drift, CS_TOL * abs(gamma))):
        if value is not None and not value <= limit:
            raise ValueError(f"T0 misses the instance gate: {name} {value:.3e} "
                             f"vs {limit:.1e}")
    return Instance(spec=spec, a0=a0, h0=h0, t0=t0, seed=int(seed), w=w)


def _shift_spec(spec: JordanSpec, shifts: list[complex]) -> JordanSpec:
    blocks = []
    for b, eta in zip(spec.blocks, shifts):
        if b.kind == REAL:
            blocks.append(BlockSpec(REAL, b.lam.real + eta.real, b.size, b.sign))
        else:
            blocks.append(BlockSpec(PAIR, b.lam + eta, b.size))
    return JordanSpec(tuple(blocks))


def perturb_instance(inst: Instance, delta: float, mode: str, seed: int, *,
                     norm: str = "spectral") -> PerturbedPair:
    """Structure-preserving perturbation with measured input at most ``delta``.

    A random bump is added to the generating similarity; weak mode also
    shifts each block eigenvalue by at most ``EIG_FRAC * delta`` (conjugate
    pairs symmetrically).  The bump and shifts are rescaled together, one
    linear correction followed by halving, until
    ``||a - a0|| + ||h - h0|| <= delta``, which must be positive.
    Deterministic in ``seed``.

    Raises
    ------
    DeltaUnreachableError
        When ``MAX_BISECT`` halvings cannot fit the perturbation under
        ``delta``, or the fitted perturbation vanishes in rounding.
    RetryExhaustedError
        When no redraw of the bump reaches the selfadjointness quality gate.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    if mode not in (MODE_STRICT, MODE_WEAK):
        raise ValueError(f"unknown mode {mode!r}")

    n = inst.spec.total_size
    w0 = inst.w
    rng = np.random.default_rng(seed)

    best: tuple[float, PerturbedPair] | None = None
    for _ in range(MAX_REDRAWS):
        dw = rng.uniform(-1.0, 1.0, (n, n))
        dw /= mat_norm(dw)
        shifts: list[complex] = [0.0j] * len(inst.spec.blocks)
        if mode == MODE_WEAK:
            shifts = []
            for b in inst.spec.blocks:
                mag = EIG_FRAC * delta * rng.uniform(0.0, 1.0)
                if b.kind == REAL:
                    shifts.append(complex(mag * rng.choice([-1.0, 1.0]), 0.0))
                else:
                    ang = rng.uniform(0.0, 2.0 * np.pi)
                    shifts.append(mag * complex(np.cos(ang), np.sin(ang)))

        def build(t: float) -> PerturbedPair:
            # eigenvalue shifts scale with t but never beyond their cap; a
            # strict pair keeps the instance spec, which zero shifts rebuild
            spec_t = (inst.spec if mode == MODE_STRICT
                      else _shift_spec(inst.spec, [min(t, 1.0) * s for s in shifts]))
            a, h = _rebuild_pair(w0 + t * dw, spec_t)
            da, dh = mat_norms([a - inst.a0, h - inst.h0], norm)
            return PerturbedPair(a, h, spec_t, da + dh)

        t = min(1.0, delta)
        pair = build(t)
        if pair.measured > 0.0:
            t *= 0.75 * delta / pair.measured
            pair = build(t)
        steps = 0
        while pair.measured > delta:
            if steps >= MAX_BISECT:
                raise DeltaUnreachableError(
                    f"could not fit perturbation under {delta:.3e} in "
                    f"{MAX_BISECT} halvings")
            t *= 0.5
            steps += 1
            pair = build(t)
        if pair.measured == 0.0:
            raise DeltaUnreachableError(
                f"perturbation under {delta:.3e} vanishes in rounding")

        defect = _selfadj_defect(pair.a, pair.h)
        if defect <= SELFADJ_TOL:
            return pair
        if best is None or defect < best[0]:
            best = (defect, pair)

    assert best is not None
    defect, pair = best
    if defect <= 10.0 * SELFADJ_TOL:
        return pair
    raise RetryExhaustedError(
        f"perturbed pair quality {defect:.3e} exceeds {10 * SELFADJ_TOL:.3e}")


def _cluster_spectrum(eigs: np.ndarray, radius: float) -> list[np.ndarray]:
    """Single-linkage clusters of spectrum points at the given radius."""
    m = len(eigs)
    parent = list(range(m))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(eigs[i] - eigs[j]) <= radius:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return [eigs[idx] for idx in groups.values()]


def match_eigenvalues(spec0: JordanSpec, a: np.ndarray, *,
                      cluster_radius: float) -> tuple[tuple[complex, ...], JordanSpec]:
    """Match the spec eigenvalues onto the computed spectrum of ``a``.

    The spectrum is clustered by single linkage at ``cluster_radius`` and
    each cluster replaced by its mean (which cancels the rounding scatter of
    defective eigenvalues).  Each spec eigenvalue then takes its nearest
    kind-compatible cluster.  Returns the matched eigenvalue per block and
    the spec with eigenvalues replaced.

    Raises
    ------
    AmbiguousMatchError
        When cluster counts contradict the spec, a second-nearest candidate
        is closer than :data:`RATIO_LIMIT` times the nearest, or two blocks
        claim one cluster.
    KindMismatchError
        When a real eigenvalue would have to match a nonreal cluster or a
        pair eigenvalue a real one.
    """
    eigs = np.linalg.eigvals(np.asarray(a))
    clusters = _cluster_spectrum(eigs, cluster_radius)
    reps = [complex(np.mean(c)) for c in clusters]

    expected = sum(1 if b.kind == REAL else 2 for b in spec0.blocks)
    if len(reps) != expected:
        raise AmbiguousMatchError(
            f"{len(reps)} spectrum clusters for {expected} expected eigenvalues")

    real_reps = [(i, r) for i, r in enumerate(reps) if abs(r.imag) <= cluster_radius]
    used: set[int] = set()
    matched: list[complex] = []
    for bi, b in enumerate(spec0.blocks):
        if b.kind == REAL:
            candidates = real_reps
        else:
            half = np.sign(b.lam.imag)
            candidates = [(i, r) for i, r in enumerate(reps)
                          if abs(r.imag) > cluster_radius and np.sign(r.imag) == half]
        if not candidates:
            raise KindMismatchError(
                f"no {b.kind} spectrum cluster available for block {bi}")
        dists = sorted((abs(r - b.lam), i, r) for i, r in candidates)
        d1, i1, r1 = dists[0]
        if len(dists) > 1 and dists[1][0] < RATIO_LIMIT * d1:
            raise AmbiguousMatchError(
                f"block {bi}: second-nearest cluster at {dists[1][0]:.3e} vs "
                f"nearest {d1:.3e} violates the distance-ratio rule")
        if i1 in used:
            raise AmbiguousMatchError(f"two blocks claim the cluster at {r1}")
        used.add(i1)
        matched.append(complex(r1.real, 0.0) if b.kind == REAL else r1)

    return tuple(matched), _shift_spec(
        spec0, [m - b.lam for m, b in zip(matched, spec0.blocks)])


def _block_gauge(n_mat: np.ndarray, t0_mat: np.ndarray, spec: JordanSpec,
                 continuous_phase: bool) -> np.ndarray:
    """Residual gauge toward the reference basis.

    Real blocks take the sign minimizing the block distance.  Pair blocks
    take a global per-block phase ``e^{i theta}`` on both halves, which is
    the residual freedom preserving the canonical Gram (it drifts the
    conjugate-symmetry scalar by ``e^{2i theta}``, leaving its modulus
    alone).  With ``continuous_phase`` off, the phase is restricted to the
    signs, which also pin the scalar exactly, and the gauge is real (as real
    bases require).
    """
    d = np.eye(spec.total_size, dtype=complex if continuous_phase else float)
    for off, b in spec.offsets():
        w = b.width
        nb = n_mat[:, off:off + w]
        tb = t0_mat[:, off:off + w]
        if b.kind == PAIR and continuous_phase:
            z = (tb[:, :b.size].conj().T @ nb[:, :b.size]).trace()
            # np.angle(z) without its wrapper
            theta = 0.0 if z == 0 else -float(np.arctan2(z.imag, z.real))
            d[off:off + w, off:off + w] = np.exp(1j * theta) * np.eye(w)
        elif np.linalg.norm(nb - tb) > np.linalg.norm(nb + tb):
            d[off:off + w, off:off + w] = -np.eye(w)
    return d


def anchored_canonize(a: np.ndarray, h: np.ndarray, spec: JordanSpec,
                      t0: CanonicalBasis, *,
                      chains: tuple | None = None) -> tuple[CanonicalBasis, PipelineTrace]:
    """Canonical basis of ``(a, h)`` chosen near the reference ``t0``.

    Each block chain is fitted to its columns of ``t0`` in FOCS coordinates
    (least squares over chain-preserving recombinations), the construction
    builds on the fitted chains, and the residual gauge is resolved toward
    ``t0`` afterwards, so the output converges to ``t0`` as the pair
    approaches the reference pair.  The basis kind and the
    conjugate-symmetry scalar are those of ``t0``.  ``spec`` is the
    structure of ``(a, h)``; a pair whose eigenvalues moved is built on the
    spec :func:`match_eigenvalues` returns for it.  ``chains`` is what
    ``jordan_chains(a, spec)`` returns, when the caller already has it.

    Returns the basis and the pipeline trace, with the gauge applied to its
    chain factor.
    """
    kind = t0.role
    if kind not in (ROLE_FOCS, ROLE_RC):
        raise ValueError(f"unsupported reference role {kind!r}")
    a, h = np.asarray(a), np.asarray(h)
    _check_pair_shape(a, h, spec)
    a, h = _real_pair(a, h)
    if chains is None:
        chains = jordan_chains(a, spec)
    ref = to_focs(t0.matrix, spec, kind)
    fitted = []
    for (off, b), mat in zip(spec.offsets(), chains):
        mat = fit_chain_to(mat, ref[:, off:off + b.size])
        fitted.append(np.real(mat) if b.kind == REAL else mat)
    chains = tuple(fitted)
    if kind == ROLE_RC:
        basis, trace = rc_basis(a, h, spec, chains=chains)
    else:
        basis, trace = focs_basis(a, h, spec, t0.gamma or 1.0, chains=chains)
    gauge = _block_gauge(basis.matrix, t0.matrix, spec,
                         continuous_phase=kind == ROLE_FOCS)
    new_mat = basis.matrix @ gauge

    gamma_out, cs_res, _ = conjugate_symmetry_fit(to_focs(new_mat, spec, kind), spec)
    basis = replace(basis, matrix=new_mat,
                    gamma=gamma_out if kind == ROLE_FOCS else basis.gamma,
                    cert=replace(basis.cert, cs_residual=cs_res))
    return basis, replace(trace, chain_factor=trace.chain_factor @ gauge)


@dataclass(frozen=True)
class TrialRecord:
    delta: float
    index: int
    input: float
    output: float | None
    ratio: float | None
    z_devs: tuple[float, float, float, float] | None
    status: str
    matches: tuple[complex, ...] | None = None
    true_eigs: tuple[complex, ...] | None = None


@dataclass(frozen=True)
class DeltaStats:
    delta: float
    n_ok: int
    ratio_min: float | None
    ratio_median: float | None
    ratio_max: float | None


@dataclass(frozen=True)
class StabilityReport:
    """Per-delta trial records with the empirical Lipschitz summary.

    ``k_hat`` is the largest observed deviation ratio; ``boundedness_flag``
    reports whether the per-delta median ratios stay within
    :data:`SPREAD_LIMIT` of each other across the delta decades.
    """

    seed: int
    kind: str
    mode: str
    deltas: tuple[float, ...]
    trials: tuple[TrialRecord, ...]
    per_delta: tuple[DeltaStats, ...]
    k_hat: float
    median_spread: float | None
    factor_spreads: tuple[float | None, float | None, float | None, float | None]
    boundedness_flag: bool


def _trial_seed(inst: Instance, delta_index: int, trial_index: int) -> int:
    seed = np.random.SeedSequence([abs(int(inst.seed)), delta_index, trial_index])
    return int(seed.generate_state(1)[0])


def _trial_fault(exc: Exception, delta: float, trial_index: int, seed: int) -> TrialError:
    return TrialError(
        f"trial {trial_index} at delta {delta:g} (seed {seed}) "
        f"failed: {type(exc).__name__}: {exc}",
        delta=delta, index=trial_index, seed=seed)


def _failed_trial(delta: float, trial_index: int, exc: CanonError) -> TrialRecord:
    return TrialRecord(delta, trial_index, float("nan"), None, None, None, status=exc.code)


@lru_cache(maxsize=None)
def _openblas_threads() -> tuple:
    """``(get, set)`` of the thread count of each OpenBLAS library this
    process has loaded, found by its exported names; numpy's wheels export
    them with a ``scipy_`` prefix and a ``64_`` suffix.  Empty where no
    loaded library exports them, or where ``/proc/self/maps`` does not list
    the loaded libraries (outside Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            try:
                get = getattr(lib, name.format("get"))
                set_ = getattr(lib, name.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found.append((get, set_))
            break
    return tuple(found)


@contextmanager
def _one_blas_thread():
    """Run with one OpenBLAS thread, then give back the caller's count.

    At a trial's sizes more BLAS threads gain little, and pool workers
    that each start them oversubscribe the cores.  The count is
    process-wide, so threads that run trials at once share it."""
    changed = [(set_, n) for get, set_ in _openblas_threads() if (n := get()) != 1]
    for set_, _ in changed:
        set_(1)
    try:
        yield
    finally:
        for set_, n in changed:
            set_(n)


@_one_blas_thread()
def _run_trials(inst: Instance, delta: float, delta_index: int, indices,
                mode: str, norm: str) -> list[TrialRecord]:
    """Records of the trials ``indices`` at one delta, in order.

    Each trial is perturbed, and a weak one matches the instance eigenvalues
    onto its pair's spectrum.  Consecutive trials on one structure share one
    chain extraction; a trial whose item failed records that error, and if
    the call raises, each extracts its own in its construction.  Library
    errors are recorded in a trial's status; any other error is raised as
    :class:`TrialError` with the coordinates of the first trial to raise it.
    """
    records: dict[int, TrialRecord] = {}
    pairs = []
    cause = fault = None
    p_max = max(b.size for b in inst.spec.blocks)
    for ti in indices:
        seed = _trial_seed(inst, delta_index, ti)
        try:
            pair = perturb_instance(inst, delta, mode, seed, norm=norm)
            spec, matches = inst.spec, None
            if mode == MODE_WEAK:
                # the radius tracks the perturbation scale but may not
                # undercut the eigensolver's scatter for a defective block of
                # size p, which is of order (eps ||a||)^(1/p)
                scale = np.finfo(float).eps * max(1.0, mat_norm(pair.a))
                radius = max(CLUSTER_RADIUS_FACTOR * delta, 10.0 * scale ** (1.0 / p_max))
                matches, spec = match_eigenvalues(inst.spec, pair.a, cluster_radius=radius)
        except CanonError as exc:
            records[ti] = _failed_trial(delta, ti, exc)
            continue
        except Exception as exc:
            # the trials before it are built first: a fault of theirs comes first
            cause, fault = exc, _trial_fault(exc, delta, ti, seed)
            break
        pairs.append((ti, seed, pair, spec, matches))

    found: list = []
    for spec, group in groupby(pairs, key=lambda trial: trial[3]):
        stack = np.array([pair.a for _, _, pair, _, _ in group])
        try:
            found += jordan_chains(stack, spec)
        except Exception:
            found += [None] * len(stack)
    eye = np.eye(inst.spec.total_size)
    chain_ref = to_focs(inst.t0.matrix, inst.spec, inst.t0.role)
    for (ti, seed, pair, spec, matches), chains in zip(pairs, found):
        if isinstance(chains, CanonError):
            records[ti] = _failed_trial(delta, ti, chains)
            continue
        try:
            basis, trace = anchored_canonize(pair.a, pair.h, spec, inst.t0, chains=chains)
            dev, *z_devs = mat_norms([basis.matrix - inst.t0.matrix,
                                      trace.chain_factor - chain_ref,
                                      trace.phase_factor - eye,
                                      trace.scale_factor - eye,
                                      trace.flip_factor - eye], norm)
        except CanonError as exc:
            records[ti] = _failed_trial(delta, ti, exc)
            continue
        except Exception as exc:
            raise _trial_fault(exc, delta, ti, seed) from exc
        true_eigs = tuple(b.lam for b in pair.spec.blocks) if mode == MODE_WEAK else None
        records[ti] = TrialRecord(delta, ti, float(pair.measured), dev,
                                  dev / pair.measured, tuple(z_devs), status="ok",
                                  matches=matches, true_eigs=true_eigs)
    if fault is not None:
        raise fault from cause
    return [records[ti] for ti in indices]


def estimate_lipschitz(inst: Instance, deltas: list[float],
                       trials_per_delta: int, *,
                       mode: str = MODE_STRICT,
                       kind: str | None = None,
                       jobs: int = 1,
                       norm: str = "spectral") -> StabilityReport:
    """Run the perturbation experiment and aggregate the deviation ratios.

    Trials are independent and seeded from ``(instance seed, delta index,
    trial index)``; results are identical for any ``jobs`` count.  With
    ``workers = min(jobs, len(deltas) * trials_per_delta)``, each delta's
    trials run in contiguous tasks of ``ceil(trials_per_delta / workers)``,
    in process with one worker, else on ``workers`` processes; a task's
    trials on one structure share one chain extraction, bit for bit as one
    at a time.  Deltas must be finite, positive, strictly decreasing and at
    most :data:`DELTA_MAX`.  A trial's status is ``ok`` or the code of the
    library error that stopped it; any other error is raised as
    :class:`TrialError` with its coordinates.  The report's kind is the
    role of the instance's reference basis; a ``kind`` given as well must
    be that role.
    """
    if trials_per_delta < 1:
        raise ValueError("trials_per_delta must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    deltas = tuple(float(d) for d in deltas)
    if not deltas:
        raise ValueError("need at least one delta")
    if not all(0.0 < d < float("inf") for d in deltas):
        raise ValueError("deltas must be finite and positive")
    if any(d > DELTA_MAX for d in deltas):
        raise ValueError(f"deltas must not exceed {DELTA_MAX}")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    if mode not in (MODE_STRICT, MODE_WEAK):
        raise ValueError(f"unknown mode {mode!r}")
    check_norm_kind(norm)
    if kind not in (None, inst.t0.role):
        raise ValueError(
            f"requested kind {kind!r} but the instance reference basis has "
            f"role {inst.t0.role!r}")

    workers = min(jobs, len(deltas) * trials_per_delta)
    share = -(-trials_per_delta // workers)
    trials = range(trials_per_delta)
    tasks = [(inst, d, di, trials[lo:lo + share], mode, norm)
             for di, d in enumerate(deltas) for lo in trials[::share]]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_trials, *zip(*tasks)))
    else:
        done = map(_run_trials, *zip(*tasks))
    records = [r for task_records in done for r in task_records]

    per_delta = []
    medians = []
    factor_medians: list[list[float]] = [[], [], [], []]
    k_hat = 0.0
    for di, d in enumerate(deltas):
        # records come back in task order: each delta's trials in one slice
        ok = [r for r in records[di * trials_per_delta:(di + 1) * trials_per_delta]
              if r.status == "ok"]
        if ok:
            ratios = [r.ratio for r in ok]
            k_hat = max(k_hat, max(ratios))
            per_delta.append(DeltaStats(d, len(ratios), min(ratios),
                                        median(ratios), max(ratios)))
            medians.append(median(ratios))
            for k in range(4):
                factor_medians[k].append(median(r.z_devs[k] / r.input for r in ok))
        else:
            per_delta.append(DeltaStats(d, 0, None, None, None))

    def spread(vals: list[float]) -> float | None:
        if not vals:
            return None
        lo, hi = min(vals), max(vals)
        if hi == 0.0:
            # identically zero medians (factors that are exactly identity,
            # e.g. on all-real structures) count as perfectly flat
            return 1.0
        return float("inf") if lo == 0.0 else hi / lo

    med_spread = spread(medians)
    f_spreads = tuple(spread(v) for v in factor_medians)
    bounded = (med_spread is not None and med_spread < SPREAD_LIMIT
               and len(medians) == len(deltas))
    return StabilityReport(
        seed=inst.seed, kind=inst.t0.role, mode=mode, deltas=deltas,
        trials=tuple(records), per_delta=tuple(per_delta),
        k_hat=float(k_hat), median_spread=med_spread,
        factor_spreads=f_spreads, boundedness_flag=bool(bounded))
