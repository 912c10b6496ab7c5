"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import time
from fractions import Fraction

import numpy as np

from indefcanon import (
    BlockSpec,
    JordanSpec,
    affiliation_residuals,
    conjugate_symmetry_fit,
    estimate_lipschitz,
    focs_basis,
    generate_instance,
    h_selfadjoint_residual,
    jordan_form,
    mat_norm,
    mixing_matrix,
    mixing_matrix_inv,
    real_jordan_form,
    sip_form,
    toeplitz_inv_sqrt,
)
from indefcanon.structure import CS_TOL

from conftest import (
    TOEPLITZ_RTOL,
    frac_gap,
    frac_identity,
    frac_matmul,
    frac_toeplitz_inv_sqrt,
)


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ten fixed experiment structures, all of total size <= 10, eigenvalues
# nonzero, distinct, and well separated
EXPERIMENT_SPECS = [
    JordanSpec((BlockSpec("pair", -2j, 2),)),
    JordanSpec((BlockSpec("pair", 0.8 - 1.1j, 1), BlockSpec("real", 1.7, 2, 1))),
    JordanSpec((BlockSpec("real", -1.2, 1, -1), BlockSpec("pair", 1.5 + 0.9j, 2))),
    JordanSpec((BlockSpec("real", 2.4, 3, 1),)),
    JordanSpec((BlockSpec("pair", -0.7 - 1.3j, 2), BlockSpec("pair", 1.1 + 2.0j, 1))),
    JordanSpec((BlockSpec("real", 0.9, 2, 1), BlockSpec("real", -1.8, 2, -1),
                BlockSpec("pair", 2.2j, 1))),
    JordanSpec((BlockSpec("pair", 1.9 - 0.8j, 3),)),
    JordanSpec((BlockSpec("real", -2.6, 1, 1), BlockSpec("pair", -1.4 + 1.6j, 2),
                BlockSpec("real", 1.1, 1, -1))),
    JordanSpec((BlockSpec("pair", 0.6 + 1.8j, 1), BlockSpec("pair", -1.9 - 0.7j, 1),
                BlockSpec("real", 3.0, 2, 1))),
    JordanSpec((BlockSpec("real", 1.3, 1, 1), BlockSpec("real", -0.8, 1, -1),
                BlockSpec("pair", -2.4 + 1.2j, 2))),
]

DELTAS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
TRIALS = 20


def test_criterion_1_golden_fixture(ex_a, ex_h, ex_t, ex_l, ex_l_gram, ex_m,
                                    ex_j, ex_p, ex_jr, ex_r, ex_spec):
    start = time.monotonic()
    sim, cong = affiliation_residuals(ex_a, ex_h, ex_t, ex_j, ex_p)
    ok = sim <= 1e-10 and cong <= 1e-10
    ok &= h_selfadjoint_residual(ex_a, ex_h) == 0.0
    _, res_t, block_t = conjugate_symmetry_fit(ex_t, ex_spec)
    ok &= block_t == 0 and res_t > CS_TOL * max(1.0, mat_norm(ex_t))
    for basis in (ex_l, ex_m):
        gamma, res, _ = conjugate_symmetry_fit(basis, ex_spec)
        ok &= abs(gamma - 1.0) <= 1e-12
        ok &= res <= CS_TOL * max(1.0, mat_norm(basis))
    ok &= mat_norm(ex_l.conj().T @ ex_h @ ex_l - ex_l_gram) <= 1e-12
    sim_m, cong_m = affiliation_residuals(ex_a, ex_h, ex_m, ex_j, ex_p)
    ok &= sim_m <= 1e-10 and cong_m <= 1e-10
    ok &= not np.iscomplexobj(ex_r)
    sim_r, cong_r = affiliation_residuals(ex_a, ex_h, ex_r, ex_jr, ex_p)
    ok &= sim_r <= 1e-10 and cong_r <= 1e-10
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _verdict(1, "golden fixture residuals and predicates", ok,
             f"{elapsed:.3f}s")


def test_criterion_2_pipeline_soundness(ex_a, ex_h, ex_spec, ex_p):
    start = time.monotonic()
    basis, tr = focs_basis(ex_a, ex_h, ex_spec, 1.0)
    ok = basis.cert.similarity <= 1e-10 and basis.cert.congruence <= 1e-10
    ok &= basis.cert.cs_residual <= 1e-10
    stol = 1e-8 * max(1.0, mat_norm(ex_h) * mat_norm(tr.chain_factor) ** 2)
    p = 2
    z = tr.gram_raw[p:, :p]
    ok &= mat_norm(tr.gram_raw[:p, :p]) <= stol               # zero diagonal block
    ok &= abs(z[0, 0]) <= stol                                # anti-triangular
    ok &= abs(z[0, 1] - z[1, 0]) <= stol                      # Hankel
    anc1 = np.mean(np.diag(np.fliplr(tr.gram_phased[p:, :p])))
    ok &= abs(anc1.imag) <= stol and anc1.real > 0            # real anchor
    anc2 = np.mean(np.diag(np.fliplr(tr.gram_scaled[p:, :p])))
    ok &= abs(anc2 - 1.0) <= stol                             # unit anchor
    final = tr.flip_factor.conj().T @ tr.gram_scaled @ tr.flip_factor
    ok &= mat_norm(final - ex_p) <= stol                      # sip Gram
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _verdict(2, "pipeline soundness on the worked example", ok,
             f"{elapsed:.3f}s")


def test_criterion_3_toeplitz_oracle():
    rng = np.random.default_rng(300)
    ok = True
    for _ in range(200):
        p = int(rng.integers(1, 9))
        g3 = frac_identity(p)
        for d in range(1, p):
            v = Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 17)))
            for i in range(d, p):
                g3[i][i - d] = v
        # the exact series solves F F G = I, and the kernel on G rounded
        # to floats lands on it entrywise
        f = frac_toeplitz_inv_sqrt(g3)
        ok &= frac_matmul(frac_matmul(f, f), g3) == frac_identity(p)
        ok &= frac_gap(toeplitz_inv_sqrt(np.array(g3, dtype=float)), f) <= TOEPLITZ_RTOL
    for _ in range(1000):
        # subdiagonals in the unit disc: the scale of flipped unit-anchored
        # Gram blocks, which is what the pipeline feeds this kernel
        p = int(rng.integers(1, 9))
        g3 = np.eye(p, dtype=complex)
        for d in range(1, p):
            mag = np.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * np.pi)
            g3 += mag * np.exp(1j * ang) * np.diag(np.ones(p - d), -d)
        f = toeplitz_inv_sqrt(g3)
        ok &= mat_norm(f @ f @ g3 - np.eye(p)) <= 1e-12
    _verdict(3, "Toeplitz inverse square root contract", ok,
             "200 exact rational + 1000 double cases")


def test_criterion_4_mixing_identities_and_rc_realness():
    from conftest import random_spec
    rng = np.random.default_rng(400)
    ok = True
    worst_imag = 0.0
    for k in range(50):
        spec = random_spec(rng, max_total=12)
        s = mixing_matrix(spec)
        p = sip_form(spec)
        ok &= mat_norm(s.conj().T @ p @ s - p) <= 1e-12
        ok &= mat_norm(mixing_matrix_inv(spec) @ jordan_form(spec) @ s
                       - real_jordan_form(spec)) <= 1e-12
        inst = generate_instance(spec, 40_000 + k, kind="rc")
        r = inst.t0
        ok &= not np.iscomplexobj(r.matrix)
        rel = r.cert.max_imag / max(1.0, mat_norm(r.matrix))
        worst_imag = max(worst_imag, rel)
        ok &= r.cert.max_imag <= 1e-9 * max(1.0, mat_norm(r.matrix))
    _verdict(4, "mixing-transform identities and rc realness", ok,
             f"worst relative imaginary part {worst_imag:.2e}")


def _run_experiment(kind: str, mode: str, gamma: complex = 1.0):
    reports = []
    for k, spec in enumerate(EXPERIMENT_SPECS):
        inst = generate_instance(spec, 5000 + k, kind=kind, gamma=gamma)
        reports.append(estimate_lipschitz(inst, DELTAS, TRIALS, mode=mode))
    return reports


def _check_reports(reports, require_match_recovery=False):
    ok = True
    worst_spread = 0.0
    for rep in reports:
        for t in rep.trials:
            if t.status != "ok":
                ok = False
                continue
            ok &= np.isfinite(t.ratio)
            if require_match_recovery and t.delta <= 1e-3:
                for m, true in zip(t.matches, t.true_eigs):
                    ok &= abs(m - true) <= 10.0 * t.delta
        ok &= rep.boundedness_flag
        worst_spread = max(worst_spread, rep.median_spread)
        for fs in rep.factor_spreads:
            ok &= fs is not None and fs < 10.0
            worst_spread = max(worst_spread, fs)
    return ok, worst_spread


def test_criterion_5_strict_lipschitz_boundedness():
    start = time.monotonic()
    reports = _run_experiment("focs", "strict")
    ok, worst = _check_reports(reports)
    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    k_hats = [f"{r.k_hat:.3g}" for r in reports]
    _verdict(5, "strict-mode Lipschitz boundedness", ok,
             f"worst spread {worst:.2f}, K_hat per instance {k_hats}, {elapsed:.1f}s")


def test_criterion_6_rc_lipschitz():
    start = time.monotonic()
    focs_reports = _run_experiment("focs", "strict", gamma=1.0j)
    rc_reports = _run_experiment("rc", "strict")
    ok, worst = _check_reports(rc_reports)
    for spec, rep_f, rep_r in zip(EXPERIMENT_SPECS, focs_reports, rc_reports):
        s_norm = mat_norm(mixing_matrix(spec))
        ok &= rep_r.k_hat <= 1.1 * s_norm * rep_f.k_hat
    elapsed = time.monotonic() - start
    _verdict(6, "rc-mode Lipschitz and mixing-norm relation", ok,
             f"worst spread {worst:.2f}, {elapsed:.1f}s")


def test_criterion_7_weak_mode():
    start = time.monotonic()
    reports = _run_experiment("focs", "weak")
    ok, worst = _check_reports(reports, require_match_recovery=True)
    # matching recovered the exact bijection in every non-errored trial
    recovered = all(
        abs(m - true) <= 10.0 * t.delta
        for rep in reports for t in rep.trials if t.status == "ok" and t.delta <= 1e-3
        for m, true in zip(t.matches, t.true_eigs))
    ok &= recovered
    elapsed = time.monotonic() - start
    _verdict(7, "weak-mode boundedness and bijection recovery", ok,
             f"worst spread {worst:.2f}, {elapsed:.1f}s")


def test_criterion_8_two_dimensional_brute_force():
    ok = True
    worst = 0.0
    for k in range(10):
        lam = complex(np.cos(k), 0.5 + 0.2 * k)
        spec = JordanSpec((BlockSpec("pair", lam, 1),))
        inst = generate_instance(spec, 800 + k)
        # closed form: eigenvector q scaled so conj(gamma) q^T H q = 1, with
        # the principal square root; unique up to sign
        evals, evecs = np.linalg.eig(inst.a0)
        idx = int(np.argmin(np.abs(evals - lam)))
        q0 = evecs[:, idx]
        c = 1.0 / np.sqrt(q0.T @ inst.h0 @ q0)
        q = c * q0
        oracle = np.stack([q, np.conj(q)], axis=1)
        got = inst.t0.matrix
        dev = min(np.max(np.abs(got - oracle)), np.max(np.abs(got + oracle)))
        worst = max(worst, dev)
        ok &= dev <= 1e-12
    _verdict(8, "two-dimensional closed-form equivalence", ok,
             f"worst gauge-aligned deviation {worst:.2e}")
