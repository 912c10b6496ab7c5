"""Exact oracle pairs: instances whose canonical bases are known exactly.

A unimodular integer W, built from elementary integer row operations, has
the integer inverse of the reverse product.  With eigenvalues on the grid of
quarters, ``A0 = W J_R W^-1`` and ``H0 = W^-T P W^-1`` come from integer
products and are exact in floating point, so W is an exact RC basis of
``(A0, H0)`` and ``to_focs(W)`` an exact i-FOCS basis.  For one Jordan block
per eigenvalue both are unique up to one sign per block (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2nd ed. 2002, ch. 28, for the
construction).
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indefcanon import (
    BlockSpec,
    JordanSpec,
    anchored_canonize,
    focs_basis,
    harness,
    rc_basis,
    real_jordan_form,
    sip_form,
)
from indefcanon.rc import to_focs

#: Largest relative forward error ``||T - W D||_2 / ||W||_2`` accepted, D
#: the best sign per block: 100x the worst of a 10 000-example run.
ORACLE_RTOL = 7.5e-8

#: Certificate tolerance of the constructions here.  The default gate,
#: ``1e-10 * max(1, ||H||)``, does not scale with ``||T||^2``, and refused
#: 3 of 10 000 accurate bases (congruence up to 1.08e-10 ||H||, forward
#: error at most 5.6e-10); the forward error, not the gate, is under test.
ORACLE_TOL = 1e-9

#: Generating similarities are redrawn until their condition number is
#: below this.
ORACLE_COND = 1e3

#: Largest relative forward error of an anchored strict trial against the
#: exact perturbed basis, block signs and (FOCS) pair-block phases factored
#: out: 100x the worst of a 10 000-example run, 8.60e-10.
TRIAL_RTOL = 8.6e-8


def exact_pair(spec: JordanSpec, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(A0, H0, W)`` of the exact oracle pair for ``spec``: W is a seeded
    product of ``2n`` elementary row operations ``I + k e_i e_j^T`` with
    ``k = +-1`` and of row sign flips, drawn until ``cond(W) <= ORACLE_COND``."""
    n = spec.total_size
    j4 = 4 * real_jordan_form(spec)
    assert np.array_equal(j4, np.round(j4)), "eigenvalues must be multiples of 1/4"
    j4 = j4.astype(np.int64)
    p = sip_form(spec).astype(np.int64)
    rng = np.random.default_rng(seed)
    while True:
        w, w_inv = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
        for _ in range(2 * n):
            i, j = rng.integers(n, size=2)
            if i == j:
                # D W with D = diag(.., -1, ..) = D^-1
                w[i] *= -1
                w_inv[:, i] *= -1
                continue
            k = int(rng.choice([-1, 1]))
            w[i] += k * w[j]
            w_inv[:, j] -= k * w_inv[:, i]
        if np.linalg.cond(w) <= ORACLE_COND:
            break
    assert np.array_equal(w @ w_inv, np.eye(n, dtype=np.int64))
    a4 = w @ j4 @ w_inv
    h = w_inv.T @ p @ w_inv
    assert max(abs(a4).max(), abs(h).max()) < 2 ** 50
    return a4.astype(float) / 4, h.astype(float), w.astype(float)


def forward_error(t: np.ndarray, exact: np.ndarray, spec: JordanSpec, *,
                  phases: bool = False) -> float:
    """``||t - exact D||_2 / ||exact||_2`` for the sign per block D that
    brings each block of ``exact`` nearest to ``t``; with ``phases``, a pair
    block takes the nearest unit scalar instead."""
    d = np.ones(spec.total_size, dtype=complex if phases else float)
    for off, b in spec.offsets():
        tb, eb = t[:, off:off + b.width], exact[:, off:off + b.width]
        if phases and b.kind == "pair":
            z = np.vdot(eb, tb)
            d[off:off + b.width] = z / abs(z)
        elif np.linalg.norm(tb - eb) > np.linalg.norm(tb + eb):
            d[off:off + b.width] = -1.0
    return float(np.linalg.norm(t - exact * d, 2) / np.linalg.norm(exact, 2))


def exact_perturbation(a0: np.ndarray, h0: np.ndarray, w: np.ndarray, i: int, j: int,
                       k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(A', H', W')`` for ``W' = (I + 2^-k e_i e_j^T) W``, ``i != j``, of an
    exact pair: ``W'^-1 = W^-1 (I - 2^-k e_i e_j^T)``, so with ``s = 2^k``
    the pair is ``(s I + E) A0 (s I - E) / s^2`` and
    ``(s I - E)^T H0 (s I - E) / s^2``, integer products over powers of 2."""
    s = 2 ** k
    a4, h, wi = (np.round(m).astype(np.int64) for m in (4 * a0, h0, w))
    e = np.zeros_like(a4)
    e[i, j] = 1
    eye = s * np.eye(len(e), dtype=np.int64)
    up, down = eye + e, eye - e
    a4, h, wi = up @ a4 @ down, down.T @ h @ down, up @ wi
    assert max(abs(a4).max(), abs(h).max(), abs(wi).max()) < 2 ** 53
    return a4 / (4 * s * s), h / (s * s), wi / s


@st.composite
def quarter_specs(draw):
    """One to five blocks of size 1-4, with distinct nonzero eigenvalues
    on the grid of quarters: real ones in [-2, 2], pair ones with real part
    in [-2, 2] and imaginary part of modulus in [1/4, 2]."""
    keyed = draw(st.lists(
        st.tuples(st.booleans(), st.integers(-8, 8), st.integers(1, 8),
                  st.sampled_from([-1, 1]), st.integers(1, 4)),
        min_size=1, max_size=5,
        # one block per eigenvalue, conjugates included
        unique_by=lambda t: (t[1], t[2] if t[0] else 0)))
    blocks = []
    for pair, re, im, sign, size in keyed:
        if pair:
            blocks.append(BlockSpec("pair", complex(re, sign * im) / 4, size))
        elif re != 0:
            blocks.append(BlockSpec("real", re / 4, size, sign))
    if not blocks:
        blocks.append(BlockSpec("real", 0.25, 1, 1))
    return JordanSpec(tuple(blocks))


@settings(max_examples=60, deadline=None)
@given(spec=quarter_specs(), seed=st.integers(0, 2**32 - 1))
def test_cold_constructions_equal_the_exact_basis_up_to_block_signs(spec, seed):
    a0, h0, w = exact_pair(spec, seed)
    rc, _ = rc_basis(a0, h0, spec, tol=ORACLE_TOL)
    assert forward_error(rc.matrix, w, spec) <= ORACLE_RTOL
    focs, _ = focs_basis(a0, h0, spec, 1j, tol=ORACLE_TOL)
    assert forward_error(focs.matrix, to_focs(w, spec, "rc"), spec) <= ORACLE_RTOL


def exact_trial_errors(spec: JordanSpec, seed: int, i: int, j: int,
                       k: int) -> tuple[float, float]:
    """Forward errors of the anchored rc and i-FOCS trials of the exact
    strict perturbation against ``W'`` and ``to_focs(W')``."""
    a0, h0, w = exact_pair(spec, seed)
    a, h, w2 = exact_perturbation(a0, h0, w, i, j, k)
    t0_rc, _ = rc_basis(a0, h0, spec, tol=ORACLE_TOL)
    t0_focs, _ = focs_basis(a0, h0, spec, 1j, tol=ORACLE_TOL)
    # anchored_canonize builds at the default tol, whose gate refused both
    # trials of 1 accurate example in 10 000; the forward error is under test
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "rc_basis", partial(rc_basis, tol=ORACLE_TOL))
        mp.setattr(harness, "focs_basis", partial(focs_basis, tol=ORACLE_TOL))
        rc, _ = anchored_canonize(a, h, spec, t0_rc)
        focs, _ = anchored_canonize(a, h, spec, t0_focs)
    # a FOCS trial keeps one phase per pair block until the gauge keeps signs
    # only (ROADMAP item 4A)
    return (forward_error(rc.matrix, w2, spec),
            forward_error(focs.matrix, to_focs(w2, spec, "rc"), spec, phases=True))


@settings(max_examples=40, deadline=None)
@given(spec=quarter_specs(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_exact_strict_trials_equal_the_exact_perturbed_basis(spec, seed, data):
    n = spec.total_size
    assume(n >= 2)
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    k = data.draw(st.integers(1, 20))
    assert max(exact_trial_errors(spec, seed, i, j, k)) <= TRIAL_RTOL
