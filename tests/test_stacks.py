"""Stacked constructions against one pair at a time.

A stack of pairs that share a spec takes the staircase SVDs of its chains
once for the whole stack.  Each item must come out bit for bit as a call on its pair alone: the
basis, the four factors and the certificate.  An item that trips a gate must
leave with the error a call on it alone raises, and the other items must come
out as if it had not been there.  The structures are the block mixes of the
benchmark's strict catalogue.
"""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indefcanon import (
    CanonError,
    anchored_canonize,
    focs_basis,
    generate_instance,
    perturb_instance,
    pipeline,
    rc,
    rc_basis,
)
from indefcanon.linalg import DEFAULT_TOL
from indefcanon.serialize import spec_from_json
from indefcanon.structure import REAL

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

#: (spec, instance seed) of each strict catalogue entry.
CATALOGUE = [(spec_from_json(e["spec"]), e["seed"])
             for e in json.loads(REFERENCE.read_text())["stability-strict"]["entries"]]


@lru_cache(maxsize=None)
def _instance(entry: int, kind: str):
    spec, seed = CATALOGUE[entry]
    return generate_instance(spec, seed, kind=kind)


def _not_hermitian(monkeypatch, a, h):
    h = h.copy()
    h[0, -1] += 1e-3
    return a, h


def _shifted_spectrum(monkeypatch, a, h):
    # still h-selfadjoint, but no eigenvalue is where the spec puts one
    return a + 0.25 * np.eye(len(a)), h


def _flipped_signs(monkeypatch, a, h):
    # the sign characteristic of every real block flips
    return a, -h


def _missed_certificate(monkeypatch, a, h):
    # the residuals of this pair's FOCS basis read 1, in a stack or alone
    real = pipeline.affiliation_residuals

    def residuals(a_, *args, **kwargs):
        return (1.0, 1.0) if np.array_equal(a_, a) else real(a_, *args, **kwargs)

    monkeypatch.setattr(pipeline, "affiliation_residuals", residuals)
    return a, h


#: One failing pair each, tripping a gate at another stage: the Hermitian
#: gate on h, the chain staircase, the sign check of the block loop, and the
#: certificate gate after every factor is built.
FAULTS = {"not_hermitian": _not_hermitian, "shifted_spectrum": _shifted_spectrum,
          "flipped_signs": _flipped_signs, "missed_certificate": _missed_certificate}


def _build(inst, a, h, anchored):
    """The construction a trial runs (anchored) or a cold one, on one pair
    or on a stack of pairs."""
    if a.ndim == 3:
        if anchored:
            return anchored_canonize(a, h, inst.spec, inst.t0)
        if inst.t0.role == "rc":
            return rc._rc_stack(a, h, inst.spec, None, DEFAULT_TOL, "spectral")
        return pipeline._focs_stack(a, h, inst.spec, inst.t0.gamma, None, DEFAULT_TOL,
                                    "spectral")
    if anchored:
        return anchored_canonize(a, h, inst.spec, inst.t0)
    if inst.t0.role == "rc":
        return rc_basis(a, h, inst.spec)
    return focs_basis(a, h, inst.spec, inst.t0.gamma)


def _single(inst, a, h, anchored):
    """The outcome of one pair: what the call returns, or the error it raises."""
    try:
        return _build(inst, a, h, anchored)
    except CanonError as exc:
        return exc


def _bits(m: np.ndarray) -> tuple:
    return m.dtype, m.shape, np.ascontiguousarray(m).tobytes()


def _assert_same(got, want):
    if isinstance(want, CanonError):
        assert type(got) is type(want)
        assert (got.code, str(got)) == (want.code, str(want))
        return
    basis, trace = got[:2]
    want_basis, want_trace = want[:2]
    assert _bits(basis.matrix) == _bits(want_basis.matrix)
    for name in ("chain_factor", "phase_factor", "scale_factor", "flip_factor",
                 "gram_raw", "gram_phased", "gram_scaled", "basis"):
        assert _bits(getattr(trace, name)) == _bits(getattr(want_trace, name)), name
    assert basis.cert == want_basis.cert
    assert (basis.role, basis.gamma, basis.eps) == \
        (want_basis.role, want_basis.gamma, want_basis.eps)
    assert got[2:] == want[2:]


def _pairs(inst, deltas, seed):
    pairs = [perturb_instance(inst, d, "strict", seed + j) for j, d in enumerate(deltas)]
    return np.stack([p.a for p in pairs]), np.stack([p.h for p in pairs])


CASES = dict(entry=st.integers(0, len(CATALOGUE) - 1), kind=st.sampled_from(["focs", "rc"]),
             anchored=st.booleans(), seed=st.integers(0, 2**31),
             deltas=st.lists(st.sampled_from([1e-2, 1e-4, 1e-6]), min_size=2, max_size=4))


@settings(max_examples=25, deadline=None)
@given(**CASES)
def test_stacked_items_match_their_single_calls_bit_for_bit(entry, kind, anchored, seed,
                                                            deltas):
    inst = _instance(entry, kind)
    a, h = _pairs(inst, deltas, seed)
    stacked = _build(inst, a, h, anchored)
    assert len(stacked) == len(deltas)
    for x, y, got in zip(a, h, stacked):
        want = _single(inst, x, y, anchored)
        assert not isinstance(want, CanonError)
        _assert_same(got, want)


@settings(max_examples=25, deadline=None)
@given(**CASES, fault=st.sampled_from(sorted(FAULTS)), position=st.integers(0, 3))
def test_a_failing_item_leaves_the_others_unchanged(entry, kind, anchored, seed, deltas,
                                                    fault, position):
    inst = _instance(entry, kind)
    assume(fault != "flipped_signs" or any(b.kind == REAL for b in inst.spec.blocks))
    a, h = _pairs(inst, deltas, seed)
    position %= len(deltas)
    with pytest.MonkeyPatch.context() as monkeypatch:
        a[position], h[position] = FAULTS[fault](monkeypatch, a[position], h[position])
        stacked = _build(inst, a, h, anchored)
        for j, (x, y, got) in enumerate(zip(a, h, stacked)):
            want = _single(inst, x, y, anchored)
            assert isinstance(want, CanonError) == (j == position)
            _assert_same(got, want)


def test_a_stack_whose_items_all_fail_gives_each_its_error():
    inst = _instance(0, "focs")
    a, h = _pairs(inst, [1e-3, 1e-4], 5)
    h = h.copy()
    h[:, 0, -1] += 1e-3
    for got, x, y in zip(anchored_canonize(a, h, inst.spec, inst.t0), a, h):
        with pytest.raises(CanonError) as info:
            anchored_canonize(x, y, inst.spec, inst.t0)
        _assert_same(got, info.value)
