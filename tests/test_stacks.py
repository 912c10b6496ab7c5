"""Stacked chain extraction against one matrix at a time.

``chains._jordan_chains`` takes the staircase SVDs of a stack of matrices
that share a spec once per block for the whole stack; the harness extracts
the chains of a delta's strict trials this way.  Each item must come out bit
for bit as ``jordan_chains`` on its matrix alone.  An item that trips a
block must come out with the error a call on it alone raises, and the other
items must come out as if it had not been there.  A construction handed an
item's chains must build the basis it builds when it extracts them itself.
The structures are the block mixes of the benchmark's strict catalogue.
"""

import json
from dataclasses import fields, replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indefcanon import (
    CanonError,
    JordanSpec,
    anchored_canonize,
    focs_basis,
    generate_instance,
    jordan_chains,
    perturb_instance,
    rc_basis,
)
from indefcanon.chains import _jordan_chains
from indefcanon.serialize import spec_from_json
from indefcanon.structure import real_jordan_form

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

#: (spec, instance seed) of each strict catalogue entry.
CATALOGUE = [(spec_from_json(e["spec"]), e["seed"])
             for e in json.loads(REFERENCE.read_text())["stability-strict"]["entries"]]


@lru_cache(maxsize=None)
def _instance(entry: int):
    spec, seed = CATALOGUE[entry]
    return generate_instance(spec, seed)


def _stack(inst, deltas, seed) -> np.ndarray:
    """The perturbed matrices of strict trials, one per delta."""
    return np.stack([perturb_instance(inst, d, "strict", seed + j).a
                     for j, d in enumerate(deltas)])


def _shifted_spectrum(inst, a, choice):
    # no eigenvalue is where the spec puts one
    return a + 0.25 * np.eye(len(a))


def _grown_block(inst, a, choice):
    # the spec declares size p for a block of size p + 1: the block takes
    # one size from the last other block of its kind, which shrinks or goes
    blocks = list(inst.spec.blocks)
    grown = [i for i, b in enumerate(blocks)
             if any(c.kind == b.kind for j, c in enumerate(blocks) if j != i)]
    i = grown[choice % len(grown)]
    k = max(j for j, c in enumerate(blocks) if j != i and c.kind == blocks[i].kind)
    blocks[i] = replace(blocks[i], size=blocks[i].size + 1)
    blocks[k] = replace(blocks[k], size=blocks[k].size - 1) if blocks[k].size > 1 else None
    spec = JordanSpec(tuple(filter(None, blocks)))
    return inst.w @ real_jordan_form(spec) @ np.linalg.inv(inst.w)


#: One failing matrix each: the first kind trips the staircase of the first
#: block, the second that of the grown block or of the earlier block it
#: shrank.
FAULTS = {"shifted_spectrum": _shifted_spectrum, "grown_block": _grown_block}


def _single(a, spec):
    """The outcome of one matrix: its chains, or the error it raises."""
    try:
        return jordan_chains(a, spec)
    except CanonError as exc:
        return exc


def _bits(m: np.ndarray) -> tuple:
    return m.dtype, m.shape, np.ascontiguousarray(m).tobytes()


def _assert_same(got, want):
    if isinstance(want, CanonError):
        assert type(got) is type(want)
        assert (got.code, str(got)) == (want.code, str(want))
        return
    assert isinstance(got, tuple) and len(got) == len(want)
    assert [_bits(m) for m in got] == [_bits(m) for m in want]


CASES = dict(entry=st.integers(0, len(CATALOGUE) - 1), seed=st.integers(0, 2**31),
             deltas=st.lists(st.sampled_from([1e-2, 1e-4, 1e-6]), min_size=2, max_size=4))


@settings(max_examples=25, deadline=None)
@given(**CASES)
def test_stacked_items_match_their_single_calls_bit_for_bit(entry, seed, deltas):
    inst = _instance(entry)
    a = _stack(inst, deltas, seed)
    stacked = _jordan_chains(a, inst.spec)
    assert len(stacked) == len(deltas)
    for x, got in zip(a, stacked):
        want = _single(x, inst.spec)
        assert not isinstance(want, CanonError)
        _assert_same(got, want)


@settings(max_examples=25, deadline=None)
@given(**CASES, fault=st.sampled_from(sorted(FAULTS)), position=st.integers(0, 3),
       choice=st.integers(0, 20))
def test_a_failing_item_leaves_the_others_unchanged(entry, seed, deltas, fault, position,
                                                    choice):
    inst = _instance(entry)
    a = _stack(inst, deltas, seed)
    position %= len(deltas)
    a[position] = FAULTS[fault](inst, a[position], choice)
    stacked = _jordan_chains(a, inst.spec)
    for j, (x, got) in enumerate(zip(a, stacked)):
        want = _single(x, inst.spec)
        assert isinstance(want, CanonError) == (j == position)
        _assert_same(got, want)


def test_a_stack_whose_items_all_fail_gives_each_its_error():
    # the first item fails at block 0 and the second at block 5 of 7, after
    # the first has left the stack
    inst = _instance(0)
    a = _stack(inst, [1e-3, 1e-4], 5)
    a[0] = _shifted_spectrum(inst, a[0], 0)
    a[1] = _grown_block(inst, a[1], 5)
    stacked = _jordan_chains(a, inst.spec)
    for x, got in zip(a, stacked):
        want = _single(x, inst.spec)
        assert isinstance(want, CanonError)
        _assert_same(got, want)


@pytest.mark.parametrize("entry", [0, 1, 2])
@pytest.mark.parametrize("kind", ["focs", "rc"])
@pytest.mark.parametrize("anchored", [False, True])
def test_a_construction_given_its_chains_matches_one_that_takes_them(entry, kind, anchored):
    # the harness hands a trial's construction its item of the delta's stack
    inst = _instance(entry)
    a, h = inst.a0, inst.h0
    if anchored:
        pair = perturb_instance(inst, 1e-4, "strict", entry)
        a, h, t0 = pair.a, pair.h, inst.t0
        if kind == "rc":
            spec, seed = CATALOGUE[entry]
            t0 = generate_instance(spec, seed, kind="rc").t0
        build = partial(anchored_canonize, a, h, inst.spec, t0)
    elif kind == "rc":
        build = partial(rc_basis, a, h, inst.spec)
    else:
        build = partial(focs_basis, a, h, inst.spec, 1.0)
    basis, trace = build()
    given_basis, given_trace = build(chains=jordan_chains(a, inst.spec))
    assert _bits(given_basis.matrix) == _bits(basis.matrix)
    assert (given_basis.role, given_basis.gamma, given_basis.cert, given_basis.eps) == \
        (basis.role, basis.gamma, basis.cert, basis.eps)
    for f in fields(trace):
        got, want = getattr(given_trace, f.name), getattr(trace, f.name)
        if isinstance(want, np.ndarray):
            assert _bits(got) == _bits(want), f.name
        else:
            assert got == want, f.name
