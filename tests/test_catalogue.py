"""Properties of the constructions over the benchmark's catalogues.

The structures and instance seeds are those of ``perfbench/reference.json``;
no recorded value is compared, so each property holds whatever rounding a
later construction has.  The file is only read.
"""

import json
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from indefcanon import (
    JordanSpec,
    anchored_canonize,
    focs_basis,
    generate_instance,
    mat_norm,
    match_eigenvalues,
    perturb_instance,
    rc_basis,
)
from indefcanon.harness import CLUSTER_RADIUS_FACTOR
from indefcanon.pipeline import GramAnchor, _anchor_g0
from indefcanon.serialize import spec_from_json
from indefcanon.structure import PAIR

REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text())

STRICT = REFERENCE["stability-strict"]
WIDE = REFERENCE["wide-weak-rc"]

#: Every third strict entry: 16 of the 48, over all sizes and block mixes.
SAMPLE = range(0, len(STRICT["entries"]), 3)

#: The first three strict entries with a pair block, and a smallest wide one.
ANCHORED = ([("stability-strict", i) for i, e in enumerate(STRICT["entries"])
             if any(b["kind"] == PAIR for b in e["spec"]["blocks"])][:3]
            + [("wide-weak-rc", min(range(len(WIDE["entries"])),
                                    key=lambda i: WIDE["entries"][i]["n"]))])


@lru_cache(maxsize=None)
def _instance(workload: str, entry: int, kind: str):
    e = REFERENCE[workload]["entries"][entry]
    return generate_instance(spec_from_json(e["spec"]), e["seed"], kind=kind)


@pytest.mark.parametrize("workload, entry", ANCHORED)
def test_anchored_chains_put_every_pair_gram_anchor_near_the_positive_axis(workload, entry):
    # chains fitted to the reference start each pair block's Gram anchor
    # next to the positive real axis, far from where PHASE_GUARD rotates
    ref = REFERENCE[workload]
    inst = _instance(workload, entry, ref["kind"])
    weak = ref["mode"] == "weak"
    pairs = [(i, off, b.size) for i, (off, b) in enumerate(inst.spec.offsets())
             if b.kind == PAIR]
    assert pairs
    p_max = max(b.size for b in inst.spec.blocks)
    for j, delta in enumerate(ref["deltas"]):
        pair = perturb_instance(inst, delta, ref["mode"], j)
        spec = inst.spec
        if weak:
            # matched at the cluster radius the experiment uses
            scale = np.finfo(float).eps * max(1.0, mat_norm(pair.a))
            radius = max(CLUSTER_RADIUS_FACTOR * delta, 10.0 * scale ** (1.0 / p_max))
            _, spec = match_eigenvalues(inst.spec, pair.a, cluster_radius=radius)
        _, trace = anchored_canonize(pair.a, pair.h, spec, inst.t0)
        for i, off, p in pairs:
            anchor = GramAnchor(_anchor_g0(trace.gram_raw, off, p), i)
            assert abs(anchor.phi) <= 0.01, (delta, i, anchor.phi)


def _build(kind: str, a, h, spec):
    if kind == "rc":
        return rc_basis(a, h, spec)[0].matrix
    return focs_basis(a, h, spec, 1.0)[0].matrix


@pytest.mark.parametrize("kind", ["focs", "rc"])
@pytest.mark.parametrize("entry", SAMPLE)
def test_cold_construction_metamorphic_properties(entry, kind):
    inst = _instance("stability-strict", entry, "focs")
    a, h, spec = inst.a0, inst.h0, inst.spec
    t = _build(kind, a, h, spec)
    scale = mat_norm(t)

    # a Gram scaled by 4 is met by the basis halved, bit for bit: every
    # step of the construction scales by a power of two
    np.testing.assert_array_equal(_build(kind, a, 4.0 * h, spec), t / 2.0)

    # shifting the matrix and every eigenvalue alike leaves the chains and
    # the Grams, so the basis, where they were
    shifted = JordanSpec(tuple(replace(b, lam=b.lam + 0.25) for b in spec.blocks))
    t_shift = _build(kind, a + 0.25 * np.eye(len(a)), h, shifted)
    assert mat_norm(t_shift - t) <= 1e-11 * scale

    # reversing the block order reverses the basis's block columns
    reversed_spec = JordanSpec(tuple(reversed(spec.blocks)))
    columns = np.concatenate([np.arange(off, off + b.width)
                              for off, b in reversed(list(spec.offsets()))])
    t_rev = _build(kind, a, h, reversed_spec)
    assert mat_norm(t_rev - t[:, columns]) <= 1e-14 * scale
