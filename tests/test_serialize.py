"""Wire formats: JSON round trips and the report CSV schema."""

import functools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indefcanon import BlockSpec, JordanSpec, estimate_lipschitz, generate_instance
from indefcanon.linalg import matrix_to_json
from indefcanon.serialize import (
    basis_from_json,
    basis_to_json,
    dumps,
    instance_from_json,
    instance_to_json,
    report_csv_lines,
    report_summary_json,
    spec_from_json,
    spec_to_json,
    trace_to_json,
)

from conftest import random_spec

SPEC = JordanSpec((BlockSpec("real", 1.2, 1, -1), BlockSpec("pair", 0.5 - 1.5j, 2)))


def test_spec_roundtrip():
    back = spec_from_json(spec_to_json(SPEC))
    assert back == SPEC


def test_spec_json_shape():
    obj = spec_to_json(SPEC)
    assert obj == {"blocks": [
        {"kind": "real", "lambda": 1.2, "size": 1, "sign": -1},
        {"kind": "pair", "lambda": [0.5, -1.5], "size": 2},
    ]}


def test_spec_rejects_malformed():
    with pytest.raises(ValueError):
        spec_from_json({"blocks": [{"kind": "triangular", "lambda": 1, "size": 1}]})
    with pytest.raises(ValueError):
        spec_from_json({})


def test_instance_roundtrip_and_determinism():
    inst = generate_instance(SPEC, 5)
    obj = instance_to_json(inst)
    text1 = dumps(obj)
    text2 = dumps(instance_to_json(inst))
    assert text1 == text2
    back = instance_from_json(json.loads(text1))
    np.testing.assert_array_equal(back.a0, inst.a0)
    np.testing.assert_array_equal(back.h0, inst.h0)
    np.testing.assert_array_equal(back.t0.matrix, inst.t0.matrix)
    assert back.seed == inst.seed
    assert back.t0.role == inst.t0.role
    assert back.t0.gamma == inst.t0.gamma
    assert back.t0.eps == inst.t0.eps


def test_instance_json_field_names():
    inst = generate_instance(SPEC, 5)
    obj = instance_to_json(inst)
    assert set(obj) == {"spec", "A0", "H0", "W", "T0", "seed"}


@settings(max_examples=50, deadline=None)
@given(spec_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["focs", "rc"]))
def test_instance_reload_is_exact_for_both_kinds(spec_seed, seed, kind):
    # the pair is rebuilt from the stored W and checked, never redrawn
    inst = generate_instance(random_spec(np.random.default_rng(spec_seed)), seed, kind=kind)
    back = instance_from_json(json.loads(dumps(instance_to_json(inst))))
    for got, want in ((back.w, inst.w), (back.a0, inst.a0), (back.h0, inst.h0)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # a T0 with no nonzero imaginary part reads back real, its zeros unsigned
    got, want = back.t0.matrix, inst.t0.matrix
    assert np.real(got).tobytes() == np.real(want).tobytes()
    assert np.array_equal(np.imag(got), np.imag(want))


def test_instance_without_w_is_refused():
    # a file without W, as earlier versions wrote it, redrew W from its seed
    obj = json.loads(dumps(instance_to_json(generate_instance(SPEC, 5))))
    del obj["W"]
    with pytest.raises(ValueError, match="instance has no W.*`indefcanon gen`"):
        instance_from_json(obj)


def test_basis_roundtrip():
    inst = generate_instance(SPEC, 6)
    back = basis_from_json(basis_to_json(inst.t0))
    np.testing.assert_array_equal(back.matrix, inst.t0.matrix)
    assert back.cert.similarity == inst.t0.cert.similarity
    assert back.eps == inst.t0.eps


def test_basis_eps_is_a_list_of_signs_or_null():
    obj = basis_to_json(generate_instance(SPEC, 6).t0)
    assert obj["eps"] == [-1, None]
    for eps in ([1.0, None], [True, None], ["-1", None], [2, None], [0, None],
                5, "11", {"a": 1}):
        with pytest.raises(ValueError, match="eps|malformed"):
            basis_from_json({**obj, "eps": eps})


def _same(x, y) -> bool:
    """Structural equality of JSON values that counts NaN equal to NaN."""
    if isinstance(x, dict):
        return isinstance(y, dict) and list(x) == list(y) and all(
            _same(x[k], y[k]) for k in x)
    if isinstance(x, (list, tuple)):
        return isinstance(y, list) and len(x) == len(y) and all(
            _same(a, b) for a, b in zip(x, y))
    if isinstance(x, float) and math.isnan(x):
        return isinstance(y, float) and math.isnan(y)
    return type(x) is type(y) and x == y


@functools.lru_cache(maxsize=1)
def _wire_objects():
    """One of each object the CLI writes, plus a basis carrying NaN, an
    infinity, a signed zero and a non-ASCII role."""
    from indefcanon import focs_basis
    inst = generate_instance(SPEC, 6)
    basis, trace = focs_basis(inst.a0, inst.h0, SPEC)
    report = estimate_lipschitz(inst, [1e-3, 1e-4], 2, mode="weak")
    odd = replace(inst.t0, role="fo\u03b3", gamma=complex(float("nan"), -0.0),
                  matrix=np.array([[np.nan, -0.0], [np.inf, 5e-324]]),
                  cert=replace(inst.t0.cert, cs_residual=float("inf")))
    return {"instance": instance_to_json(inst), "basis": basis_to_json(inst.t0),
            "trace": trace_to_json(trace, basis.gamma), "summary": report_summary_json(report),
            "odd_basis": basis_to_json(odd)}


@pytest.mark.parametrize("name", ["instance", "basis", "trace", "summary", "odd_basis"])
def test_dumps_is_the_stdlib_encoder_and_round_trips(name):
    obj = _wire_objects()[name]
    text = dumps(obj)
    assert text == json.dumps(obj)
    assert "\n" not in text
    assert _same(obj, json.loads(text))


def test_trace_serializes():
    from indefcanon import focs_basis
    inst = generate_instance(SPEC, 6)
    basis, trace = focs_basis(inst.a0, inst.h0, SPEC)
    obj = trace_to_json(trace, basis.gamma)
    assert {"chain_factor", "phase_factor", "scale_factor", "flip_factor",
            "gram_raw", "gram_phased", "gram_scaled", "basis", "gamma"} <= set(obj)
    json.dumps(obj)  # must be plain JSON types
    # the basis is the product of the factors, to the bit
    assert obj["basis"] == matrix_to_json(basis.matrix)
    assert obj["gamma"] == [basis.gamma.real, basis.gamma.imag]


def test_report_csv_schema_strict():
    inst = generate_instance(SPEC, 6)
    report = estimate_lipschitz(inst, [1e-3], 2)
    lines = report_csv_lines(report)
    assert lines[0] == "delta,trial,input,output,ratio,z1_dev,z2_dev,z3_dev,z4_dev,status"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == repr(1e-3) and first[1] == "0" and first[-1] == "ok"
    assert float(first[4]) == report.trials[0].ratio


def test_report_csv_schema_weak_has_matched_columns():
    inst = generate_instance(SPEC, 6)
    report = estimate_lipschitz(inst, [1e-3], 2, mode="weak")
    header = report_csv_lines(report)[0]
    assert header.endswith("status,matched_0,matched_1")


@pytest.mark.parametrize("deltas", [[0.0], [1e-3, 0.0]])
def test_report_csv_lines_all_carry_the_header_field_count(deltas):
    # a weak report in which no trial reached matching has no matched
    # columns; trials that did not reach it leave theirs empty
    inst = generate_instance(SPEC, 6)
    report = estimate_lipschitz(inst, deltas, 2, mode="weak")
    lines = report_csv_lines(report)
    widths = [len(line.split(",")) for line in lines]
    assert widths == [10 if deltas == [0.0] else 12] * (1 + 2 * len(deltas))
    assert lines[0].endswith("status" if deltas == [0.0] else "status,matched_0,matched_1")


def test_report_summary_fields():
    inst = generate_instance(SPEC, 6)
    report = estimate_lipschitz(inst, [1e-3, 1e-4], 2)
    obj = report_summary_json(report)
    assert obj["k_hat"] == report.k_hat
    assert obj["boundedness_flag"] == report.boundedness_flag
    assert len(obj["per_delta"]) == 2 and len(obj["trials"]) == 4
    json.dumps(obj)
