"""Command-line workflows and the exit-code contract."""

import functools
import json
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from indefcanon import BlockSpec, JordanSpec, cli, generate_instance, harness
from indefcanon.cli import main
from indefcanon.linalg import matrix_from_json, matrix_to_json
from indefcanon.pipeline import CanonicalBasis, Certificate
from indefcanon.rc import certify
from indefcanon.serialize import (
    basis_from_json,
    basis_to_json,
    dumps,
    instance_to_json,
    spec_from_json,
    spec_to_json,
)

from conftest import raise_reached, random_spec

SPEC = JordanSpec((BlockSpec("real", 1.5, 2, 1), BlockSpec("pair", -0.7 - 1.3j, 2)))

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE = SRC.parent / "perfbench" / "reference.json"


@pytest.fixture()
def runner():
    return CliRunner()


def write_spec(path, spec=SPEC):
    path.write_text(dumps(spec_to_json(spec)))


def write_pair_file(path, a, h, spec):
    obj = {"A": matrix_to_json(a), "H": matrix_to_json(h),
           "spec": spec_to_json(spec)}
    path.write_text(dumps(obj))


@pytest.fixture()
def paper_pair_file(tmp_path, ex_a, ex_h, ex_spec):
    f = tmp_path / "pair.json"
    write_pair_file(f, ex_a, ex_h, ex_spec)
    return f


def test_gen_writes_deterministic_instance(runner, tmp_path):
    spec_file = tmp_path / "spec.json"
    write_spec(spec_file)
    out1, out2 = tmp_path / "i1.json", tmp_path / "i2.json"
    r1 = runner.invoke(main, ["gen", "--spec-file", str(spec_file),
                              "--seed", "7", "--out", str(out1)])
    assert r1.exit_code == 0, r1.output
    r2 = runner.invoke(main, ["gen", "--spec-file", str(spec_file),
                              "--seed", "7", "--out", str(out2)])
    assert r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_bad_json_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    for text in ["{not json",
                 '{"blocks": [1, 2]}',
                 '{"blocks": 5}',
                 '{"blocks": [{"kind": "pair", "lambda": 1.0, "size": 1}]}',
                 '{"blocks": [{"kind": "real", "lambda": 1.0, "size": 1}]}',
                 # integer fields are refused, not truncated
                 '{"blocks": [{"kind": "real", "lambda": 1.5, "size": 2.7, "sign": 1}]}',
                 '{"blocks": [{"kind": "real", "lambda": 1.5, "size": 2, "sign": 1.9}]}',
                 '{"blocks": [{"kind": "real", "lambda": 1.5, "size": 2.0, "sign": 1}]}',
                 '{"blocks": [{"kind": "real", "lambda": 1.5, "size": "2", "sign": 1}]}',
                 '{"blocks": [{"kind": "real", "lambda": 1.5, "size": true, "sign": 1}]}',
                 '{"blocks": [{"kind": "real", "lambda": 1.5, "size": 1, "sign": true}]}',
                 '{"blocks": [{"kind": "pair", "lambda": [0.5, 1.0], "size": 1.5}]}',
                 # number fields take JSON numbers only, never strings or booleans
                 '{"blocks": [{"kind": "real", "lambda": "1.5", "size": 2, "sign": 1}]}',
                 '{"blocks": [{"kind": "real", "lambda": true, "size": 2, "sign": 1}]}',
                 '{"blocks": [{"kind": "pair", "lambda": [-0.7, true], "size": 2}]}',
                 '{"blocks": [{"kind": "pair", "lambda": ["-0.7", 1.3], "size": 2}]}',
                 '{"blocks": [{"kind": "pair", "lambda": [-0.7, 1.3, 0.0], "size": 2}]}',
                 # 1e400 reads as an infinite float
                 '{"blocks": [{"kind": "real", "lambda": 1e400, "size": 2, "sign": 1}]}',
                 '{"blocks": [{"kind": "pair", "lambda": [-0.7, -1e400], "size": 2}]}']:
        bad.write_text(text)
        r = runner.invoke(main, ["gen", "--spec-file", str(bad),
                                 "--out", str(tmp_path / "x.json")])
        assert r.exit_code == 2, (text, r.output)
        assert r.exception is None or isinstance(r.exception, SystemExit), text
    write_spec(bad)
    r = runner.invoke(main, ["gen", "--spec-file", str(bad), "--seed", "-1",
                             "--out", str(tmp_path / "x.json")])
    assert r.exit_code == 2, r.output
    assert "seed must be at least 0, got -1" in r.output


def test_gen_zero_eigenvalue_exits_3(runner, tmp_path):
    spec_file = tmp_path / "spec.json"
    write_spec(spec_file, JordanSpec((BlockSpec("real", 0.0, 1, 1),)))
    r = runner.invoke(main, ["gen", "--spec-file", str(spec_file),
                             "--out", str(tmp_path / "x.json")])
    assert r.exit_code == 3


def test_gen_reference_basis_missing_the_instance_gate_exits_3(runner, tmp_path,
                                                               monkeypatch):
    monkeypatch.setattr(harness, "INSTANCE_TOL", 0.0)
    spec_file, out = tmp_path / "spec.json", tmp_path / "x.json"
    write_spec(spec_file)
    r = runner.invoke(main, ["gen", "--spec-file", str(spec_file), "--out", str(out)])
    assert r.exit_code == 3, r.output
    assert "generation failed: reference basis residuals" in r.output
    assert not out.exists()


def test_canonize_focs_paper_pair(runner, tmp_path, paper_pair_file):
    out = tmp_path / "basis.json"
    r = runner.invoke(main, ["canonize", "--in", str(paper_pair_file),
                             "--out", str(out)])
    assert r.exit_code == 0, r.output
    obj = json.loads(out.read_text())
    assert obj["role"] == "focs"
    assert obj["residuals"]["similarity"] <= 1e-10
    assert obj["residuals"]["congruence"] <= 1e-10


def test_canonize_rc_paper_pair_is_real(runner, tmp_path, paper_pair_file):
    out = tmp_path / "basis.json"
    r = runner.invoke(main, ["canonize", "--in", str(paper_pair_file),
                             "--mode", "rc", "--out", str(out)])
    assert r.exit_code == 0, r.output
    obj = json.loads(out.read_text())
    assert obj["role"] == "rc"
    assert all(not isinstance(x, list) for x in obj["matrix"]["data"])
    assert obj["residuals"]["similarity"] <= 1e-10


def test_canonize_fo_records_eps(runner, tmp_path):
    spec = JordanSpec((BlockSpec("real", 2.0, 2, -1), BlockSpec("pair", 1j, 1)))
    inst = generate_instance(spec, 4)
    f = tmp_path / "pair.json"
    write_pair_file(f, inst.a0, inst.h0, spec)
    out = tmp_path / "basis.json"
    r = runner.invoke(main, ["canonize", "--in", str(f), "--mode", "fo",
                             "--out", str(out)])
    assert r.exit_code == 0, r.output
    obj = json.loads(out.read_text())
    assert obj["role"] == "fo"
    assert obj["eps"] == [-1, None]


def test_canonize_emit_trace(runner, tmp_path, paper_pair_file):
    out = tmp_path / "basis.json"
    r = runner.invoke(main, ["canonize", "--in", str(paper_pair_file),
                             "--out", str(out), "--emit-trace"])
    assert r.exit_code == 0
    trace = json.loads((tmp_path / "basis.trace.json").read_text())
    assert "chain_factor" in trace and "gram_scaled" in trace


def test_canonize_gamma_i(runner, tmp_path, paper_pair_file):
    out = tmp_path / "basis.json"
    r = runner.invoke(main, ["canonize", "--in", str(paper_pair_file),
                             "--gamma", "i", "--out", str(out)])
    assert r.exit_code == 0, r.output
    gamma = json.loads(out.read_text())["gamma"]
    assert gamma[0] == pytest.approx(0.0, abs=1e-10)
    assert gamma[1] == pytest.approx(1.0, abs=1e-10)


def test_canonize_gamma_minus_i(runner, tmp_path, paper_pair_file):
    out = tmp_path / "basis.json"
    r = runner.invoke(main, ["canonize", "--in", str(paper_pair_file),
                             "--gamma", "-i", "--out", str(out)])
    assert r.exit_code == 0, r.output
    gamma = json.loads(out.read_text())["gamma"]
    assert gamma[0] == pytest.approx(0.0, abs=1e-10)
    assert gamma[1] == pytest.approx(-1.0, abs=1e-10)


@pytest.mark.parametrize("gamma", ["nan", "1e400", "1+1e400i"])
def test_canonize_non_finite_gamma_exits_2(runner, tmp_path, paper_pair_file, gamma):
    r = runner.invoke(main, ["canonize", "--in", str(paper_pair_file),
                             "--gamma", gamma, "--out", str(tmp_path / "x.json")])
    assert r.exit_code == 2
    assert "finite" in r.output
    assert not (tmp_path / "x.json").exists()


def test_canonize_pipeline_error_exits_4(runner, tmp_path, ex_spec):
    # canonical complex pair: outside the real-pair domain of the pipeline
    from indefcanon import jordan_form, sip_form
    f = tmp_path / "pair.json"
    write_pair_file(f, jordan_form(ex_spec), sip_form(ex_spec), ex_spec)
    r = runner.invoke(main, ["canonize", "--in", str(f),
                             "--out", str(tmp_path / "x.json")])
    assert r.exit_code == 4
    assert "NOT_REAL" in r.output


@pytest.mark.parametrize("mode", ["fo", "focs", "rc"])
def test_canonize_pair_with_an_imaginary_part_exits_4(runner, tmp_path, ex_a, ex_h, ex_spec,
                                                      mode):
    f = tmp_path / "pair.json"
    write_pair_file(f, ex_a + 1e-3j, ex_h, ex_spec)
    r = runner.invoke(main, ["canonize", "--in", str(f), "--mode", mode,
                             "--out", str(tmp_path / "x.json")])
    assert r.exit_code == 4, r.output
    assert "NOT_REAL: a has imaginary part 1.000e-03" in r.output
    assert not (tmp_path / "x.json").exists()


def test_verify_fo_basis_passes(runner, tmp_path, paper_pair_file, ex_t):
    bf = tmp_path / "t.json"
    bf.write_text(dumps(matrix_to_json(ex_t)))
    r = runner.invoke(main, ["verify", "--in", str(paper_pair_file),
                             "--basis", str(bf), "--expect", "fo"])
    assert r.exit_code == 0, r.output


def test_verify_l_fails_fo_congruence(runner, tmp_path, paper_pair_file, ex_l):
    bf = tmp_path / "l.json"
    bf.write_text(dumps(matrix_to_json(ex_l)))
    r = runner.invoke(main, ["verify", "--in", str(paper_pair_file),
                             "--basis", str(bf), "--expect", "fo"])
    assert r.exit_code == 1
    assert "congruence" in r.output and "FAIL" in r.output


def test_verify_tampered_basis_fails(runner, tmp_path, paper_pair_file, ex_m):
    tampered = ex_m.copy()
    tampered[0, 0] += 0.1
    bf = tmp_path / "m.json"
    bf.write_text(dumps(matrix_to_json(tampered)))
    r = runner.invoke(main, ["verify", "--in", str(paper_pair_file),
                             "--basis", str(bf), "--expect", "focs"])
    assert r.exit_code == 1


@pytest.mark.parametrize("role, zeroed", [("focs", slice(2, 4)), ("rc", slice(2, 6))])
def test_verify_zero_first_pair_block_fails(runner, tmp_path, role, zeroed):
    # the first pair block in FOCS coordinates is zero: no scalar fits it
    inst = generate_instance(SPEC, 3, kind=role)
    f = tmp_path / "pair.json"
    write_pair_file(f, inst.a0, inst.h0, SPEC)
    t = inst.t0.matrix.copy()
    t[:, zeroed] = 0.0
    bf = tmp_path / "t.json"
    bf.write_text(dumps(basis_to_json(replace(inst.t0, matrix=t))))
    r = runner.invoke(main, ["verify", "--in", str(f), "--basis", str(bf)])
    assert r.exit_code == 1, r.output
    assert isinstance(r.exception, SystemExit)
    row = r.output.splitlines()[-1].split()
    assert row[:3] == ["conjugate", "symmetry", "(gamma"] and row[-2:] == ["inf", "FAIL"]


def test_verify_overflowing_basis_fails_with_inf(runner, tmp_path, paper_pair_file, ex_m):
    # a basis entry of 1e308 overflows the residual products
    m = ex_m.copy()
    m[0, 0] = 1e308
    bf = tmp_path / "t.json"
    bf.write_text(dumps(matrix_to_json(m)))
    r = runner.invoke(main, ["verify", "--in", str(paper_pair_file), "--basis", str(bf)])
    assert r.exit_code == 1, r.output
    assert isinstance(r.exception, SystemExit)
    assert ["similarity", "inf", "FAIL"] in [line.split() for line in r.output.splitlines()]


@pytest.mark.parametrize("imag, code", [(0.0, 0), (1e-3, 2)])
def test_verify_instance_pair_must_be_real(runner, tmp_path, imag, code):
    # [re, im] pairs whose imaginary parts are all 0 load as a real matrix;
    # any other imaginary part is refused, not truncated
    inst = generate_instance(SPEC, 3)
    obj = instance_to_json(inst)
    obj["A0"]["data"] = [[x, imag] for x in obj["A0"]["data"]]
    inst_file, basis_file = tmp_path / "inst.json", tmp_path / "basis.json"
    inst_file.write_text(dumps(obj))
    basis_file.write_text(dumps(basis_to_json(inst.t0)))
    r = runner.invoke(main, ["verify", "--in", str(inst_file), "--basis", str(basis_file)])
    assert r.exit_code == code, r.output
    assert ("A0 must be real" in r.output) == (code == 2)


@pytest.mark.parametrize("role", ["bogus", None, ["focs"]])
def test_verify_unknown_basis_role_exits_2(runner, tmp_path, role):
    # a role outside fo, focs and rc is refused, not checked as fo
    inst = generate_instance(SPEC, 3)
    f, bf = tmp_path / "pair.json", tmp_path / "t.json"
    write_pair_file(f, inst.a0, inst.h0, SPEC)
    bf.write_text(dumps({**basis_to_json(inst.t0), "role": role}))
    r = runner.invoke(main, ["verify", "--in", str(f), "--basis", str(bf)])
    assert r.exit_code == 2, r.output
    assert f"basis role must be 'fo', 'focs' or 'rc', got {role!r}" in r.output
    assert " ok" not in r.output


def test_verify_parse_error_exits_2(runner, tmp_path, paper_pair_file):
    bf = tmp_path / "garbage.json"
    bf.write_text("42")
    r = runner.invoke(main, ["verify", "--in", str(paper_pair_file),
                             "--basis", str(bf)])
    assert r.exit_code == 2


def test_mismatched_bare_pair_exits_2(runner, tmp_path, ex_a, ex_h, ex_spec, ex_m):
    f = tmp_path / "pair.json"
    write_pair_file(f, ex_a, ex_h[:3, :3], ex_spec)
    bf = tmp_path / "m.json"
    bf.write_text(dumps(matrix_to_json(ex_m)))
    for args in (["canonize", "--in", str(f), "--out", str(tmp_path / "x.json")],
                 ["verify", "--in", str(f), "--basis", str(bf)]):
        r = runner.invoke(main, args)
        assert r.exit_code == 2, r.output
        assert "H is 3x3, but the spec needs 4x4" in r.output


def test_verify_wrong_size_basis_exits_2(runner, tmp_path, paper_pair_file, ex_m):
    bf = tmp_path / "m.json"
    bf.write_text(dumps(matrix_to_json(ex_m[:, :3])))
    r = runner.invoke(main, ["verify", "--in", str(paper_pair_file),
                             "--basis", str(bf)])
    assert r.exit_code == 2, r.output
    assert "basis is 4x3, but the spec needs 4x4" in r.output


def test_instance_with_wrong_size_t0_exits_2(runner, tmp_path):
    obj = instance_to_json(generate_instance(SPEC, 3))
    obj["T0"]["matrix"] = matrix_to_json(np.eye(2))
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(dumps(obj))
    for args in (["canonize", "--in", str(inst_file), "--out", str(tmp_path / "x.json")],
                 ["stability", "--in", str(inst_file), "--trials", "1",
                  "--out-csv", str(tmp_path / "x.csv")]):
        r = runner.invoke(main, args)
        assert r.exit_code == 2, r.output
        assert "T0 is 2x2, but the spec needs 6x6" in r.output
    assert not (tmp_path / "x.json").exists() and not (tmp_path / "x.csv").exists()


def _spec_probe(spec):
    """Instance file for ``spec``, which ``gen`` refuses, with the pair its
    seed generates and that pair's generating similarity as the ``rc`` T0."""
    w, a0, h0 = harness._draw_similarity(spec, 3)
    t0 = CanonicalBasis(w, "rc", 1j, Certificate(0.0, 0.0),
                        tuple(b.sign for b in spec.blocks))
    return instance_to_json(harness.Instance(spec, a0, h0, t0, 3, w))


def _probe(obj, key):
    """The instance file ``obj`` with one part replaced, as named by ``key``."""
    n = SPEC.total_size
    if key == "shared_eigenvalue":
        obj = _spec_probe(JordanSpec((BlockSpec("real", 1.5, 2, 1),
                                      BlockSpec("real", 1.5, 1, -1))))
    elif key == "zero_eigenvalue":
        obj = _spec_probe(JordanSpec((BlockSpec("real", 0.0, 2, 1),
                                      BlockSpec("pair", -0.7 - 1.3j, 1))))
    elif key == "t0_not_conjugate_symmetric":
        # chain-preserving mixes of the pair block's halves that keep the
        # similarity and congruence but break conjugate symmetry
        t0 = matrix_from_json(obj["T0"]["matrix"])
        nil = np.diag([1.0], 1)
        t0[:, 2:4] = t0[:, 2:4] @ (np.eye(2) + 0.5 * nil)
        t0[:, 4:6] = t0[:, 4:6] @ (np.eye(2) - 0.5 * nil)
        obj["T0"]["matrix"] = matrix_to_json(t0)
    elif key == "t0_zero_pair_block":
        t0 = matrix_from_json(obj["T0"]["matrix"])
        t0[:, 2:4] = 0.0
        obj["T0"]["matrix"] = matrix_to_json(t0)
    elif key == "rc_t0_complex":
        obj = instance_to_json(generate_instance(SPEC, 3, kind="rc"))
        t0 = matrix_from_json(obj["T0"]["matrix"])
        obj["T0"]["matrix"] = matrix_to_json(t0 * np.exp(0.3j))
    elif key == "t0_gamma":
        # trials would be built with 2 against a T0 that fits 1
        obj["T0"]["gamma"] = [2.0, 0.0]
    elif key == "seed_fractional":
        obj["seed"] = 3.9
    elif key == "seed_string":
        obj["seed"] = "3"
    elif key == "seed_negative":
        obj["seed"] = -1
    elif key == "h0_zero":
        obj["H0"] = matrix_to_json(np.zeros((n, n)))
    elif key == "h0_nonsymmetric":
        h = matrix_from_json(obj["H0"])
        h[0, 1] += 1.0
        obj["H0"] = matrix_to_json(h)
    elif key == "a0_identity":
        obj["A0"] = matrix_to_json(np.eye(n))
    elif key == "w_of_another_seed":
        obj["W"] = instance_to_json(generate_instance(SPEC, 4))["W"]
    elif key == "w_singular":
        obj["W"] = matrix_to_json(np.zeros((n, n)))
    elif key == "w_tiny":
        # W and 1e-300 W rebuild one A0, but the H0 of the latter overflows,
        # and the gap to an infinite pair had an infinite limit
        obj["W"] = matrix_to_json(1e-300 * matrix_from_json(obj["W"]))
    elif key == "w_wrong_size":
        obj["W"] = matrix_to_json(np.eye(n - 1))
    elif key == "t0_zero":
        obj["T0"]["matrix"] = matrix_to_json(np.zeros((n, n)))
    elif key == "a0_numeric_string":
        obj["A0"]["data"][1] = str(obj["A0"]["data"][1])
    elif key == "t0_entry_bool":
        obj["T0"]["matrix"]["data"][0] = [True, 0.0]
    elif key == "t0_similarity_string":
        obj["T0"]["residuals"]["similarity"] = "1e-3"
    elif key == "t0_cs_string":
        obj["T0"]["residuals"]["cs"] = "0"
    elif key == "t0_gamma_true":
        obj["T0"]["gamma"] = True
    elif key == "spec_lambda_string":
        obj["spec"]["blocks"][0]["lambda"] = "1.5"
    elif key in ("a0_complex", "h0_complex", "w_complex"):
        name = key.split("_")[0].upper()
        obj[name] = matrix_to_json(matrix_from_json(obj[name]) + 1e-3j)
    elif key == "t0_entry_1e308":
        t0 = matrix_from_json(obj["T0"]["matrix"])
        t0[0, 0] = 1e308
        obj["T0"]["matrix"] = matrix_to_json(t0)
    elif key == "t0_scaled":
        # similarity unchanged, congruence off by about 2e-6
        t0 = matrix_from_json(obj["T0"]["matrix"])
        obj["T0"]["matrix"] = matrix_to_json(t0 * (1.0 + 1e-6))
    return obj


@pytest.mark.parametrize("key, message", [
    pytest.param("seed_fractional", "seed must be an integer, got 3.9", id="seed_fractional"),
    pytest.param("seed_string", "seed must be an integer, got '3'", id="seed_string"),
    pytest.param("seed_negative", "seed must be at least 0, got -1", id="seed_negative"),
    pytest.param("h0_zero", "from the pair that W generates", id="h0_zero"),
    pytest.param("h0_nonsymmetric", "from the pair that W generates",
                 id="h0_nonsymmetric"),
    pytest.param("a0_identity", "from the pair that W generates", id="a0_identity"),
    pytest.param("w_of_another_seed", "from the pair that W generates",
                 id="w_of_another_seed"),
    pytest.param("w_singular", "W generates no pair: ", id="w_singular"),
    pytest.param("w_tiny", "W generates no pair: its H0 contains non-finite entries",
                 id="w_tiny"),
    pytest.param("w_wrong_size", "W is 5x5, but the spec needs 6x6", id="w_wrong_size"),
    pytest.param("w_complex", "W must be real, but has an imaginary part of 1.000e-03",
                 id="w_complex"),
    pytest.param("t0_zero", "t must be nonzero", id="t0_zero"),
    pytest.param("t0_scaled", "T0 misses the instance gate", id="t0_scaled"),
    pytest.param("t0_entry_1e308", "T0 misses the instance gate: similarity inf",
                 id="t0_entry_1e308"),
    pytest.param("a0_complex", "A0 must be real, but has an imaginary part of 1.000e-03",
                 id="a0_complex"),
    pytest.param("h0_complex", "H0 must be real, but has an imaginary part of 1.000e-03",
                 id="h0_complex"),
    pytest.param("shared_eigenvalue", "blocks share the eigenvalue",
                 id="shared_eigenvalue"),
    pytest.param("zero_eigenvalue", "is numerically zero", id="zero_eigenvalue"),
    pytest.param("t0_not_conjugate_symmetric", "conjugate-symmetry residual 1.6",
                 id="t0_not_conjugate_symmetric"),
    pytest.param("t0_zero_pair_block", "T0 misses the instance gate: congruence",
                 id="t0_zero_pair_block"),
    pytest.param("rc_t0_complex", "T0 misses the instance gate: congruence 8.7",
                 id="rc_t0_complex"),
    pytest.param("t0_gamma", "T0 misses the instance gate: gamma drift 1.000e+00 vs 1.0e-08",
                 id="t0_gamma"),
    pytest.param("a0_numeric_string", "matrix entry must be a number, got '",
                 id="a0_numeric_string"),
    pytest.param("t0_entry_bool", "matrix entry must be a number, got True",
                 id="t0_entry_bool"),
    pytest.param("t0_similarity_string", "similarity must be a number, got '1e-3'",
                 id="t0_similarity_string"),
    pytest.param("t0_cs_string", "cs must be a number, got '0'", id="t0_cs_string"),
    pytest.param("t0_gamma_true", "gamma must be a number, got True", id="t0_gamma_true"),
    pytest.param("spec_lambda_string", "lambda must be a number, got '1.5'",
                 id="spec_lambda_string"),
])
def test_instance_not_matching_its_pair_exits_2(runner, tmp_path, key, message):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(dumps(_probe(instance_to_json(generate_instance(SPEC, 3)), key)))
    for args in (["canonize", "--in", str(inst_file), "--out", str(tmp_path / "x.json")],
                 ["stability", "--in", str(inst_file), "--deltas", "1e-3,1e-4",
                  "--trials", "2", "--out-csv", str(tmp_path / "x.csv")]):
        r = runner.invoke(main, args)
        assert r.exit_code == 2, (args[0], r.output)
        assert isinstance(r.exception, SystemExit)
        assert message in r.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "0"])
@pytest.mark.parametrize("command", ["canonize", "verify"])
def test_tol_not_finite_and_positive_exits_2(runner, tmp_path, command, tol):
    # a NaN or infinite tolerance passed every basis (exit 0), and a
    # nonpositive one failed it as a construction error (exit 4)
    inst = generate_instance(SPEC, 3)
    inst_file, basis_file = tmp_path / "inst.json", tmp_path / "basis.json"
    inst_file.write_text(dumps(instance_to_json(inst)))
    basis_file.write_text(dumps(basis_to_json(inst.t0)))
    args = {"canonize": ["canonize", "--in", str(inst_file), "--out", str(tmp_path / "x.json")],
            "verify": ["verify", "--in", str(inst_file), "--basis", str(basis_file)]}[command]
    r = runner.invoke(main, args + ["--tol", tol])
    assert r.exit_code == 2, r.output
    assert "finite and positive" in r.output
    assert not (tmp_path / "x.json").exists()


def test_version_needs_no_installed_package_metadata(runner, monkeypatch):
    # a source checkout run with PYTHONPATH=src has no installed metadata
    import importlib.metadata

    def not_installed(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(importlib.metadata, "version", not_installed)
    r = runner.invoke(main, ["--version"])
    assert r.exit_code == 0, r.output
    assert r.output.endswith(", version 0.1.0\n")


def test_weak_stability_reports_the_same_bytes_whatever_the_blas_threads(tmp_path):
    # the n = 72 wide catalogue entry whose report moved with the thread count
    ref = json.loads(REFERENCE.read_text())["wide-weak-rc"]
    (entry,) = [e for e in ref["entries"] if e["seed"] == 1576694851]
    inst_file = tmp_path / "inst.json"
    inst = generate_instance(spec_from_json(entry["spec"]), entry["seed"], kind="rc")
    inst_file.write_text(dumps(instance_to_json(inst)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    outputs = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"run{len(outputs)}"
        r = subprocess.run([sys.executable, "-m", "indefcanon.cli", "stability",
                            "--in", str(inst_file), "--mode", "weak",
                            "--trials", "2", "--jobs", "2", "--out-csv", f"{out}.csv",
                            "--out-json", f"{out}.json"],
                           env={**env, **threads}, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outputs.append((Path(f"{out}.csv").read_bytes(), Path(f"{out}.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_gen_writes_the_same_bytes_whatever_the_blas_threads(tmp_path):
    # the n = 72 wide catalogue entry whose T0 moved with the thread count
    if not harness._openblas_threads():
        pytest.skip("numpy's BLAS exports no known OpenBLAS thread-count symbol")
    if os.cpu_count() == 1:
        pytest.skip("one CPU: OpenBLAS starts one thread with the variable unset too")
    ref = json.loads(REFERENCE.read_text())["wide-weak-rc"]
    (entry,) = [e for e in ref["entries"] if e["seed"] == 1576694851]
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(dumps(entry["spec"]))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    outputs = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"inst{len(outputs)}.json"
        r = subprocess.run([sys.executable, "-m", "indefcanon.cli", "gen",
                            "--spec-file", str(spec_file), "--seed", str(entry["seed"]),
                            "--kind", "rc", "--out", str(out)],
                           env={**env, **threads}, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_instance_seed_without_a_similarity_exits_2(runner, tmp_path):
    # a file without W redrew it from the seed, which draws another W for a
    # few seeds under another BLAS kernel; now every command that reads it
    # refuses it
    inst = generate_instance(SPEC, 3)
    obj = instance_to_json(inst)
    del obj["W"]
    inst_file, basis_file = tmp_path / "inst.json", tmp_path / "basis.json"
    inst_file.write_text(dumps(obj))
    basis_file.write_text(dumps(basis_to_json(inst.t0)))
    for args in (["stability", "--in", str(inst_file), "--trials", "1",
                  "--out-csv", str(tmp_path / "x.csv")],
                 ["canonize", "--in", str(inst_file), "--out", str(tmp_path / "x.json")],
                 ["verify", "--in", str(inst_file), "--basis", str(basis_file)]):
        r = runner.invoke(main, args)
        assert r.exit_code == 2, (args[0], r.output)
        assert isinstance(r.exception, SystemExit)
        assert "instance has no W" in r.output
        assert "regenerate the file with `indefcanon gen` from its spec and seed" in r.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["basis.json", "inst.json"]


def test_stability_trial_fault_exits_4(runner, tmp_path, monkeypatch):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(dumps(instance_to_json(generate_instance(SPEC, 3))))

    def broken(*args, **kwargs):
        raise ValueError("array must not contain infs or NaNs")

    # each trial is built by the anchored construction
    monkeypatch.setattr(harness, "anchored_canonize", broken)
    r = runner.invoke(main, ["stability", "--in", str(inst_file), "--deltas", "1e-3",
                             "--trials", "1", "--out-csv", str(tmp_path / "x.csv")])
    assert r.exit_code == 4, r.output
    assert isinstance(r.exception, SystemExit)
    assert "trial 0 at delta 0.001 (seed " in r.output
    assert "ValueError: array must not contain infs or NaNs" in r.output
    assert "Traceback" not in r.output


def test_stability_refuses_to_overwrite_its_input(runner, tmp_path):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(dumps(instance_to_json(generate_instance(SPEC, 3))))
    before = inst_file.read_bytes()
    for outputs in (["--out-csv", str(tmp_path / "inst.csv")],
                    ["--out-csv", str(inst_file)],
                    ["--out-csv", str(tmp_path / "r.csv"),
                     "--out-json", str(tmp_path / "." / "inst.json")]):
        r = runner.invoke(main, ["stability", "--in", str(inst_file),
                                 "--trials", "1", *outputs])
        assert r.exit_code == 2, r.output
        assert "would overwrite the input file" in r.output
    assert inst_file.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


@pytest.mark.parametrize("command, source, outputs, flag", [
    ("gen", "s.json", ["--out", "s.json"], "--out"),
    ("canonize", "copy.json", ["--out", "copy.json"], "--out"),
    ("canonize", "t.trace.json", ["--out", "t.json", "--emit-trace"], "--emit-trace"),
], ids=["gen", "canonize", "canonize_trace"])
def test_writers_refuse_to_overwrite_their_input(runner, tmp_path, monkeypatch,
                                                 command, source, outputs, flag):
    # each replaced its input and exited 0
    monkeypatch.chdir(tmp_path)
    if command == "gen":
        write_spec(tmp_path / source)
    else:
        (tmp_path / source).write_text(dumps(instance_to_json(generate_instance(SPEC, 3))))
    before = (tmp_path / source).read_bytes()
    in_flag = "--spec-file" if command == "gen" else "--in"
    r = runner.invoke(main, [command, in_flag, source, *outputs])
    assert r.exit_code == 2, r.output
    assert f"{flag} path " in r.output and "would overwrite the input file" in r.output
    assert (tmp_path / source).read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [source]


@pytest.mark.parametrize("outputs", [["--out-csv", "rep.json"],
                                     ["--out-csv", "a.csv", "--out-json", "a.csv"],
                                     ["--out-csv", "a.csv", "--out-json", "./a.csv"]])
def test_stability_outputs_naming_one_file_exit_2(runner, tmp_path, monkeypatch, outputs):
    # the summary overwrote the CSV and the command exited 0
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(dumps(instance_to_json(generate_instance(SPEC, 3))))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "estimate_lipschitz", raise_reached)
    r = runner.invoke(main, ["stability", "--in", str(inst_file), "--trials", "1", *outputs])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert "--out-json path" in r.output and "--out-csv path" in r.output
    assert "name one file" in r.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


def test_stability_round_trip(runner, tmp_path):
    spec_file = tmp_path / "spec.json"
    write_spec(spec_file)
    inst_file = tmp_path / "inst.json"
    r = runner.invoke(main, ["gen", "--spec-file", str(spec_file), "--seed", "3",
                             "--out", str(inst_file)])
    assert r.exit_code == 0
    csv_file = tmp_path / "report.csv"
    r = runner.invoke(main, ["stability", "--in", str(inst_file),
                             "--deltas", "1e-3,1e-4", "--trials", "3",
                             "--out-csv", str(csv_file)])
    assert r.exit_code == 0, r.output
    lines = csv_file.read_text().strip().splitlines()
    assert len(lines) == 7
    summary = json.loads((tmp_path / "report.json").read_text())
    assert summary["boundedness_flag"] is True


def test_stability_weak_mode_columns(runner, tmp_path):
    spec_file = tmp_path / "spec.json"
    write_spec(spec_file)
    inst_file = tmp_path / "inst.json"
    runner.invoke(main, ["gen", "--spec-file", str(spec_file), "--seed", "3",
                         "--out", str(inst_file)])
    csv_file = tmp_path / "weak.csv"
    r = runner.invoke(main, ["stability", "--in", str(inst_file),
                             "--deltas", "1e-3", "--trials", "2",
                             "--mode", "weak", "--out-csv", str(csv_file)])
    assert r.exit_code == 0, r.output
    header = csv_file.read_text().splitlines()[0]
    assert "matched_0" in header and "matched_1" in header


def test_stability_paper_spec_default_grid(runner, tmp_path, ex_spec):
    spec_file = tmp_path / "spec.json"
    write_spec(spec_file, ex_spec)
    inst_file = tmp_path / "inst.json"
    r = runner.invoke(main, ["gen", "--spec-file", str(spec_file), "--seed", "1",
                             "--out", str(inst_file)])
    assert r.exit_code == 0, r.output
    csv_file = tmp_path / "report.csv"
    r = runner.invoke(main, ["stability", "--in", str(inst_file),
                             "--out-csv", str(csv_file)])
    assert r.exit_code == 0, r.output
    lines = csv_file.read_text().strip().splitlines()
    assert len(lines) == 101  # header + 5 deltas x 20 trials


def test_verify_frobenius_norm_flag(runner, tmp_path, paper_pair_file, ex_m):
    bf = tmp_path / "m.json"
    bf.write_text(dumps(matrix_to_json(ex_m)))
    r = runner.invoke(main, ["verify", "--in", str(paper_pair_file),
                             "--basis", str(bf), "--expect", "focs",
                             "--norm", "frobenius"])
    assert r.exit_code == 0, r.output


@pytest.mark.parametrize("mode", ["fo", "focs", "rc"])
def test_canonize_frobenius_norm_certificate(runner, tmp_path, mode):
    # every gate decides in the spectral norm; verify measures in the other
    inst = generate_instance(SPEC, 3)
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(dumps(instance_to_json(inst)))
    out = tmp_path / "basis.json"
    r = runner.invoke(main, ["canonize", "--in", str(inst_file), "--mode", mode,
                             "--out", str(out)])
    assert r.exit_code == 0, r.output
    basis = basis_from_json(json.loads(out.read_text()))
    assert basis.role == mode
    cert, _ = certify(inst.a0, inst.h0, basis.matrix, SPEC, mode, norm="frobenius")
    r = runner.invoke(main, ["verify", "--in", str(inst_file), "--basis", str(out),
                             "--norm", "frobenius"])
    assert r.exit_code == 0, r.output
    rows = dict(line.rsplit(None, 2)[:2] for line in r.output.splitlines())
    assert (rows["similarity"], rows["congruence"]) == \
        (f"{cert.similarity:.6e}", f"{cert.congruence:.6e}")
    r = runner.invoke(main, ["canonize", "--in", str(inst_file), "--mode", mode,
                             "--norm", "frobenius", "--out", str(tmp_path / "x.json")])
    assert r.exit_code == 2, r.output
    assert "No such option '--norm'" in r.output


def test_canonize_help_states_the_gamma_each_mode_builds_at(runner):
    # --mode fo --gamma 5 wrote the bytes of --mode fo, while the help said
    # only rc mode ignores --gamma
    r = runner.invoke(main, ["canonize", "--help"])
    assert r.exit_code == 0, r.output
    text = " ".join(r.output.split())
    assert ("fo mode builds at gamma = 1 and rc mode at gamma = i, "
            "and both ignore it") in text
    assert "--norm" not in text


def test_verify_frobenius_norm_gates_h_in_the_spectral_norm(runner, tmp_path):
    # ||h - h*||_2 = 1.5e-10 > HERM_TOL ||h||_2, but the Frobenius gate,
    # HERM_TOL ||h||_F = 2.8e-10, passed 2.1e-10
    spec = JordanSpec((BlockSpec("real", 1.5, 8, 1),))
    h = np.fliplr(np.eye(8))
    h[0, 1], h[1, 0] = 0.75e-10, -0.75e-10
    pair_file, basis_file = tmp_path / "pair.json", tmp_path / "m.json"
    write_pair_file(pair_file, np.eye(8), h, spec)
    basis_file.write_text(dumps(matrix_to_json(np.eye(8))))
    for norm in ("spectral", "frobenius"):
        r = runner.invoke(main, ["verify", "--in", str(pair_file), "--basis",
                                 str(basis_file), "--norm", norm])
        assert r.exit_code == 2, r.output
        assert "NOT_HERMITIAN: h deviates from Hermitian by 1.500e-10" in r.output


def test_verify_pair_with_non_hermitian_h_exits_2(runner, tmp_path, ex_a, ex_h,
                                                  ex_spec, ex_m):
    h = ex_h.copy()
    h[0, 1] += 1e-3
    pair_file = tmp_path / "pair.json"
    write_pair_file(pair_file, ex_a, h, ex_spec)
    basis_file = tmp_path / "m.json"
    basis_file.write_text(dumps(matrix_to_json(ex_m)))
    r = runner.invoke(main, ["verify", "--in", str(pair_file), "--basis", str(basis_file)])
    assert r.exit_code == 2, r.output
    assert "NOT_HERMITIAN: h deviates from Hermitian by 1.000e-03" in r.output


@pytest.mark.parametrize("args, message", [
    (["--deltas", "1e-4,1e-3"], "deltas must be strictly decreasing"),
    (["--deltas", "0.1,1e-3"], "deltas must not exceed 0.05"),
    (["--deltas", "nan"], "deltas must be finite and positive"),
    (["--deltas", "1e-3,1e-4,0"], "deltas must be finite and positive"),
    (["--jobs", "0"], "jobs must be >= 1"),
    (["--jobs", "-3"], "jobs must be >= 1"),
])
def test_stability_rejected_experiment_exits_2(runner, tmp_path, args, message):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(dumps(instance_to_json(generate_instance(SPEC, 3))))
    r = runner.invoke(main, ["stability", "--in", str(inst_file), "--trials", "1",
                             "--out-csv", str(tmp_path / "x.csv"), *args])
    assert r.exit_code == 2, r.output
    assert f"experiment rejected: {message}" in r.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


#: ``--deltas`` entries for the contract property: the grid and a delta too
#: small to move the pair, then each rule's breakers and entries that are
#: empty or not numbers.
DELTA_GRID = ["1e-2", "1e-3", "1e-4", "1e-5", "1e-6", "1e-300"]
DELTA_ENTRIES = DELTA_GRID + ["0", "-1e-3", "0.1", "nan", "inf", "", " ", "abc", "1e-3e"]


def _deltas_rule(entries: list[str]) -> str | None:
    """The message of the first delta rule ``entries`` break, in the order
    the CLI and the library check them, or None."""
    try:
        ds = [float(x) for x in entries if x.strip()]
    except ValueError:
        return "could not convert string to float"
    if not ds:
        return "experiment rejected: need at least one delta"
    if not all(0.0 < d < float("inf") for d in ds):
        return "experiment rejected: deltas must be finite and positive"
    if max(ds) > harness.DELTA_MAX:
        return f"experiment rejected: deltas must not exceed {harness.DELTA_MAX}"
    if any(b >= a for a, b in zip(ds, ds[1:])):
        return "experiment rejected: deltas must be strictly decreasing"
    return None


@functools.lru_cache(maxsize=1)
def _small_instance_text() -> str:
    return dumps(instance_to_json(generate_instance(SPEC, 3)))


@settings(max_examples=40, deadline=None)
@given(entries=st.lists(st.sampled_from(DELTA_GRID), min_size=1, max_size=4, unique=True)
       .map(lambda xs: sorted(xs, key=float, reverse=True))
       | st.lists(st.sampled_from(DELTA_ENTRIES), max_size=4))
def test_stability_deltas_keep_the_exit_code_contract(entries):
    # half the lists follow every rule; the others bring repeats, unsorted
    # lists, empty entries and breakers of each rule
    with tempfile.TemporaryDirectory() as tmp:
        inst_file, csv = Path(tmp) / "inst.json", Path(tmp) / "x.csv"
        inst_file.write_text(_small_instance_text())
        r = CliRunner().invoke(main, ["stability", "--in", str(inst_file), "--trials", "1",
                                      "--deltas", ",".join(entries), "--out-csv", str(csv)])
        assert r.exception is None or isinstance(r.exception, SystemExit), r.output
        rule = _deltas_rule(entries)
        if rule is not None:
            assert r.exit_code == 2, r.output
            assert rule in r.output
            assert not csv.exists()
            return
        assert r.exit_code in (0, 1), r.output
        n_deltas = sum(1 for x in entries if x.strip())
        assert len(csv.read_text().splitlines()) == 1 + n_deltas
        if "1e-300" in entries:
            # its trial never moves the pair, so its decade has no median
            assert r.exit_code == 1
            assert "DELTA_UNREACHABLE" in csv.read_text()


@pytest.mark.parametrize("case", ["gen", "canonize", "canonize_onto_directory",
                                  "canonize_trace", "canonize_trace_of_no_name",
                                  "stability_csv", "stability_csv_of_no_name",
                                  "stability_csv_of_no_name_empty", "stability_json"])
def test_unwritable_output_exits_2(runner, tmp_path, monkeypatch, paper_pair_file, case):
    # each ended in an OSError traceback with exit 1, stability only after
    # its whole experiment
    spec_file, inst_file = tmp_path / "spec.json", tmp_path / "inst.json"
    write_spec(spec_file)
    inst_file.write_text(dumps(instance_to_json(generate_instance(SPEC, 3))))
    missing, occupied = tmp_path / "missing", tmp_path / "occupied"
    occupied.mkdir()
    (tmp_path / "b.trace.json").mkdir()
    path = {"gen": missing / "x.json", "canonize": missing / "b.json",
            "canonize_onto_directory": occupied, "canonize_trace": tmp_path / "b.trace.json",
            "canonize_trace_of_no_name": Path("."),
            "stability_csv": missing / "s.csv", "stability_csv_of_no_name": ".",
            "stability_csv_of_no_name_empty": "", "stability_json": missing / "s.json"}[case]
    canonize = ["canonize", "--in", str(paper_pair_file), "--out"]
    stability = ["stability", "--in", str(inst_file), "--trials", "1", "--out-csv"]
    args = {
        "gen": ["gen", "--spec-file", str(spec_file), "--out", str(path)],
        "canonize": [*canonize, str(path)],
        "canonize_onto_directory": [*canonize, str(path)],
        "canonize_trace": [*canonize, str(tmp_path / "b.json"), "--emit-trace"],
        # the trace path of "." raised a ValueError traceback
        "canonize_trace_of_no_name": [*canonize, ".", "--emit-trace"],
        "stability_csv": [*stability, str(path)],
        # the JSON path of "." and "" raised a ValueError traceback
        "stability_csv_of_no_name": [*stability, path],
        "stability_csv_of_no_name_empty": [*stability, path],
        "stability_json": [*stability, str(tmp_path / "s.csv"), "--out-json", str(path)],
    }[case]
    monkeypatch.setattr(cli, "estimate_lipschitz", raise_reached)
    monkeypatch.chdir(tmp_path)
    r = runner.invoke(main, args)
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert f"cannot write {path}: " in r.output
    # no output is written when another one cannot be
    assert not (tmp_path / "b.json").exists()


@pytest.mark.parametrize("gamma, message", [("abc", "cannot parse gamma 'abc'"),
                                            ("0", "gamma must be nonzero")])
@pytest.mark.parametrize("command", ["gen", "canonize"])
def test_bad_gamma_exits_2(runner, tmp_path, paper_pair_file, command, gamma, message):
    if command == "gen":
        spec_file = tmp_path / "spec.json"
        write_spec(spec_file)
        args = ["gen", "--spec-file", str(spec_file)]
    else:
        args = ["canonize", "--in", str(paper_pair_file)]
    out = tmp_path / "out.json"
    r = runner.invoke(main, [*args, "--gamma", gamma, "--out", str(out)])
    assert r.exit_code == 2, r.output
    assert message in r.output
    assert not out.exists()


def _gamma_args(command, tmp_path, pair_file):
    """The arguments of ``command`` up to its --gamma, reading the test spec
    or ``pair_file``."""
    if command == "canonize":
        return ["canonize", "--in", str(pair_file)]
    spec_file = tmp_path / "spec.json"
    write_spec(spec_file)
    return ["gen", "--spec-file", str(spec_file)]


def test_gen_and_canonize_refuse_a_bad_gamma_in_one_format(runner, tmp_path,
                                                            paper_pair_file):
    # gen printed click's format and canonize its own "error:" line
    last_lines = []
    for command in ("gen", "canonize"):
        r = runner.invoke(main, [*_gamma_args(command, tmp_path, paper_pair_file),
                                 "--gamma", "abc", "--out", str(tmp_path / "out.json")])
        assert r.exit_code == 2, r.output
        last_lines.append(r.output.splitlines()[-1])
    assert last_lines == ["Error: Invalid value for '--gamma': cannot parse gamma 'abc'"] * 2


@pytest.mark.parametrize("command", ["gen", "canonize"])
def test_infinite_gamma_is_quoted_as_given(runner, tmp_path, paper_pair_file, command):
    # "i" was rewritten to "j" throughout, and the error quoted 'jnf'
    r = runner.invoke(main, [*_gamma_args(command, tmp_path, paper_pair_file),
                             "--gamma", "inf", "--out", str(tmp_path / "out.json")])
    assert r.exit_code == 2, r.output
    assert "gamma must be finite, got 'inf'" in r.output


def test_gamma_minus_i_writes_the_trace_of_minus_1i(runner, tmp_path):
    # "-i" was the literal -1j, whose real part is -0.0 where "-1i" parses
    # to +0.0; the signed zeros reached the trace's chain factor
    entry = json.loads(REFERENCE.read_text())["stability-strict"]["entries"][1]
    spec_file, inst_file = tmp_path / "spec.json", tmp_path / "inst.json"
    spec_file.write_text(dumps(entry["spec"]))
    r = runner.invoke(main, ["gen", "--spec-file", str(spec_file), "--out", str(inst_file)])
    assert r.exit_code == 0, r.output
    traces = []
    for k, gamma in enumerate(["-i", "-1i"]):
        out = tmp_path / f"basis{k}.json"
        r = runner.invoke(main, ["canonize", "--in", str(inst_file), "--gamma", gamma,
                                 "--emit-trace", "--out", str(out)])
        assert r.exit_code == 0, r.output
        traces.append((tmp_path / f"basis{k}.trace.json").read_bytes())
    assert traces[0] == traces[1]


@pytest.mark.parametrize("command, code", [("gen", 3), ("canonize", 4)])
@pytest.mark.parametrize("gamma", ["1e308", "1e308+1e308i", "-1e308j"])
def test_overflowing_gamma_exits_without_warnings(runner, tmp_path, paper_pair_file,
                                                 command, code, gamma):
    # the suite turns warnings into errors, so an overflow warning would
    # end the command with a traceback instead
    r = runner.invoke(main, [*_gamma_args(command, tmp_path, paper_pair_file),
                             "--gamma", gamma, "--out", str(tmp_path / "out.json")])
    assert r.exit_code == code, r.output
    assert "numerically singular" in r.output
    assert "RuntimeWarning" not in r.output


def test_stability_zero_trials_exits_2(runner, tmp_path):
    spec_file = tmp_path / "spec.json"
    write_spec(spec_file)
    inst_file = tmp_path / "inst.json"
    runner.invoke(main, ["gen", "--spec-file", str(spec_file), "--seed", "3",
                         "--out", str(inst_file)])
    r = runner.invoke(main, ["stability", "--in", str(inst_file),
                             "--trials", "0", "--out-csv", str(tmp_path / "x.csv")])
    assert r.exit_code == 2
    # the library's own check refuses it
    assert "experiment rejected: trials_per_delta must be >= 1" in r.output


def test_gen_canonize_verify_round_trip_randomized(runner, tmp_path):
    rng = np.random.default_rng(77)
    for k in range(50):
        spec = random_spec(rng, max_total=12)
        spec_file = tmp_path / f"spec{k}.json"
        write_spec(spec_file, spec)
        inst_file = tmp_path / f"inst{k}.json"
        r = runner.invoke(main, ["gen", "--spec-file", str(spec_file),
                                 "--seed", str(100 + k), "--out", str(inst_file)])
        assert r.exit_code == 0, r.output
        basis_file = tmp_path / f"basis{k}.json"
        r = runner.invoke(main, ["canonize", "--in", str(inst_file),
                                 "--out", str(basis_file)])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["verify", "--in", str(inst_file),
                                 "--basis", str(basis_file)])
        assert r.exit_code == 0, r.output


def test_gen_rc_kind_and_verify(runner, tmp_path):
    spec_file = tmp_path / "spec.json"
    write_spec(spec_file)
    inst_file = tmp_path / "inst.json"
    r = runner.invoke(main, ["gen", "--spec-file", str(spec_file), "--seed", "5",
                             "--kind", "rc", "--out", str(inst_file)])
    assert r.exit_code == 0, r.output
    obj = json.loads(inst_file.read_text())
    assert obj["T0"]["role"] == "rc"
    basis_file = tmp_path / "t0.json"
    basis_file.write_text(dumps(obj["T0"]))
    r = runner.invoke(main, ["verify", "--in", str(inst_file),
                             "--basis", str(basis_file)])
    assert r.exit_code == 0, r.output
    assert "realness" in r.output


def test_indented_files_from_earlier_versions_still_read(runner, tmp_path):
    # earlier versions wrote every file with json.dumps(obj, indent=1)
    inst = generate_instance(SPEC, 3)
    objs = {"inst": instance_to_json(inst), "basis": basis_to_json(inst.t0),
            "pair": {"A": matrix_to_json(inst.a0), "H": matrix_to_json(inst.h0),
                     "spec": spec_to_json(SPEC)}}
    results = {}
    for layout, encode in (("one_line", dumps),
                           ("indented", lambda obj: json.dumps(obj, indent=1))):
        d = tmp_path / layout
        d.mkdir()
        for name, obj in objs.items():
            (d / f"{name}.json").write_text(encode(obj) + "\n")
        runs = []
        for src in ("inst", "pair"):
            out = d / f"{src}_basis.json"
            r = runner.invoke(main, ["canonize", "--in", str(d / f"{src}.json"),
                                     "--out", str(out), "--emit-trace"])
            runs.append((r.exit_code, json.loads(out.read_text()),
                         json.loads(out.with_suffix(".trace.json").read_text())))
            r = runner.invoke(main, ["verify", "--in", str(d / f"{src}.json"),
                                     "--basis", str(d / "basis.json")])
            runs.append((r.exit_code, r.output))
        r = runner.invoke(main, ["stability", "--in", str(d / "inst.json"),
                                 "--deltas", "1e-3,1e-4", "--trials", "2",
                                 "--out-csv", str(d / "r.csv")])
        runs.append((r.exit_code, (d / "r.csv").read_text(),
                     json.loads((d / "r.json").read_text())))
        results[layout] = runs
    assert "\n " in (tmp_path / "indented" / "inst.json").read_text()
    assert [run[0] for run in results["one_line"]] == [0, 0, 0, 0, 0]
    assert results["indented"] == results["one_line"]


def test_environment_variable_overrides(runner, tmp_path):
    spec_file = tmp_path / "spec.json"
    write_spec(spec_file)
    out = tmp_path / "inst.json"
    r = runner.invoke(main, ["gen", "--spec-file", str(spec_file), "--out", str(out)],
                      env={"INDEFCANON_GEN_SEED": "9"})
    assert r.exit_code == 0, r.output
    out_direct = tmp_path / "direct.json"
    r = runner.invoke(main, ["gen", "--spec-file", str(spec_file),
                             "--seed", "9", "--out", str(out_direct)])
    assert r.exit_code == 0
    assert out.read_bytes() == out_direct.read_bytes()


@pytest.mark.parametrize("var, value", [
    # a misspelled name wrote the seed-0 instance and exited 0
    ("INDEFCANON_GEN_SEEED", "9"),
    # options that are gone: canonize decides in the spectral norm, and
    # stability takes its kind from the instance
    ("INDEFCANON_CANONIZE_NORM", "frobenius"),
    ("INDEFCANON_STABILITY_KIND", "rc"),
    # click names the variable after the parameter, out_file, not the flag
    ("INDEFCANON_GEN_OUT", "other.json"),
])
def test_environment_variable_naming_no_option_exits_2(runner, tmp_path, var, value):
    spec_file = tmp_path / "spec.json"
    write_spec(spec_file)
    r = runner.invoke(main, ["gen", "--spec-file", str(spec_file),
                             "--out", str(tmp_path / "inst.json")], env={var: value})
    assert r.exit_code == 2, r.output
    assert f"environment variable {var} names no option" in r.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


def test_stability_takes_its_kind_from_the_instance(runner, tmp_path):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(dumps(instance_to_json(generate_instance(SPEC, 3, kind="rc"))))
    args = ["stability", "--in", str(inst_file), "--trials", "1", "--deltas", "1e-3",
            "--out-csv", str(tmp_path / "x.csv")]
    r = runner.invoke(main, args + ["--kind", "rc"])
    assert r.exit_code == 2, r.output
    assert "No such option" in r.output
    r = runner.invoke(main, args)
    assert r.exit_code == 0, r.output
    assert json.loads((tmp_path / "x.json").read_text())["kind"] == "rc"


def test_instance_file_loads_under_another_blas_kernel(tmp_path):
    # strict catalogue entry 18 draws another W under these two kernels, so
    # the redraw from its seed refused the file of the other kernel
    if not harness._openblas_threads():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the Haswell and Sandybridge kernels are x86-64 ones")
    ref = json.loads(REFERENCE.read_text())["stability-strict"]
    entry = ref["entries"][18]
    assert (entry["n"], entry["seed"]) == (14, 1285401995)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(dumps(entry["spec"]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def run(kernel, *args):
        return subprocess.run([sys.executable, "-m", "indefcanon.cli", *args],
                              env={**env, "OPENBLAS_CORETYPE": kernel},
                              capture_output=True, text=True)

    ws = []
    for kernel in ("Haswell", "Sandybridge"):
        r = run(kernel, "gen", "--spec-file", str(spec_file), "--seed", str(entry["seed"]),
                "--out", str(tmp_path / f"{kernel}.json"))
        assert r.returncode == 0, r.stderr
        ws.append(json.loads((tmp_path / f"{kernel}.json").read_text())["W"])
    assert ws[0] != ws[1]
    r = run("Sandybridge", "stability", "--in", str(tmp_path / "Haswell.json"),
            "--trials", "1", "--deltas", "1e-3", "--out-csv", str(tmp_path / "r.csv"))
    assert r.returncode == 0, r.stderr


# ---------------------------------------------------------------------------
# exit-code contract under malformed input

#: Replacement values of every JSON type.
SWAPS = ("x", None, [], {}, True, 0.5, [1, 2])


@functools.lru_cache(maxsize=1)
def _valid_files() -> dict[str, str]:
    """JSON text of a valid spec, instance, bare pair and basis file."""
    inst = generate_instance(SPEC, 3)
    return {
        "spec": dumps(spec_to_json(SPEC)),
        "inst": dumps(instance_to_json(inst)),
        "pair": dumps({"A": matrix_to_json(inst.a0), "H": matrix_to_json(inst.h0),
                       "spec": spec_to_json(SPEC)}),
        "basis": dumps(basis_to_json(inst.t0)),
    }


def _paths(obj, prefix=()):
    """Key/index paths into a JSON tree; of a matrix's data only the first
    entry is descended into, so matrix entries do not crowd out the rest."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj[:1] if prefix and prefix[-1] == "data" else obj))
    else:
        items = []
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def _mutated_file(draw):
    """One valid file with one key dropped, one value's type swapped, or one
    matrix resized."""
    target = draw(st.sampled_from(sorted(_valid_files())))
    obj = json.loads(_valid_files()[target])
    paths = list(_paths(obj))
    holders = [p for p in paths if isinstance(_at(obj, p), dict) and "rows" in _at(obj, p)]
    how = draw(st.sampled_from(["drop", "swap"] + (["resize"] if holders else [])))
    if how == "drop":
        path = draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))
        del _at(obj, path[:-1])[path[-1]]
    elif how == "swap":
        path = draw(st.sampled_from(paths))
        old = _at(obj, path)
        _at(obj, path[:-1])[path[-1]] = draw(st.sampled_from(
            [v for v in SWAPS if type(v) is not type(old)]))
    else:
        path = draw(st.sampled_from(holders))
        m = matrix_from_json(_at(obj, path))
        shape = draw(st.tuples(st.integers(0, 6), st.integers(0, 6))
                     .filter(lambda s: s != m.shape))
        resized = np.zeros(shape, dtype=m.dtype)
        r, c = min(shape[0], m.shape[0]), min(shape[1], m.shape[1])
        resized[:r, :c] = m[:r, :c]
        _at(obj, path[:-1])[path[-1]] = matrix_to_json(resized)
    return target, dumps(obj)


@settings(max_examples=50, deadline=None)
@given(_mutated_file())
def test_malformed_files_keep_the_exit_code_contract(mutated):
    target, text = mutated
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, valid in _valid_files().items():
            files[name] = os.path.join(tmp, f"{name}.json")
            with open(files[name], "w") as fh:
                fh.write(text if name == target else valid)
        out = os.path.join(tmp, "out.json")
        commands = {
            "spec": [["gen", "--spec-file", files["spec"], "--seed", "3", "--out", out]],
            "inst": [["canonize", "--in", files["inst"], "--out", out],
                     ["verify", "--in", files["inst"], "--basis", files["basis"]],
                     ["stability", "--in", files["inst"], "--deltas", "1e-3,1e-4",
                      "--trials", "1", "--out-csv", os.path.join(tmp, "r.csv")]],
            "pair": [["canonize", "--in", files["pair"], "--out", out],
                     ["verify", "--in", files["pair"], "--basis", files["basis"]]],
            "basis": [["verify", "--in", files["inst"], "--basis", files["basis"]]],
        }[target]
        for args in commands:
            r = CliRunner().invoke(main, args)
            assert r.exception is None or isinstance(r.exception, SystemExit), \
                (args[0], repr(r.exception), text)
            assert r.exit_code in (0, 1, 2, 3, 4), (args[0], r.exit_code)
            if r.exit_code == 1:
                assert args[0] in ("verify", "stability"), (args[0], r.output)
