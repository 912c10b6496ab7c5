"""Command-line workflows and the exit-code contract."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from indefcanon import BlockSpec, JordanSpec, generate_instance
from indefcanon.cli import main
from indefcanon.linalg import matrix_to_json
from indefcanon.serialize import dumps, spec_to_json

from conftest import random_spec

SPEC = JordanSpec((BlockSpec("real", 1.5, 2, 1), BlockSpec("pair", -0.7 - 1.3j, 2)))


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
    bad.write_text("{not json")
    r = runner.invoke(main, ["gen", "--spec-file", str(bad),
                             "--out", str(tmp_path / "x.json")])
    assert r.exit_code == 2


def test_gen_zero_eigenvalue_exits_3(runner, tmp_path):
    spec_file = tmp_path / "spec.json"
    write_spec(spec_file, JordanSpec((BlockSpec("real", 0.0, 1, 1),)))
    r = runner.invoke(main, ["gen", "--spec-file", str(spec_file),
                             "--out", str(tmp_path / "x.json")])
    assert r.exit_code == 3


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


def test_verify_parse_error_exits_2(runner, tmp_path, paper_pair_file):
    bf = tmp_path / "garbage.json"
    bf.write_text("42")
    r = runner.invoke(main, ["verify", "--in", str(paper_pair_file),
                             "--basis", str(bf)])
    assert r.exit_code == 2


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


def test_stability_zero_trials_exits_2(runner, tmp_path):
    spec_file = tmp_path / "spec.json"
    write_spec(spec_file)
    inst_file = tmp_path / "inst.json"
    runner.invoke(main, ["gen", "--spec-file", str(spec_file), "--seed", "3",
                         "--out", str(inst_file)])
    r = runner.invoke(main, ["stability", "--in", str(inst_file),
                             "--trials", "0", "--out-csv", str(tmp_path / "x.csv")])
    assert r.exit_code == 2


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
