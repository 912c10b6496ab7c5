"""Command-line front end.

Exit codes follow a fixed contract so the commands are scriptable:

* 0  success (for ``verify``/``stability``: the check passed)
* 1  a verification or boundedness check failed (a result, not a fault)
* 2  unreadable or malformed input, bad flags
* 3  instance generation failed
* 4  basis construction failed (the pipeline error name is printed)

All output files are written atomically (temp file, then rename); all
floating-point values round-trip at full precision.  Every flag can also be
set through an ``INDEFCANON_``-prefixed environment variable.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import click
import numpy as np

from . import serialize
from .errors import CanonError
from .harness import MODE_STRICT, MODE_WEAK, estimate_lipschitz, generate_instance
from .linalg import DEFAULT_TOL, affiliation_residuals, mat_norm
from .pipeline import ROLE_FO, ROLE_FOCS, ROLE_RC, CanonicalBasis, focs_basis
from .rc import rc_basis
from .structure import (
    CS_TOL,
    conjugate_symmetry_fit,
    h_selfadjoint_residual,
    jordan_form,
    real_jordan_form,
    sip_form,
)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _atomic_write(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."),
                               prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(2, f"cannot read {path}: {exc}")
    if not isinstance(obj, dict):
        _fail(2, f"{path} does not hold a JSON object")
    return obj


def _parse_gamma(text: str) -> complex:
    text = text.strip().replace("i", "j")
    if text in ("j", "+j"):
        return 1j
    if text == "-j":
        return -1j
    try:
        g = complex(text)
    except ValueError:
        raise click.BadParameter(f"cannot parse gamma {text!r}")
    if g == 0:
        raise click.BadParameter("gamma must be nonzero")
    if not np.isfinite(g):
        raise click.BadParameter(f"gamma must be finite, got {text!r}")
    return g


def _load_pair(obj: dict):
    """Accept either a full instance file or a bare {A, H, spec} file."""
    if "A0" in obj:
        inst = serialize.instance_from_json(obj)
        return inst.a0, inst.h0, inst.spec, inst
    try:
        a = serialize.matrix_from_json(obj["A"])
        h = serialize.matrix_from_json(obj["H"])
        spec = serialize.spec_from_json(obj["spec"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"input file is neither an instance nor an (A, H, spec) file: {exc}")
    return a, h, spec, None


@click.group(context_settings={"auto_envvar_prefix": "INDEFCANON"})
@click.version_option(package_name="indefcanon")
def main():
    """Canonical Jordan bases of real H-selfadjoint pairs, with stability
    experiments under structure-preserving perturbations."""


@main.command()
@click.option("--spec-file", required=True, type=click.Path(), help="Jordan structure JSON.")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--kind", type=click.Choice([ROLE_FOCS, ROLE_RC]), default=ROLE_FOCS,
              show_default=True, help="Reference basis kind stored on the instance.")
@click.option("--gamma", default="1", show_default=True,
              help="Conjugate-symmetry scalar for focs references.")
@click.option("--out", "out_file", required=True, type=click.Path())
def gen(spec_file, seed, kind, gamma, out_file):
    """Generate a seeded instance (pair plus reference basis)."""
    obj = _load_json(spec_file)
    try:
        spec = serialize.spec_from_json(obj)
    except ValueError as exc:
        _fail(2, str(exc))
    try:
        g = _parse_gamma(gamma)
        inst = generate_instance(spec, seed, kind=kind, gamma=g)
    except (CanonError, ValueError) as exc:
        _fail(3, f"generation failed: {exc}")
    _atomic_write(out_file, serialize.dumps(serialize.instance_to_json(inst)) + "\n")
    click.echo(f"instance written to {out_file}")


@main.command()
@click.option("--in", "in_file", required=True, type=click.Path())
@click.option("--mode", type=click.Choice([ROLE_FO, ROLE_FOCS, ROLE_RC]),
              default=ROLE_FOCS, show_default=True)
@click.option("--gamma", default="1", show_default=True,
              help="Ignored for rc mode, which requires gamma = i.")
@click.option("--out", "out_file", required=True, type=click.Path())
@click.option("--emit-trace", is_flag=True, default=False,
              help="Write the factor trace next to the basis file.")
@click.option("--tol", default=DEFAULT_TOL, show_default=True, type=float)
@click.option("--norm", type=click.Choice(["spectral", "frobenius"]),
              default="spectral", show_default=True)
def canonize(in_file, mode, gamma, out_file, emit_trace, tol, norm):
    """Construct a canonical basis for the pair in the input file."""
    obj = _load_json(in_file)
    try:
        a, h, spec, _ = _load_pair(obj)
        g = _parse_gamma(gamma)
    except (ValueError, click.BadParameter) as exc:
        _fail(2, str(exc))
    try:
        if mode == ROLE_RC:
            basis, trace = rc_basis(a, h, spec, tol=tol, norm=norm)
        else:
            basis, trace = focs_basis(a, h, spec, 1.0 if mode == ROLE_FO else g,
                                      tol=tol, norm=norm)
            if mode == ROLE_FO:
                basis = CanonicalBasis(matrix=basis.matrix, role=ROLE_FO,
                                       gamma=basis.gamma, cert=basis.cert,
                                       eps=basis.eps)
    except CanonError as exc:
        _fail(4, f"{exc.code}: {exc}")
    _atomic_write(out_file, serialize.dumps(serialize.basis_to_json(basis)) + "\n")
    if emit_trace:
        trace_file = str(Path(out_file).with_suffix(".trace.json"))
        _atomic_write(trace_file, serialize.dumps(serialize.trace_to_json(trace)) + "\n")
        click.echo(f"trace written to {trace_file}")
    click.echo(f"{basis.role} basis written to {out_file} "
               f"(similarity {basis.cert.similarity:.3e}, "
               f"congruence {basis.cert.congruence:.3e})")


@main.command()
@click.option("--in", "in_file", required=True, type=click.Path())
@click.option("--basis", "basis_file", required=True, type=click.Path())
@click.option("--tol", default=DEFAULT_TOL, show_default=True, type=float)
@click.option("--expect", type=click.Choice(["auto", ROLE_FO, ROLE_FOCS, ROLE_RC]),
              default="auto", show_default=True,
              help="Which canonical role to verify the basis against.")
@click.option("--norm", type=click.Choice(["spectral", "frobenius"]),
              default="spectral", show_default=True)
def verify(in_file, basis_file, tol, expect, norm):
    """Verify a basis file against a pair: prints a residual table and exits
    0 only if every residual is within tolerance."""
    obj = _load_json(in_file)
    bobj = _load_json(basis_file)
    try:
        a, h, spec, _ = _load_pair(obj)
        if "matrix" in bobj:
            basis = serialize.basis_from_json(bobj)
            t, role = basis.matrix, basis.role
        else:
            t, role = serialize.matrix_from_json(bobj), ROLE_FOCS
    except ValueError as exc:
        _fail(2, str(exc))
    if expect != "auto":
        role = expect

    rows: list[tuple[str, float, bool]] = []
    try:
        sa = h_selfadjoint_residual(a, h, norm=norm)
    except CanonError as exc:
        _fail(2, f"{exc.code}: {exc}")
    rows.append(("selfadjointness", sa, sa <= tol))

    if role == ROLE_RC:
        target_j, target_p = real_jordan_form(spec), sip_form(spec)
        max_imag = float(np.max(np.abs(np.imag(t)))) if np.iscomplexobj(t) else 0.0
        rows.append(("realness", max_imag, max_imag <= tol * max(1.0, mat_norm(t))))
        t = np.real(t)
    else:
        target_j, target_p = jordan_form(spec), sip_form(spec)
    sim, cong = affiliation_residuals(a, h, t, target_j, target_p, norm=norm)
    rows.append(("similarity", sim, sim <= tol))
    rows.append(("congruence", cong, cong <= tol))

    if role in (ROLE_FOCS, ROLE_RC):
        basis_c = t
        if role == ROLE_RC:
            from .structure import mixing_matrix_inv
            basis_c = t @ mixing_matrix_inv(spec)
        gamma, cs_res, _ = conjugate_symmetry_fit(basis_c, spec, norm=norm)
        scale = max(1.0, mat_norm(basis_c, norm))
        rows.append((f"conjugate symmetry (gamma {gamma:.6g})", cs_res,
                     cs_res <= max(tol, CS_TOL * scale)))

    width = max(len(r[0]) for r in rows)
    ok_all = True
    for name, value, ok in rows:
        ok_all &= ok
        click.echo(f"{name:<{width}}  {value: .6e}  {'ok' if ok else 'FAIL'}")
    sys.exit(0 if ok_all else 1)


@main.command()
@click.option("--in", "in_file", required=True, type=click.Path())
@click.option("--deltas", default="1e-2,1e-3,1e-4,1e-5,1e-6", show_default=True,
              help="Comma-separated, strictly decreasing perturbation magnitudes.")
@click.option("--trials", default=20, show_default=True, type=int)
@click.option("--mode", type=click.Choice([MODE_STRICT, MODE_WEAK]),
              default=MODE_STRICT, show_default=True)
@click.option("--kind", type=click.Choice([ROLE_FOCS, ROLE_RC]), default=None,
              help="Defaults to the instance reference kind.")
@click.option("--out-csv", required=True, type=click.Path())
@click.option("--out-json", default=None, type=click.Path(),
              help="Summary JSON path; defaults to the CSV path with .json.")
@click.option("--jobs", default=1, show_default=True, type=int)
@click.option("--norm", type=click.Choice(["spectral", "frobenius"]),
              default="spectral", show_default=True)
def stability(in_file, deltas, trials, mode, kind, out_csv, out_json, jobs, norm):
    """Run the Lipschitz stability experiment for an instance file; exits 0
    only if the per-delta median ratios stay bounded across decades."""
    obj = _load_json(in_file)
    try:
        inst = serialize.instance_from_json(obj)
        delta_list = [float(x) for x in deltas.split(",") if x.strip()]
    except ValueError as exc:
        _fail(2, str(exc))
    if trials < 1:
        _fail(2, "trials must be >= 1")
    try:
        report = estimate_lipschitz(inst, delta_list, trials, mode=mode,
                                    kind=kind, jobs=max(1, jobs), norm=norm)
    except (ValueError, CanonError) as exc:
        _fail(2, f"experiment rejected: {exc}")

    _atomic_write(out_csv, "\n".join(serialize.report_csv_lines(report)) + "\n")
    json_path = out_json or str(Path(out_csv).with_suffix(".json"))
    _atomic_write(json_path, serialize.dumps(serialize.report_summary_json(report)) + "\n")
    click.echo(f"K_hat = {report.k_hat:.6g}, median spread = "
               f"{report.median_spread if report.median_spread is not None else 'n/a'}, "
               f"bounded = {report.boundedness_flag}")
    sys.exit(0 if report.boundedness_flag else 1)


if __name__ == "__main__":
    main()
