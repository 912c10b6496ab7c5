"""Command-line front end.

Exit codes follow a fixed contract so the commands are scriptable:

* 0  success (for ``verify``/``stability``: the check passed)
* 1  a verification or boundedness check failed (a result, not a fault)
* 2  unreadable or malformed input, bad flags
* 3  instance generation failed
* 4  basis construction failed (the pipeline error name is printed)

All output files are written atomically (temp file, then rename); all
floating-point values round-trip at full precision.  Every option can also
be set through an environment variable named ``INDEFCANON_<COMMAND>_<PARAM>``
after the option's parameter name (``--out`` of ``gen`` is
``INDEFCANON_GEN_OUT_FILE``); a prefixed variable that names no option exits 2.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import __version__, serialize
from .errors import CanonError, TrialError
from .harness import MODE_STRICT, MODE_WEAK, estimate_lipschitz, generate_instance
from .linalg import DEFAULT_TOL, mat_norm, require_int
from .pipeline import ROLE_FO, ROLE_FOCS, ROLE_RC, focs_basis
from .rc import certify, rc_basis, to_focs
from .structure import CS_TOL, h_selfadjoint_residual


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename; a path
    that cannot be written exits 2."""
    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name,
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        _fail(2, f"cannot write {path}: {exc}")


def _check_outputs(in_file: str, outputs: list[tuple[str, str]]) -> None:
    """Exit 2 unless each ``(flag, path)`` output names a file in an existing
    directory that is neither ``in_file`` nor another output.  Every command
    that writes calls this before any work, so it never writes over its
    input, and writes all of its outputs or none."""
    for i, (flag, path) in enumerate(outputs):
        target = Path(path).resolve()
        if target == Path(in_file).resolve():
            _fail(2, f"{flag} path {path} would overwrite the input file")
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            _fail(2, f"cannot write {path}: not a file in an existing directory")
        for other_flag, other_path in outputs[:i]:
            if Path(other_path).resolve() == target:
                _fail(2, f"{flag} path {path} and {other_flag} path {other_path} "
                         "name one file")


def _sibling(path: str, suffix: str) -> str:
    """The file beside ``path`` named by its stem and ``suffix``; unlike
    ``Path.with_suffix``, it does not raise on a path with no name, such as "."."""
    p = Path(path)
    return str(p.parent / f"{p.stem}{suffix}")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(2, f"cannot read {path}: {exc}")
    if not isinstance(obj, dict):
        _fail(2, f"{path} does not hold a JSON object")
    return obj


def _parse_gamma(ctx, param, value: str) -> complex:
    # complex() reads the imaginary unit as j only; a trailing i spells it too
    text = value.strip()
    try:
        g = complex(text[:-1] + "j" if text.endswith("i") else text)
    except ValueError:
        raise click.BadParameter(f"cannot parse gamma {value!r}")
    if g == 0:
        raise click.BadParameter("gamma must be nonzero")
    if not np.isfinite(g):
        raise click.BadParameter(f"gamma must be finite, got {value!r}")
    return g


def _check_tol(ctx, param, value: float) -> float:
    # a NaN or infinite tolerance passes every residual
    if not 0.0 < value < float("inf"):
        raise click.BadParameter(f"must be finite and positive, got {value!r}")
    return value


def _load_pair(obj: dict):
    """Accept either a full instance file or a bare {A, H, spec} file."""
    if "A0" in obj:
        inst = serialize.instance_from_json(obj)
        return inst.a0, inst.h0, inst.spec
    try:
        a = serialize.matrix_from_json(obj["A"])
        h = serialize.matrix_from_json(obj["H"])
        spec = serialize.spec_from_json(obj["spec"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"input file is neither an instance nor an (A, H, spec) file: {exc}")
    serialize.check_sizes(spec, A=a, H=h)
    return a, h, spec


def _option_variables(ctx: click.Context) -> set[str]:
    """The environment variables click reads for the group of ``ctx``:
    ``<PREFIX>_<PARAM>`` for its own parameters and
    ``<PREFIX>_<COMMAND>_<PARAM>`` for each option of a command, from the
    parameter's name."""
    prefix = ctx.auto_envvar_prefix
    known = {f"{prefix}_{p.name}".upper() for p in ctx.command.get_params(ctx)}
    for name, cmd in ctx.command.commands.items():
        known |= {f"{prefix}_{name}_{p.name}".upper().replace("-", "_")
                  for p in cmd.get_params(ctx) if isinstance(p, click.Option)}
    return known


def _check_environment(ctx: click.Context) -> None:
    """Exit 2 on an environment variable with the group's prefix that names
    no option; click ignores any name but those of :func:`_option_variables`."""
    prefix = ctx.auto_envvar_prefix
    known = _option_variables(ctx)
    for var in sorted(os.environ):
        if var.startswith(f"{prefix}_") and var not in known:
            _fail(2, f"environment variable {var} names no option of any command")


@click.group(context_settings={"auto_envvar_prefix": "INDEFCANON"})
@click.version_option(__version__)
@click.pass_context
def main(ctx):
    """Canonical Jordan bases of real H-selfadjoint pairs, with stability
    experiments under structure-preserving perturbations."""
    _check_environment(ctx)


@main.command()
@click.option("--spec-file", required=True, type=click.Path(), help="Jordan structure JSON.")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--kind", type=click.Choice([ROLE_FOCS, ROLE_RC]), default=ROLE_FOCS,
              show_default=True, help="Reference basis kind stored on the instance.")
@click.option("--gamma", default="1", show_default=True, callback=_parse_gamma,
              help="Conjugate-symmetry scalar for focs references.")
@click.option("--out", "out_file", required=True, type=click.Path())
def gen(spec_file, seed, kind, gamma, out_file):
    """Generate a seeded instance (pair plus reference basis)."""
    _check_outputs(spec_file, [("--out", out_file)])
    obj = _load_json(spec_file)
    try:
        spec = serialize.spec_from_json(obj)
        require_int(seed, "seed", 0)
    except ValueError as exc:
        _fail(2, str(exc))
    try:
        inst = generate_instance(spec, seed, kind=kind, gamma=gamma)
    except (CanonError, ValueError) as exc:
        _fail(3, f"generation failed: {exc}")
    _atomic_write(out_file, serialize.dumps(serialize.instance_to_json(inst)) + "\n")
    click.echo(f"instance written to {out_file}")


@main.command()
@click.option("--in", "in_file", required=True, type=click.Path())
@click.option("--mode", type=click.Choice([ROLE_FO, ROLE_FOCS, ROLE_RC]),
              default=ROLE_FOCS, show_default=True)
@click.option("--gamma", default="1", show_default=True, callback=_parse_gamma,
              help="Conjugate-symmetry scalar for focs mode; fo mode builds at "
                   "gamma = 1 and rc mode at gamma = i, and both ignore it.")
@click.option("--out", "out_file", required=True, type=click.Path())
@click.option("--emit-trace", is_flag=True, default=False,
              help="Write the factor trace next to the basis file.")
@click.option("--tol", default=DEFAULT_TOL, show_default=True, type=float,
              callback=_check_tol, help="Certificate tolerance; finite and positive.")
def canonize(in_file, mode, gamma, out_file, emit_trace, tol):
    """Construct a canonical basis for the pair in the input file."""
    trace_file = _sibling(out_file, ".trace.json")
    _check_outputs(in_file, [("--out", out_file)]
                   + ([("--emit-trace", trace_file)] if emit_trace else []))
    obj = _load_json(in_file)
    try:
        a, h, spec = _load_pair(obj)
    except ValueError as exc:
        _fail(2, str(exc))
    try:
        if mode == ROLE_RC:
            basis, trace = rc_basis(a, h, spec, tol=tol)
        else:
            basis, trace = focs_basis(a, h, spec, 1.0 if mode == ROLE_FO else gamma, tol=tol)
            if mode == ROLE_FO:
                basis = replace(basis, role=ROLE_FO)
    except CanonError as exc:
        _fail(4, f"{exc.code}: {exc}")
    _atomic_write(out_file, serialize.dumps(serialize.basis_to_json(basis)) + "\n")
    if emit_trace:
        _atomic_write(trace_file,
                      serialize.dumps(serialize.trace_to_json(trace, basis.gamma)) + "\n")
        click.echo(f"trace written to {trace_file}")
    click.echo(f"{basis.role} basis written to {out_file} "
               f"(similarity {basis.cert.similarity:.3e}, "
               f"congruence {basis.cert.congruence:.3e})")


@main.command()
@click.option("--in", "in_file", required=True, type=click.Path())
@click.option("--basis", "basis_file", required=True, type=click.Path())
@click.option("--tol", default=DEFAULT_TOL, show_default=True, type=float,
              callback=_check_tol, help="Residual tolerance; finite and positive.")
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
        a, h, spec = _load_pair(obj)
        if "matrix" in bobj:
            basis = serialize.basis_from_json(bobj)
            t, role = basis.matrix, basis.role
        else:
            t, role = serialize.matrix_from_json(bobj), ROLE_FOCS
        serialize.check_sizes(spec, basis=t)
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

    cert, gamma = certify(a, h, t, spec, role, norm=norm)
    if cert.max_imag is not None:
        rows.append(("realness", cert.max_imag,
                     cert.max_imag <= tol * max(1.0, mat_norm(t))))
    rows.append(("similarity", cert.similarity, cert.similarity <= tol))
    rows.append(("congruence", cert.congruence, cert.congruence <= tol))
    if cert.cs_residual is not None:
        scale = max(1.0, mat_norm(to_focs(t, spec, role), norm))
        rows.append((f"conjugate symmetry (gamma {gamma:.6g})", cert.cs_residual,
                     cert.cs_residual <= max(tol, CS_TOL * scale)))

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
@click.option("--out-csv", required=True, type=click.Path())
@click.option("--out-json", default=None, type=click.Path(),
              help="Summary JSON path, not the CSV's; defaults to the CSV path with .json.")
@click.option("--jobs", default=1, show_default=True, type=int)
@click.option("--norm", type=click.Choice(["spectral", "frobenius"]),
              default="spectral", show_default=True)
def stability(in_file, deltas, trials, mode, out_csv, out_json, jobs, norm):
    """Run the Lipschitz stability experiment for an instance file; exits 0
    only if the per-delta median ratios stay bounded across decades."""
    json_path = out_json or _sibling(out_csv, ".json")
    _check_outputs(in_file, [("--out-csv", out_csv), ("--out-json", json_path)])
    obj = _load_json(in_file)
    try:
        inst = serialize.instance_from_json(obj)
        delta_list = [float(x) for x in deltas.split(",") if x.strip()]
    except ValueError as exc:
        _fail(2, str(exc))
    try:
        report = estimate_lipschitz(inst, delta_list, trials, mode=mode,
                                    jobs=jobs, norm=norm)
    except TrialError as exc:
        _fail(4, str(exc))
    except (ValueError, CanonError) as exc:
        _fail(2, f"experiment rejected: {exc}")

    _atomic_write(out_csv, "\n".join(serialize.report_csv_lines(report)) + "\n")
    _atomic_write(json_path, serialize.dumps(serialize.report_summary_json(report)) + "\n")
    click.echo(f"K_hat = {report.k_hat:.6g}, median spread = "
               f"{report.median_spread if report.median_spread is not None else 'n/a'}, "
               f"bounded = {report.boundedness_flag}")
    sys.exit(0 if report.boundedness_flag else 1)


if __name__ == "__main__":
    main()
