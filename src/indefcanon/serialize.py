"""JSON and CSV codecs for every file format the package reads or writes.

All floating-point values round-trip at full precision (Python's ``repr``
is exact for doubles), so writing the same object twice produces identical
bytes.  Every JSON text is one line from :func:`dumps` with no indent:
any indent switches ``json`` from its C encoder to its pure-Python one,
which takes nearly three times as long on a basis reply.  Indented files
from earlier versions still read.  Integer fields (``size``, ``sign``,
``seed``, ``rows``, ``cols``) accept only JSON integers, and number fields
(a spec's ``lambda``, matrix entries, ``gamma`` and the residuals) only
JSON numbers: never a string or a boolean.
"""

from __future__ import annotations

import json

import numpy as np

from .harness import Instance, StabilityReport, load_instance
from .linalg import matrix_from_json, matrix_to_json, max_imag, require_int, require_number
from .pipeline import ROLE_FO, ROLE_FOCS, ROLE_RC, CanonicalBasis, Certificate, PipelineTrace
from .structure import PAIR, REAL, BlockSpec, JordanSpec


def _complex_to_json(z: complex | None):
    if z is None:
        return None
    z = complex(z)
    return [z.real, z.imag]


def _pair_from_json(obj, name: str) -> complex:
    """A complex number written ``[re, im]``."""
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValueError(f"{name} must be [re, im], got {obj!r}")
    return complex(require_number(obj[0], name), require_number(obj[1], name))


def _complex_from_json(obj, name: str) -> complex | None:
    """``null``, a bare number or ``[re, im]``."""
    if obj is None:
        return None
    if isinstance(obj, list):
        return _pair_from_json(obj, name)
    return complex(require_number(obj, name))


def _optional_number(obj, name: str) -> float | None:
    return None if obj is None else require_number(obj, name)


def spec_to_json(spec: JordanSpec) -> dict:
    blocks = []
    for b in spec.blocks:
        if b.kind == REAL:
            blocks.append({"kind": "real", "lambda": b.lam.real,
                           "size": b.size, "sign": b.sign})
        else:
            blocks.append({"kind": "pair", "lambda": [b.lam.real, b.lam.imag],
                           "size": b.size})
    return {"blocks": blocks}


def spec_from_json(obj: dict) -> JordanSpec:
    blocks = []
    try:
        for rb in obj["blocks"]:
            kind = rb.get("kind")
            if kind == "real":
                blocks.append(BlockSpec(REAL, require_number(rb["lambda"], "lambda"),
                                        require_int(rb["size"], "size"),
                                        require_int(rb["sign"], "sign")))
            elif kind == "pair":
                blocks.append(BlockSpec(PAIR, _pair_from_json(rb["lambda"], "lambda"),
                                        require_int(rb["size"], "size")))
            else:
                raise ValueError(f"unknown block kind {kind!r}")
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed spec object: {exc}") from exc
    return JordanSpec(tuple(blocks))


def check_sizes(spec: JordanSpec, **matrices: np.ndarray) -> None:
    """Reject any of the named matrices that is not square of the spec's size."""
    n = spec.total_size
    for name, m in matrices.items():
        if m.shape != (n, n):
            raise ValueError(f"{name} is {m.shape[0]}x{m.shape[1]}, "
                             f"but the spec needs {n}x{n}")


def basis_to_json(basis: CanonicalBasis) -> dict:
    return {
        "matrix": matrix_to_json(basis.matrix),
        "role": basis.role,
        "gamma": _complex_to_json(basis.gamma),
        "residuals": {
            "similarity": basis.cert.similarity,
            "congruence": basis.cert.congruence,
            "cs": basis.cert.cs_residual,
            "max_imag": basis.cert.max_imag,
        },
        "eps": list(basis.eps),
    }


def _eps_entry(e) -> int | None:
    """One sign characteristic: ``null`` for a pair block, else ±1."""
    if e is not None and require_int(e, "eps entry") not in (-1, 1):
        raise ValueError(f"eps entry must be +1, -1 or null, got {e!r}")
    return e


def basis_from_json(obj: dict) -> CanonicalBasis:
    try:
        res, role = obj.get("residuals", {}), obj["role"]
        if role not in (ROLE_FO, ROLE_FOCS, ROLE_RC):
            raise ValueError(f"basis role must be 'fo', 'focs' or 'rc', got {role!r}")
        return CanonicalBasis(
            matrix=matrix_from_json(obj["matrix"]),
            role=role,
            gamma=_complex_from_json(obj.get("gamma"), "gamma"),
            cert=Certificate(
                similarity=require_number(res.get("similarity", 0.0), "similarity"),
                congruence=require_number(res.get("congruence", 0.0), "congruence"),
                cs_residual=_optional_number(res.get("cs"), "cs"),
                max_imag=_optional_number(res.get("max_imag"), "max_imag")),
            eps=tuple(_eps_entry(e) for e in obj.get("eps", [])))
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed basis object: {exc}") from exc


def instance_to_json(inst: Instance) -> dict:
    return {
        "spec": spec_to_json(inst.spec),
        "A0": matrix_to_json(inst.a0),
        "H0": matrix_to_json(inst.h0),
        "W": matrix_to_json(inst.w),
        "T0": basis_to_json(inst.t0),
        "seed": inst.seed,
    }


def instance_from_json(obj: dict) -> Instance:
    """Decode an instance and check it against the pair its stored ``W``
    rebuilds (see :func:`harness.load_instance`); any defect, a missing
    ``W`` included, raises ``ValueError``."""
    if "W" not in obj:
        raise ValueError("instance has no W, the similarity that generates its pair: "
                         "regenerate the file with `indefcanon gen` from its spec and seed")
    try:
        spec = spec_from_json(obj["spec"])
        mats = {name: matrix_from_json(obj[name]) for name in ("A0", "H0", "W")}
        # the experiment's verdict must be about the pair in the file
        for name, m in mats.items():
            if np.iscomplexobj(m):
                raise ValueError(f"{name} must be real, but has an imaginary part "
                                 f"of {max_imag(m):.3e}")
        t0 = basis_from_json(obj["T0"])
        seed = require_int(obj["seed"], "seed", 0)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance object: {exc}") from exc
    check_sizes(spec, **mats, T0=t0.matrix)
    return load_instance(spec, mats["A0"], mats["H0"], t0, seed, mats["W"])


def trace_to_json(trace: PipelineTrace, gamma: complex | None) -> dict:
    """Factors and Grams, their product as ``basis``, and its scalar ``gamma``."""
    return {
        "chain_factor": matrix_to_json(trace.chain_factor),
        "phase_factor": matrix_to_json(trace.phase_factor),
        "scale_factor": matrix_to_json(trace.scale_factor),
        "flip_factor": matrix_to_json(trace.flip_factor),
        "gram_raw": matrix_to_json(trace.gram_raw),
        "gram_phased": matrix_to_json(trace.gram_phased),
        "gram_scaled": matrix_to_json(trace.gram_scaled),
        "basis": matrix_to_json(trace.chain_factor @ trace.phase_factor
                                @ trace.scale_factor @ trace.flip_factor),
        "gamma": _complex_to_json(gamma),
    }


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def report_csv_lines(report: StabilityReport) -> list[str]:
    """CSV rows for a stability report.

    Base columns are fixed; a weak report in which some trial was matched
    appends one matched-eigenvalue column per spec block.
    """
    n_blocks = next((len(r.matches) for r in report.trials if r.matches is not None), 0)
    header = "delta,trial,input,output,ratio,z1_dev,z2_dev,z3_dev,z4_dev,status"
    lines = [header + "".join(f",matched_{k}" for k in range(n_blocks))]

    def num(x) -> str:
        return "" if x is None or (isinstance(x, float) and np.isnan(x)) else repr(float(x))

    for r in report.trials:
        z = r.z_devs or (None, None, None, None)
        row = [num(r.delta), str(r.index), num(r.input), num(r.output),
               num(r.ratio), num(z[0]), num(z[1]), num(z[2]), num(z[3]), r.status]
        matched = [_fmt_complex(m) for m in (r.matches or ())]
        row += matched + [""] * (n_blocks - len(matched))
        lines.append(",".join(row))
    return lines


def report_summary_json(report: StabilityReport) -> dict:
    """Full nested JSON form of a stability report."""
    return {
        "seed": report.seed,
        "kind": report.kind,
        "mode": report.mode,
        "deltas": list(report.deltas),
        "k_hat": report.k_hat,
        "median_spread": report.median_spread,
        "factor_spreads": list(report.factor_spreads),
        "boundedness_flag": report.boundedness_flag,
        "per_delta": [
            {"delta": s.delta, "n_ok": s.n_ok, "ratio_min": s.ratio_min,
             "ratio_median": s.ratio_median, "ratio_max": s.ratio_max}
            for s in report.per_delta
        ],
        "trials": [
            {"delta": t.delta, "trial": t.index,
             "input": None if np.isnan(t.input) else t.input,
             "output": t.output, "ratio": t.ratio,
             "z_devs": list(t.z_devs) if t.z_devs else None,
             "status": t.status,
             "matches": [_complex_to_json(m) for m in t.matches] if t.matches else None,
             "true_eigs": [_complex_to_json(m) for m in t.true_eigs] if t.true_eigs else None}
            for t in report.trials
        ],
    }


def dumps(obj: dict) -> str:
    """Deterministic one-line JSON text used for every file the package
    writes.  No indent: any indent makes ``json`` fall back from its C
    encoder to the pure-Python one."""
    return json.dumps(obj)
