"""Workload inputs, operations and output checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns.  Inputs are made from the workload seed; the
library receives only the generated pairs and requests.  Library calls go
through module attributes (``pipeline.focs_basis``, ...) so a traced run sees
them; the output checks use the functions bound below at import time and
run outside the timed region.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from indefcanon import harness, pipeline, rc, serialize
from indefcanon.linalg import affiliation_residuals, mat_norm
from indefcanon.structure import (
    PAIR,
    REAL,
    BlockSpec,
    JordanSpec,
    conjugate_symmetry_fit,
    jordan_form,
    mixing_matrix_inv,
    real_jordan_form,
    sip_form,
)

REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: The CLI's default perturbation grid.
DELTAS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]

#: Certificate tolerance promised by the library (``DEFAULT_TOL``), scaled
#: by ``max(1, ||H||)`` exactly as the library's own gate scales it.
CERT_TOL = 1e-10

#: Conjugate-symmetry tolerance, relative to ``max(1, ||basis||)``.
CS_TOL = 1e-8


# ---------------------------------------------------------------------------
# seeded structures


def _eigenvalue_slots(rng: np.random.Generator, count: int, pair: bool) -> list[complex]:
    """``count`` distinct eigenvalues from a jittered grid near the origin.

    Real slots sit at +-0.6k, pair slots at 0.7(j + ki) with k >= 1; a
    jitter of at most 0.1 per coordinate keeps every two eigenvalues
    (conjugates included) at least 0.4 apart and away from zero.  Each pair
    representative then takes a random half plane.
    """
    if pair:
        grid = [complex(0.7 * i, 0.7 * k) for i in range(-8, 9) for k in range(1, 9)]
    else:
        grid = [s * 0.6 * k for s in (-1.0, 1.0) for k in range(1, 40)]
    grid.sort(key=abs)
    pool = grid[:2 * count + 2]
    picks = rng.choice(len(pool), size=count, replace=False)
    out = []
    for i in picks:
        z = pool[int(i)] + complex(*rng.uniform(-0.1, 0.1, 2))
        out.append(complex(z.real, z.imag * rng.choice([-1.0, 1.0])) if pair
                   else complex(z.real, 0.0))
    return out


def _category_rows(n: int, category: str) -> int:
    """Rows taken by pair blocks: none for ``real``, all for ``pair`` (``n``
    even), about half for ``mixed``."""
    return {"real": 0, "pair": n // 2, "mixed": max(1, n // 4)}[category]


def spec_from_sizes(rng: np.random.Generator, pair_sizes: list[int],
                    real_sizes: list[int]) -> JordanSpec:
    """Seeded eigenvalues and signs for the given block sizes, in shuffled order."""
    pair_lams = _eigenvalue_slots(rng, len(pair_sizes), pair=True)
    real_lams = _eigenvalue_slots(rng, len(real_sizes), pair=False)
    blocks = [BlockSpec(PAIR, lam, s) for lam, s in zip(pair_lams, pair_sizes)]
    blocks += [BlockSpec(REAL, lam.real, s, int(rng.choice([-1, 1])))
               for lam, s in zip(real_lams, real_sizes)]
    order = rng.permutation(len(blocks))
    return JordanSpec(tuple(blocks[int(i)] for i in order))


def _cycled_sizes(total: int, sizes: tuple[int, ...], start: int) -> list[int]:
    out, k = [], start
    while total > 0:
        s = min(sizes[k % len(sizes)], total)
        out.append(s)
        total -= s
        k += 1
    return out


# ---------------------------------------------------------------------------
# serve-mixed


# Block sizes follow a fixed cycle per (n, category), so every seed serves
# the same mix of shapes; the seed draws eigenvalues, signs, the generating
# similarities and the request order.
SERVE_SIZES = tuple(range(4, 25, 2))
SERVE_CATEGORIES = ("real", "pair", "mixed")
SERVE_BLOCK_SIZES = (1, 2, 3, 4)
#: Each generated pair is requested once in every mode.
SERVE_MODES = (("fo", 1.0 + 0j), ("focs", 1.0 + 0j), ("focs", 1j), ("rc", 1j))


@dataclass(frozen=True)
class Request:
    text: str
    mode: str
    gamma: complex
    a: np.ndarray
    h: np.ndarray
    spec: JordanSpec


def _wire_matrix(obj: dict) -> np.ndarray:
    """Decode a wire matrix without the library's codec."""
    data = obj["data"]
    if data and isinstance(data[0], list):
        flat = np.array([complex(re, im) for re, im in data])
    else:
        flat = np.array(data, dtype=float)
    return flat.reshape(obj["rows"], obj["cols"])


class ServeMixed:
    """Canonize requests in the repo's JSON wire format, cold (no anchor)."""

    name = "serve-mixed"
    jobs = 1

    def setup(self, seed: int) -> list[Request]:
        rng = np.random.default_rng([seed, 1])
        requests = []
        for n in SERVE_SIZES:
            for c, category in enumerate(SERVE_CATEGORIES):
                pair_rows = _category_rows(n, category)
                spec = spec_from_sizes(
                    rng, _cycled_sizes(pair_rows, SERVE_BLOCK_SIZES, n + c),
                    _cycled_sizes(n - 2 * pair_rows, SERVE_BLOCK_SIZES, n + c + 1))
                inst = harness.generate_instance(spec, int(rng.integers(2**31)))
                text = serialize.dumps({"A": serialize.matrix_to_json(inst.a0),
                                        "H": serialize.matrix_to_json(inst.h0),
                                        "spec": serialize.spec_to_json(spec)})
                requests += [Request(text, mode, gamma, inst.a0, inst.h0, spec)
                             for mode, gamma in SERVE_MODES]
        return [requests[int(i)] for i in rng.permutation(len(requests))]

    def op(self, req: Request, jobs: int, span) -> str:
        # the in-process path of `indefcanon canonize` for a bare {A, H, spec} file
        with span("serialize.decode"):
            obj = json.loads(req.text)
            a = serialize.matrix_from_json(obj["A"])
            h = serialize.matrix_from_json(obj["H"])
            spec = serialize.spec_from_json(obj["spec"])
        if req.mode == "rc":
            basis, _ = rc.rc_basis(a, h, spec)
        else:
            basis, _ = pipeline.focs_basis(a, h, spec, req.gamma)
            if req.mode == "fo":
                basis = pipeline.CanonicalBasis(matrix=basis.matrix, role="fo",
                                                gamma=basis.gamma, cert=basis.cert,
                                                eps=basis.eps)
        with span("serialize.encode"):
            return serialize.dumps(serialize.basis_to_json(basis)) + "\n"

    def check(self, req: Request, out: str) -> str | None:
        obj = json.loads(out)
        if obj["role"] != req.mode:
            return f"role {obj['role']!r} for a {req.mode} request"
        m = _wire_matrix(obj["matrix"])
        spec = req.spec
        if req.mode == "rc":
            if np.iscomplexobj(m):
                return "rc basis is not real on the wire"
            target = real_jordan_form(spec)
        else:
            target = jordan_form(spec)
        sim, cong = affiliation_residuals(req.a, req.h, m, target, sip_form(spec))
        tol = CERT_TOL * max(1.0, mat_norm(req.h))
        if not max(sim, cong) <= tol:
            return f"affiliation residuals {sim:.3e}, {cong:.3e} above {tol:.1e}"
        for i, b in enumerate(spec.blocks):
            if b.kind == REAL and obj["eps"][i] != b.sign:
                return f"block {i} sign {obj['eps'][i]} against {b.sign}"
        if req.mode == "fo" or all(b.kind == REAL for b in spec.blocks):
            return None
        basis_c = m @ mixing_matrix_inv(spec) if req.mode == "rc" else m
        gamma, cs, _ = conjugate_symmetry_fit(basis_c, spec)
        if not cs <= CS_TOL * max(1.0, mat_norm(basis_c)):
            return f"conjugate-symmetry residual {cs:.3e}"
        if abs(abs(gamma) - abs(req.gamma)) > CS_TOL * abs(req.gamma):
            return f"|gamma| {abs(gamma):.9g} against {abs(req.gamma):.9g}"
        if req.mode == "rc" and abs(gamma - 1j) > CS_TOL:
            return f"rc basis recovers gamma {gamma:.9g}, not i"
        return None

    def stats(self, req: Request, out: str | None) -> dict[str, float]:
        return {"bytes": len(req.text) + len(out or "")}


# ---------------------------------------------------------------------------
# stability experiments over the recorded catalogue


@dataclass(frozen=True)
class Experiment:
    inst: harness.Instance
    #: reference per-delta median ratios followed by k_hat, with their
    #: relative tolerances
    ref_values: tuple[float, ...]
    ref_rtol: tuple[float, ...]


class StabilityExperiments:
    """One ``estimate_lipschitz`` call per op over a fixed instance catalogue.

    The catalogue (structures and instance seeds) and each experiment's
    reference per-delta median ratios and ``k_hat`` were recorded by
    ``record_reference.py``; the workload seed orders the catalogue,
    round-robin over sizes so any prefix covers every size.
    """

    def __init__(self, name: str, mode: str, kind: str, trials: int, jobs: int):
        self.name, self.mode, self.kind = name, mode, kind
        self.trials, self.jobs = trials, jobs

    def setup(self, seed: int) -> list[Experiment]:
        with open(REFERENCE_FILE) as fh:
            ref = json.load(fh)[self.name]
        rng = np.random.default_rng([seed, 2])
        by_size: dict[int, list[dict]] = {}
        for entry in ref["entries"]:
            by_size.setdefault(entry["n"], []).append(entry)
        columns = [[group[int(i)] for i in rng.permutation(len(group))]
                   for _, group in sorted(by_size.items())]
        columns = [columns[int(i)] for i in rng.permutation(len(columns))]
        ordered = [col[r] for r in range(max(map(len, columns)))
                   for col in columns if r < len(col)]
        return [Experiment(
            harness.generate_instance(serialize.spec_from_json(e["spec"]), e["seed"],
                                      kind=self.kind),
            tuple(e["values"]), tuple(e["rtol"])) for e in ordered]

    def op(self, exp: Experiment, jobs: int, span) -> harness.StabilityReport:
        return harness.estimate_lipschitz(exp.inst, DELTAS, self.trials,
                                          mode=self.mode, kind=self.kind, jobs=jobs)

    def check(self, exp: Experiment, report: harness.StabilityReport) -> str | None:
        bad = [t.status for t in report.trials if t.status != "ok"]
        if bad:
            return f"{len(bad)} trials not ok ({bad[0]})"
        if not report.boundedness_flag:
            return "boundedness flag is False"
        got = [s.ratio_median for s in report.per_delta] + [report.k_hat]
        labels = [f"median ratio at delta {d:g}" for d in DELTAS] + ["k_hat"]
        for label, x, want, rtol in zip(labels, got, exp.ref_values, exp.ref_rtol):
            if not abs(x - want) <= rtol * abs(want):
                return f"{label}: {x!r} against {want!r} (rtol {rtol:.1e})"
        return None

    def stats(self, exp: Experiment, report: harness.StabilityReport | None) -> dict[str, float]:
        # the task tuple estimate_lipschitz hands to each pool worker
        task = (exp.inst, DELTAS[0], 0, 0, self.mode, self.kind, "spectral")
        trials = len(DELTAS) * self.trials
        ok = sum(t.status == "ok" for t in report.trials) if report else 0
        return {"trials": trials, "trials_ok": ok,
                "pool_bytes": len(pickle.dumps(task))}


WORKLOADS = {
    "serve-mixed": ServeMixed(),
    "stability-strict": StabilityExperiments("stability-strict", "strict", "focs",
                                             trials=10, jobs=1),
    "wide-weak-rc": StabilityExperiments("wide-weak-rc", "weak", "rc",
                                         trials=2, jobs=2),
}
