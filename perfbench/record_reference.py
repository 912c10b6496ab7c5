"""Record the experiment catalogue and its reference results.

Writes ``reference.json`` next to this file: for each stability workload a
fixed catalogue of structures and instance seeds, and for each entry the
per-delta median ratios and ``k_hat`` of its experiment.  The benchmark
compares every experiment it times against these values.

Each value carries its own relative tolerance, set from its observed
numerical spread: the experiment is rerun on REPLICAS copies of its instance
whose ``A0`` and ``H0`` carry rounding-level relative noise (a few units in
the last place), and the tolerance is SPREAD_FACTOR times the largest
relative deviation seen, never below RTOL_FLOOR.  Values that sit at the
noise floor of the construction (small outputs at the smallest deltas on
large Jordan blocks) get a loose tolerance; the rest stay tight.

Run from the repository root::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import dataclasses
import json

import bootstrap

bootstrap.pin_threads()
bootstrap.import_library()

import numpy as np  # noqa: E402

from indefcanon import harness, serialize  # noqa: E402
from indefcanon.structure import JordanSpec  # noqa: E402
from workloads import (  # noqa: E402
    DELTAS,
    REFERENCE_FILE,
    WORKLOADS,
    _category_rows,
    spec_from_sizes,
)

#: workload -> (sizes, entries per size, structure categories, block sizes)
CATALOGUES = {
    "stability-strict": ((10, 12, 14, 16, 18, 20), 8, ("real", "pair", "mixed"), (1, 2, 3)),
    "wide-weak-rc": ((48, 56, 64, 72), 4, ("mixed",), (1, 2, 2, 2)),
}

CATALOGUE_SEED = 20220410

REPLICAS = 4
SPREAD_FACTOR = 10.0
RTOL_FLOOR = 1e-6


def _composition(rng: np.random.Generator, total: int, sizes: tuple[int, ...]) -> list[int]:
    out = []
    while total > 0:
        fit = [s for s in sizes if s <= total] or [total]
        s = int(rng.choice(fit))
        out.append(s)
        total -= s
    return out


def random_spec(rng: np.random.Generator, n: int, category: str,
                sizes: tuple[int, ...]) -> JordanSpec:
    """Seeded structure of total size ``n`` (see ``_category_rows``), block
    sizes drawn from ``sizes``."""
    pair_rows = _category_rows(n, category)
    pair_sizes = _composition(rng, pair_rows, sizes)
    real_sizes = _composition(rng, n - 2 * pair_rows, sizes)
    return spec_from_sizes(rng, pair_sizes, real_sizes)


def _rounding_noise(m: np.ndarray, rng: np.random.Generator, symmetric: bool) -> np.ndarray:
    e = rng.uniform(-4.0, 4.0, m.shape) * np.finfo(float).eps * np.abs(m)
    if symmetric:
        e = (e + e.T) / 2.0
    return m + e


def _values(report: harness.StabilityReport) -> list[float]:
    """Per-delta median ratios followed by ``k_hat``."""
    bad = [t.status for t in report.trials if t.status != "ok"]
    if bad or not report.boundedness_flag:
        raise SystemExit(f"reference experiment failed: {bad[:3]}, "
                         f"bounded={report.boundedness_flag}")
    return [s.ratio_median for s in report.per_delta] + [report.k_hat]


def record(name: str) -> dict:
    wl = WORKLOADS[name]
    sizes, per_size, categories, block_sizes = CATALOGUES[name]
    index = list(CATALOGUES).index(name)
    rng = np.random.default_rng([CATALOGUE_SEED, index])
    noise_rng = np.random.default_rng([CATALOGUE_SEED, index, 1])

    def run(inst: harness.Instance) -> harness.StabilityReport:
        return harness.estimate_lipschitz(inst, DELTAS, wl.trials, mode=wl.mode,
                                          kind=wl.kind, jobs=wl.jobs)

    entries = []
    for n in sizes:
        for k in range(per_size):
            spec = random_spec(rng, n, categories[k % len(categories)], block_sizes)
            seed = int(rng.integers(2**31))
            inst = harness.generate_instance(spec, seed, kind=wl.kind)
            values = _values(run(inst))
            spread = [0.0] * len(values)
            for _ in range(REPLICAS):
                noisy = dataclasses.replace(
                    inst, a0=_rounding_noise(inst.a0, noise_rng, False),
                    h0=_rounding_noise(inst.h0, noise_rng, True))
                for i, y in enumerate(_values(run(noisy))):
                    spread[i] = max(spread[i], abs(values[i] - y) / abs(values[i]))
            entries.append({"n": n, "spec": serialize.spec_to_json(spec), "seed": seed,
                            "values": values,
                            "rtol": [max(RTOL_FLOOR, SPREAD_FACTOR * x) for x in spread]})
            print(f"{name} n={n} seed={seed} k_hat={values[-1]:.6g} "
                  f"largest spread {max(spread):.2e}")
    return {"mode": wl.mode, "kind": wl.kind, "deltas": DELTAS,
            "trials_per_delta": wl.trials, "entries": entries}


def main() -> None:
    out = {name: record(name) for name in CATALOGUES}
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")


if __name__ == "__main__":
    main()
