"""Recorded experiment values, reproduced at their recorded tolerances.

``perfbench/reference.json`` holds, for each stability workload of the
benchmark, a catalogue of instances with the per-delta median ratios and
``k_hat`` of their experiments, each with its own relative tolerance.  This
runs the smallest entry of each catalogue, and the smallest strict entry with
size-3 pair and real blocks, so a change in the construction's rounding shows
here and not only in a full benchmark run.  The file is only read.
"""

import json
from pathlib import Path

import pytest

from indefcanon import estimate_lipschitz, generate_instance
from indefcanon.serialize import spec_from_json

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

#: The CLI's default perturbation grid, which the catalogue was recorded on.
DELTAS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]


def _reproduce(ref, entry):
    assert ref["deltas"] == DELTAS
    inst = generate_instance(spec_from_json(entry["spec"]), entry["seed"], kind=ref["kind"])
    report = estimate_lipschitz(inst, DELTAS, ref["trials_per_delta"],
                                mode=ref["mode"], kind=ref["kind"])
    assert all(t.status == "ok" for t in report.trials)
    got = [s.ratio_median for s in report.per_delta] + [report.k_hat]
    labels = [f"median ratio at delta {d:g}" for d in DELTAS] + ["k_hat"]
    for label, x, want, rtol in zip(labels, got, entry["values"], entry["rtol"], strict=True):
        assert abs(x - want) <= rtol * abs(want), \
            f"{label}: {x!r} against {want!r}, {abs(x - want) / abs(want):.2e} > rtol {rtol:.1e}"


@pytest.mark.parametrize("workload", ["stability-strict", "wide-weak-rc"])
def test_smallest_reference_experiment_reproduces(workload):
    ref = json.loads(REFERENCE.read_text())[workload]
    _reproduce(ref, min(ref["entries"], key=lambda e: e["n"]))


def test_size_three_blocks_reference_experiment_reproduces():
    # pins the p = 3 paths of fit_chain_to and toeplitz_inv_sqrt, in pair
    # blocks and in real ones
    ref = json.loads(REFERENCE.read_text())["stability-strict"]

    def has_size_three(entry, kind):
        return any(b["kind"] == kind and b["size"] == 3 for b in entry["spec"]["blocks"])

    _reproduce(ref, min((e for e in ref["entries"]
                         if has_size_three(e, "pair") and has_size_three(e, "real")),
                        key=lambda e: e["n"]))
