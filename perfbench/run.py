"""Benchmark of the indefcanon library.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload in turn, default settings

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``serve-mixed``: canonize requests in the JSON wire format, FO/FOCS/RC;
* ``stability-strict``: strict-mode FOCS Lipschitz experiments, one process;
* ``wide-weak-rc``: weak-mode RC experiments on wide structures, two workers.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs the workload single-process twice, untraced and then with spans
around the library's public functions, and prints per-layer metrics per op
and the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The library is imported from the checkout's
``src``; without it the command exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

bootstrap.pin_threads()
bootstrap.import_library()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK_FILE = bootstrap.ROOT / "BENCHMARK.json"
TRACE_DIR = bootstrap.ROOT / ".perfbench_out"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: The tail percentile leaves at least this many samples beyond it.
TAIL_BEYOND = 10


def _null_span(name):
    return contextlib.nullcontext()


class CpuRotation:
    """Moves a single-process run to the next allowed CPU every ROTATE_S.

    On a shared host each CPU's speed can drift on its own (on a 2-vCPU VM a
    fixed SVD loop ran up to 1.7x slower on one CPU than on the other, in
    phases of seconds to minutes); visiting every CPU in turn makes one run
    sample all of them, as the two-worker workload does by itself.  Never used while a
    process pool may fork, since workers inherit the affinity.
    """

    ROTATE_S = 0.25

    def __init__(self):
        self.allowed = sorted(os.sched_getaffinity(0))
        self._k = 0
        self._next = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        if len(self.allowed) > 1 and now >= self._next:
            self._k = (self._k + 1) % len(self.allowed)
            os.sched_setaffinity(0, {self.allowed[self._k]})
            self._next = now + self.ROTATE_S

    def restore(self) -> None:
        os.sched_setaffinity(0, self.allowed)


def measure(wl, items, seconds: float, jobs: int, tracer=None) -> dict:
    """Closed loop over ``items`` (cycled) for ``seconds`` of wall time.

    Each op is timed alone; its output is checked after the clock stops.
    """
    span = tracer.span if tracer else _null_span
    rotation = CpuRotation() if jobs == 1 else None
    lat, reasons, stats = [], [], {}
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline:
            if rotation:
                rotation.tick()
            item = items[len(lat) % len(items)]
            ctx = tracer.op(len(lat)) if tracer else contextlib.nullcontext()
            out, err = None, None
            t0 = time.perf_counter()
            try:
                with ctx:
                    out = wl.op(item, jobs, span)
            except Exception as exc:  # a failed op is counted, the loop goes on
                err = f"{type(exc).__name__}: {exc}"
            lat.append(time.perf_counter() - t0)
            if err is None:
                try:
                    err = wl.check(item, out)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                reasons.append(err)
            for key, val in wl.stats(item, out).items():
                stats[key] = stats.get(key, 0) + val
    finally:
        if rotation:
            rotation.restore()
    return {"lat": lat, "failed": len(reasons), "reasons": reasons, "stats": stats}


def tail(lat: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    ``(value, percentile, samples beyond)``; the maximum when there are
    too few samples."""
    s = sorted(lat)
    k = len(s) - TAIL_BEYOND - 1
    if k < 0:
        return s[-1], 100.0, 0
    return s[k], 100.0 * (k + 1) / len(s), len(s) - k - 1


def ops_per_s(res: dict) -> float:
    return (len(res["lat"]) - res["failed"]) / sum(res["lat"])


def timed_setup(wl, seed: int, repeats: int) -> tuple[list, list[float]]:
    times = []
    rotation = CpuRotation()
    for _ in range(repeats):
        rotation.tick()
        t0 = time.perf_counter()
        items = wl.setup(seed)
        times.append(time.perf_counter() - t0)
    rotation.restore()
    return items, times


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def end_to_end(wl, seed: int, seconds: int) -> tuple[dict, dict]:
    items, setups = timed_setup(wl, seed, SETUP_REPEATS)
    wl.op(items[0], wl.jobs, _null_span)  # warm-up, not timed
    res = measure(wl, items, seconds, wl.jobs)
    value, pct, beyond = tail(res["lat"])
    n = len(res["lat"])
    print(f"op_tail_ms is p{pct:.2f} of {n} ops ({beyond} beyond it)")
    print(f"{'fail_ratio':<40} {res['failed'] / n:>16.6g} ratio "
          f"({res['failed']} of {n} ops; the result's failed and attempted)")
    print(f"setup_s is the median of {SETUP_REPEATS} set-ups: "
          + ", ".join(f"{t:.4f}" for t in setups))
    print("peak_rss_mb is the main process's peak resident set")
    metrics = {
        "ops_per_s": ops_per_s(res),
        "op_p50_ms": 1e3 * statistics.median(res["lat"]),
        "op_tail_ms": 1e3 * value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return res, metrics


def per_layer(wl, seed: int, seconds: int, trace_path: Path) -> tuple[dict, dict]:
    """Untraced then traced passes, single process, over the same op sequence."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op(tracing.SETUP_OP):
            items = wl.setup(seed)
        wl.op(items[0], 1, _null_span)  # warm-up, not timed
        plain = measure(wl, items, seconds / 2.0, 1)
        traced = measure(wl, items, seconds / 2.0, 1, tracer)
    finally:
        tracer.uninstall()
        tracer.write(trace_path)
    n_ops = len(traced["lat"])
    tot = tracer.totals(set(range(n_ops)))
    setup = tracer.totals({tracing.SETUP_OP})
    st = traced["stats"]

    def ms(name: str, key: str = "ms") -> float:
        return tot.get(name, {}).get(key, 0.0) / n_ops

    def calls(name: str) -> float:
        return tot.get(name, {}).get("calls", 0) / n_ops

    trials = st.get("trials", 0)
    gen = setup.get("harness.generate_instance", {"calls": 0, "ms": 0.0})
    metrics = {
        "serialize.decode_ms": ms("serialize.decode"),
        "serialize.encode_ms": ms("serialize.encode"),
        "serialize.bytes": st.get("bytes", 0) / n_ops,
        "chains.jordan_chains_ms": ms("chains.jordan_chains"),
        "chains.jordan_chains_calls": calls("chains.jordan_chains"),
        "chains.fit_chain_to_ms": ms("chains.fit_chain_to"),
        "chains.reduce_real_chain_ms": ms("chains.reduce_real_chain"),
        "linalg.mat_norm_ms": ms("linalg.mat_norm"),
        "linalg.mat_norm_calls": calls("linalg.mat_norm"),
        "linalg.affiliation_residuals_ms": ms("linalg.affiliation_residuals"),
        "structure.forms_ms": ms("structure.forms"),
        "structure.forms_calls": calls("structure.forms"),
        "structure.conjugate_symmetry_fit_ms": ms("structure.conjugate_symmetry_fit"),
        "structure.h_selfadjoint_residual_ms": ms("structure.h_selfadjoint_residual"),
        "pipeline.focs_basis_self_ms": ms("pipeline.focs_basis", "self_ms"),
        "pipeline.toeplitz_inv_sqrt_ms": ms("pipeline.toeplitz_inv_sqrt"),
        "pipeline.flip_step_ms": ms("pipeline.flip_step"),
        "rc.rc_basis_self_ms": ms("rc.rc_basis", "self_ms"),
        "harness.perturb_instance_self_ms": ms("harness.perturb_instance", "self_ms"),
        "harness.rebuilds_per_trial":
            tot.get("harness.refined_inverse", {}).get("calls", 0) / trials if trials else 0.0,
        "harness.anchored_canonize_self_ms": ms("harness.anchored_canonize", "self_ms"),
        "harness.match_eigenvalues_ms": ms("harness.match_eigenvalues"),
        "harness.trial_ok_ratio": st.get("trials_ok", 0) / trials if trials else 0.0,
        "harness.pool_bytes_per_task": st.get("pool_bytes", 0) / n_ops,
        "harness.generate_instance_ms": gen["ms"] / gen["calls"] if gen["calls"] else 0.0,
        "trace.ops_per_s_ratio": ops_per_s(traced) / ops_per_s(plain),
    }
    print(f"traced {n_ops} ops at {ops_per_s(traced):.6g} op/s against "
          f"{len(plain['lat'])} untraced ops at {ops_per_s(plain):.6g} op/s "
          f"(both single process)")
    print("computed from sizes: serialize.bytes, harness.pool_bytes_per_task; "
          "exact counts: *_calls, harness.rebuilds_per_trial")
    if not trials:
        print("no stability trials in this workload: harness.rebuilds_per_trial "
              "and harness.trial_ok_ratio read 0")
    print(f"spans written to {trace_path}")
    res = {"lat": plain["lat"] + traced["lat"],
           "failed": plain["failed"] + traced["failed"],
           "reasons": plain["reasons"] + traced["reasons"]}
    return res, metrics


def run_one(name: str, seed: int, seconds: int, trace: int, spec: dict) -> int:
    wl = WORKLOADS[name]
    why = {w["name"]: w["why"] for w in spec["workloads"]}[name]
    print(f"workload {name} seed {seed} seconds {seconds} trace {trace}")
    print(f"why: {why}")
    print("environment: " + json.dumps(environment()))
    if trace:
        res, values = per_layer(wl, seed, seconds,
                                TRACE_DIR / f"spans-{name}-seed{seed}.jsonl")
        declared = spec["per_layer"]
    else:
        res, values = end_to_end(wl, seed, seconds)
        declared = spec["end_to_end"]
    for reason in res["reasons"][:5]:
        print(f"failed op: {reason}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}")
    extra = sorted(set(values) - set(metrics))
    if extra:
        # layer times that read 0 on every run of a workload bypassing the
        # layer; printed here, kept out of the result object
        print("also measured, zero where a workload bypasses the layer:")
        for name in extra:
            print(f"  {name:<38} {values[name]:>16.6g} ms")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": len(res["lat"]),
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(BENCHMARK_FILE) as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, args.trace, spec)


if __name__ == "__main__":
    sys.exit(main())
