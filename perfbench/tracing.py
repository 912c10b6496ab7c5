"""In-memory spans around the library's public functions.

The tracer rebinds chosen functions in every ``indefcanon`` module namespace
that holds them, so calls between library modules are seen as well as calls
from the benchmark.  A span records its name, parent span, the operation it
belongs to, start and end; self time (duration minus direct children) is
computed as each span closes.  Spans are kept in memory and written out when
the run ends.  Only one thread calls into the library, so a plain stack gives
the parent of each span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

from indefcanon import chains, harness, linalg, pipeline, rc, structure

#: (module, function, span name).  The five structure constructors share one
#: name because they are rebuilt from the spec on every call.
SPANNED = (
    (chains, "jordan_chains", "chains.jordan_chains"),
    (chains, "fit_chain_to", "chains.fit_chain_to"),
    (chains, "reduce_real_chain", "chains.reduce_real_chain"),
    (linalg, "mat_norm", "linalg.mat_norm"),
    (linalg, "affiliation_residuals", "linalg.affiliation_residuals"),
    (structure, "jordan_form", "structure.forms"),
    (structure, "sip_form", "structure.forms"),
    (structure, "real_jordan_form", "structure.forms"),
    (structure, "mixing_matrix", "structure.forms"),
    (structure, "mixing_matrix_inv", "structure.forms"),
    (structure, "conjugate_symmetry_fit", "structure.conjugate_symmetry_fit"),
    (structure, "h_selfadjoint_residual", "structure.h_selfadjoint_residual"),
    (pipeline, "focs_basis", "pipeline.focs_basis"),
    (pipeline, "toeplitz_inv_sqrt", "pipeline.toeplitz_inv_sqrt"),
    (pipeline, "flip_step", "pipeline.flip_step"),
    (rc, "rc_basis", "rc.rc_basis"),
    (harness, "perturb_instance", "harness.perturb_instance"),
    (harness, "anchored_canonize", "harness.anchored_canonize"),
    (harness, "match_eigenvalues", "harness.match_eigenvalues"),
    (harness, "generate_instance", "harness.generate_instance"),
)

#: Counted, not spanned: every pair rebuild inside the harness goes through
#: this binding, so its calls per trial are the bisection attempts.
COUNTED = ((harness, "refined_inverse", "harness.refined_inverse"),)

SETUP_OP = -1


class Tracer:
    """Span recorder; inactive until an operation is opened with :meth:`op`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, str], int] = {}
        self._stack: list[int] = []
        self._child_ns: dict[int, int] = {}
        self._next_id = 0
        self._op_id: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int | None, name: str, t0: int, t1: int):
        self._stack.pop()
        dur = t1 - t0
        child = self._child_ns.pop(sid, 0)
        if parent is not None:
            self._child_ns[parent] = self._child_ns.get(parent, 0) + dur
        self.spans.append((sid, parent, self._op_id, name, t0, t1, dur - child))

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Record spans for one operation (``SETUP_OP`` for set-up work)."""
        self._op_id = op_id
        sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, "bench.op", t0, time.perf_counter_ns())
            self._op_id = None

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a benchmark-side step, such as wire decoding."""
        if self._op_id is None:
            yield
            return
        sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0, time.perf_counter_ns())

    def _spanned(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            sid, parent = self._open()
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, t0, time.perf_counter_ns())
        return traced

    def _counted(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._op_id is not None:
                key = (self._op_id, name)
                self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind the traced functions in every ``indefcanon`` namespace."""
        namespaces = [m for k, m in sys.modules.items()
                      if k == "indefcanon" or k.startswith("indefcanon.")]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for home, attr, name in table:
                original = getattr(home, attr)
                wrapper = make(original, name)
                # the count covers the harness binding only
                targets = [home] if table is COUNTED else namespaces
                for mod in targets:
                    if getattr(mod, attr, None) is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def totals(self, op_ids: set[int]) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``ms`` (inclusive) and ``self_ms`` summed
        over the given operations; counted functions report ``calls`` only."""
        out: dict[str, dict[str, float]] = {}
        for _, _, op_id, name, t0, t1, self_ns in self.spans:
            if op_id not in op_ids:
                continue
            agg = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            agg["calls"] += 1
            agg["ms"] += (t1 - t0) / 1e6
            agg["self_ms"] += self_ns / 1e6
        for (op_id, name), n in self.counts.items():
            if op_id in op_ids:
                agg = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
                agg["calls"] += n
        return out

    def write(self, path: Path) -> None:
        """Write one JSON line per span:
        ``[id, parent, op, name, start_ns, end_ns, self_ns]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
