"""In-memory span recorder for the traced benchmark run.

While installed, every public function named in ``TRACED`` is replaced, in
every ``dysonprop.*`` namespace that binds it, by a wrapper that records one
span per call: name, start, end, parent span and the op it belongs to.
Module code looks its globals up at call time, so a call from inside the
library (``dyson._run_block`` calling ``apriori_bound``) is traced too.
Private helpers are never wrapped.

Self time of a span is its duration minus the time its direct wrapped
children cover.  Calls and self time are summed per name for each pass, and
the series counts are read off the results the outermost series call
returns.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# Public names whose calls become spans, by the module that defines them.
TRACED = {
    "graded": ("certify", "support_level"),
    "dyson": (
        "apriori_tail",
        "apriori_bound",
        "evolve_block",
        "evolve_vector",
        "evolve_adjoint",
        "default_grid",
        "coupled_gap",
        "free_propagator",
    ),
    "suite": ("dense_propagator",),
    "evolution": ("schrodinger_trajectory",),
    "qed": ("build_model", "eta_unitarity_check"),
    "fock": ("top_sector_fraction",),
    "oracles": ("oracle_propagator", "ode_oracle"),
}
SERIES = ("dyson.evolve_block", "dyson.evolve_vector", "dyson.evolve_adjoint")
APRIORI = ("dyson.apriori_tail", "dyson.apriori_bound")
COUNT_KEYS = ("orders", "panels", "columns", "node_matvecs", "flop", "bytes")


def _self(*names):
    return ("self", names)


def _calls(*names):
    return ("calls", names)


# (metric name, unit, derivation from one traced pass).  Counts and computed
# work come from the results of the outermost series calls.
LAYER_METRICS = (
    ("dyson.apriori.calls", "count", _calls(*APRIORI)),
    ("dyson.apriori.self_s", "s", _self(*APRIORI)),
    ("dyson.series.calls", "count", _calls(*SERIES)),
    ("dyson.series.self_s", "s", _self(*SERIES)),
    ("dyson.series.orders", "count", ("count", "orders")),
    ("dyson.series.panels", "count", ("count", "panels")),
    ("dyson.series.columns", "count", ("count", "columns")),
    ("dyson.series.node_matvecs", "count", ("count", "node_matvecs")),
    ("dyson.series.gflop_computed", "GFLOP", ("giga", "flop")),
    ("dyson.series.gb_computed", "GB", ("giga", "bytes")),
    ("dyson.series.gflops", "GFLOP/s", ("rate", "flop")),
    ("dyson.default_grid.calls", "count", _calls("dyson.default_grid")),
    ("dyson.default_grid.self_s", "s", _self("dyson.default_grid")),
    ("dyson.coupled_gap.self_s", "s", _self("dyson.coupled_gap")),
    ("suite.dense_propagator.self_s", "s", _self("suite.dense_propagator")),
    ("graded.certify.calls", "count", _calls("graded.certify")),
    ("graded.certify.self_s", "s", _self("graded.certify")),
    ("graded.support_level.calls", "count", _calls("graded.support_level")),
    ("graded.support_level.self_s", "s", _self("graded.support_level")),
    ("dyson.free_propagator.self_s", "s", _self("dyson.free_propagator")),
    ("evolution.schrodinger_trajectory.self_s", "s",
     _self("evolution.schrodinger_trajectory")),
    ("qed.build_model.self_s", "s", _self("qed.build_model")),
    ("qed.eta_unitarity_check.self_s", "s", _self("qed.eta_unitarity_check")),
    ("fock.top_sector_fraction.calls", "count", _calls("fock.top_sector_fraction")),
    ("fock.top_sector_fraction.self_s", "s", _self("fock.top_sector_fraction")),
    ("oracles.oracle_propagator.self_s", "s", _self("oracles.oracle_propagator")),
    ("oracles.ode_oracle.self_s", "s", _self("oracles.ode_oracle")),
)


class Recorder:
    """Spans of every traced pass, plus per-pass totals by span name."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.pass_no = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, name id, start, child time]
        self._series_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self.current_op = -1
        self.current_pass = -1
        self.new_pass()

    def new_pass(self) -> None:
        self.current_pass += 1
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts = dict.fromkeys(COUNT_KEYS, 0)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> None:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.current_op)
        self.pass_no.append(self.current_pass)
        self.end.append(0.0)
        now = time.perf_counter()
        self.start.append(now)
        self._stack.append([idx, nid, now, 0.0])

    def _exit(self) -> None:
        now = time.perf_counter()
        idx, nid, began, child = self._stack.pop()
        self.end[idx] = now
        dur = now - began
        name = self.names[nid]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if self._stack:
            self._stack[-1][3] += dur

    def span(self, name: str):
        """Context manager for the benchmark's own spans (ops and checks)."""
        return _Span(self, self._id(name))

    def _count(self, result) -> None:
        """Kernel counts of one series run, from fields of its result only."""
        sums = result.boundary_sums  # (P + 1, d) or (P + 1, d, m)
        dim = sums.shape[1]
        cols = sums.shape[2] if sums.ndim == 3 else 1
        n = result.achieved_order
        p, q = result.grid.panels, result.grid.nodes_per_panel
        matvecs = n * p * q * cols
        c = self.counts
        c["orders"] += n
        c["panels"] += p
        c["columns"] += cols
        c["node_matvecs"] += matvecs
        c["flop"] += 8 * dim * dim * matvecs
        c["bytes"] += n * 16 * (dim * dim + 2 * p * q * dim * cols)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        series = name in SERIES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(nid)
            self._series_depth += series
            try:
                result = fn(*args, **kwargs)
            finally:
                self._series_depth -= series
                self._exit()
            if series and self._series_depth == 0:
                self._count(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in every dysonprop namespace."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "dysonprop" or key.startswith("dysonprop."))
        ]
        for short, funcs in TRACED.items():
            home = sys.modules[f"dysonprop.{short}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of the current pass, keyed by metric name."""
        series_s = sum(self.self_s.get(n, 0.0) for n in SERIES)
        out: dict[str, float] = {}
        for metric, _, (kind, what) in LAYER_METRICS:
            if kind == "calls":
                out[metric] = sum(self.calls.get(n, 0) for n in what)
            elif kind == "self":
                out[metric] = sum(self.self_s.get(n, 0.0) for n in what)
            elif kind == "count":
                out[metric] = self.counts[what]
            elif kind == "giga":
                out[metric] = self.counts[what] / 1e9
            else:  # rate: computed work over series self time
                out[metric] = self.counts[what] / 1e9 / series_s
        return out

    def save(self, path) -> None:
        """Write every recorded span as compressed columns."""
        import numpy as np

        t0 = self.start[0] if len(self.start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            pass_no=np.frombuffer(self.pass_no, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64) - t0,
            end=np.frombuffer(self.end, dtype=np.float64) - t0,
        )


class _Span:
    def __init__(self, rec: Recorder, nid: int):
        self.rec, self.nid = rec, nid

    def __enter__(self):
        self.rec._enter(self.nid)

    def __exit__(self, *exc):
        self.rec._exit()
        return False
