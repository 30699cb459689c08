"""Spans around the calls into lassokit's modules, recorded from outside.

The traced run replaces each public function at every module binding that
calls it (and a few methods on public classes) with a wrapper that records
one span: name, start, end, parent span and solve id.  Spans stay in flat
arrays in memory until the run ends.  `installed()` restores every binding
on exit, and a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (object holding the binding, attribute, span name, value recorded per span)
BINDINGS = [
    ("lassokit.solver", "project", "ball.project", None),
    ("lassokit.linesearch", "project", "ball.project", None),
    ("lassokit.arc", "project", "ball.project", None),
    ("lassokit.rootfind", "project", "ball.project", None),
    ("lassokit.duality", "project", "ball.project", None),
    ("lassokit.model", "face_of", "ball.face_of", None),
    ("lassokit.solver", "in_self_projection_cone", "ball.cone_test", bool),
    ("lassokit.solver", "max_step_on_face", "ball.max_step", None),
    ("lassokit.solver", "evaluate", "model.evaluate", None),
    ("lassokit.linesearch", "evaluate", "model.evaluate", None),
    ("lassokit.solver", "basis_init", "facebasis.basis_init", None),
    ("lassokit.solver", "apply_basis", "facebasis.apply", None),
    ("lassokit.solver", "apply_basis_adjoint", "facebasis.apply", None),
    ("lassokit.solver", "enumerate_arc", "arc.enumerate",
     lambda arc: len(arc.events)),
    ("lassokit.solver", "nonmonotone_armijo_backtrack", "linesearch.backtrack",
     lambda res: res.trials),
    ("lassokit.solver", "face_wolfe_search", "linesearch.face_wolfe",
     lambda res: res.status == "accepted"),
    # A failed trajectory search falls back to backtracking: wasted work.
    ("lassokit.solver", "trajectory_search", "linesearch.trajectory",
     lambda res: res.status != "failed"),
    ("lassokit.solver.LbfgsModel", "__init__", "solver.model_build", None),
    ("lassokit.solver.LbfgsModel", "direction", "solver.lbfgs.direction", None),
    ("lassokit.solver.LbfgsModel", "update", "solver.lbfgs.update", bool),
    ("lassokit.duality.StoppingOracle", "update", "duality.oracle", None),
    ("lassokit.duality", "best_certificate", "duality.certificate", None),
    ("lassokit.duality", "optimal_dual_lambda", "duality.optimal_lambda", None),
    ("lassokit.rootfind", "spg_solve", "solver.solve",
     lambda rep: rep.qn_steps),
    ("lassokit.rootfind", "hybrid_solve", "solver.solve",
     lambda rep: rep.qn_steps),
]


def resolve(path: str):
    """Module or class named by a dotted path such as lassokit.solver.LbfgsModel."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


def original(holder, attr: str):
    """The binding as stored: a class's own __dict__ entry, or a module attribute."""
    return holder.__dict__[attr] if isinstance(holder, type) else getattr(holder, attr)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.solve = array("i")
        self.value = array("d")
        self.current = -1
        self.solve_id = -1

    def wrap(self, name: str, fn, value=None):
        """`fn` recording one span per call, with `value(result)` if given."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = self.current
            self.name.append(nid)
            self.parent.append(parent)
            self.solve.append(self.solve_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.value.append(math.nan)
            self.current = idx
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.current = parent
                self.start[idx] = t0
                self.end[idx] = t1
            if value is not None:
                self.value[idx] = float(value(out))
            return out

        return traced

    @contextmanager
    def installed(self, bindings=BINDINGS):
        """Wrap every binding for the duration of the block, then restore."""
        saved = []
        try:
            for path, attr, name, value in bindings:
                holder = resolve(path)
                fn = original(holder, attr)
                saved.append((holder, attr, fn))
                setattr(holder, attr, self.wrap(name, fn, value))
            yield self
        finally:
            for holder, attr, fn in reversed(saved):
                setattr(holder, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "solve": np.frombuffer(self.solve, dtype=np.int32),
            "value": np.frombuffer(self.value, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child],
                              minlength=len(dur))
        return dur - covered

    def save(self, path) -> None:
        """Write the spans and the span-name table as one .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def stats(self, solves) -> dict[str, tuple[int, float, float]]:
        """Per span name over the given solve ids: (calls, self seconds, value sum)."""
        a = self.arrays()
        own = self.self_times()
        keep = np.isin(a["solve"], np.asarray(list(solves), dtype=np.int32))
        out = {}
        for nid, name in enumerate(self.names):
            sel = keep & (a["name"] == nid)
            vals = a["value"][sel]
            out[name] = (int(sel.sum()), float(own[sel].sum()),
                         float(np.nansum(vals)) if len(vals) else 0.0)
        return out
