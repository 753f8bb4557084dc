"""Call counting and span recording around the layers of pe3d.

Wrappers are installed where callers look names up: every ``pe3d.*``
module attribute that is the layer's function object is replaced, so a
call through ``pe3d.estimates.norm_report`` or ``pe3d.dynamics.weighted_cg``
is seen as well as one through the defining module.  Nothing inside the
program is edited; removing the wrappers restores every attribute.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

#: layer name -> (defining module, function names).  experiments.write_csv
#: covers both CSV writers.
LAYERS = {
    "dynamics.step": ("pe3d.dynamics", ("step",)),
    "linalg.weighted_cg": ("pe3d.linalg", ("weighted_cg",)),
    "dynamics.nonlinear_B": ("pe3d.dynamics", ("nonlinear_B",)),
    "dynamics.cfl_dt": ("pe3d.dynamics", ("cfl_dt",)),
    "projection.project_H": ("pe3d.projection", ("project_H",)),
    "norms.norm_report": ("pe3d.norms", ("norm_report",)),
    "kicks.draw_kick": ("pe3d.kicks", ("draw_kick",)),
    "kicks.run_chain": ("pe3d.kicks", ("run_chain",)),
    "estimates.record_trajectory": ("pe3d.estimates", ("record_trajectory",)),
    "verification.verify_manufactured": ("pe3d.verification",
                                         ("verify_manufactured",)),
    "experiments.write_csv": ("pe3d.experiments",
                              ("write_trajectory_csv", "write_chain_csv")),
    "experiments.run_experiment": ("pe3d.experiments", ("run_experiment",)),
}

CG_LAYER = "linalg.weighted_cg"


class Patches:
    """Module attributes replaced by wrappers, restorable in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace_everywhere(self, original, wrapper) -> int:
        """Point every pe3d module attribute bound to ``original`` at
        ``wrapper``; returns how many attributes were replaced."""
        n = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "pe3d" or name.startswith("pe3d.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    n += 1
        return n

    def restore(self) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)


class StepCounter:
    """Bare counter around ``dynamics.step``; optionally keeps the last
    state of every run of consecutive steps (a run starts at step_count 0),
    which is how the manufactured-solution cases' final states are seen."""

    def __init__(self, keep_finals: bool = False):
        self.calls = 0
        self.keep_finals = keep_finals
        self.finals: list = []
        self._last = None

    def install(self, patches: Patches) -> None:
        original = sys.modules["pe3d.dynamics"].step

        @functools.wraps(original)
        def counted(state, *args, **kwargs):
            self.calls += 1
            if self.keep_finals and state.step_count == 0 and self._last is not None:
                self.finals.append(self._last)
            out = original(state, *args, **kwargs)
            if self.keep_finals:
                self._last = out
            return out

        if patches.replace_everywhere(original, counted) == 0:
            raise RuntimeError("pe3d.dynamics.step not found")

    def take_finals(self) -> list:
        """Final states since the last call, in the order they ended."""
        if self._last is not None:
            self.finals.append(self._last)
        out, self.finals, self._last = self.finals, [], None
        return out


class Recorder:
    """Spans (name, start, end, parent index) kept in memory, plus the
    operator applications counted through weighted_cg's apply_op callback."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_applies = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def _count_applies(self, cg):
        @functools.wraps(cg)
        def counting(apply_op, *args, **kwargs):
            def counted(x):
                self.op_applies += 1
                return apply_op(x)
            return cg(counted, *args, **kwargs)

        return counting

    def install(self, patches: Patches) -> None:
        for layer, (module, names) in LAYERS.items():
            for fname in names:
                # the current binding may already be a wrapper (StepCounter);
                # a layer that no longer exists records no calls
                original = getattr(sys.modules.get(module), fname, None)
                if original is None:
                    continue
                fn = self._count_applies(original) if layer == CG_LAYER else original
                patches.replace_everywhere(original, self._wrap(layer, fn))

    def table(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total seconds, and self seconds (span length
        minus the time its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for (name, t0, t1, _), child in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child
        return out
