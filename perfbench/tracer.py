"""In-memory span tracing of calls into the program's layers.

The tracer wraps public functions and methods of the ``repro`` package
from the outside (the program itself is not edited) and records one
span per call: name, start, end, parent span and op id.  Spans live in
compact arrays while a pass runs; :meth:`Tracer.aggregate` derives
per-layer call counts and self times (a span's duration minus the time
its direct child spans cover).

A target that no longer exists in the program (renamed or deleted by a
later change) is skipped and listed in :attr:`Tracer.missing`; its
metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Target:
    """One traced layer boundary.

    Attributes:
        name: the layer metric prefix (``apps.core_power``).
        path: ``module:attr`` or ``module:Class.method``; a ``+`` suffix
            on the class also wraps every subclass's own override.
        key: maps the call's arguments to a hashable key; distinct keys
            per pass give ``<name>.distinct_frac``.
        ok: maps the call's return value to success; the share of
            successful calls gives ``<name>.ok_frac``.
    """

    name: str
    path: str
    key: Optional[Callable[..., Any]] = None
    ok: Optional[Callable[[Any], bool]] = None


def _core_power_key(self, node, threads, frequency, temperature=80.0):
    return (self.name, node.name, threads, frequency, temperature)


TARGETS: tuple[Target, ...] = (
    Target("apps.core_power", "repro.apps.profile:AppProfile.core_power",
           key=_core_power_key),
    Target("power.at_node", "repro.power.model:CorePowerModel.at_node"),
    Target("power.power", "repro.power.model:CorePowerModel.power"),
    Target("mapping.ds_rem", "repro.mapping.dsrem:ds_rem"),
    Target("mapping.tdp_map", "repro.mapping.tdpmap:tdp_map"),
    Target("mapping.place", "repro.mapping.base:Placer+.place"),
    Target("thermal.build", "repro.thermal.builder:build_thermal_model"),
    Target("thermal.influence",
           "repro.thermal.model:ThermalModel.influence_matrix"),
    Target("thermal.steady",
           "repro.thermal.steady_state:SteadyStateSolver.temperatures"),
    Target("thermal.transient.step",
           "repro.thermal.transient:TransientSimulator.step"),
    Target("boosting.total_powers",
           "repro.boosting.simulation:PlacedWorkload.total_powers"),
    Target("boosting.controller_update",
           "repro.boosting.controller:BoostingController.update"),
    Target("boosting.run_boosting", "repro.boosting.simulation:run_boosting"),
    Target("boosting.best_constant_frequency",
           "repro.boosting.constant:best_constant_frequency"),
    Target("perf.peak_temperature",
           "repro.perf.batched:BatchedSteadyState.peak_temperature"),
    Target("core.safe_frequency",
           "repro.core.tsp:ThermalSafePower.safe_frequency"),
    Target("runtime.admit", "repro.runtime.policies:AdmissionPolicy+.admit",
           ok=lambda decision: decision is not None),
    Target("runtime.run", "repro.runtime.simulator:OnlineSimulator.run"),
)

#: ``op`` value of spans recorded outside any op (chip set-up).
SETUP_OP = -1


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Tracer:
    """Records spans of the :data:`TARGETS` while installed.

    Usage: ``install()`` once, ``start_pass()`` before each traced pass,
    set :attr:`op` around each op, ``aggregate()`` after the pass, and
    ``uninstall()`` to restore the original functions.
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.names = [t.name for t in targets]
        self.missing: list[str] = []
        self.op = SETUP_OP
        self._restore: list[tuple[Any, str, Any]] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.oks = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.keys: list[set] = [set() for _ in targets]
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------

    def start_pass(self) -> None:
        """Drop the spans of the previous pass (buffers are reused)."""
        for buf in (self.name_ids, self.parents, self.ops, self.oks,
                    self.starts, self.ends):
            del buf[:]
        for keys in self.keys:
            keys.clear()
        self._stack.clear()

    def _wrap(self, fn: Callable, tid: int, target: Target) -> Callable:
        names, parents, ops, oks = self.name_ids, self.parents, self.ops, self.oks
        starts, ends, stack = self.starts, self.ends, self._stack
        seen = self.keys[tid]
        key, ok = target.key, target.ok
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(tid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            oks.append(1)
            if key is not None:
                seen.add(key(*args, **kwargs))
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if ok is not None and not ok(result):
                oks[idx] = 0
            return result

        return traced

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        """Wrap every target; module-level functions are also replaced
        wherever another ``repro`` module imported them by name."""
        self.missing = []
        for tid, target in enumerate(self.targets):
            module_name, attr = target.path.split(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(target.name)
                continue
            if "." in attr:
                owner_name, method = attr.split(".")
                cls = getattr(module, owner_name.rstrip("+"), None)
                if cls is None:
                    self.missing.append(target.name)
                    continue
                classes = _subclasses(cls) if owner_name.endswith("+") else [cls]
                wrapped = 0
                for c in classes:
                    raw = c.__dict__.get(method)
                    if raw is None or getattr(raw, "__isabstractmethod__", False):
                        continue
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, tid, target))
                    elif isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(raw.__func__, tid, target))
                    else:
                        new = self._wrap(raw, tid, target)
                    self._restore.append((c, method, raw))
                    setattr(c, method, new)
                    wrapped += 1
                if not wrapped:
                    self.missing.append(target.name)
            else:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(target.name)
                    continue
                new = self._wrap(fn, tid, target)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("repro"):
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, name, fn))
                            setattr(mod, name, new)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """The current pass's spans as arrays (for writing out)."""
        # Copies: a live buffer view would stop the arrays from growing.
        return {
            "name": np.array(self.name_ids, dtype=np.int32),
            "parent": np.array(self.parents, dtype=np.int32),
            "op": np.array(self.ops, dtype=np.int32),
            "ok": np.array(self.oks, dtype=np.int8),
            "start": np.array(self.starts, dtype=np.float64),
            "end": np.array(self.ends, dtype=np.float64),
        }

    def aggregate(self) -> dict[str, float]:
        """Per-target metrics of the current pass.

        ``<name>.calls``, ``<name>.self_s`` and ``<name>.ops_self_s``
        (self time inside ops only), plus ``<name>.distinct_frac`` and
        ``<name>.ok_frac`` for targets with a key or ok function.
        """
        s = self.spans()
        n_targets = len(self.targets)
        dur = s["end"] - s["start"]
        child = np.zeros(len(dur))
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        in_op = s["op"] != SETUP_OP
        calls = np.bincount(s["name"], minlength=n_targets)
        self_s = np.bincount(s["name"], weights=self_time, minlength=n_targets)
        ops_self = np.bincount(
            s["name"][in_op], weights=self_time[in_op], minlength=n_targets
        )
        oks = np.bincount(
            s["name"], weights=s["ok"].astype(float), minlength=n_targets
        )
        out: dict[str, float] = {}
        for tid, target in enumerate(self.targets):
            n = int(calls[tid])
            out[f"{target.name}.calls"] = n
            out[f"{target.name}.self_s"] = float(self_s[tid])
            out[f"{target.name}.ops_self_s"] = float(ops_self[tid])
            if target.key is not None:
                out[f"{target.name}.distinct_frac"] = (
                    len(self.keys[tid]) / n if n else 0.0
                )
            if target.ok is not None:
                out[f"{target.name}.ok_frac"] = float(oks[tid]) / n if n else 0.0
        return out
