"""Layer spans and counters recorded from outside the package.

The tracer wraps public functions of `trilinear` at every name a caller
resolves them through: a function defined in one module and imported into
another (`trilinear.cli.sweep_unitaries` and `trilinear.protocols.
sweep_unitaries` are the same object) is replaced under each name by one
wrapper, so every call path is seen exactly once. Spans are kept in memory
and aggregated when the run ends.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from time import perf_counter

# span name -> (defining module, attribute); "Class.method" patches the class
LAYERS = {
    "config.parse": [("trilinear.config", "parse_config"),
                     ("trilinear.config", "validate_config")],
    "dynamics.sweep": [("trilinear.dynamics", "sweep_unitaries")],
    "dynamics.apply": [("trilinear.dynamics", "SweepResult.apply")],
    "protocols.wigner_scan": [("trilinear.protocols", "wigner_scan")],
    "protocols.adiabatic_parity": [("trilinear.protocols", "adiabatic_parity")],
    "protocols.embedding": [("trilinear.protocols", "normal_mode_embedding")],
    "protocols.readout": [("trilinear.protocols", "normal_mode_populations")],
    "protocols.sampling": [("trilinear.protocols", "measurement_channel")],
    "protocols.oscillation": [("trilinear.protocols", "oscillation_experiment")],
    "fock.guard_leak": [("trilinear.fock", "guard_leak")],
    "report.write_csv": [("trilinear.report", "write_csv")],
}

RUNNER = "cli.runner"


class Tracer:
    """In-memory span recorder. A span is [name, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.patched: list[str] = []
        self.missing: list[str] = []

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def current(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, perf_counter(), math.nan]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = perf_counter()
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, OSError) as e:
                    self.missing.append(f"{name} counters: {e!r}")
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYERS target, and count the numpy.linalg.eigh calls
        made inside the dynamics layer."""
        import numpy.linalg

        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                self._install_one(name, module_name, attr)

        eigh = numpy.linalg.eigh

        @functools.wraps(eigh)
        def counted_eigh(*args, **kwargs):
            if self.current().startswith("dynamics."):
                self.count("dynamics.eigh_calls")
            return eigh(*args, **kwargs)

        numpy.linalg.eigh = counted_eigh

    def _install_one(self, name: str, module_name: str, attr: str) -> None:
        module = sys.modules.get(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, leaf, None) if owner is not None else None
        if fn is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = self.wrap(name, fn, OBSERVERS.get(name))
        if owner_name:
            setattr(owner, leaf, wrapper)
            self.patched.append(f"{module_name}.{attr}")
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "trilinear"
                                   or mod_name.startswith("trilinear.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    self.patched.append(f"{mod_name}.{key}")

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (span
        minus the time its child spans cover), plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, dict] = {}
        roots = []
        for i, (name, parent, start, end) in enumerate(self.spans):
            agg = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            if parent < 0:
                roots.append(name)
        return {"layers": layers, "counts": dict(self.counts), "roots": roots,
                "patched": sorted(set(self.patched)),
                "missing": sorted(set(self.missing))}


def _observe_sweep(tracer: Tracer, args, kwargs, result) -> None:
    sectors = len(result.endpoint_bases)
    steps = max(1, math.ceil(result.schedule.duration / result.step - 1e-12))
    tracer.count("dynamics.sweep_sectors", sectors)
    tracer.count("dynamics.sweep_steps", steps)
    tracer.count("dynamics.sweep_sector_steps", sectors * steps)


def _observe_write_csv(tracer: Tracer, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    tracer.count("report.rows", len(rows))
    tracer.count("report.bytes", os.path.getsize(path))


OBSERVERS = {
    "dynamics.sweep": _observe_sweep,
    "report.write_csv": _observe_write_csv,
}
