"""Span tracing of the library's public functions, from outside the library.

:class:`Tracer` replaces each function named in :data:`TRACED` with a thin
wrapper that records one span (name, start, end, parent span) per call, and
puts the originals back on :meth:`Tracer.uninstall`.  Nothing under ``src/``
is edited: a module-level function is re-bound in every ``repro.*`` module
that holds it, a method on its class and on each subclass that overrides
it.  Spans stay in memory while the workload runs and are written out once
at the end; a function's self time is its spans' duration minus the part
covered by spans nested inside them.

Each :data:`TRACED` row is one traced function: its metric name (prefixed
by its layer, ``src/repro/<layer>``), where it lives, the end-to-end metric
a change to it should move, and the workloads that exercise it.  Every row
yields ``<name>.calls`` (an exact count) and ``<name>.self_s``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import numpy as np

# (metric name, module, attribute, end-to-end metric it moves, workloads)
TRACED: tuple[tuple[str, str, str, str, str], ...] = (
    ("experiments.build", "repro.experiments.facade", "build",
     "setup_s", "sync-mlp sync-conv fedbuff-pool-rec"),
    ("data.load_federated_dataset", "repro.data.registry",
     "load_federated_dataset", "setup_s", "sync-mlp sync-conv fedbuff-pool-rec"),
    ("nn.forward_backward", "repro.nn.train", "forward_backward",
     "run_s", "sync-mlp sync-conv async-100k"),
    ("nn.Conv2d.forward", "repro.nn.conv", "Conv2d.forward",
     "updates_per_s", "sync-conv"),
    ("nn.Conv2d.backward", "repro.nn.conv", "Conv2d.backward",
     "updates_per_s", "sync-conv"),
    ("nn.GroupNorm.forward", "repro.nn.norm", "GroupNorm.forward",
     "updates_per_s", "sync-conv"),
    ("nn.GroupNorm.backward", "repro.nn.norm", "GroupNorm.backward",
     "updates_per_s", "sync-conv"),
    ("nn.Dense.forward", "repro.nn.layers", "Dense.forward",
     "updates_per_s", "sync-mlp async-100k"),
    ("nn.Dense.backward", "repro.nn.layers", "Dense.backward",
     "updates_per_s", "sync-mlp async-100k"),
    ("nn.ReLU.forward", "repro.nn.layers", "ReLU.forward",
     "updates_per_s", "sync-mlp sync-conv"),
    ("nn.ReLU.backward", "repro.nn.layers", "ReLU.backward",
     "updates_per_s", "sync-mlp sync-conv"),
    ("simulation.load_params", "repro.simulation.context",
     "SimulationContext.load_params", "updates_per_s", "sync-mlp"),
    ("simulation.flat_gradient", "repro.simulation.context",
     "SimulationContext.flat_gradient", "updates_per_s", "sync-mlp"),
    ("simulation.evaluate_into_record", "repro.simulation.engine",
     "evaluate_into_record", "run_s", "all"),
    ("algorithms.client_update", "repro.algorithms.base",
     "FederatedAlgorithm.client_update", "updates_per_s",
     "sync-mlp sync-conv async-100k"),
    ("algorithms.aggregate", "repro.algorithms.base",
     "FederatedAlgorithm.aggregate", "run_s", "sync-mlp sync-conv"),
    ("core.GlobalMomentum.update", "repro.core.momentum",
     "GlobalMomentum.update", "run_s", "sync-mlp sync-conv"),
    ("runtime.VirtualClock.push_many", "repro.runtime.clock",
     "VirtualClock.push_many", "updates_per_s", "async-100k fedbuff-pool-rec"),
    ("runtime.VirtualClock.schedule", "repro.runtime.clock",
     "VirtualClock.schedule", "updates_per_s", "async-100k fedbuff-pool-rec"),
    ("runtime.VirtualClock.pop", "repro.runtime.clock",
     "VirtualClock.pop", "updates_per_s", "all"),
    ("runtime.LatencyModel.sample_many", "repro.runtime.clock",
     "LatencyModel.sample_many", "updates_per_s", "async-100k fedbuff-pool-rec"),
    ("runtime.LatencyModel.latency", "repro.runtime.clock",
     "LatencyModel.latency", "updates_per_s", "async-100k fedbuff-pool-rec"),
    ("parallel.execute_job", "repro.parallel.backend", "execute_job",
     "updates_per_s", "sync-mlp sync-conv async-100k"),
    ("parallel.ProcessPoolBackend.submit_many", "repro.parallel.backend",
     "ProcessPoolBackend.submit_many", "updates_per_s", "fedbuff-pool-rec"),
    ("parallel.ProcessPoolBackend.collect", "repro.parallel.backend",
     "ProcessPoolBackend.collect", "updates_per_s", "fedbuff-pool-rec"),
    ("observe.snapshot_core", "repro.observe.snapshot", "snapshot_core",
     "run_s", "fedbuff-pool-rec"),
)

# the event-core phases engines expose through ``run(profiler=)``
PHASES = ("pick", "latency", "heap", "job_build", "submit", "collect",
          "apply", "eval", "other")

# per-layer metrics read from the run's own outputs rather than from spans,
# as (name, unit, better): pool transport counters (transport_stats),
# journaled job timing, recorder accounting, and the tracing overhead
COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("parallel.jobs", "count", "lower"),
    ("parallel.pool_tasks", "count", "lower"),
    ("parallel.shm_bytes_published", "bytes", "lower"),
    ("parallel.shm_bytes_saved", "bytes", "higher"),
    ("parallel.job.compute_s", "s", "lower"),
    ("parallel.job.queue_wait_s.p50", "s", "lower"),
    ("parallel.job.queue_wait_s.p95", "s", "lower"),
    ("parallel.job.pickle_bytes", "bytes", "lower"),
    ("observe.journal.hook_s", "s", "lower"),
    ("observe.artifact_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []
    for name, *_ in TRACED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [(f"runtime.phase.{p}_s", "s", "lower") for p in PHASES]
    out += list(COUNTERS)
    return out


def _class_and_subclasses(cls) -> list[type]:
    seen: list[type] = []
    stack = [cls]
    while stack:
        c = stack.pop()
        if c not in seen:
            seen.append(c)
            stack.extend(c.__subclasses__())
    return seen


class Tracer:
    """Records spans of the :data:`TRACED` functions between install/uninstall."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.current = -1
        # (owner, attribute, original) for every rebinding install made
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = len(tracer.names)
            tracer.names.append(name_id)
            tracer.parents.append(tracer.current)
            tracer.ends.append(0.0)
            tracer.current = i
            tracer.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ends[i] = clock()
                tracer.current = tracer.parents[i]

        return traced

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced function; pool workers forked later record nothing."""
        library = [m for name, m in list(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        for name_id, (_, module, path, _, _) in enumerate(TRACED):
            mod = importlib.import_module(module)
            if "." in path:
                cls_name, meth = path.split(".")
                for cls in _class_and_subclasses(getattr(mod, cls_name)):
                    if meth in vars(cls):
                        original = vars(cls)[meth]
                        self._rebind(cls, meth, original,
                                     self._wrap(original, name_id))
                continue
            original = getattr(mod, path)
            wrapped = self._wrap(original, name_id)
            # every library module holding the function, under any name, so
            # call sites that resolve it as a module global see the wrapper
            for m in library:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, attr, original, wrapped)
        os.register_at_fork(after_in_child=self._stop_in_child)
        self.active = True

    def _stop_in_child(self) -> None:
        self.active = False

    def uninstall(self) -> None:
        """Put every original back, in reverse order of wrapping."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every name install rebound holds its original again."""
        return all(vars(owner)[attr] is original
                   for owner, attr, original in self._patches)

    def layer_stats(self) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` for every traced function."""
        names = np.asarray(self.names, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends, dtype=np.float64) - np.asarray(
            self.starts, dtype=np.float64)
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=dur[nested],
                              minlength=len(dur))
        calls = np.bincount(names, minlength=len(TRACED))
        self_s = np.bincount(names, weights=dur - covered, minlength=len(TRACED))
        out: dict[str, float] = {}
        for i, (name, *_) in enumerate(TRACED):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        return out

    def save(self, path: str) -> None:
        """Write the span table out, once the workload has finished."""
        np.savez_compressed(
            path,
            names=np.array([row[0] for row in TRACED]),
            name_id=np.asarray(self.names, dtype=np.int32),
            parent=np.asarray(self.parents, dtype=np.int64),
            start=np.asarray(self.starts, dtype=np.float64),
            end=np.asarray(self.ends, dtype=np.float64),
        )
