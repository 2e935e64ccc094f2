"""Spec sweeps: one base spec + a grid of dotted-path overrides.

``expand(spec, {"method.name": [...], "data.imbalance_factor": [...]})``
returns the cartesian product as fully validated specs — the declarative
replacement for hand-written benchmark grids (``python -m repro compare`` is
one ``expand`` over ``method.name``).

``run_sweep`` executes the grid — in this process, or with each grid point
one :func:`~repro.parallel.parallel_map` task on a fork pool (every run is
a pure function of its spec, so parallel and serial sweeps produce
identical results) — and returns a
:class:`SweepResult`: the per-point :class:`~repro.experiments.RunResult`
list plus dotted-path grouping with mean/std aggregation over
``config.seed`` (the multi-seed bookkeeping that used to live in
``benchmarks/_harness.py``).  ``python -m repro sweep`` drives it from the
command line.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.experiments.facade import RunResult, run
from repro.experiments.spec import ExperimentSpec
from repro.parallel import parallel_map, resolve_backend
from repro.simulation import history_from_dict, history_to_dict

__all__ = ["expand", "run_sweep", "run_point", "SweepResult", "SEED_AXIS"]

SWEEP_SCHEMA_VERSION = 1

#: the grid axis treated as replication rather than variation: grouping
#: collapses it and aggregation reports mean/std across it
SEED_AXIS = "config.seed"


def expand(spec: ExperimentSpec, grid: Mapping[str, Sequence]) -> list[ExperimentSpec]:
    """Expand ``spec`` over the cartesian product of a dotted-path grid.

    Args:
        spec: the base experiment every grid point starts from.
        grid: maps dotted override paths (``"method.name"``,
            ``"config.seed"``) to the values each axis takes.  Axis order in
            the mapping fixes enumeration order: the *last* axis varies
            fastest, like nested loops.

    Returns:
        One validated spec per grid point (just ``[spec]`` for an empty
        grid).  Invalid combinations raise immediately, not at run time.
    """
    axes = list(grid.items())
    for path, values in axes:
        if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
            raise ValueError(
                f"grid axis {path!r} must map to an iterable of values, "
                f"got {values!r}"
            )
    out = []
    for combo in itertools.product(*(list(v) for _, v in axes)):
        # one transaction per grid point, so axes that must change together
        # (e.g. runtime.kind + method.name) never trip mid-way validation
        out.append(spec.override_many(
            [(path, value) for (path, _), value in zip(axes, combo)]
        ))
    return out


@dataclass
class SweepResult:
    """Outcome of one :func:`run_sweep`: every grid point, plus aggregation.

    Attributes:
        base: the spec every point was derived from.
        grid: the expanded axes (``path -> list of values``).
        assignments: one ``{path: value}`` dict per grid point, in
            enumeration order (the last axis varies fastest).
        results: the matching :class:`~repro.experiments.RunResult` per
            point.
    """

    base: ExperimentSpec
    grid: dict = field(repr=False)
    assignments: list = field(repr=False)
    results: list = field(repr=False)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def group_axes(self) -> tuple:
        """Grid paths that define groups — every axis except the seed."""
        return tuple(path for path in self.grid if path != SEED_AXIS)

    def _grouped(self) -> dict:
        """Canonical-key grouping: ``key -> (original values, results)``.

        Axis values may be unhashable (``method.kwargs`` dicts, list-valued
        knobs); those contribute a canonical JSON form to the key while the
        original values are kept for reporting.
        """
        axes = self.group_axes
        out: dict[tuple, tuple] = {}
        for assignment, result in zip(self.assignments, self.results):
            values = tuple(assignment[a] for a in axes)
            key = tuple(_hashable(v) for v in values)
            out.setdefault(key, (values, []))[1].append(result)
        return out

    def groups(self) -> dict:
        """Results grouped by their non-seed axis values.

        Returns an insertion-ordered mapping from the tuple of
        :attr:`group_axes` values to the group's results (one per seed when
        the grid sweeps ``config.seed``, otherwise a singleton).
        Unhashable axis values (kwargs dicts) appear in their canonical
        JSON form.
        """
        return {key: results for key, (_, results) in self._grouped().items()}

    def aggregate(self, metrics: Mapping[str, Callable] | None = None) -> list[dict]:
        """Mean/std per group over the ``config.seed`` axis.

        Args:
            metrics: ``name -> callable(RunResult) -> float``; defaults to
                ``final`` / ``best`` accuracy.

        Returns:
            One row per group (enumeration order): the group's axis values
            under their dotted paths, ``n`` (runs aggregated, i.e. seeds),
            and ``<name>_mean`` / ``<name>_std`` per metric (population
            std, 0.0 for singleton groups).
        """
        if metrics is None:
            metrics = {
                "final": lambda r: r.final_accuracy,
                "best": lambda r: r.best_accuracy,
            }
        rows = []
        for values, results in self._grouped().values():
            row: dict = dict(zip(self.group_axes, values))
            row["n"] = len(results)
            for name, fn in metrics.items():
                vals = np.array([fn(r) for r in results], dtype=float)
                row[f"{name}_mean"] = float(vals.mean())
                row[f"{name}_std"] = float(vals.std())
            rows.append(row)
        return rows

    # -- persistence ---------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON-safe form: specs + full per-point histories.

        Every round record round-trips through the history schema
        (:func:`repro.simulation.history_to_dict`), so a loaded sweep
        regroups and re-aggregates identically; engines are never persisted
        (they are already dropped from sweep results).
        """
        return {
            "schema": SWEEP_SCHEMA_VERSION,
            "base": self.base.to_dict(),
            "grid": self.grid,
            "assignments": self.assignments,
            "results": [
                {
                    "spec": r.spec.to_dict(),
                    "history": history_to_dict(r.history),
                    "total_virtual_time": r.total_virtual_time,
                }
                for r in self.results
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepResult":
        """Rebuild a sweep from :meth:`to_dict` output."""
        schema = payload.get("schema")
        if schema != SWEEP_SCHEMA_VERSION:
            raise ValueError(
                f"sweep dump schema {schema!r} != {SWEEP_SCHEMA_VERSION}"
            )
        results = [
            RunResult(
                spec=ExperimentSpec.from_dict(r["spec"]),
                history=history_from_dict(r["history"]),
                final_params=None,
                total_virtual_time=r.get("total_virtual_time", 0.0),
                engine=None,
            )
            for r in payload["results"]
        ]
        return cls(
            base=ExperimentSpec.from_dict(payload["base"]),
            grid=dict(payload["grid"]),
            assignments=list(payload["assignments"]),
            results=results,
        )

    def save(self, path: str) -> None:
        """Write the lossless dump (``repro sweep --out``)."""
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1)

    @classmethod
    def load(cls, path: str) -> "SweepResult":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def _hashable(value):
    """A value usable in a group key: itself, or its canonical JSON form."""
    try:
        hash(value)
        return value
    except TypeError:
        return json.dumps(value, sort_keys=True, default=repr)


def run_point(spec: ExperimentSpec) -> RunResult:
    """Execute one grid point; engine dropped so the result crosses processes.

    The unit of work every parallel sweep dispatches (also used by the
    benchmark harness) — module-level so it pickles into pool workers.
    """
    result = run(spec)
    result.engine = None
    return result


def run_sweep(
    spec: ExperimentSpec,
    grid: Mapping[str, Sequence],
    backend: str | None = None,
    workers: int | None = None,
    verbose: bool = False,
    keep_engines: bool = False,
) -> SweepResult:
    """:func:`expand` the grid, run every point, aggregate into a
    :class:`SweepResult`.

    Args:
        backend: where grid points execute — a backend registry name, or
            None to resolve from ``workers`` / ``REPRO_BACKEND`` (serial by
            default).  ``"process"`` runs each point as one
            :func:`~repro.parallel.parallel_map` task; any other name runs
            the points one after another in this process.  Since a run is a
            pure function of its spec, parallel sweeps return the same
            ``SweepResult`` as serial ones.
        workers: worker count for the process pool.
        keep_engines: keep each result's engine (serial backend only —
            engines hold loaded datasets and cannot cross processes).

    Engines are dropped from the results by default — each one pins a fully
    loaded dataset and model, and a sweep would otherwise hold every grid
    point's copy in memory simultaneously.
    """
    axes = {path: list(values) for path, values in grid.items()}
    specs = expand(spec, axes)
    assignments = [
        dict(zip(axes, combo))
        for combo in itertools.product(*axes.values())
    ]
    name = resolve_backend(backend, workers, env=True)
    if keep_engines and name != "serial":
        raise ValueError(
            "keep_engines requires the serial backend: engines pin "
            "loaded datasets and cannot cross workers"
        )
    if name == "process":
        results = parallel_map(run_point, specs, workers=workers)
    else:
        results = []
        for s in specs:
            result = run(s, verbose=verbose)
            if not keep_engines:
                result.engine = None
            results.append(result)
    return SweepResult(base=spec, grid=axes, assignments=assignments, results=results)
