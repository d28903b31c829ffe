"""Experiment driver: diagnostics, file outputs, run comparison.

One run produces a metrics CSV (one row per diagnostics tick), a summary
JSON echoing the full config, and optionally the final particle cloud as
CSV for scatter plots.

Metrics CSV schema (fixed order, golden-tested)::

    iteration, objective, boundary_fraction, mean_0 .. mean_{d-1},
    coord_min, coord_max, wall_ms

Floats are written with ``repr`` so equal runs produce byte-identical
files; ``wall_ms`` is the only nondeterministic column.  Bit-exactness is
promised per platform and build, not across architectures.

The tick reads the ensemble's row-major (N, d) points.  A numpy pass along
their short rows runs its inner loop d elements wide, N times over, so each
per-particle reduction is taken column by column or by one whole-array
kernel, and names the numpy order it keeps: ``_row_min`` is
``np.min(axis=-1)`` as a running minimum over the columns (the box's wall
gaps taken column by column too), ``_column_mean`` is ``np.mean(axis=0)``'s
running column sums through ``einsum``.  The whole-array ``np.min`` and
``np.max`` stay as they are.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, build_mirror_map, build_objective
from .dynamics import ParticleEnsemble, initial_ensemble, run_sampler
from .errors import MismatchedObjectiveError

Array = np.ndarray

METRIC_COLUMNS = ("iteration", "objective", "boundary_fraction")
TAIL_COLUMNS = ("coord_min", "coord_max", "wall_ms")


@dataclass(frozen=True)
class MetricsRow:
    iteration: int
    objective_value: float
    boundary_fraction: float
    mean: tuple
    coord_min: float
    coord_max: float
    wall_ms: float


def boundary_fraction(ambient: Array, mirror_map, epsilon: float) -> float:
    """Share of particles within epsilon of the domain boundary."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    walls = None if mirror_map.kind == "simplex-entropy" else (mirror_map.lower, mirror_map.upper)
    return float(np.mean(_row_min(ambient, walls) < epsilon))


def _row_min(a: Array, walls=None) -> Array:
    """``np.min(a, axis=-1)`` as a running minimum over the columns, which is
    faster along a short last axis; bit-identical, NaN included.  With
    ``walls = (lower, upper)`` it is the row minimum of the wall gaps
    ``np.minimum(a - lower, upper - a)``, each column's gaps taken in turn
    instead of broadcasting the bounds across rows."""
    columns = a.T
    if walls is not None:
        columns = (np.minimum(x - lo, hi - x) for x, lo, hi in zip(columns, *walls))
    columns = iter(columns)
    out = next(columns)
    for col in columns:
        out = np.minimum(out, col)
    return out


def _column_mean(a: Array) -> Array:
    """``np.mean(a, axis=0)`` of an (N, d) array, bit for bit.

    On a C-contiguous array with d >= 2, numpy sums each column row after
    row and divides by N; ``einsum('ij->j')`` takes the same running sums in
    one whole-array kernel instead of N passes d elements wide.  At d = 1,
    or in another memory order, numpy sums pairwise, and ``np.mean`` is kept.
    """
    if a.shape[1] == 1 or not a.flags.c_contiguous:
        return np.mean(a, axis=0)
    return np.einsum("ij->j", a) / a.shape[0]


def metrics_recorder(mirror_map, objective, epsilon: float):
    """Build the per-iteration diagnostics callback used by ``run_sampler``.

    The objective value reads the ensemble's evaluation record, which the
    step from that ensemble shares.
    """
    clock = time.perf_counter
    start = clock()

    def record(ensemble: ParticleEnsemble) -> MetricsRow:
        ambient = ensemble.points
        return MetricsRow(
            iteration=ensemble.iteration,
            objective_value=objective.value(ensemble.evaluation(objective)),
            boundary_fraction=boundary_fraction(ambient, mirror_map, epsilon),
            mean=tuple(float(v) for v in _column_mean(ambient)),
            coord_min=float(np.min(ambient)),
            coord_max=float(np.max(ambient)),
            wall_ms=(clock() - start) * 1e3,
        )

    return record


def metrics_header(ambient_dim: int) -> list[str]:
    return list(METRIC_COLUMNS) + [f"mean_{c}" for c in range(ambient_dim)] \
        + list(TAIL_COLUMNS)


def write_metrics_csv(path, rows, ambient_dim: int) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(metrics_header(ambient_dim))
        for row in rows:
            writer.writerow([row.iteration, repr(row.objective_value),
                             repr(row.boundary_fraction),
                             *(repr(m) for m in row.mean),
                             repr(row.coord_min), repr(row.coord_max),
                             repr(row.wall_ms)])


def write_particles_csv(path, ambient: Array) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x_{c}" for c in range(ambient.shape[1])])
        for row in ambient:
            writer.writerow([repr(float(v)) for v in row])


@dataclass(frozen=True)
class RunResult:
    summary: dict
    metrics: tuple
    metrics_path: Path
    summary_path: Path
    particles_path: Path | None
    ensemble: ParticleEnsemble


def run_experiment(config: RunConfig, *, workers: int = 1) -> RunResult:
    """Execute one configured run and write its artifacts.

    Outputs land in ``config.out_dir`` as ``<label>_metrics.csv``,
    ``<label>_summary.json`` and optionally ``<label>_particles.csv``, with
    label ``<sampler>_seed<seed>``.  Output is written only after the full
    run succeeds, so no partial summary is left behind.
    """
    mirror_map = build_mirror_map(config)
    objective = build_objective(config)
    record = metrics_recorder(mirror_map, objective, config.boundary_epsilon)

    t0 = time.perf_counter()
    # the start goes straight in: no name here keeps its (N, d) points alive
    # once the run has moved past them
    ensemble, rows = run_sampler(
        initial_ensemble(mirror_map, config.sampler.particles, config.seed),
        mirror_map, objective, config.sampler, diagnostics=record, every=config.every,
        workers=workers)
    runtime = time.perf_counter() - t0

    final = rows[-1] if rows else record(ensemble)
    summary = {
        "version": __version__,
        "label": f"{config.sampler.kind}_seed{config.seed}",
        "sampler": config.sampler.kind,
        "seed": config.seed,
        "iterations": ensemble.iteration,
        "particles": config.sampler.particles,
        "workers": workers,
        "final_objective": final.objective_value,
        "final_boundary_fraction": final.boundary_fraction,
        "mean": list(final.mean),
        "variance": np.var(ensemble.points, axis=0).tolist(),
        "runtime_s": runtime,
        "config": config.to_dict(),
    }

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = summary["label"]
    metrics_path = out_dir / f"{stem}_metrics.csv"
    summary_path = out_dir / f"{stem}_summary.json"
    write_metrics_csv(metrics_path, rows, mirror_map.ambient_dim)
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    particles_path = None
    if config.dump_particles:
        particles_path = out_dir / f"{stem}_particles.csv"
        write_particles_csv(particles_path, ensemble.points)
    return RunResult(summary=summary, metrics=tuple(rows), metrics_path=metrics_path,
                     summary_path=summary_path, particles_path=particles_path,
                     ensemble=ensemble)


def compare_runs(*summaries: dict) -> dict:
    """Pairwise-comparable report over runs sharing an objective.

    Declares winners on final objective and final boundary fraction (lower
    is better for both).  Raises ``MismatchedObjectiveError`` when the runs
    optimize different objectives.
    """
    if len(summaries) < 2:
        raise ValueError("need at least two run summaries to compare")
    reference = summaries[0]["config"]["objective"]
    for s in summaries[1:]:
        if s["config"]["objective"] != reference:
            raise MismatchedObjectiveError(
                f"objective mismatch: {reference} vs {s['config']['objective']}")
    labels = [s.get("label", f"run{i}") for i, s in enumerate(summaries)]
    objectives = [s["final_objective"] for s in summaries]
    fractions = [s["final_boundary_fraction"] for s in summaries]
    baseline = summaries[0]
    return {
        "objective": reference,
        "runs": [{
            "label": lab,
            "sampler": s["sampler"],
            "seed": s["seed"],
            "final_objective": obj,
            "final_boundary_fraction": frac,
            "objective_delta": obj - baseline["final_objective"],
            "boundary_fraction_delta": frac - baseline["final_boundary_fraction"],
        } for lab, s, obj, frac in zip(labels, summaries, objectives, fractions)],
        "winner_final_objective": labels[int(np.argmin(objectives))],
        "winner_boundary_fraction": labels[int(np.argmin(fractions))],
    }


def load_summary(path) -> dict:
    """Read a run summary; the ``ValueError`` for any other file names the
    file, and for other JSON the first key it lacks or whose value is not a
    finite number (``json`` parses ``NaN`` and ``Infinity``)."""
    with open(path, encoding="utf-8") as fh:
        try:
            summary = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    for key in ("sampler", "seed", "final_objective", "final_boundary_fraction", "config"):
        if not isinstance(summary, dict) or key not in summary:
            raise ValueError(f"{path}: not a run summary (missing key {key!r})")
    if not isinstance(summary["config"], dict) or "objective" not in summary["config"]:
        raise ValueError(f"{path}: not a run summary (missing key 'config.objective')")
    for key in ("final_objective", "final_boundary_fraction"):
        value = summary[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"{path}: not a run summary ({key!r} is not a finite number: "
                             f"{value!r})")
    return summary
