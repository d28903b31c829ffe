"""Layered benchmark of the mirrormfld particle sampler.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One process runs a closed loop: repetitions of the workload's runs, one
after another, through ``parse_config`` and ``run_experiment`` (the path of
``mirrormfld run``), for ``--seconds`` and at least the workload's
``min_reps`` repetitions.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: set-up
is timed in fresh interpreters (median of several), peak memory in a
separate short ``tracemalloc`` pass, and the timed loop runs the program
unmodified.  ``--trace 1`` reports the per-layer metrics (meanings and
predictions in ``metrics.py``): repetitions alternately untraced and under
the outside-in tracer, and checks that tracing changed no byte of the metrics
CSV (minus ``wall_ms``).  Every repetition passes a correctness gate or
counts as failed.  The last stdout line is the result object; the line
before it records provenance.  Scratch files go to ``.perfbench/`` in the
checkout.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_CHILDREN = 5
MEM_STEPS = 10  # tracemalloc passes: every step allocates alike, so a few reach the peak
MIB = float(1 << 20)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steps", type=int, default=None,
                   help="override iterations per run (smoke runs)")
    p.add_argument("--particles", type=int, default=None,
                   help="override the particle count (smoke runs)")
    p.add_argument("--corrupt-reference", type=float, default=0.0,
                   help="shift the exact reference (checks that the gate fails)")
    return p.parse_args(argv)


# -- one repetition -----------------------------------------------------------------

def strip_wall(text: str) -> str:
    """Metrics CSV minus its last column (wall_ms), the deterministic part."""
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


def tick_series(text: str) -> list[float]:
    """ms per iteration between consecutive diagnostics ticks."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    its = [int(r[0]) for r in rows]
    wall = [float(r[-1]) for r in rows]
    return [(wall[i] - wall[i - 1]) / (its[i] - its[i - 1]) for i in range(1, len(rows))]


class Bench:
    def __init__(self, workload, seed: int, run_dir: Path, ref_shift: float):
        from mirrormfld import runner
        import workloads

        self.w = workload
        self.seed = seed
        self.run_dir = run_dir
        self.data_dir = run_dir / "data"
        self.data_dir.mkdir(parents=True)
        workloads.write_inputs(self.data_dir)
        self.runner = runner
        self.workloads = workloads
        self.reference = workloads.Reference(workload, shift=ref_shift)
        self.notes = []

    def run_rep(self, w, rep: int, tag: str, gate: bool = True) -> dict:
        """Run one repetition; returns timings, outputs and the gate verdict."""
        out_dir = self.run_dir / f"{tag}{rep}"
        seed = self.workloads.rep_seed(self.seed, rep)
        raws = w.raw_configs(seed, str(out_dir), str(self.data_dir))
        results, wall = [], 0.0
        try:
            configs = [self.workloads.parse(raw) for raw in raws]
            for cfg in configs:
                t0 = time.perf_counter()
                results.append(self.runner.run_experiment(cfg, workers=w.workers))
                wall += time.perf_counter() - t0
            texts = [r.metrics_path.read_text(encoding="utf-8") for r in results]
            rep_out = {
                "runs": len(configs), "wall_s": wall,
                "psteps": sum(c.sampler.particles * c.sampler.steps for c in configs),
                "series": [sum(v) for v in zip(*(tick_series(t) for t in texts))],
                "csv": "\n".join(strip_wall(t) for t in texts),
                "failed": 0, "raised": False, "target_err": None,
            }
            if gate:
                problems = self.gate(configs, results, texts, rep_out)
                if problems:
                    self.notes.append(f"{tag}{rep} (seed {seed}) failed the gate: "
                                      + "; ".join(problems))
                    rep_out["failed"] = len(configs)
            return rep_out
        except Exception:  # noqa: BLE001 -- a raising run is a failed run, not a crash
            self.notes.append(f"{tag}{rep} (seed {seed}) raised:\n"
                              + traceback.format_exc())
            return {"runs": len(raws), "failed": len(raws), "raised": True,
                    "wall_s": wall, "psteps": 0, "series": [], "csv": "",
                    "target_err": None}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def gate(self, configs, results, texts, rep_out) -> list[str]:
        import numpy as np

        problems = []
        for cfg, res, text in zip(configs, results, texts):
            rows = [line.split(",") for line in text.splitlines()[1:]]
            cells = np.array([[float(v) for v in r] for r in rows])
            if not np.all(np.isfinite(cells)):
                problems.append(f"{cfg.sampler.kind}: non-finite metrics CSV entry")
            points = res.ensemble.points
            if not np.all(np.isfinite(points)):
                problems.append(f"{cfg.sampler.kind}: non-finite final particles")
                continue
            coord_min, coord_max = cells[-1, -3], cells[-1, -2]
            if cfg.domain.kind == "simplex":
                inside = np.all(points > 0.0) and coord_min > 0.0 and coord_max < 1.0
            else:
                lo = np.array([b[0] for b in cfg.domain.bounds])
                hi = np.array([b[1] for b in cfg.domain.bounds])
                inside = np.all(points > lo) and np.all(points < hi)
            if not inside:
                problems.append(f"{cfg.sampler.kind}: final particles not strictly interior")
        if len(results) > 1:
            verdict = self.runner.compare_runs(*(r.summary for r in results))
            labels = {r.summary["label"] for r in results}
            if not {verdict["winner_final_objective"],
                    verdict["winner_boundary_fraction"]} <= labels:
                problems.append("compare_runs named a winner outside the runs")
        err = self.reference.target_err(results)
        rep_out["target_err"] = err
        if not err <= self.w.err_budget:
            problems.append(f"target_err {err:.4g} above budget {self.w.err_budget}")
        moment = self.reference.moment_err(results)
        if moment is not None and not moment <= self.w.moment_tol:
            problems.append(f"exact-moment error {moment:.4g} above {self.w.moment_tol}")
        return problems

    @staticmethod
    def loop(seconds: float, min_reps: int, unit) -> None:
        """Closed loop: ``unit(0)``, ``unit(1)``, ... back to back for ``seconds``.

        At least ``min_reps`` units run.  A further unit starts only if,
        lasting as long as the previous one, it would end within the window.
        """
        n = 0
        t0 = last = time.perf_counter()
        while n < min_reps or 2 * time.perf_counter() - last - t0 <= seconds:
            last = time.perf_counter()
            unit(n)
            n += 1

    # -- set-up and memory passes ---------------------------------------------------

    def setup_phases(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        samples = []
        for _ in range(SETUP_CHILDREN):
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), self.w.name,
                 str(self.seed), str(self.data_dir)],
                env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        return {k: statistics.median(s[k] for s in samples) for k in samples[0]}

    def peak_memory_mb(self) -> float:
        """Peak traced allocation of a short run at full N (also warms up)."""
        w = dataclasses.replace(self.w, steps=min(MEM_STEPS, self.w.steps))
        tracemalloc.start()
        try:
            rep = self.run_rep(w, 0, "mem", gate=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if rep["raised"]:
            raise RuntimeError("memory pass failed:\n" + "\n".join(self.notes))
        return peak / MIB

    def substep_peak_mb(self) -> float:
        """Largest allocation peak inside one diffusion_substep call (workers=1)."""
        from mirrormfld import geometry

        peaks = []
        saved = []

        def probe(fn):
            def wrapped(*args, **kwargs):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return wrapped

        w = dataclasses.replace(self.w, steps=min(MEM_STEPS, self.w.steps), workers=1)
        tracemalloc.start()
        try:
            for cls in (geometry.SimplexEntropyMap, geometry.BoxLogBarrierMap):
                saved.append((cls, cls.diffusion_substep))
                cls.diffusion_substep = probe(cls.diffusion_substep)
            rep = self.run_rep(w, 0, "mem", gate=False)
        finally:
            for cls, fn in saved:
                cls.diffusion_substep = fn
            tracemalloc.stop()
        if rep["raised"] or not peaks:
            raise RuntimeError("memory pass failed:\n" + "\n".join(self.notes))
        return max(peaks) / MIB


# -- aggregation --------------------------------------------------------------------

def tail(series: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 ticks beyond it."""
    ordered = sorted(series)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def p10(series: list[float]) -> float:
    """10th percentile of a tick series (see metrics.py)."""
    return statistics.quantiles(series, n=10)[0] if len(series) > 1 else math.nan


def provenance(w, seed: int) -> dict:
    import numpy
    import scipy
    from mirrormfld import __version__, rngstream

    def cache(index):
        try:
            path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
            return path.read_text().strip()
        except OSError:
            return "unavailable"

    revision = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        revision = proc.stdout.strip() or revision
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mirrormfld": __version__,
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache": cache(2), "l3_cache": cache(3),
        "rng_protocol": rngstream.PROTOCOL, "git_revision": revision,
        "workload": {"name": w.name, "particles": w.particles, "dim": w.dim,
                     "steps": w.steps, "every": w.every, "workers": w.workers,
                     "min_reps": w.min_reps, "seed": seed},
        "note": "byte counts are computed from array shapes; no bandwidth claims",
    }


def measure_end_to_end(bench: Bench, seconds: float):
    w = bench.w
    setup = bench.setup_phases()
    peak_mb = bench.peak_memory_mb()
    reps = []
    bench.loop(seconds, w.min_reps, lambda i: reps.append(bench.run_rep(w, i, "run")))
    ok = [r for r in reps if not r["raised"]]
    series = [v for r in ok for v in r["series"]]
    errs = [r["target_err"] for r in reps[:w.min_reps]]
    problems = []
    if any(e is None for e in errs):
        target_err = math.nan
        problems.append("a repetition that target_err averages over raised")
    else:
        target_err = statistics.fmean(errs)
        if not target_err <= w.err_budget:
            problems.append(f"target_err {target_err:.4g} above budget {w.err_budget}")
    tail_ms, tail_pct = tail(series) if series else (math.nan, math.nan)
    metrics = {
        "psteps_per_s": sum(r["psteps"] for r in ok) / sum(r["wall_s"] for r in ok)
        if ok else math.nan,
        "setup_s": setup["total_s"],
        "peak_mem_mb": peak_mb,
        "target_err": target_err,
    }
    # reported on the record line, outside the bounded set (see metrics.py)
    detail = {
        "step_ms_p10": {"value": p10(series), "unit": "ms"},
        "step_ms_p50": {"value": statistics.median(series) if series else math.nan,
                        "unit": "ms"},
        "step_ms_tail": {"value": tail_ms, "unit": "ms", "percentile": tail_pct,
                         "ticks": len(series)},
        "failed_frac": {"value": sum(r["failed"] for r in reps) / sum(r["runs"] for r in reps),
                        "unit": "1"},
        "reps": len(reps), "setup_phases_s": setup}
    return metrics, reps, problems, detail


def measure_layers(bench: Bench, seconds: float):
    import tracer

    w = bench.w
    setup = bench.setup_phases()
    substep_peak = bench.substep_peak_mb()
    spans = tracer.Tracer()
    plain, traced = [], []

    def pair(i):
        # untraced and traced repetitions of one seed alternate, so that slow
        # drift of the machine falls alike on both halves
        plain.append(bench.run_rep(w, i, "plain"))
        with spans.installed():
            traced.append(bench.run_rep(w, i, "traced"))

    bench.loop(seconds, 1, pair)
    spans.dump(bench.run_dir / "spans.jsonl")
    problems = []
    if plain[0]["raised"] or plain[0]["csv"] != traced[0]["csv"]:
        problems.append("traced pass changed the metrics CSV (minus wall_ms)")

    def step_ms(reps):
        return p10([v for r in reps for v in r["series"]])

    metrics = tracer.layer_metrics(spans.spans, workers=w.workers)
    metrics.update({
        "geometry.diffusion_substep.peak_mb": substep_peak,
        "config.import_s": setup["import_s"],
        "config.parse_config_ms": setup["parse_s"] * 1e3,
        "config.build_ms": setup["build_s"] * 1e3,
        "dynamics.initial_ensemble_ms": setup["init_s"] * 1e3,
        "trace_overhead_frac": step_ms(traced) / step_ms(plain) - 1.0,
    })
    detail = {"spans": len(spans.spans), "reps": len(plain) + len(traced),
              "setup_phases_s": setup}
    return metrics, plain + traced, problems, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mirrormfld" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'mirrormfld'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    overrides = {k: getattr(args, k) for k in ("steps", "particles")
                 if getattr(args, k) is not None}
    if overrides:
        steps = overrides.get("steps", w.steps)
        w = dataclasses.replace(w, **overrides, every=min(w.every, steps))
    run_dir = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    bench = Bench(w, args.seed, run_dir, args.corrupt_reference)

    if args.trace:
        values, reps, problems, detail = measure_layers(bench, args.seconds)
    else:
        values, reps, problems, detail = measure_end_to_end(bench, args.seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    pinned = workloads.PINNED_DIGESTS.get(w.name)
    digest = hashlib.sha256(reps[0]["csv"].encode()).hexdigest()
    if args.seed == 0 and pinned and not overrides and digest != pinned:
        problems.append(f"metrics CSV digest {digest} != pinned {pinned}")
    attempted = sum(r["runs"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = not failed and not problems
    for line in bench.notes + problems:
        print(f"perfbench: {line}", file=sys.stderr)
    unmeasured = sorted(k for k, v in values.items() if not math.isfinite(v))
    if unmeasured:
        print(f"perfbench: no measurement for {unmeasured}; no result", file=sys.stderr)
        return 1

    record = {"provenance": provenance(w, args.seed), "detail": detail,
              "rep0_csv_sha256": digest, "problems": problems + bench.notes}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    (run_dir / "result.json").write_text(json.dumps({**record, "result": result}, indent=2))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
