"""Benchmark workloads: configs built from the shipped presets, references, gates.

Each workload is one repetition unit of the closed loop: a fixed list of
run configs executed one after another through ``parse_config`` and
``run_experiment`` (the same path as ``mirrormfld run``).  Everything a
workload feeds the program is derived from the benchmark seed, so the same
seed reproduces the same inputs and, run by run, the same metrics CSVs.

``target_err`` is the accuracy of a repetition against an exact reference,
computed by the benchmark from the program's outputs:

* ``fig1-ab`` -- L-infinity distance between the mmfld final mean and the
  mean of the 64-grid oracle fixed point (solved once, untimed).
* ``dirichlet-50k``, ``simplex-d50`` -- largest relative error of the
  per-coordinate mean and variance against the stationary
  Beta(alpha_c, sum(alpha) - alpha_c) marginals.
* ``netrisk-box`` -- the settled objective F (mean over the ticks after the
  first ``SETTLE_TICKS``); zero labels on a symmetric box give F(mu*) = 0.

The reported value is the mean over the first ``min_reps`` repetitions,
each run from its own seed.  The step budgets are fixed, so the simplex
errors are dominated by the deterministic relaxation from the uniform start
rather than by Monte-Carlo noise: that keeps them steady across seeds, and a
change that alters the dynamics moves them.  The settled F is pure
Monte-Carlo noise of order 1/N, which is why netrisk-box averages over more
repetitions.  The Dirichlet workloads are additionally gated on
the exact moment trajectory of the continuous-time dynamics (a
Wright-Fisher diffusion with mutation, whose first two moments solve
linear ODEs), which checks the sampler itself rather than only its
distance from stationarity.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mirrormfld import config as config_mod
from mirrormfld import oracle

# sha256 of the metrics CSVs minus the wall_ms column, repetition 0 at seed 0
# (fig1-ab: the mmfld CSV followed by the projected one).  Bit-exactness is
# promised per platform and build, like the golden CSV under tests/data.
PINNED_DIGESTS = {
    "fig1-ab": "ae9d4ed597f9428cbb5945e5a019f23edf9eeac4c4f595997d2586f5d85c7de5",
    "dirichlet-50k": "97a0ba8bb3074b33f3dc7c3b510d5547b86ebbd99a0aaf6b2c1322818c11cfac",
}

# netrisk-box's F settles from the uniform start within about 50 iterations
SETTLE_TICKS = 50

# criterion 8's dataset: two rings of 8 points at radii 0.7 and 1.4
RING_RADII = (0.7, 1.4)
RING_POINTS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    particles: int
    dim: int
    steps: int          # iterations per run
    every: int          # diagnostics period
    workers: int
    min_reps: int       # repetitions target_err averages over (always run)
    err_budget: float   # gate on target_err
    moment_tol: float | None = None   # gate on the exact moment trajectory

    def raw_configs(self, seed: int, out_dir: str, data_dir: str) -> list[dict]:
        """Raw config dictionaries for one repetition, in run order."""
        return _BUILDERS[self.name](self, seed, out_dir, data_dir)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fig1-ab",
        why=("paper's headline A/B run: call-overhead-bound at m=2, half the "
             "Philox words are padding, diagnostics every step; the only "
             "projected-step workload"),
        particles=10_000, dim=3, steps=300, every=1, workers=1, min_reps=2,
        err_budget=0.08),
    Workload(
        name="dirichlet-50k",
        why=("criterion 3's shape and the largest tier-1 cost: array-bound, almost "
             "no diagnostics, the only workload on the 2-worker thread pool"),
        particles=50_000, dim=3, steps=200, every=10, workers=2, min_reps=2,
        err_budget=0.7, moment_tol=0.03),
    Workload(
        name="simplex-d50",
        why=("dense (N, m, m) Cholesky factor plus einsum dominate the step and "
             "lanes are nearly full: where matrix-free factors should show"),
        particles=2000, dim=50, steps=100, every=10, workers=1, min_reps=5,
        err_budget=0.4, moment_tol=0.25),
    Workload(
        name="netrisk-box",
        why=("objective-bound (three tanh passes per step) on the cheap diagonal "
             "box map; the only workload that reads a dataset at set-up"),
        particles=4000, dim=3, steps=1000, every=1, workers=1, min_reps=5,
        err_budget=5e-4),
)}


def rep_seed(seed: int, rep: int) -> int:
    """Seed of repetition ``rep``; repetition 0 runs the benchmark seed itself."""
    if rep == 0:
        return seed
    digest = hashlib.blake2b(f"{seed}/{rep}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def _fig1(w, seed, out_dir, data_dir):
    kw = dict(particles=w.particles, steps=w.steps, seed=seed, out_dir=out_dir)
    return [config_mod.preset_config("figure1-barrier", **kw),
            config_mod.preset_config("figure1-barrier-projected", **kw)]


def _dirichlet(w, seed, out_dir, data_dir):
    raw = config_mod.preset_config("dirichlet", alpha=(2.0,) * w.dim,
                                   particles=w.particles, steps=w.steps,
                                   seed=seed, out_dir=out_dir)
    # every=10 rather than the preset's 50: enough ticks per run for a tail
    # percentile, still under 2% of the step
    raw["diagnostics"]["every"] = w.every
    return [raw]


def _netrisk(w, seed, out_dir, data_dir):
    return [{
        "domain": {"kind": "box", "bounds": [[-3.0, 3.0]] * w.dim},
        "objective": {"kind": "mf-network-risk",
                      "dataset": str(Path(data_dir) / "two_rings.csv"),
                      "parameter_bound": 3.0},
        "sampler": {"kind": "mmfld", "eta": 0.1, "lambda": 0.1, "substeps": 1,
                    "steps": w.steps, "particles": w.particles},
        "seed": seed,
        "output": {"dir": out_dir, "dump_particles": False},
        "diagnostics": {"every": w.every, "boundary_epsilon": 1e-3},
    }]


_BUILDERS = {"fig1-ab": _fig1, "dirichlet-50k": _dirichlet,
             "simplex-d50": _dirichlet, "netrisk-box": _netrisk}


def write_inputs(data_dir: Path) -> None:
    """Write the generated input files (netrisk-box's dataset CSV)."""
    theta = np.arange(RING_POINTS) * np.pi / (RING_POINTS / 2)
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    features = np.concatenate([r * ring for r in RING_RADII])
    lines = ["z0,z1,y"] + [f"{float(a)!r},{float(b)!r},0.0" for a, b in features]
    (data_dir / "two_rings.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse(raw: dict):
    return config_mod.parse_config(json.dumps(raw))


# -- references -----------------------------------------------------------------

class Reference:
    """Exact reference of one workload; ``shift`` corrupts it (smoke test)."""

    def __init__(self, w: Workload, shift: float = 0.0):
        self.w = w
        self.shift = shift
        self.oracle_mean = None
        if w.name == "fig1-ab":
            cfg = parse(w.raw_configs(0, "unused", "unused")[0])
            objective = config_mod.build_objective(cfg)
            grid = oracle.build_grid(cfg.oracle.resolution, cfg.oracle.margin)
            solved = oracle.fixed_point_solve(
                grid, objective, cfg.sampler.temperature, damping=cfg.oracle.damping,
                tol=cfg.oracle.tol, max_iter=cfg.oracle.max_iter)
            fun = oracle.grid_functionals(grid, objective, solved.measure,
                                          cfg.sampler.temperature)
            self.oracle_mean = np.asarray(fun.mean) + shift

    def target_err(self, results) -> float:
        """Accuracy of one repetition (its list of RunResults)."""
        summary = results[0].summary
        if self.w.name == "fig1-ab":
            return float(np.max(np.abs(np.asarray(summary["mean"]) - self.oracle_mean)))
        if self.w.name == "netrisk-box":
            values = [row.objective_value for row in results[0].metrics
                      if row.iteration >= min(SETTLE_TICKS, self.w.steps)]
            return abs(float(np.mean(values)) - self.shift)
        alpha = self._alpha(summary)
        total = alpha.sum()
        mean_ref = alpha / total
        var_ref = alpha * (total - alpha) / (total ** 2 * (total + 1.0))
        return _max_rel_err(summary, mean_ref, var_ref)

    def moment_err(self, results) -> float | None:
        """Distance from the exact moment trajectory at t = steps * eta."""
        if self.w.moment_tol is None:
            return None
        summary = results[0].summary
        sampler = summary["config"]["sampler"]
        mean_ref, var_ref = jacobi_moments(self._alpha(summary), sampler["lambda"],
                                           sampler["steps"] * sampler["eta"])
        return _max_rel_err(summary, mean_ref, var_ref)

    def _alpha(self, summary):
        return np.asarray(summary["config"]["objective"]["alpha"]) + self.shift


def _max_rel_err(summary, mean_ref, var_ref) -> float:
    mean = np.asarray(summary["mean"])
    var = np.asarray(summary["variance"])
    return float(max(np.max(np.abs(mean - mean_ref) / mean_ref),
                     np.max(np.abs(var - var_ref) / var_ref)))


def jacobi_moments(alpha, temperature: float, t: float):
    """Per-coordinate mean and variance at time t from the uniform start.

    The continuous-time mirror dynamics for the Dirichlet(alpha) potential is
    the Wright-Fisher diffusion with generator
    lambda * [sum_c (alpha_c - A x_c) d_c + sum_ck x_c (delta_ck - x_k) d_ck],
    A = sum(alpha); so m' = lambda (alpha - A m) and
    M2' = 2 lambda (alpha + 1) m - 2 lambda (A + 1) M2, solved in closed form.
    """
    a = np.asarray(alpha, dtype=np.float64)
    total, d = a.sum(), a.size
    m0, m2_0 = 1.0 / d, 2.0 / (d * (d + 1.0))
    m_inf = a / total
    m2_inf = a * (a + 1.0) / (total * (total + 1.0))
    r1 = temperature * total
    r2 = 2.0 * temperature * (total + 1.0)
    m = m_inf + (m0 - m_inf) * np.exp(-r1 * t)
    forced = 2.0 * temperature * (a + 1.0) * (m0 - m_inf) / (r2 - r1)
    m2 = m2_inf + forced * np.exp(-r1 * t) + (m2_0 - m2_inf - forced) * np.exp(-r2 * t)
    return m, m2 - m * m
