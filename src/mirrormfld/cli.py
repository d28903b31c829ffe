"""Command-line interface.

Subcommands::

    run <config>        execute a configured sampler run (or --preset NAME)
    oracle <config>     solve the grid fixed point for the config's objective
    bounds ...          evaluate the convergence-bound calculators
    compare s1 s2 ...   compare run summaries, declaring winners
    selfcheck           fast invariant suite (round trips, oracles, streams)

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, config as config_mod, oracle, runner, theory
from .errors import ConfigError, MirrorMFLDError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load_run_config(args) -> config_mod.RunConfig:
    if bool(args.config) == bool(args.preset):
        raise ConfigError(["provide exactly one of a config file or --preset"])
    source = config_mod.preset_config(args.preset) if args.preset else args.config
    return _apply_overrides(config_mod.parse_config(source), args)


def _apply_overrides(cfg: config_mod.RunConfig, args) -> config_mod.RunConfig:
    raw = cfg.to_dict()
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "particles", None) is not None:
        raw["sampler"]["particles"] = args.particles
    elif getattr(args, "paper_scale", False):
        raw["sampler"]["particles"] = config_mod.PAPER_PARTICLES
    if getattr(args, "steps", None) is not None:
        raw["sampler"]["steps"] = args.steps
    if getattr(args, "out_dir", None) is not None:
        raw["output"]["dir"] = args.out_dir
    if getattr(args, "dump_particles", False):
        raw["output"]["dump_particles"] = True
    return config_mod.parse_config(raw)


def _cmd_run(args) -> int:
    if args.workers < 1:
        raise ConfigError([f"--workers must be >= 1 (got {args.workers})"])
    cfg = _load_run_config(args)
    result = runner.run_experiment(cfg, workers=args.workers)
    print(f"wrote {result.metrics_path}")
    print(f"wrote {result.summary_path}")
    if result.particles_path:
        print(f"wrote {result.particles_path}")
    print(json.dumps({k: result.summary[k] for k in
                      ("final_objective", "final_boundary_fraction", "mean")}, indent=2))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg = _load_run_config(args)
    domain = cfg.domain
    if (domain.kind, domain.dim) != ("simplex", 3):
        raise ConfigError([f"the grid oracle works on the 3-coordinate simplex: 'domain.kind' "
                           f"must be 'simplex' with 'domain.dim' 3 (got a {domain.kind!r} of "
                           f"dimension {domain.dim or len(domain.bounds)})"])
    objective = config_mod.build_objective(cfg)
    grid = oracle.build_grid(cfg.oracle.resolution, cfg.oracle.margin)
    result = oracle.fixed_point_solve(
        grid, objective, cfg.sampler.temperature, damping=cfg.oracle.damping,
        tol=cfg.oracle.tol, max_iter=cfg.oracle.max_iter)
    payload = oracle.export_solution(grid, objective, cfg.sampler.temperature, result)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "oracle.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    print(json.dumps({k: payload[k] for k in
                      ("residual", "iterations", "free_energy", "mean")}, indent=2))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    stability = theory.hessian_stability_factor(
        c1=args.c1, c2=args.c2, diameter=args.diameter,
        t=args.eta if args.window is None else args.window,
        drift_bound=args.m1, dim=args.dim, variant=args.variant,
        temperature=args.temperature if args.variant == "derivation" else None)
    factor = args.stability if args.stability is not None else (
        stability.expectation if math.isfinite(stability.expectation)
        else stability.deterministic)
    bias = theory.step_bias(eta=args.eta, drift_bound=args.m1, smoothness=args.m2,
                            temperature=args.temperature, dim=args.dim,
                            stability=factor)
    gap = theory.objective_gap_bound(
        initial_gap=args.gap0, lsi_constant=args.alpha, temperature=args.temperature,
        eta=args.eta, iterations=args.iterations, particles=args.particles,
        loss_smoothness=args.loss_smoothness, output_radius=args.radius, bias=bias)
    envelopes = theory.convergence_envelopes(
        lsi_constant=args.alpha, temperature=args.temperature,
        time=args.eta * args.iterations, initial_gap=args.gap0, initial_kl=args.gap0,
        loss_smoothness=args.loss_smoothness, output_radius=args.radius,
        particles=args.particles)
    payload = {
        "stability_factor": {"expectation": stability.expectation,
                             "deterministic": stability.deterministic,
                             "regime": stability.regime},
        "step_bias": bias,
        "objective_gap_bound": gap,
        "envelopes": {"free_energy_gap": envelopes.free_energy_gap,
                      "kl_divergence": envelopes.kl_divergence,
                      "particle_gap": envelopes.particle_gap},
    }
    # strict JSON: an infinite bound or the NaN expectation outside the
    # small-step regime (which ``regime`` names) is written as null
    text = json.dumps(_nonfinite_as_null(payload), indent=2, allow_nan=False)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


def _nonfinite_as_null(obj):
    """``obj`` with every infinite or NaN float inside its dicts made None."""
    if isinstance(obj, dict):
        return {k: _nonfinite_as_null(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _cmd_compare(args) -> int:
    summaries = [runner.load_summary(p) for p in args.summaries]
    report = runner.compare_runs(*summaries)
    print(json.dumps(report, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK


def _selfcheck_geometry(rng) -> list[str]:
    from .geometry import BoxLogBarrierMap, SimplexEntropyMap
    failures = []
    simplex = SimplexEntropyMap(ambient_dim=3)
    box = BoxLogBarrierMap(bounds=((-1.0, 2.0), (0.0, 1.0)))
    # the mirror maps take coordinate-first (m, N) batches
    for name, mm, pts in (
            ("simplex", simplex, rng.dirichlet((1, 1, 1), size=500)[:, :2].T),
            ("box", box, np.vstack([rng.uniform(-0.9, 1.9, 500),
                                    rng.uniform(0.05, 0.95, 500)]))):
        err = np.max(np.abs(mm.backward(mm.forward(pts)) - pts))
        if err > 1e-10:
            failures.append(f"{name} round trip error {err:.2e}")
        y = rng.uniform(-20, 20, size=(500, 2)).T
        back = mm.backward(y)
        err = np.max(np.abs(mm.forward(back) - y), axis=0)
        if name == "simplex":
            # near the x_d -> 0 face the reduced coordinates cannot represent
            # the pinned coordinate below machine resolution; the attainable
            # error there is eps / x_d, so the bound widens to that envelope
            smallest = np.min(mm.embed(back), axis=0)
            bound = np.maximum(1e-8, 8 * np.finfo(float).eps / smallest)
        else:
            bound = np.full_like(err, 1e-8)
        if np.any(err > bound):
            failures.append(f"{name} dual round trip error {np.max(err):.2e}")
        xi = rng.standard_normal((500, 2)).T
        _, ell = mm.metric_from_dual(y, 0.7)
        dense = np.einsum("ij...,j...->i...", ell, xi)
        scale = np.abs(y) + np.einsum("ij...,j...->i...", np.abs(ell), np.abs(xi))
        err = np.max(np.abs(mm.diffusion_substep(y, 0.7, xi) - (y + dense)) / scale)
        if err > 1e-12:
            failures.append(f"{name} kick differs from its dense factor by {err:.2e}")
        h, ell = mm.metric_from_dual(mm.forward(pts), 0.7)
        err = np.max(np.abs(np.einsum("ik...,jk...->ij...", ell, ell) - 0.7 * h))
        if err > 1e-10:
            failures.append(f"{name} factor error {err:.2e}")
    return failures


def _selfcheck_oracle() -> list[str]:
    from .objectives import MeanMatchBarrier
    failures = []
    grid = oracle.build_grid(16, 1e-4)
    if grid.n_nodes != 256:
        failures.append(f"grid node count {grid.n_nodes} != 256")
    if abs(float(np.sum(grid.volumes)) - math.sqrt(3) / 2) > 1e-10:
        failures.append("grid area mismatch")
    objective = MeanMatchBarrier(target=config_mod.FIGURE1_TARGET, beta=0.0)
    result = oracle.fixed_point_solve(grid, objective, 0.1)
    if result.residual > 1e-6:
        failures.append(f"fixed-point residual {result.residual:.2e}")
    sandwich = oracle.entropy_sandwich_check(grid, objective, 0.1,
                                             oracle.uniform_measure(grid),
                                             solution=result.measure)
    if not sandwich.passed:
        failures.append("entropy sandwich violated on uniform measure")
    return failures


def _selfcheck_streams() -> list[str]:
    from . import rngstream
    failures = []
    full = rngstream.normal_block(9, 4, 0, 0, 64, 3)
    part = rngstream.normal_block(9, 4, 0, 17, 41, 3)
    if not np.array_equal(full[:, 17:41], part):
        failures.append("stream slices disagree with the full block")
    again = rngstream.normal_block(9, 4, 0, 0, 64, 3)
    if not np.array_equal(full, again):
        failures.append("stream draws are not reproducible")
    return failures


def _cmd_selfcheck(_args) -> int:
    rng = np.random.default_rng(0)
    sections = (("geometry", lambda: _selfcheck_geometry(rng)),
                ("oracle", _selfcheck_oracle),
                ("streams", _selfcheck_streams))
    bad = 0
    for name, check in sections:
        failures = check()
        status = "PASS" if not failures else "FAIL"
        print(f"selfcheck {name}: {status}")
        for f in failures:
            print(f"  - {f}")
        bad += len(failures)
    return EXIT_OK if bad == 0 else EXIT_RUNTIME


def _finite_float(text: str) -> float:
    """argparse type for the calculators' constants: a float, neither
    infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number (got {text!r})")
    return value


def _add_config_arguments(p):
    p.add_argument("config", nargs="?", help="config file path or inline JSON")
    p.add_argument("--preset", choices=sorted(config_mod.PRESETS))
    p.add_argument("--out-dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mirrormfld", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a sampler run")
    _add_config_arguments(run_p)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--particles", type=int)
    run_p.add_argument("--steps", type=int)
    run_p.add_argument("--paper-scale", action="store_true",
                       help="use the full 50k-particle scale")
    run_p.add_argument("--dump-particles", action="store_true")
    run_p.add_argument("--workers", type=int, default=1)
    run_p.set_defaults(fn=_cmd_run)

    oracle_p = sub.add_parser("oracle", help="grid fixed-point solve + JSON export")
    _add_config_arguments(oracle_p)
    oracle_p.set_defaults(fn=_cmd_oracle)

    bounds_p = sub.add_parser("bounds", help="convergence-bound calculators")
    bounds_p.add_argument("--gap0", type=_finite_float, default=1.0)
    bounds_p.add_argument("--alpha", type=_finite_float, default=1.0,
                          help="log-Sobolev constant")
    bounds_p.add_argument("--temperature", "--lambda", dest="temperature",
                          type=_finite_float, default=0.1)
    bounds_p.add_argument("--eta", type=_finite_float, default=3e-3)
    bounds_p.add_argument("--iterations", type=int, default=1000)
    bounds_p.add_argument("--particles", type=int, default=50_000)
    bounds_p.add_argument("--loss-smoothness", type=_finite_float, default=1.0)
    bounds_p.add_argument("--radius", type=_finite_float, default=1.0)
    bounds_p.add_argument("--m1", type=_finite_float, default=1.0)
    bounds_p.add_argument("--m2", type=_finite_float, default=1.0)
    bounds_p.add_argument("--c1", type=_finite_float, default=0.0)
    bounds_p.add_argument("--c2", type=_finite_float, default=1.0)
    bounds_p.add_argument("--diameter", type=_finite_float, default=1.0)
    bounds_p.add_argument("--window", type=_finite_float,
                          help="t for the stability factor (defaults to one step, --eta)")
    bounds_p.add_argument("--dim", type=int, default=2)
    bounds_p.add_argument("--variant", choices=("statement", "derivation"),
                          default="statement")
    bounds_p.add_argument("--stability", type=_finite_float,
                          help="override the stability factor used in the bias")
    bounds_p.add_argument("--out")
    bounds_p.set_defaults(fn=_cmd_bounds)

    compare_p = sub.add_parser("compare", help="compare run summaries")
    compare_p.add_argument("summaries", nargs="+")
    compare_p.add_argument("--out")
    compare_p.set_defaults(fn=_cmd_compare)

    selfcheck_p = sub.add_parser("selfcheck", help="run the fast invariant suite")
    selfcheck_p.set_defaults(fn=_cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except MirrorMFLDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
