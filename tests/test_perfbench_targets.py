"""The package still offers what the benchmark uses.

``perfbench/tracer.py`` wraps every attribute its ``_targets()`` and
``ITERATIONS`` name, plus ``runner.metrics_recorder``, and
``perfbench/run.py`` wraps ``diffusion_substep`` on both mirror maps.  A
renamed or deleted one still passes the untraced benchmark run
(``--trace 0``) and breaks only the traced one, so it is checked here.
The untraced run's own calls into the package are checked as signatures.
"""
import dataclasses
import importlib.util
import inspect
from pathlib import Path

from mirrormfld import config, dynamics, geometry, oracle, runner

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_patch_points_exist():
    tracer = _load_tracer()
    points = [(owner, attr) for owner, attr, _ in tracer._targets()]
    points += list(tracer.ITERATIONS)
    points.append((runner, "metrics_recorder"))
    points += [(cls, "diffusion_substep")
               for cls in (geometry.SimplexEntropyMap, geometry.BoxLogBarrierMap)]
    assert len(points) > 20
    missing = [f"{owner.__name__}.{attr}" for owner, attr in points
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"benchmark patch points missing from the package: {missing}"


# Each call the untraced benchmark makes into the package, with arguments of
# the same arity and keywords, and where it is made.
BENCHMARK_CALLS = [
    (dynamics.initial_ensemble, (None, 1, 0), {"ambient": False},
     "perfbench/setup_probe.py"),
    (oracle.build_grid, (64, 1e-4), {}, "perfbench/workloads.py"),
    (oracle.fixed_point_solve, (None, None, 0.1),
     {"damping": 0.5, "tol": 1e-8, "max_iter": 10}, "perfbench/workloads.py"),
    (oracle.grid_functionals, (None, None, None, 0.1), {}, "perfbench/workloads.py"),
    (runner.run_experiment, (None,), {"workers": 1}, "perfbench/run.py"),
    (runner.compare_runs, ({}, {}), {}, "perfbench/run.py"),
    (config.parse_config, ("{}",), {}, "perfbench/workloads.py, perfbench/setup_probe.py"),
    (config.build_mirror_map, (None,), {}, "perfbench/setup_probe.py"),
    (config.build_objective, (None,), {}, "perfbench/workloads.py, perfbench/setup_probe.py"),
]


def test_benchmark_calls_bind():
    # Removing a name or a parameter here (ROADMAP item 6 retires
    # initial_ensemble's ambient= and the oracle margin) must go together
    # with its caller under perfbench/.
    broken = []
    for fn, args, kwargs, where in BENCHMARK_CALLS:
        try:
            inspect.signature(fn).bind(*args, **kwargs)
        except TypeError as exc:
            broken.append(f"{fn.__module__}.{fn.__qualname__} as called from {where}: {exc}")
    fields = {f.name for f in dataclasses.fields(config.OracleSpec)}
    missing = {"resolution", "margin", "damping", "tol", "max_iter"} - fields
    if missing:
        broken.append(f"cfg.oracle fields read by perfbench/workloads.py: {sorted(missing)}")
    assert not broken, ("the benchmark calls the package in ways it no longer accepts "
                        "(change the perfbench/ caller with it, see ROADMAP item 6): "
                        f"{broken}")
