"""The benchmark's patch points exist in the package.

``perfbench/tracer.py`` wraps every attribute its ``_targets()`` and
``ITERATIONS`` name, plus ``runner.metrics_recorder``, and
``perfbench/run.py`` wraps ``diffusion_substep`` on both mirror maps.  A
renamed or deleted one still passes the untraced benchmark run
(``--trace 0``) and breaks only the traced one, so it is checked here.
"""
import importlib.util
from pathlib import Path

from mirrormfld import geometry, runner

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
