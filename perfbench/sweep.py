"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py                       # every workload, seed 0, both passes
    python3 perfbench/sweep.py --seeds 10 --trace 0  # the steadiness check
    python3 perfbench/sweep.py --seeds 10 --trace 0 --baseline perfbench/baseline.json

Runs ``perfbench/run.py`` once per (seed, workload, pass), seeds outermost so
that slow drift of the machine spreads over every workload, and prints per
workload and metric the median, the quartiles and the spread -- the distance
between the first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them -- next to the metric's
bound in ``BENCHMARK.json`` and every run's value; ``!`` marks a spread
above a third of the bound.
``--baseline`` writes the same numbers as JSON, merged into the file's
existing entries for other workloads and passes.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    if len(values) < 2:
        return None, None, None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / abs(med) if med else None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=1, help="seeds 0 .. n-1")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", choices=("0", "1", "both"), default="both")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--baseline", type=Path, default=None)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    names = args.workloads.split(",")
    runs = {}
    for seed in range(args.seeds):
        for name in names:
            for trace in traces:
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=600)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode or len(lines) < 2:
                    print(f"{name} seed {seed} trace {trace}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}", file=sys.stderr)
                    return 1
                record, result = json.loads(lines[-2]), json.loads(lines[-1])
                runs.setdefault((name, trace), []).append(
                    {"seed": seed, "result": result, "record": record})
                verdict = "ok" if result["correct"] else "INCORRECT"
                print(f"# {name} seed {seed} trace {trace}: {verdict}, "
                      f"{result['failed']}/{result['attempted']} failed, "
                      f"{time.perf_counter() - t0:.1f} s", flush=True)

    old = json.loads(args.baseline.read_text()) if args.baseline and args.baseline.exists() else {}
    table = old.get("metrics", {})
    for (name, trace), items in runs.items():
        print(f"\n{name} (trace {trace}, {len(items)} runs)")
        for metric, first in items[0]["result"]["metrics"].items():
            values = [it["result"]["metrics"][metric]["value"] for it in items]
            q1, q3, s = spread(values)
            med = statistics.median(values)
            bound = bounds.get(metric) if trace == 0 else None
            flag = "!" if bound is not None and s is not None and s > bound / 3 else " "
            s_txt = "" if s is None else f"spread {s:7.4f}"
            b_txt = "" if bound is None else f" bound {bound}"
            print(f" {flag} {metric:44s} {med:12.6g} {first['unit']:6s} {s_txt}{b_txt}")
            print("     " + " ".join(f"{v:.5g}" for v in values))
            entry = table.setdefault(name, {})
            entry["workload"] = {k: v for k, v in
                                 items[0]["record"]["provenance"]["workload"].items()
                                 if k != "seed"}
            entry.setdefault(f"trace{trace}", {})[metric] = {
                "unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": s, "seeds": [it["seed"] for it in items], "values": values}
    if args.baseline:
        machine = {k: v for k, v in items[0]["record"]["provenance"].items()
                   if k != "workload"}
        out = {"seconds": args.seconds, "provenance": machine, "metrics": table}
        args.baseline.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
