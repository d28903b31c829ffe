"""Child process that times one workload's set-up, from a fresh interpreter.

Set-up is everything ``mirrormfld run`` pays before iteration 0: importing
the package, ``parse_config``, building the mirror map and the objective
(netrisk-box reads its dataset here) and ``initial_ensemble``.  For a
workload of several runs the per-run phases are summed.  Prints one JSON
object of phase times in seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED DATA_DIR   (PYTHONPATH=src)
"""
import time

_t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    import mirrormfld.cli  # noqa: F401  -- what the console script imports
    t_import = time.perf_counter()

    from mirrormfld import config as config_mod
    from mirrormfld.dynamics import initial_ensemble
    import workloads

    name, seed, data_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    raws = [json.dumps(raw) for raw in
            workloads.WORKLOADS[name].raw_configs(seed, data_dir, data_dir)]
    parse_s = build_s = init_s = 0.0
    clock = time.perf_counter
    for text in raws:
        t = clock()
        cfg = config_mod.parse_config(text)
        parse_s += clock() - t
        t = clock()
        mirror_map = config_mod.build_mirror_map(cfg)
        config_mod.build_objective(cfg)
        build_s += clock() - t
        t = clock()
        initial_ensemble(mirror_map, cfg.sampler.particles, cfg.seed,
                         ambient=cfg.sampler.kind != "mmfld")
        init_s += clock() - t
    import_s = t_import - _t0
    print(json.dumps({"import_s": import_s, "parse_s": parse_s, "build_s": build_s,
                      "init_s": init_s, "total_s": import_s + parse_s + build_s + init_s}))


if __name__ == "__main__":
    main()
