"""What each metric means, and the prediction each per-layer metric carries.

Names, units and bounds live in ``BENCHMARK.json``.  The end-to-end metrics
(``--trace 0``):

* ``psteps_per_s`` -- particle-steps per second, N * steps / wall time of
  ``run_experiment``, output writing included; fig1-ab counts both runs.
* ``setup_s`` -- import + ``parse_config`` + map and objective build +
  ``initial_ensemble``, median of fresh interpreters.
* ``peak_mem_mb`` -- peak traced allocation (``tracemalloc``) of a short run.
* ``target_err`` -- accuracy against the workload's exact reference.

The per-iteration times go to the record line (the line before the result),
each with its unit, instead of the bounded set.  They come from the
tick-to-tick differences of the metrics CSV ``wall_ms`` column; for fig1-ab
the mmfld and projected ticks of one iteration are summed (one A/B step).
The speed of a shared two-core machine switches between levels 15-40% apart
for seconds to minutes at a time, and a percentile of one run's ticks
follows the level that run happened to get: over ten seeds the median's
spread reached 0.25 and the 10th percentile's 0.23, against 0.05-0.14 for
``psteps_per_s``, which averages the whole run.

* ``step_ms_p10``, ``step_ms_p50`` -- 10th percentile and median.
* ``step_ms_tail`` -- the highest percentile with at least ten ticks beyond
  it, with that percentile and the tick count.
* ``failed_frac`` -- zero for a correct program (a bounded metric must not
  be), so it is carried by the result's ``failed`` / ``attempted``.

For every per-layer metric (``--trace 1``), ``PER_LAYER`` lists the
end-to-end metrics and workloads a change to that layer is expected to move,
and the workloads where it should leave them unchanged -- written down
before any optimisation is measured.
"""

RECORD_LINE = {"step_ms_p10": "ms", "step_ms_p50": "ms", "step_ms_tail": "ms",
               "failed_frac": "1"}

# name: ([end-to-end metric@workload it should move], [workloads it should leave flat])
PER_LAYER = {
    "rngstream.normal_block.ms_per_step": (
        ["psteps_per_s@fig1-ab", "step_ms_p10@fig1-ab"],
        ["simplex-d50"]),
    "rngstream.words_per_step": (
        ["psteps_per_s@fig1-ab"],
        ["simplex-d50"]),
    "rngstream.useful_word_frac": (
        ["psteps_per_s@fig1-ab"],
        ["simplex-d50"]),
    "geometry.diffusion_substep.ms_per_step": (
        ["psteps_per_s@simplex-d50", "step_ms_p10@dirichlet-50k", "step_ms_p10@fig1-ab"],
        ["netrisk-box"]),
    "geometry.diffusion_substep.peak_mb": (
        ["peak_mem_mb@simplex-d50"],
        ["netrisk-box"]),
    "geometry.ambient_from_dual.calls_per_step": (
        ["step_ms_p10@dirichlet-50k", "step_ms_p10@fig1-ab"],
        ["netrisk-box"]),
    "geometry.ambient_from_dual.ms_per_step": (
        ["step_ms_p10@dirichlet-50k", "step_ms_p10@fig1-ab"],
        ["netrisk-box"]),
    "geometry.pullback.ms_per_step": (
        ["step_ms_p10@dirichlet-50k"],
        ["netrisk-box"]),
    "geometry.metric_from_dual.ms_per_step": (
        ["psteps_per_s@netrisk-box"],
        ["simplex-d50", "dirichlet-50k"]),
    "objectives.stats.ms_per_step": (
        ["psteps_per_s@netrisk-box"],
        ["simplex-d50"]),
    "objectives.potential_grad.ms_per_step": (
        ["psteps_per_s@netrisk-box"],
        ["simplex-d50"]),
    "objectives.value.ms_per_tick": (
        ["step_ms_p10@netrisk-box", "step_ms_p10@fig1-ab"],
        ["simplex-d50"]),
    "objectives.neuron_outputs.calls_per_step": (
        ["psteps_per_s@netrisk-box"],
        ["simplex-d50"]),
    "dynamics.self_ms_per_step": (
        ["psteps_per_s@dirichlet-50k", "psteps_per_s@fig1-ab"],
        []),
    "dynamics.project_simplex.ms_per_step": (
        ["psteps_per_s@fig1-ab"],
        ["dirichlet-50k", "simplex-d50", "netrisk-box"]),
    "dynamics.thread_busy_frac": (
        ["psteps_per_s@dirichlet-50k"],
        ["fig1-ab"]),
    "runner.diagnostics.ms_per_tick": (
        ["step_ms_p10@fig1-ab", "step_ms_p10@netrisk-box"],
        ["dirichlet-50k", "simplex-d50"]),
    "runner.write_outputs_ms": (
        ["psteps_per_s@fig1-ab", "psteps_per_s@netrisk-box"],
        ["dirichlet-50k", "simplex-d50"]),
    "config.import_s": (
        ["setup_s@fig1-ab",
         "setup_s@dirichlet-50k",
         "setup_s@simplex-d50",
         "setup_s@netrisk-box"],
        []),
    "config.parse_config_ms": (
        ["setup_s@fig1-ab", "setup_s@netrisk-box"],
        []),
    "config.build_ms": (
        ["setup_s@netrisk-box"],
        ["fig1-ab", "simplex-d50"]),
    "dynamics.initial_ensemble_ms": (
        ["setup_s@dirichlet-50k", "setup_s@fig1-ab"],
        ["netrisk-box"]),
    # traced / untraced step_ms_p10 of the same run, minus 1
    "trace_overhead_frac": (
        [],
        []),
}
