"""Sampler mechanics: steps, projection, feasibility, determinism, streams."""
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrormfld import dynamics, rngstream
from mirrormfld.dynamics import (
    ParticleEnsemble,
    SamplerConfig,
    euclidean_step,
    initial_ensemble,
    inner_diffusion,
    project_simplex,
    run_sampler,
)
from mirrormfld.errors import SamplerError
from mirrormfld.geometry import SimplexEntropyMap
from mirrormfld.objectives import Evaluation, LinearPotential, MeanMatchBarrier

Q = (0.5, 0.3, 0.2)


def constant_potential():
    return LinearPotential(alpha=(1.0, 1.0, 1.0), reference_temperature=1.0)


# -- single steps -------------------------------------------------------------

def test_zero_drift_zero_noise_is_identity(simplex3):
    cfg = SamplerConfig(kind="mmfld", eta=0.1, temperature=0.0, steps=1)
    ens = ParticleEnsemble(points=np.array([[0.3, 0.3, 0.4], [0.2, 0.6, 0.2]]), seed=0)
    out, _ = run_sampler(ens, simplex3, constant_potential(), cfg)
    assert np.allclose(out.points, ens.points, atol=1e-14)
    assert out.iteration == 1


def test_zero_eta_is_identity_any_temperature(simplex3):
    cfg = SamplerConfig(kind="mmfld", eta=0.0, temperature=0.7, steps=1)
    ens = ParticleEnsemble(points=np.array([[0.25, 0.35, 0.4]]), seed=3)
    out, _ = run_sampler(ens, simplex3, MeanMatchBarrier(target=Q), cfg)
    assert np.allclose(out.points, ens.points, atol=1e-14)


def test_drift_step_composes_geometry_and_objective(simplex3):
    # single particle at the barycenter, lambda = 0: pure mirror drift
    cfg = SamplerConfig(kind="mmfld", eta=0.1, temperature=0.0, steps=1)
    ens = ParticleEnsemble(points=np.array([[1 / 3, 1 / 3, 1 / 3]]), seed=0)
    out, _ = run_sampler(ens, simplex3, MeanMatchBarrier(target=Q, beta=0.0), cfg)
    g_ambient = 2 * (np.array([1 / 3, 1 / 3, 1 / 3]) - np.array(Q))
    y = -0.1 * simplex3.pullback(g_ambient)
    assert out.dual.shape == (2, 1)
    assert np.allclose(out.dual[:, 0], y, atol=1e-14)
    assert np.allclose(out.points[0], simplex3.ambient_from_dual(y), atol=1e-14)


def test_inner_diffusion_zero_temperature(simplex3):
    y = np.array([[0.3], [-0.2]])
    out = inner_diffusion(y, simplex3, 0.0, 0.1, 5, lambda s: np.ones((2, 1)))
    assert np.array_equal(out, y)


def test_inner_diffusion_worked_cholesky_kick(simplex3):
    # barycenter, 2*lambda*h = 1, xi = (1, 0): one column of the factor
    y0 = np.zeros((2, 1))
    out = inner_diffusion(y0, simplex3, 0.5, 1.0, 1, lambda s: np.array([[1.0], [0.0]]))
    assert np.allclose(out[:, 0], [np.sqrt(6), 3 / np.sqrt(6)], atol=1e-12)


def test_inner_diffusion_covariance(simplex3):
    # Monte Carlo check of the one-substep covariance at run-scale window
    n = 100_000
    scale = 6e-4  # 2 * lambda * h at the shipped preset
    y0 = np.tile(simplex3.forward(np.array([0.25, 0.45]))[:, None], (1, n))
    xi = rngstream.normal_block(5, 0, 0, 0, n, 2)
    out = inner_diffusion(y0, simplex3, scale / 2, 1.0, 1, lambda s: xi)
    sample_cov = np.cov(out - y0)
    expect = scale * simplex3.metric_from_dual(y0[:, 0], 0.0)[0]
    assert np.max(np.abs(sample_cov - expect)) <= 0.03 * np.max(np.abs(expect))


def test_inner_diffusion_substep_count_consumes_distinct_draws(simplex3):
    y0 = np.zeros((2, 4))
    seen = []
    def draw(s):
        seen.append(s)
        return np.zeros((2, 4))
    inner_diffusion(y0, simplex3, 0.1, 0.2, 3, draw)
    assert seen == [0, 1, 2]


# -- projection ----------------------------------------------------------------

def test_project_simplex_worked_example():
    assert np.allclose(project_simplex(np.array([1.2, 0.3, 0.1])), [0.95, 0.05, 0.0])


def test_project_simplex_fixes_interior_points():
    x = np.array([1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(project_simplex(x), x)


def test_project_simplex_vertex_saturation():
    assert np.allclose(project_simplex(np.array([10.0, 0.0, 0.0])), [1.0, 0.0, 0.0])


def test_project_simplex_rows_sum_to_one(rng):
    v = rng.normal(scale=3.0, size=(500, 3))
    p = project_simplex(v.T)
    assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(p >= 0)


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([2, 3, 10, 50]), n=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-3, 1.0, 100.0]),
       offset=st.sampled_from([0.0, -5.0, 5.0]), ties=st.booleans(),
       zeros=st.integers(0, 6))
def test_project_simplex_is_the_euclidean_projection(d, n, seed, scale, offset, ties,
                                                     zeros):
    # coordinate-first batches: normals at three scales, shifted off the
    # simplex along (1, ..., 1) or not, with repeated values and exact zeros
    rng = np.random.default_rng(seed)
    v = offset + scale * rng.standard_normal((d, n))
    if ties:
        v[d // 2:] = v[0]
    v.flat[rng.integers(v.size, size=zeros)] = 0.0
    p = project_simplex(v)
    assert np.all(p >= 0.0)
    # each of up to d active entries v_c - theta carries an ulp of |v|, so
    # far outside (scale 100) the sum can only be 1 to about d * eps * |v|
    # (2.4e-12 at d = 50 with 26 tied maxima near 100)
    far = 8 * d * np.finfo(float).eps * np.max(np.abs(v))
    assert np.max(np.abs(p.sum(axis=0) - 1.0)) <= (far if scale == 100.0 else 1e-12)
    # optimality (KKT): p = max(v - theta, 0) for one theta per column, so
    # v - p is constant on the support and v <= theta off it
    tol = 1e-12 * max(1.0, float(np.max(np.abs(v))))
    for j in range(n):
        on = p[:, j] > 0.0
        theta = v[on, j] - p[on, j]
        assert np.ptp(theta) <= tol
        assert np.all(v[~on, j] <= theta[0] + tol)
        assert project_simplex(v[:, j]).tobytes() == p[:, j].tobytes()


def _reference_projection(v):
    """The sorted-threshold projection with its (d, N) running sums and
    active ranks held whole, the largest active rank found by ``argmax``."""
    cols = v.reshape(v.shape[0], -1)
    d, n = cols.shape
    s = np.sort(cols, axis=0)[::-1]
    cumsum = np.cumsum(s, axis=0)
    cumsum -= 1.0
    s *= np.arange(1, d + 1)[:, None]
    active = s > cumsum
    k_star = d - 1 - np.argmax(active[::-1], axis=0)
    theta = cumsum[k_star, np.arange(n)] / (k_star + 1)
    return np.maximum(cols - theta, 0.0).reshape(v.shape)


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from([2, 3, 10, 50]), n=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-3, 1.0, 100.0, 1e17]),
       offset=st.sampled_from([0.0, -5.0, 5.0]), ties=st.booleans(),
       zeros=st.integers(0, 6), negative_zeros=st.booleans())
def test_project_simplex_equals_sorted_threshold_reference(d, n, seed, scale, offset, ties,
                                                           zeros, negative_zeros):
    # equal as uint64 words, on batches and on single points; at scale 1e17
    # c_k - 1 rounds to c_k, so tied columns have no active rank at all
    rng = np.random.default_rng(seed)
    v = offset + scale * rng.standard_normal((d, n))
    if ties:
        v[d // 2:] = v[0]
    v.flat[rng.integers(v.size, size=zeros)] = -0.0 if negative_zeros else 0.0
    v_in = v.copy()
    expect = _reference_projection(v).view(np.uint64)
    assert np.array_equal(project_simplex(v).view(np.uint64), expect)
    assert np.array_equal(project_simplex(v[:, 0]).view(np.uint64), expect[:, 0])
    assert np.array_equal(v.view(np.uint64), v_in.view(np.uint64))


def test_projected_step_identity_without_noise(simplex3):
    cfg = SamplerConfig(kind="projected-mfld", eta=0.0, temperature=0.0, steps=1)
    pts = np.array([[0.3, 0.3, 0.4], [0.2, 0.6, 0.2]])
    out = euclidean_step(ParticleEnsemble(points=pts, seed=0), simplex3,
                         constant_potential(), cfg)
    assert np.allclose(out.points, pts, atol=1e-12)


def test_projected_step_keeps_simplex(simplex3):
    cfg = SamplerConfig(kind="projected-mfld", eta=3e-3, temperature=0.1, steps=1)
    ens = initial_ensemble(simplex3, 500, seed=1)
    out = euclidean_step(ens, simplex3, MeanMatchBarrier(target=Q, beta=1e-4), cfg)
    assert np.allclose(out.points.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(out.points > 0)


def test_euclidean_step_box_clips(rng):
    from mirrormfld.geometry import BoxLogBarrierMap
    box = BoxLogBarrierMap(bounds=((-1.0, 1.0),) * 2)
    cfg = SamplerConfig(kind="projected-mfld", eta=0.5, temperature=0.5, steps=1)
    pts = rng.uniform(-1, 1, size=(200, 2))
    obj = LinearPotential(alpha=(1.0, 1.0), reference_temperature=1.0)
    out = euclidean_step(ParticleEnsemble(points=pts, seed=2), box, obj, cfg)
    assert np.all(out.points > -1) and np.all(out.points < 1)


# -- initialization --------------------------------------------------------------

def test_initial_ensemble_uniform_law(simplex3):
    ens = initial_ensemble(simplex3, 200_000, seed=11)
    amb = ens.points
    assert np.all(amb > 0)
    assert np.allclose(amb.mean(axis=0), 1 / 3, atol=0.005)
    # Dirichlet(1,1,1) coordinate variance is 1/18
    assert np.allclose(amb.var(axis=0), 1 / 18, rtol=0.03)


def test_initial_ensemble_ambient_matches_intrinsic(simplex3):
    # the (N, d) draw agrees with the embedding of its intrinsic coordinates,
    # which is what the mirror sampler's state entry rebuilds
    ens = initial_ensemble(simplex3, 50, seed=4)
    assert ens.points.shape == (50, 3) and ens.dual is None
    assert np.allclose(simplex3.embed(ens.points[:, :2].T).T, ens.points)


def test_initial_ensemble_box():
    from mirrormfld.geometry import BoxLogBarrierMap
    box = BoxLogBarrierMap(bounds=((-3.0, 3.0),) * 3)
    ens = initial_ensemble(box, 10_000, seed=5)
    assert np.all(ens.points > -3) and np.all(ens.points < 3)
    assert np.allclose(ens.points.mean(axis=0), 0.0, atol=0.1)


# -- run_sampler ------------------------------------------------------------------

def test_zero_steps_returns_unchanged(simplex3):
    # zero steps only enter the mirror state; an ensemble already in it is
    # returned as it is
    ens = initial_ensemble(simplex3, 10, seed=0)
    cfg = SamplerConfig(kind="mmfld", eta=1e-2, temperature=0.1, steps=0)
    out, rows = run_sampler(ens, simplex3, MeanMatchBarrier(target=Q), cfg,
                            diagnostics=lambda e: e.iteration)
    assert rows == [] and out.iteration == ens.iteration
    assert np.array_equal(out.points, simplex3.embed(ens.points[:, :2].T).T)
    assert np.array_equal(out.dual, simplex3.forward(ens.points[:, :2].T))
    assert out.points.flags.c_contiguous and out.dual.flags.c_contiguous
    again, rows = run_sampler(out, simplex3, MeanMatchBarrier(target=Q), cfg,
                              diagnostics=lambda e: e.iteration)
    assert rows == [] and again is out


def test_dual_is_coordinate_first():
    # a row-major (N, m) dual from an older layout is rejected, not misread
    pts = np.full((4, 3), 1 / 3)
    with pytest.raises(ValueError, match=r"dual must be an \(m, 4\) array"):
        ParticleEnsemble(points=pts, dual=np.zeros((4, 2)))
    ens = ParticleEnsemble(points=pts.T.copy().T, dual=np.zeros((4, 2)).T)
    assert ens.points.flags.c_contiguous and ens.dual.flags.c_contiguous


def test_diagnostics_cadence(simplex3):
    ens = initial_ensemble(simplex3, 16, seed=0)
    cfg = SamplerConfig(kind="mmfld", eta=1e-3, temperature=0.1, steps=10)
    _, rows = run_sampler(ens, simplex3, MeanMatchBarrier(target=Q), cfg,
                          diagnostics=lambda e: e.iteration, every=4)
    assert rows == [0, 4, 8, 10]


def test_same_seed_identical_runs(simplex3):
    obj = MeanMatchBarrier(target=Q, beta=1e-4)
    cfg = SamplerConfig(kind="mmfld", eta=3e-3, temperature=0.1, steps=50)
    a, _ = run_sampler(initial_ensemble(simplex3, 300, seed=9), simplex3, obj, cfg)
    b, _ = run_sampler(initial_ensemble(simplex3, 300, seed=9), simplex3, obj, cfg)
    assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("workers", [2, 8])
def test_worker_count_invariance(simplex3, workers):
    obj = MeanMatchBarrier(target=Q, beta=0.0)
    cfg = SamplerConfig(kind="mmfld", eta=3e-3, temperature=0.1, steps=30)
    a, _ = run_sampler(initial_ensemble(simplex3, 500, seed=2), simplex3, obj, cfg)
    b, _ = run_sampler(initial_ensemble(simplex3, 500, seed=2), simplex3, obj, cfg,
                       workers=workers)
    assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("sampler", ["mmfld", "mfld"])
def test_worker_count_invariance_network(sampler):
    # every chunk reads row slices of the one record of the whole ensemble
    box, net = _rings_network()
    cfg = SamplerConfig(kind=sampler, eta=0.1, temperature=0.1, steps=5)
    start = initial_ensemble(box, 4001, seed=3)
    outs = [run_sampler(start, box, net, cfg, workers=w)[0] for w in (1, 2, 3, 8)]
    for out in outs[1:]:
        assert np.array_equal(out.points, outs[0].points)


def test_particle_permutation_equivariance(simplex3, rng):
    # same particles under a permuted labelling: outputs permute identically
    # when the noise rows are permuted with them (per-particle streams)
    obj = MeanMatchBarrier(target=Q, beta=0.0)
    cfg = SamplerConfig(kind="mmfld", eta=3e-3, temperature=0.1, steps=1)
    base = initial_ensemble(simplex3, 64, seed=7)
    perm = rng.permutation(64)

    stepped, _ = run_sampler(base, simplex3, obj, cfg)

    from mirrormfld import dynamics as dyn
    orig = dyn.rngstream.normal_block
    try:
        dyn.rngstream.normal_block = (
            lambda seed, it, sub, lo, hi, dim: orig(seed, it, sub, 0, 64, dim)[:, perm][:, lo:hi])
        permuted_ens = ParticleEnsemble(points=base.points[perm], seed=7)
        stepped_perm, _ = run_sampler(permuted_ens, simplex3, obj, cfg)
    finally:
        dyn.rngstream.normal_block = orig
    assert np.allclose(stepped_perm.points, stepped.points[perm], atol=1e-14)


@pytest.mark.parametrize("sampler", ["mmfld", "projected-mfld", "mfld"])
def test_run_sampler_looks_up_step_at_call_time(simplex3, monkeypatch, sampler):
    # outside-in tracers patch the step functions by module attribute, so
    # run_sampler must call whatever the module holds when it is called
    from mirrormfld import dynamics as dyn
    calls = {"_mirror_iteration": 0, "euclidean_step": 0}
    for name in calls:
        def counting(*args, _name=name, _step=getattr(dyn, name), **kwargs):
            calls[_name] += 1
            return _step(*args, **kwargs)
        monkeypatch.setattr(dyn, name, counting)
    cfg = SamplerConfig(kind=sampler, eta=1e-3, temperature=0.1, steps=7)
    run_sampler(initial_ensemble(simplex3, 16, seed=0), simplex3,
                MeanMatchBarrier(target=Q), cfg, workers=2)
    used = "_mirror_iteration" if sampler == "mmfld" else "euclidean_step"
    assert calls == {name: cfg.steps if name == used else 0 for name in calls}


def _rings_network():
    """Criterion 8's problem: a tanh network on two rings of 8 points."""
    from mirrormfld.geometry import BoxLogBarrierMap
    from mirrormfld.objectives import NetworkRisk
    theta = np.arange(8) * np.pi / 4
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    net = NetworkRisk(features=np.concatenate([0.7 * ring, 1.4 * ring]),
                      labels=np.zeros(16))
    return BoxLogBarrierMap(bounds=((-3.0, 3.0),) * 3), net


def _split_case(name):
    simplex = SimplexEntropyMap(ambient_dim=3)
    box, net = _rings_network()
    return {
        "mmfld-simplex": (simplex, MeanMatchBarrier(target=Q, beta=1e-4),
                          SamplerConfig(kind="mmfld", eta=3e-3, temperature=0.1)),
        "mmfld-box": (box, net, SamplerConfig(kind="mmfld", eta=0.1, temperature=0.1)),
        "projected-mfld": (simplex, MeanMatchBarrier(target=Q, beta=0.0),
                           SamplerConfig(kind="projected-mfld", eta=3e-3,
                                         temperature=0.1)),
        "mfld": (box, net, SamplerConfig(kind="mfld", eta=0.1, temperature=0.1)),
    }[name]


@pytest.mark.parametrize("case", ["mmfld-simplex", "mmfld-box", "projected-mfld", "mfld"])
def test_split_run_equals_unsplit_run(case):
    # K + K steps, feeding the returned ensemble back in, equal 2K steps:
    # the ensemble is the whole state of a run
    from mirrormfld.runner import metrics_recorder
    mirror_map, obj, cfg = _split_case(case)
    k, n, every = 100, 500, 10
    record = metrics_recorder(mirror_map, obj, 1e-3)

    def run(ens, steps):
        out, rows = run_sampler(ens, mirror_map, obj, replace(cfg, steps=steps),
                                diagnostics=record, every=every)
        return out, [replace(r, wall_ms=0.0) for r in rows]

    start = initial_ensemble(mirror_map, n, seed=4)
    whole, whole_rows = run(start, 2 * k)
    half, first_rows = run(start, k)
    split, second_rows = run(half, k)
    assert split.iteration == whole.iteration == 2 * k
    assert np.array_equal(split.points, whole.points)
    if cfg.kind == "mmfld":
        assert np.array_equal(split.dual, whole.dual)
    else:
        assert split.dual is None and whole.dual is None
    assert second_rows[0] == first_rows[-1]
    assert first_rows + second_rows[1:] == whole_rows


# -- one evaluation record per ensemble ----------------------------------------

@pytest.mark.parametrize("sampler", ["mmfld", "mfld"])
@pytest.mark.parametrize("every", [1, 10, None], ids=["every1", "every10", "no-diagnostics"])
def test_tanh_layer_runs_once_per_ensemble(monkeypatch, sampler, every):
    # the step and the tick of one ensemble share its record: K steps
    # evaluate ensembles 0..K-1, and the final tick adds ensemble K
    from mirrormfld.objectives import NetworkRisk
    from mirrormfld.runner import metrics_recorder
    box, net = _rings_network()
    calls = []
    outputs = NetworkRisk.neuron_outputs
    monkeypatch.setattr(NetworkRisk, "neuron_outputs",
                        lambda self, amb: calls.append(amb.shape) or outputs(self, amb))
    k = 20
    cfg = SamplerConfig(kind=sampler, eta=0.1, temperature=0.1, steps=k)
    diagnostics = None if every is None else metrics_recorder(box, net, 1e-3)
    run_sampler(initial_ensemble(box, 50, seed=1), box, net, cfg,
                diagnostics=diagnostics, every=every or 1, workers=2)
    assert len(calls) == (k if every is None else k + 1)
    assert set(calls) == {(50, 3)}


def test_evaluation_memo_is_outside_equality_repr_and_replace(simplex3):
    obj = MeanMatchBarrier(target=Q, beta=1e-4)
    ens = initial_ensemble(simplex3, 8, seed=0)
    before = repr(ens)
    record = ens.evaluation(obj)
    assert ens.evaluation(obj) is record
    assert repr(ens) == before
    assert ens == ParticleEnsemble(points=ens.points, seed=0)
    moved = replace(ens, iteration=1)
    assert moved.evaluation(obj) is not record


def test_second_objective_gets_its_own_record(simplex3):
    ens = initial_ensemble(simplex3, 8, seed=0)
    first = MeanMatchBarrier(target=Q, beta=0.0)
    twin = MeanMatchBarrier(target=Q, beta=0.0)   # equal, but not the same object
    other = LinearPotential(alpha=(2.0, 2.0, 2.0), reference_temperature=0.1)
    records = [ens.evaluation(o) for o in (first, twin, other)]
    assert len({id(r) for r in records}) == 3
    assert all(ens.evaluation(o) is r for o, r in zip((first, twin, other), records))
    assert records[2].stats is None


def test_feasibility_over_long_run(simplex3):
    # strict interiority of every particle after every step
    obj = MeanMatchBarrier(target=Q, beta=0.0)
    cfg = SamplerConfig(kind="mmfld", eta=3e-3, temperature=0.1, steps=1000)
    mins = []
    ens = initial_ensemble(simplex3, 2000, seed=123)
    run_sampler(ens, simplex3, obj, cfg,
                diagnostics=lambda e: mins.append(e.points.min()))
    assert min(mins) > 0.0


def test_sampler_error_carries_iteration(simplex3):
    class Broken:
        ambient_dim = 3
        kind = "mean-match-barrier"

        def stats(self, amb, weights=None):
            return Evaluation(amb, weights, np.zeros(3))

        def value(self, record):
            return 0.0

        def potential_grad(self, record):
            raise RuntimeError("boom")

    ens = initial_ensemble(simplex3, 4, seed=0)
    cfg = SamplerConfig(kind="mmfld", eta=1e-3, temperature=0.1, steps=3)
    with pytest.raises(SamplerError) as err:
        run_sampler(ens, simplex3, Broken(), cfg)
    assert err.value.iteration == 0


def test_diagnostics_failure_carries_tick_iteration(simplex3):
    def diagnostics(ens):
        if ens.iteration == 4:
            raise ValueError("bad tick")
        return ens.iteration

    ens = initial_ensemble(simplex3, 4, seed=0)
    cfg = SamplerConfig(kind="mmfld", eta=1e-3, temperature=0.1, steps=6)
    with pytest.raises(SamplerError, match="bad tick") as err:
        run_sampler(ens, simplex3, MeanMatchBarrier(target=Q, beta=0.0), cfg,
                    diagnostics=diagnostics, every=2)
    assert err.value.iteration == 4


# -- noise drawn ahead -----------------------------------------------------------

def _note_draw_threads(monkeypatch):
    """Record the thread name of every ``rngstream.normal_block`` call."""
    names = []
    draw = rngstream.normal_block

    def noting(*key):
        names.append(threading.current_thread().name)
        return draw(*key)

    monkeypatch.setattr(rngstream, "normal_block", noting)
    return names


def _helper_draws(names):
    return sum(name.startswith("mirrormfld-noise") for name in names)


def _hand_loop(start, mirror_map, obj, cfg, workers):
    """cfg.steps bare steps, each drawing its own noise in the step."""
    step = dynamics._mirror_iteration if cfg.kind == "mmfld" else euclidean_step
    ens, _ = run_sampler(start, mirror_map, obj, replace(cfg, steps=0))   # enters the dual
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for _ in range(cfg.steps):
            ens = step(ens, mirror_map, obj, cfg, pool=pool, chunks=workers)
    finally:
        if pool is not None:
            pool.shutdown()
    return ens


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["mmfld-substeps3", "projected-mfld", "mfld"])
def test_noise_drawn_ahead_changes_no_bit(monkeypatch, case, workers):
    # claim one core more than the workers, so that the helper runs at
    # every worker count on any machine
    monkeypatch.setattr(dynamics, "_cores", lambda: workers + 1)
    mirror_map, obj, cfg = _split_case("mmfld-simplex" if case == "mmfld-substeps3" else case)
    substeps = 3 if case == "mmfld-substeps3" else 1
    cfg = replace(cfg, substeps=substeps)
    k, n = 20, 300
    start = initial_ensemble(mirror_map, n, seed=5)
    expected = _hand_loop(start, mirror_map, obj, replace(cfg, steps=2 * k), workers)
    names = _note_draw_threads(monkeypatch)
    whole, _ = run_sampler(start, mirror_map, obj, replace(cfg, steps=2 * k), workers=workers)
    half, _ = run_sampler(start, mirror_map, obj, replace(cfg, steps=k), workers=workers)
    split, _ = run_sampler(half, mirror_map, obj, replace(cfg, steps=k), workers=workers)
    for got in (whole, split):
        assert got.iteration == expected.iteration == 2 * k
        assert np.array_equal(got.points, expected.points)
        if cfg.kind == "mmfld":
            assert np.array_equal(got.dual, expected.dual)
        else:
            assert got.dual is None and expected.dual is None
    # each block is drawn once: per chunk, a run's first block in the step,
    # every later one on the helper, so no guess was wrong
    chunks = len(dynamics._chunk_ranges(n, workers))
    assert len(names) == 4 * k * substeps * chunks
    assert _helper_draws(names) == len(names) - 3 * chunks


def test_noise_drawn_ahead_under_thread_stress(monkeypatch):
    # more chunk threads than cores, switching threads as often as the
    # interpreter allows: a lost entry of the look-ahead table would show as
    # a block drawn twice
    workers, k, n = 4, 8, 200
    monkeypatch.setattr(dynamics, "_cores", lambda: workers + 1)
    mirror_map, obj, cfg = _split_case("mmfld-simplex")
    cfg = replace(cfg, substeps=2, steps=k)
    start = initial_ensemble(mirror_map, n, seed=9)
    expected = _hand_loop(start, mirror_map, obj, cfg, workers)
    names = _note_draw_threads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got, _ = run_sampler(start, mirror_map, obj, cfg, workers=workers)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got.dual, expected.dual)
    assert len(names) == k * 2 * workers
    assert _helper_draws(names) == len(names) - workers


@pytest.mark.parametrize("workers, cores, temperature, helped", [
    (1, 2, 0.1, True), (1, 1, 0.1, False), (2, 2, 0.1, False), (2, 3, 0.1, True),
    (1, 2, 0.0, False)])
def test_helper_runs_only_with_noise_and_a_free_core(simplex3, monkeypatch, workers, cores,
                                                     temperature, helped):
    monkeypatch.setattr(dynamics, "_cores", lambda: cores)
    names = _note_draw_threads(monkeypatch)
    cfg = SamplerConfig(kind="mmfld", eta=1e-3, temperature=temperature, steps=5)
    run_sampler(initial_ensemble(simplex3, 64, seed=0), simplex3,
                MeanMatchBarrier(target=Q, beta=1e-4), cfg, workers=workers)
    assert (_helper_draws(names) > 0) == helped
    assert (len(names) > 0) == (temperature > 0)


class _FailsAtIteration:
    """MeanMatchBarrier whose gradient raises from the given iteration on
    (one gradient per step: no diagnostics, one worker)."""

    ambient_dim = 3
    kind = "mean-match-barrier"

    def __init__(self, iteration):
        self.inner, self.left = MeanMatchBarrier(target=Q, beta=1e-4), iteration

    def stats(self, amb, weights=None):
        return self.inner.stats(amb, weights)

    def value(self, record):
        return self.inner.value(record)

    def potential_grad(self, record):
        if self.left == 0:
            raise RuntimeError("gradient failed")
        self.left -= 1
        return self.inner.potential_grad(record)


@pytest.mark.parametrize("how", ["completes", "no-noise", "objective-raises",
                                 "diagnostics-raise"])
def test_no_thread_outlives_run_sampler(simplex3, monkeypatch, how):
    monkeypatch.setattr(dynamics, "_cores", lambda: 2)
    names = _note_draw_threads(monkeypatch)
    before = threading.enumerate()
    cfg = SamplerConfig(kind="mmfld", eta=1e-3, temperature=0.0 if how == "no-noise" else 0.1,
                        steps=6)
    obj = _FailsAtIteration(3) if how == "objective-raises" else MeanMatchBarrier(target=Q)

    def diagnostics(ens):
        if how == "diagnostics-raise" and ens.iteration == 4:
            raise ValueError("bad tick")
        return ens.iteration

    def run():
        return run_sampler(initial_ensemble(simplex3, 64, seed=0), simplex3, obj, cfg,
                           diagnostics=None if how == "objective-raises" else diagnostics)

    if how in ("completes", "no-noise"):
        run()
    else:
        with pytest.raises(SamplerError) as err:
            run()
        assert err.value.iteration == (3 if how == "objective-raises" else 4)
    assert threading.enumerate() == before
    assert (_helper_draws(names) > 0) == (how != "no-noise")


# -- memory held by one step ----------------------------------------------------

@pytest.mark.parametrize("kind, dim, n, budget, substeps", [
    pytest.param("mmfld", 50, 2000, 4.5, 1, id="mmfld-50-2000-4.5"),
    pytest.param("mmfld", 50, 2000, 4.5, 3, id="mmfld-50-2000-4.5-substeps3",
                 marks=pytest.mark.skipif(sys.version_info < (3, 11), reason=(
                     "the step frees the drifted dual by passing it unnamed, and "
                     "CPython before 3.11 holds a call's arguments until it returns"))),
    pytest.param("projected-mfld", 3, 10_000, 4.0, 1, id="projected-mfld-3-10000-4.0")])
def test_step_peak_memory_budget(kind, dim, n, budget, substeps):
    # the traced allocation peak of one step, outputs included, in arrays the
    # size of the (N, d) state.  The mirror step peaks as the kick's factor
    # gets its diagonal: the drifted dual (or the substep before), the noise
    # block, the ambient points and that diagonal, about four, at any number
    # of substeps.  The projected step peaks in the projection: the moved
    # points, their sorted copy and four rows of N.
    mirror_map = SimplexEntropyMap(ambient_dim=dim)
    obj = (LinearPotential(alpha=(2.0,) * dim, reference_temperature=0.1) if kind == "mmfld"
           else MeanMatchBarrier(target=Q, beta=1e-4))
    cfg = SamplerConfig(kind=kind, eta=1e-3, temperature=0.1, steps=1, substeps=substeps)
    ens, _ = run_sampler(initial_ensemble(mirror_map, n, seed=0), mirror_map, obj, cfg)
    ens.evaluation(obj)
    step = dynamics._mirror_iteration if kind == "mmfld" else euclidean_step
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = step(ens, mirror_map, obj, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.iteration == ens.iteration + 1
    assert peak / ens.points.nbytes <= budget


# -- allocator policy -----------------------------------------------------------

def test_steady_state_steps_take_no_page_faults():
    # each d = 50, N = 2000 step frees and reallocates its (m, N) arrays; under
    # glibc's default policy that cost 900 to 1,150 minor faults per step
    resource = pytest.importorskip("resource")
    if not dynamics._keep_step_memory_mapped():
        pytest.skip("libc has no mallopt, or it refused the thresholds")
    d = 50
    mirror_map = SimplexEntropyMap(ambient_dim=d)
    obj = LinearPotential(alpha=(2.0,) * d, reference_temperature=0.1)
    cfg = SamplerConfig(kind="mmfld", eta=1e-3, temperature=0.1, steps=40)
    ens, _ = run_sampler(initial_ensemble(mirror_map, 2000, seed=0), mirror_map, obj, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_sampler(ens, mirror_map, obj, replace(cfg, steps=20))
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_run_sampler_without_mallopt_gives_same_metrics(simplex3, monkeypatch):
    from mirrormfld.runner import metrics_recorder
    obj = MeanMatchBarrier(target=Q, beta=1e-4)
    cfg = SamplerConfig(kind="mmfld", eta=3e-3, temperature=0.1, steps=30)
    record = metrics_recorder(simplex3, obj, 1e-3)

    def run():
        out, rows = run_sampler(initial_ensemble(simplex3, 500, seed=5), simplex3, obj, cfg,
                                diagnostics=record, every=5)
        return out.points, [replace(r, wall_ms=0.0) for r in rows]

    points, rows = run()
    monkeypatch.setattr(dynamics.ctypes, "CDLL", lambda name: object())
    dynamics._keep_step_memory_mapped.cache_clear()
    try:
        assert dynamics._keep_step_memory_mapped() is False
        bare_points, bare_rows = run()
    finally:
        dynamics._keep_step_memory_mapped.cache_clear()
    assert np.array_equal(bare_points, points)
    assert bare_rows == rows


def test_mfld_sampler_unconstrained(rng):
    # plain MFLD: no projection, Gaussian stationary check on a quadratic-free
    # potential would need drift; here just verify it runs and moves freely
    from mirrormfld.geometry import BoxLogBarrierMap
    box = BoxLogBarrierMap(bounds=((-10.0, 10.0),) * 2)
    obj = LinearPotential(alpha=(1.0, 1.0), reference_temperature=1.0)
    cfg = SamplerConfig(kind="mfld", eta=0.05, temperature=0.5, steps=100)
    ens = initial_ensemble(box, 2000, seed=6)
    out, _ = run_sampler(ens, box, obj, cfg)
    spread = np.var(out.points - ens.points, axis=0)
    assert np.allclose(spread, 2 * 0.5 * 0.05 * 100, rtol=0.15)


def test_continuous_limit_consistency(simplex3):
    # halving eta (doubling steps) moves the settled mean by less than
    # three Monte-Carlo standard errors
    obj = LinearPotential(alpha=(2.0, 2.0, 2.0), reference_temperature=0.1)

    def settled_mean(eta, steps, n=4000):
        cfg = SamplerConfig(kind="mmfld", eta=eta, temperature=0.1, steps=steps)
        state = {}
        run_sampler(initial_ensemble(simplex3, n, seed=31), simplex3, obj, cfg,
                    diagnostics=lambda e: state.update(amb=e.points), every=steps)
        amb = state["amb"]
        return amb.mean(axis=0), amb.std(axis=0) / np.sqrt(n)

    coarse, se = settled_mean(2e-3, 1500)
    fine, _ = settled_mean(1e-3, 3000)
    assert np.all(np.abs(coarse - fine) < 3 * se)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(kind="unknown")
    with pytest.raises(ValueError):
        SamplerConfig(eta=-1.0)
    # each count is rejected by name
    for name, value, least in (("substeps", 0, 1), ("steps", -1, 0), ("particles", 0, 1)):
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= {least} "):
            SamplerConfig(**{name: value})
    assert SamplerConfig().particles == 1
    # non-finite step parameters are rejected by name, before any step runs
    for name, value in (("eta", np.nan), ("eta", np.inf), ("temperature", np.inf),
                        ("temperature", np.nan)):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SamplerConfig(**{name: value})


@pytest.mark.parametrize("workers", [0, -4])
def test_run_sampler_rejects_workers_below_one(simplex3, workers):
    cfg = SamplerConfig(kind="mmfld", eta=1e-3, temperature=0.1, steps=1)
    start = initial_ensemble(simplex3, 8, seed=0)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_sampler(start, simplex3, constant_potential(), cfg, workers=workers)


@pytest.mark.parametrize("every", [0, -1])
def test_run_sampler_rejects_every_below_one(simplex3, every):
    cfg = SamplerConfig(kind="mmfld", eta=1e-3, temperature=0.1, steps=1)
    start = initial_ensemble(simplex3, 8, seed=0)
    with pytest.raises(ValueError, match="every must be >= 1"):
        run_sampler(start, simplex3, constant_potential(), cfg,
                    diagnostics=lambda e: e.iteration, every=every)
