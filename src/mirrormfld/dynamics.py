"""Particle samplers: mirror mean-field Langevin, projected baseline, plain MFLD.

The mirror sampler's state is the dual point y of each particle; the
ambient point x is only its image.  One iteration, with statistics frozen
at the current ensemble:

    y   <- y_k - eta * pullback(grad dF/dmu_k (x_k))          (full drift)
    y   <- K Euler-Maruyama substeps of the pure mirror diffusion
           dY = sqrt(2 * lambda * H(backward(Y))) dB  over the eta window
    y_{k+1} <- y,   x_{k+1} <- ambient_from_dual(y)

``ambient_from_dual`` is interior-valued, so iterates never leave the
domain; the particle positions themselves are never projected or clamped
(dual increments are tamed, see ``DUAL_STEP_CAP``).  The projected baseline
instead works in ambient coordinates with isotropic noise and a Euclidean
projection after every update; the plain ``mfld`` sampler is the same
update without projection, for unconstrained sanity runs.

Every step is coordinate-first.  The whole mirror iteration -- pullback,
drift, noise, factor, kick, cap, near-face redraw and ``ambient_from_dual``
-- runs on (m, n) chunks of the one C-contiguous (m, N) dual state (see the
``geometry`` conventions), the Euclidean step on (d, n) chunks.  Each
chunk's ambient points are transposed once into the row-major (N, d)
``points`` that objectives and diagnostics read.

A step allocates its outputs last.  Each chunk returns its new state and
its row-major points, and the step joins the chunks' pieces only once all
of them have freed their temporaries; a lone chunk's pieces are the outputs
themselves.  Counted in arrays the size of the (N, d) state, a mirror step
therefore holds, besides its input ensemble, at most about four at its
peak -- the drifted dual (or, after the first substep, the substep before),
its noise block, the ambient points and the kick factor's fresh diagonal
(see ``SimplexEntropyMap.diffusion_substep``) -- and a projected step about
3.4 at d = 3: the moved points, their sorted copy and the projection's four
rows of N.  A noise block drawn ahead (below) adds one (m, N) or (d, N)
block.

All per-particle noise comes from the counter-based streams in
``rngstream``, keyed by (seed, particle, iteration, substep), so the
ensemble is the whole state of a run: results are independent of how
particles are chunked across workers or a run is split, and a fixed seed
reproduces a run bit-for-bit on the same platform.

Because a block depends on its key alone, ``run_sampler`` draws the next
block of a run while the current step runs, on one helper thread, whenever
the run has noise and leaves a core free (fewer workers than the cores it
may run on).  A step takes its block from the helper only when the key
matches and draws it itself otherwise, so the helper changes no output bit;
it moves the noise off the step's critical path.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import rngstream
from .errors import SamplerError
from .geometry import coordinate_sum

Array = np.ndarray

SAMPLERS = ("mmfld", "projected-mfld", "mfld")

# Projected particles land exactly on the boundary, where barrier objectives
# blow up; they are nudged this far inside after each projection.
PROJECTION_NUDGE = 1e-6

# Bound on each component of the mirror sampler's dual drift and diffusion
# increments (tamed Euler).  The unbounded update is not representable in
# floating point: near a face the dual noise scale sqrt(2*lambda*eta/x)
# explodes, and a single kick underflows the softmax onto the exact
# boundary.  The cap binds only inside a boundary layer of thickness
# O(eta) -- at the shipped step sizes bulk increments sit two orders of
# magnitude below it -- so the discretization limit is unchanged.
DUAL_STEP_CAP = 4.0


@dataclass(frozen=True)
class SamplerConfig:
    """The config's ``sampler`` section.  ``particles`` is the ensemble size
    that ``run_experiment`` draws; ``run_sampler`` steps whatever ensemble
    it is given."""

    kind: str = "mmfld"
    eta: float = 1e-3
    temperature: float = 0.1
    substeps: int = 1
    steps: int = 0
    particles: int = 1

    def __post_init__(self):
        if self.kind not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.kind!r}")
        for name, least in (("eta", 0), ("temperature", 0), ("substeps", 1), ("steps", 0),
                            ("particles", 1)):
            if not least <= (value := getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be finite and >= {least} (got {value!r})")


@dataclass(frozen=True)
class ParticleEnsemble:
    """N particle rows plus the iteration counter and RNG lineage.

    ``points`` is the C-contiguous (N, d) ambient view for every sampler,
    which each step writes from coordinate-first chunks: objectives and
    diagnostics read it row-major, and their row-major sums fix the metrics
    bit for bit.  A mirror ensemble also carries its coordinate-first
    (m, N) ``dual`` state, from which ``points`` is derived; it is ``None``
    until ``run_sampler`` first enters it.
    """

    points: Array
    iteration: int = 0
    seed: int = 0
    dual: Array | None = None
    # (objective, record) pairs memoised by ``evaluation``: derived data, so
    # outside ==, repr and ``replace``, which starts a new ensemble empty
    _evaluations: list = field(default_factory=list, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a nonempty (N, dim) array")
        object.__setattr__(self, "points", pts)
        if self.dual is not None:
            dual = np.ascontiguousarray(self.dual, dtype=np.float64)
            if dual.ndim != 2 or dual.shape[1] != pts.shape[0]:
                raise ValueError(f"dual must be an (m, {pts.shape[0]}) array, "
                                 f"got shape {dual.shape}")
            object.__setattr__(self, "dual", dual)

    def evaluation(self, objective):
        """The objective's evaluation record of ``points``, built on first use.

        The step and the diagnostics tick of one iteration read the same
        record, so each ensemble is evaluated at most once per objective
        (matched by identity).
        """
        for known, record in self._evaluations:
            if known is objective:
                return record
        record = objective.stats(self.points)
        self._evaluations.append((objective, record))
        return record


def initial_ensemble(mirror_map, n: int, seed: int, *, ambient=None) -> ParticleEnsemble:
    """Draw N independent starting points from the uniform law on the domain.

    Simplex: normalized exponentials (exponentials via inverse CDF to keep
    the draw within the one-word-per-value stream protocol), giving the
    uniform distribution on the simplex.  Box: uniform per coordinate.
    Every sampler gets the same (N, d) draw, so mirror and projected runs
    share their initial particle sets.  ``ambient`` is ignored; it is
    still accepted because the set-up probe in ``perfbench/`` passes it.
    """
    if n < 1:
        raise ValueError("need at least one particle")
    pts = np.empty((n, mirror_map.ambient_dim))
    u = rngstream.uniform_block(seed, rngstream.INIT_ITERATION, 0, 0, n, mirror_map.ambient_dim)
    if mirror_map.kind == "simplex-entropy":
        e = np.negative(np.log1p(np.negative(u, out=u), out=u), out=u)
        np.divide(e, coordinate_sum(e), out=pts.T)
    else:
        u *= (mirror_map.upper - mirror_map.lower)[:, None]
        np.add(mirror_map.lower[:, None], u, out=pts.T)
    return ParticleEnsemble(points=pts, seed=seed)


def inner_diffusion(y: Array, mirror_map, temperature: float, eta: float,
                    substeps: int, draw, step_cap: float | None = None) -> Array:
    """Simulate the pure mirror diffusion over [0, eta] in K substeps.

    ``draw(substep)`` must return standard normals shaped like the
    coordinate-first y.  Each of the K substeps of length h = eta/K adds
    ``L @ xi`` where L is the Cholesky factor of ``2 * temperature * h *
    H(x)`` at the current primal position x = backward(y); the dual Hessian
    inverse equals the primal Hessian there, so no matrix inversion occurs
    (and the Hessian is assembled straight from y, which stays accurate
    arbitrarily close to the boundary).  With ``step_cap`` set, increments
    are tamed and the simplex map switches to its exact near-face kernel
    inside the layer where the Euler kick is unresolvable -- see
    ``SimplexEntropyMap.diffusion_substep``.  The bare operation defaults
    to the untamed update.
    """
    if temperature == 0.0 or eta == 0.0:
        return y
    h = eta / substeps
    for s in range(substeps):
        y = mirror_map.diffusion_substep(y, 2.0 * temperature * h, draw(s),
                                         step_cap=step_cap)
    return y


@functools.lru_cache(maxsize=64)
def _chunk_ranges(n: int, chunks: int) -> tuple:
    """The (lo, hi) row ranges of ``chunks`` near-equal chunks of n rows;
    cached, since every step of a run asks for the same ones."""
    chunks = max(1, min(chunks, n))
    edges = np.linspace(0, n, chunks + 1).astype(int)
    return tuple((int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a)


def _run_chunks(fn, ranges, pool):
    """``fn(lo, hi)`` for every range, on the pool when there are several;
    their results, in order."""
    if pool is None or len(ranges) == 1:
        return [fn(lo, hi) for lo, hi in ranges]
    return list(pool.map(lambda r: fn(*r), ranges))


def _joined(parts, axis: int) -> Array:
    """The chunks' pieces of one output as one array; a lone piece is the
    output itself, uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _mirror_iteration(ensemble: ParticleEnsemble, mirror_map, objective,
                      cfg: SamplerConfig, *, pool=None, chunks: int = 1,
                      noise=None) -> ParticleEnsemble:
    """One synchronous mirror iteration carried entirely in dual coordinates.

    Statistics are frozen at the incoming ensemble; every chunk reads row
    slices of its one evaluation record, which a diagnostics tick on the
    same ensemble shares.  The carried dual state is never rebuilt from primal
    floats, a lossy round trip that bottoms out at machine epsilon near a
    face, so particles are tracked within any positive distance of it.
    Each chunk works on coordinate-first (m, hi - lo) arrays, in place
    where it can, and returns its dual and row-major points for the step
    to join.  ``noise(seed, k, s, lo, hi, m)`` supplies the normal
    blocks; it defaults to ``rngstream.normal_block``.
    """
    noise = noise or rngstream.normal_block
    dual = ensemble.dual
    m, n = dual.shape
    seed, k = ensemble.seed, ensemble.iteration
    record = ensemble.evaluation(objective)

    def drifted(lo, hi):
        # the drift is built in the pulled-back gradient, a fresh array
        y = mirror_map.pullback(objective.potential_grad(record.rows(lo, hi)).T)
        y *= -cfg.eta
        np.clip(y, -DUAL_STEP_CAP, DUAL_STEP_CAP, out=y)
        y += dual[:, lo:hi]
        return y

    def update(lo, hi):
        # the drifted dual is passed unnamed, so once the first substep has
        # read it nothing holds it (CPython 3.11+ hands a call's arguments
        # to the callee)
        y = inner_diffusion(
            drifted(lo, hi), mirror_map, cfg.temperature, cfg.eta, cfg.substeps,
            lambda s: noise(seed, k, s, lo, hi, m),
            step_cap=DUAL_STEP_CAP)
        return y, np.ascontiguousarray(mirror_map.ambient_from_dual(y).T)

    duals, points = zip(*_run_chunks(update, _chunk_ranges(n, chunks), pool))
    out_dual = _joined(duals, axis=1)
    del duals
    return replace(ensemble, points=_joined(points, axis=0), dual=out_dual, iteration=k + 1)


def project_simplex(v: Array) -> Array:
    """Euclidean projection onto {x >= 0, sum x = 1} (sorted-threshold rule).

    Coordinate-first like the geometry kernels: a single (d,) point or a
    (d, N) batch, projected column by column.  With the values of a column
    sorted in decreasing order s_0 >= s_1 >= ..., c_k their running sum and
    k* the largest rank with (k + 1) s_k > c_k - 1 (d - 1 if there is none),
    the projection is max(v - theta, 0) for theta = (c_k* - 1) / (k* + 1).
    Both come from one pass per rank over rows of N, so besides its output
    the projection holds the sorted copy and a few rows.
    """
    v = np.asarray(v, dtype=np.float64)
    cols = v.reshape(v.shape[0], -1)
    d, n = cols.shape
    # the sorted copy is ours: each row is scaled in place once summed; a
    # zero running sum's sign shows nowhere, since it is read as c_k - 1
    desc = np.sort(cols, axis=0)[::-1]
    running, shifted, theta, count = np.zeros((4, n))
    active = np.empty(n, dtype=bool)
    for k in range(d):
        running += desc[k]
        np.subtract(running, 1.0, out=shifted)
        desc[k] *= k + 1
        np.greater(desc[k], shifted, out=active)
        np.copyto(theta, shifted, where=active)
        np.copyto(count, k + 1, where=active)
    del desc, active
    none = count == 0
    theta[none], count[none] = shifted[none], d
    theta /= count
    out = np.subtract(cols, theta)
    return np.maximum(out, 0.0, out=out).reshape(v.shape)


def _project_ambient(x: Array, mirror_map) -> Array:
    if mirror_map.kind == "simplex-entropy":
        # nudge off exact boundary so barrier objectives stay finite
        proj = project_simplex(x)
        np.maximum(proj, PROJECTION_NUDGE, out=proj)
        return np.divide(proj, coordinate_sum(proj), out=proj)
    return np.clip(x, (mirror_map.lower + PROJECTION_NUDGE)[:, None],
                   (mirror_map.upper - PROJECTION_NUDGE)[:, None])


def euclidean_step(ensemble: ParticleEnsemble, mirror_map, objective, cfg: SamplerConfig,
                   *, pool=None, chunks: int = 1, noise=None) -> ParticleEnsemble:
    """Ambient-coordinate Langevin update, projected back onto the domain.

    Implements both the projected baseline (``projected-mfld``) and the
    unconstrained sanity sampler (``mfld``); the only difference is whether
    the projection is applied.  Each chunk works on (d, hi - lo) arrays,
    transposed once into its rows of ``points`` as in the mirror step, and
    frees its noise block before it projects; ``noise`` is as there, with
    substep 0.
    """
    noise = noise or rngstream.normal_block
    pts = ensemble.points
    n, d = pts.shape
    record = ensemble.evaluation(objective)
    k, seed = ensemble.iteration, ensemble.seed
    noise_scale = np.sqrt(2.0 * cfg.temperature * cfg.eta)
    project = cfg.kind == "projected-mfld"

    def update(lo, hi):
        x = np.multiply(objective.potential_grad(record.rows(lo, hi)).T, cfg.eta,
                        out=np.empty((d, hi - lo)))
        np.subtract(pts[lo:hi].T, x, out=x)
        if noise_scale > 0.0:
            kick = noise(seed, k, 0, lo, hi, d)
            kick *= noise_scale
            x += kick
            del kick
        if project:
            x = _project_ambient(x, mirror_map)
        return np.ascontiguousarray(x.T)

    out = _joined(_run_chunks(update, _chunk_ranges(n, chunks), pool), axis=0)
    # a dual carried in from a mirror run no longer describes these points
    return replace(ensemble, points=out, dual=None, iteration=k + 1)


class _NoiseAhead:
    """The normal blocks of one run, each drawn a block ahead on ``helper``.

    Called like ``rngstream.normal_block`` and returning what it returns.
    A block the helper was asked for under the same full key comes from the
    helper; any other is drawn in the calling thread.  Either way the helper
    is then asked for the block that follows in the run, (k, s + 1) or
    (k + 1, 0), below iteration ``last``.  A wrong guess costs a wasted draw,
    never a changed value.  With ``helper=None`` every block is drawn in the
    calling thread.  Chunks on pool threads ask for distinct keys, so each
    touches only its own entry of ``_ahead``.
    """

    def __init__(self, helper, substeps: int, last: int):
        self._helper, self._substeps, self._last = helper, substeps, last
        self._ahead = {}

    def __call__(self, seed, iteration, substep, lo, hi, dim):
        key = (seed, iteration, substep, lo, hi, dim)
        ahead = self._ahead.pop(key, None)
        block = rngstream.normal_block(*key) if ahead is None else ahead.result()
        if self._helper is not None:
            k, s = (iteration, substep + 1) if substep + 1 < self._substeps else (iteration + 1, 0)
            if k < self._last:
                after = (seed, k, s, lo, hi, dim)
                self._ahead[after] = self._helper.submit(rngstream.normal_block, *after)
        return block


def _cores() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


@functools.cache
def _keep_step_memory_mapped() -> bool:
    """Let freed step arrays stay mapped between iterations (glibc only).

    Every step allocates its (m, N) temporaries afresh; under glibc's default
    policy they are unmapped (or trimmed off the heap top) when freed, so the
    next step zero-fills each page again through a minor page fault.  Setting
    M_MMAP_THRESHOLD (-3) to 32 MiB, glibc's upper limit on 64-bit systems,
    and M_TRIM_THRESHOLD (-1) to 64 MiB keeps such blocks on the heap for
    reuse.  Process-wide and set once; returns whether ``mallopt`` took it
    (False where libc has none, as on macOS and Windows).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(-3, 32 << 20)) and bool(mallopt(-1, 64 << 20))


def run_sampler(ensemble: ParticleEnsemble, mirror_map, objective, cfg: SamplerConfig,
                *, diagnostics=None, every: int = 1, workers: int = 1):
    """Advance the ensemble cfg.steps times, collecting diagnostics rows.

    The step is ``_mirror_iteration`` for ``mmfld`` and ``euclidean_step``
    otherwise.  A mirror ensemble without a dual enters the mirror state
    from its intrinsic coordinates first; feeding the returned ensemble
    back in continues the run exactly.  ``diagnostics(ensemble)`` is called
    on the initial state, at every ``every``-th iteration and on the final
    one (not at all for zero steps); its return values are collected in
    order.  Step and diagnostics failures are re-raised as ``SamplerError``
    with the offending iteration attached.  The result is deterministic for
    fixed (seed, N, steps, substeps, sampler) and any worker count.

    When the run has noise (``temperature > 0``) and ``workers`` is below
    the number of cores the process may run on, one helper thread draws
    each step's normal block while the step before it runs (see
    ``_NoiseAhead``); it changes no output bit, and it is shut down before
    ``run_sampler`` returns or raises.

    The first call sets the allocator policy of the whole process (see
    ``_keep_step_memory_mapped``): the heap may keep up to 64 MiB free after
    a peak, so that steps reuse their memory instead of faulting it in.
    """
    _keep_step_memory_mapped()
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (got {workers})")
    if every < 1:
        raise ValueError(f"every must be >= 1 (got {every})")
    step = _mirror_iteration if cfg.kind == "mmfld" else euclidean_step
    if cfg.kind == "mmfld" and ensemble.dual is None:
        x = np.ascontiguousarray(ensemble.points[:, :mirror_map.intrinsic_dim].T)
        ensemble = replace(ensemble, points=mirror_map.embed(x).T, dual=mirror_map.forward(x))
    rows = []
    if cfg.steps == 0:
        return ensemble, rows
    last = ensemble.iteration + cfg.steps
    if last >= rngstream.INIT_ITERATION:
        raise ValueError("iteration counter would collide with the init stream")
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    helper = (ThreadPoolExecutor(max_workers=1, thread_name_prefix="mirrormfld-noise")
              if cfg.temperature > 0 and workers < _cores() else None)
    noise = _NoiseAhead(helper, cfg.substeps if cfg.kind == "mmfld" else 1, last)
    try:
        if diagnostics is not None:
            rows.append(diagnostics(ensemble))
        while ensemble.iteration < last:
            ensemble = step(ensemble, mirror_map, objective, cfg, pool=pool, chunks=workers,
                            noise=noise)
            done = ensemble.iteration
            if diagnostics is not None and (done % every == 0 or done == last):
                rows.append(diagnostics(ensemble))
    except Exception as exc:
        # a failed step has not advanced the ensemble; a failed tick read it
        raise SamplerError(ensemble.iteration, str(exc)) from exc
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
        if helper is not None:
            helper.shutdown(wait=True, cancel_futures=True)
    return ensemble, rows
