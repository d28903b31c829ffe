"""Value and first-variation oracles for the three objective kinds."""
from dataclasses import replace

import numpy as np
import pytest

from mirrormfld.errors import DomainViolationError
from mirrormfld.geometry import BoxLogBarrierMap
from mirrormfld.objectives import (
    LinearPotential,
    MeanMatchBarrier,
    NetworkRisk,
    first_variation_grad,
    lift_identity_check,
    load_dataset,
    objective_value,
)

from conftest import interior_simplex_points

Q = (0.5, 0.3, 0.2)


@pytest.fixture
def network(rng):
    z = rng.normal(size=(3, 2))
    y = rng.normal(size=3)
    return NetworkRisk(features=z, labels=y)


@pytest.fixture
def param_box():
    return BoxLogBarrierMap(bounds=((-3.0, 3.0),) * 3)


# -- statistics ---------------------------------------------------------------

def _ambient(mirror_map, points):
    """The (N, d) ambient rows of (N, m) intrinsic rows."""
    return mirror_map.embed(np.asarray(points).T).T


def test_constant_ensemble_mean(simplex3):
    pts = np.tile([1 / 3, 1 / 3], (7, 1))
    m = MeanMatchBarrier(target=Q).stats(_ambient(simplex3, pts)).stats
    assert np.allclose(m, [1 / 3, 1 / 3, 1 / 3])


def test_two_point_mean(simplex3):
    pts = np.array([[0.5, 0.25], [0.25, 0.5]])
    m = MeanMatchBarrier(target=Q).stats(_ambient(simplex3, pts)).stats
    assert np.allclose(m, [3 / 8, 3 / 8, 1 / 4])


def test_network_zero_weights_predict_zero(network, param_box):
    pts = np.zeros((5, 3))
    stats = network.stats(_ambient(param_box, pts)).stats
    assert np.allclose(stats, 0.0)


def test_stats_invariant_under_permutation(simplex3, rng):
    obj = MeanMatchBarrier(target=Q, beta=1e-4)
    pts = interior_simplex_points(rng, 64)
    perm = rng.permutation(64)
    assert np.allclose(obj.stats(_ambient(simplex3, pts)).stats,
                       obj.stats(_ambient(simplex3, pts[perm])).stats)


# -- values ---------------------------------------------------------------------

def test_mean_match_value_zero_at_target(simplex3):
    obj = MeanMatchBarrier(target=Q, beta=0.0)
    pts = np.tile([0.5, 0.3], (4, 1))
    assert objective_value(obj, pts, simplex3) == pytest.approx(0.0, abs=1e-15)


def test_mean_match_value_arithmetic(simplex3):
    obj = MeanMatchBarrier(target=Q, beta=0.0)
    # two-point ensemble with mean (0.4, 0.3, 0.3)
    pts = np.array([[0.5, 0.25], [0.3, 0.35]])
    assert objective_value(obj, pts, simplex3) == pytest.approx(0.02, abs=1e-12)


def test_mean_match_minimized_by_mean_matching_pairs(simplex3, rng):
    obj = MeanMatchBarrier(target=Q, beta=0.0)
    for _ in range(5):
        delta = rng.uniform(-0.05, 0.05, size=3)
        delta -= delta.mean()
        pair = np.array([np.array(Q) + delta, np.array(Q) - delta])[:, :2]
        assert objective_value(obj, pair, simplex3) == pytest.approx(0.0, abs=1e-14)


def test_network_zero_residual_zero_value(param_box):
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    net = NetworkRisk(features=z, labels=np.tanh([1.0, -1.0]))
    pts = np.array([[1.0, -1.0, 0.0]])
    assert objective_value(net, pts, param_box) == pytest.approx(0.0, abs=1e-15)


def test_linear_potential_average(simplex3, rng):
    obj = LinearPotential(alpha=(2.0, 2.0, 2.0), reference_temperature=0.1)
    pts = interior_simplex_points(rng, 32)
    amb = simplex3.embed(pts.T).T
    expect = float(np.mean(-0.1 * np.sum(np.log(amb), axis=1)))
    assert objective_value(obj, pts, simplex3) == pytest.approx(expect, rel=1e-12)


def test_constant_potential_is_zero():
    obj = LinearPotential(alpha=(1.0, 1.0, 1.0), reference_temperature=0.5)
    pts = np.array([[0.2, 0.3], [0.6, 0.2]])
    assert np.allclose(obj.potential(obj.stats(np.column_stack([pts, 1 - pts.sum(1)]))), 0.0)


@pytest.mark.parametrize("alpha", [(2.0, 1.0, 0.5), (1.0, 1.0, 1.0), (3.0,) * 50],
                         ids=["mixed", "off", "d50"])
def test_linear_potential_columns_match_masked_broadcast(alpha, rng):
    # the column-wise oracles against the masked broadcast they replaced,
    # bit for bit, signed zeros of switched-off coordinates included
    obj = LinearPotential(alpha=alpha, reference_temperature=0.1)
    coef = obj._coef
    amb = rng.dirichlet(np.ones(len(alpha)), size=257)
    if not np.any(coef):
        amb[:5, -1] = 0.0    # switched off everywhere: zeros are allowed
    record = obj.stats(amb)
    with np.errstate(divide="ignore"):
        grad = -coef * np.where(coef == 0.0, 0.0, 1.0 / amb)
        pot = -np.where(coef == 0.0, 0.0, np.log(amb)) @ coef
    assert obj.potential_grad(record).tobytes() == grad.tobytes()
    assert np.signbit(obj.potential_grad(record)).tolist() == np.signbit(grad).tolist()
    assert obj.potential(record).tobytes() == pot.tobytes()
    assert obj.potential_grad(record.rows(3, 9)).tobytes() == grad[3:9].tobytes()


@pytest.mark.parametrize("d", [3, 9, 50])
def test_barrier_log_sum_matches_row_sum(d, rng):
    # the barrier's sum over coordinates reproduces np.sum along the rows
    q = np.full(d, 1.0 / d)
    obj = MeanMatchBarrier(target=tuple(q), beta=1e-3)
    amb = rng.dirichlet(np.full(d, 0.3), size=301)
    record = obj.stats(amb)
    logs = np.sum(np.log(amb), axis=-1)
    diff = record.stats - q
    assert obj.value(record) == float(diff @ diff) - 1e-3 * float(np.full(301, 1 / 301) @ logs)
    assert obj.potential(record).tobytes() == (2.0 * amb @ diff - 1e-3 * logs).tobytes()


def test_barrier_requires_interior(simplex3):
    obj = MeanMatchBarrier(target=Q, beta=1e-4)
    boundary = np.array([[0.0, 0.5, 0.5]])
    with pytest.raises(DomainViolationError):
        obj.value(obj.stats(boundary))
    # beta=0 tolerates boundary points: no barrier term is evaluated
    free = MeanMatchBarrier(target=Q, beta=0.0)
    assert np.isfinite(free.value(free.stats(boundary)))


@pytest.mark.parametrize("obj", [
    LinearPotential(alpha=(2.0, 3.0, 1.5), reference_temperature=0.1),
    MeanMatchBarrier(target=Q, beta=1e-4),
], ids=["linear", "mean-match-barrier"])
def test_positivity_scan_rejects_nan(obj, rng):
    # a NaN minimum fails the scan at once, named as such; it used to pass
    # and fail only in the kick, as non-finite Hessian entries
    amb = rng.dirichlet(np.ones(3), size=20)
    amb[11, 2] = np.nan
    with pytest.raises(DomainViolationError, match="non-finite"):
        obj.stats(amb)
    amb[11, 2] = -0.0
    with pytest.raises(DomainViolationError, match="non-positive"):
        obj.stats(amb)


# -- first variation gradient --------------------------------------------------

def test_mean_match_gradient_stationary_at_target(simplex3):
    obj = MeanMatchBarrier(target=Q, beta=0.0)
    at_target = obj.stats(np.array([Q]))   # one-point cloud: mean exactly Q
    g = first_variation_grad(obj, np.array([0.3, 0.4]), at_target, simplex3)
    assert np.allclose(g, 0.0, atol=1e-15)


def _broadcast_mean_match_grad(obj, record):
    """The row-major gradient ``MeanMatchBarrier.potential_grad`` built before
    it went coordinate-first: the reference its bits must match."""
    g = np.broadcast_to(2.0 * (record.stats - obj._q), record.ambient.shape).copy()
    if obj.beta > 0.0:
        g -= obj.beta / record.ambient
    return g


@pytest.mark.parametrize("beta", [0.0, 1e-4, 0.37])
@pytest.mark.parametrize("d, n", [(3, 10_000), (50, 2000), (2, 1)])
def test_mean_match_gradient_equals_broadcast_reference(beta, d, n, rng):
    q = rng.dirichlet(np.ones(d))
    obj = MeanMatchBarrier(target=tuple(q / q.sum()), beta=beta)
    amb = rng.dirichlet(np.full(d, 0.2), size=n)
    amb[amb == 0.0] = 5e-324    # strictly positive, down to the least subnormal
    record = obj.stats(amb)
    ref = _broadcast_mean_match_grad(obj, record)
    for rec, want in ((record, ref), (record.rows(n // 3, n // 2 + 1), ref[n // 3:n // 2 + 1])):
        grad = obj.potential_grad(rec)
        assert grad.shape == want.shape
        assert np.array_equal(grad.view(np.uint64), want.view(np.uint64))
        # coordinate-first, so the pullback reads contiguous rows
        assert grad.T.flags.c_contiguous


def test_mean_match_gradient_pullback(simplex3):
    obj = MeanMatchBarrier(target=Q, beta=0.0)
    record = obj.stats(np.array([[0.4, 0.3, 0.3]]))
    g = first_variation_grad(obj, np.array([0.5, 0.3]), record, simplex3)
    assert np.allclose(g, [-0.4, -0.2], atol=1e-12)


def _fd_potential_grad(obj, x, record, mm, h=1e-6):
    # finite differences of the scalar first variation in intrinsic coords,
    # frozen at the ensemble's statistic
    def at(y):
        return obj.potential(replace(obj.stats(mm.embed(y)[None, :]), stats=record.stats))[0]

    out = np.zeros_like(x)
    for c in range(x.size):
        e = np.zeros_like(x)
        e[c] = h
        out[c] = (at(x + e) - at(x - e)) / (2 * h)
    return out


def test_gradient_matches_potential_differences(simplex3, rng):
    obj = MeanMatchBarrier(target=Q, beta=1e-4)
    pts = interior_simplex_points(rng, 10, least=0.05)
    record = obj.stats(simplex3.embed(pts.T).T)
    for x in pts:
        g = first_variation_grad(obj, x, record, simplex3)
        fd = _fd_potential_grad(obj, x, record, simplex3)
        assert np.max(np.abs(g - fd)) <= 1e-5 * max(1.0, np.max(np.abs(g)))


@pytest.mark.parametrize("kind", ["linear", "mean-match", "mean-match-barrier",
                                  "network"])
def test_lift_identity(kind, simplex3, param_box, network, rng):
    if kind == "network":
        obj, mm = network, param_box
        pts = rng.uniform(-2.0, 2.0, size=(4, 3))
    else:
        mm = simplex3
        pts = interior_simplex_points(rng, 4, least=0.05)
        obj = {"linear": LinearPotential(alpha=(2.0, 3.0, 1.5), reference_temperature=0.1),
               "mean-match": MeanMatchBarrier(target=Q, beta=0.0),
               "mean-match-barrier": MeanMatchBarrier(target=Q, beta=1e-4)}[kind]
    for i in range(pts.shape[0]):
        assert lift_identity_check(obj, pts, mm, i) <= 1e-5


@pytest.mark.parametrize("kind", ["linear", "mean-match-barrier", "network"])
def test_first_variation_grad_at_own_rows_is_the_step_drift(kind, simplex3, param_box,
                                                            network, rng):
    # the frozen first variation at the cloud's own rows is, bit for bit,
    # the pulled-back gradient the step reads from the cloud's record
    if kind == "network":
        obj, mm = network, param_box
        pts = rng.uniform(-2.0, 2.0, size=(9, 3))
    else:
        mm = simplex3
        pts = interior_simplex_points(rng, 9, least=0.05)
        obj = {"linear": LinearPotential(alpha=(2.0, 3.0, 1.5), reference_temperature=0.1),
               "mean-match-barrier": MeanMatchBarrier(target=Q, beta=1e-4)}[kind]
    record = obj.stats(np.ascontiguousarray(_ambient(mm, pts)))
    drift = mm.pullback(obj.potential_grad(record).T).T
    assert first_variation_grad(obj, pts, record, mm).tobytes() == drift.tobytes()


def test_gradient_rejects_boundary(simplex3):
    obj = MeanMatchBarrier(target=Q, beta=1e-4)
    with pytest.raises(DomainViolationError):
        first_variation_grad(obj, np.array([0.5, 0.5]), obj.stats(np.array([Q])), simplex3)


# -- evaluation records ----------------------------------------------------------

@pytest.mark.parametrize("obj", [
    LinearPotential(alpha=(2.0, 3.0, 1.5), reference_temperature=0.1),
    MeanMatchBarrier(target=Q, beta=1e-4),
], ids=["linear", "mean-match-barrier"])
def test_positivity_scan_runs_once_per_record(obj, simplex3, rng, monkeypatch):
    from mirrormfld import objectives
    scans = []
    scan = objectives._require_positive
    monkeypatch.setattr(objectives, "_require_positive",
                        lambda amb, what: scans.append(amb.shape) or scan(amb, what))
    amb = simplex3.embed(interior_simplex_points(rng, 6, least=0.05).T).T
    record = obj.stats(amb)
    obj.value(record)
    obj.potential(record)
    obj.potential_grad(record)
    obj.potential_grad(record.rows(2, 5))
    assert scans == [(6, 3)]
    # points other than the record's own get their own record, scanned once
    first_variation_grad(obj, np.array([0.3, 0.4]), record, simplex3)
    assert scans == [(6, 3), (1, 3)]


def test_record_rows_read_slices_of_the_whole_evaluation(network, rng):
    pts = rng.uniform(-2.0, 2.0, size=(7, 3))
    record = network.stats(pts)
    chunk = record.rows(2, 5)
    assert chunk.stats is record.stats
    assert np.array_equal(chunk.per_point, network.neuron_outputs(pts)[2:5])
    assert np.array_equal(network.potential_grad(chunk),
                          network.potential_grad(record)[2:5])


# -- linear convexity over grid measures ----------------------------------------

@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_linear_convexity_on_grid_measures(alpha, rng):
    from mirrormfld.oracle import build_grid, measure_from_weights

    grid = build_grid(16, 1e-4)
    obj = MeanMatchBarrier(target=Q, beta=1e-4)
    for _ in range(5):
        wa = measure_from_weights(grid, rng.exponential(size=grid.n_nodes)).weights
        wb = measure_from_weights(grid, rng.exponential(size=grid.n_nodes)).weights
        mix = alpha * wa + (1 - alpha) * wb

        def value(w):
            return obj.value(obj.stats(grid.nodes, w))

        assert value(mix) <= alpha * value(wa) + (1 - alpha) * value(wb) + 1e-12


def test_network_outputs_bounded(network, rng):
    pts = rng.uniform(-3.0, 3.0, size=(100, 3))
    assert np.max(np.abs(network.neuron_outputs(pts))) <= 1.0


# -- dataset loading -------------------------------------------------------------

def test_load_dataset_roundtrip(tmp_path, rng):
    z = rng.normal(size=(6, 2))
    y = rng.normal(size=6)
    path = tmp_path / "data.csv"
    with open(path, "w") as fh:
        fh.write("f0,f1,label\n")
        for row, lab in zip(z, y):
            fh.write(f"{float(row[0])!r},{float(row[1])!r},{float(lab)!r}\n")
    z2, y2 = load_dataset(path)
    assert np.allclose(z, z2) and np.allclose(y, y2)


@pytest.mark.parametrize("text, where, cell", [
    ("f0,f1,label\n0.1,0.2,1.0\n0.3,nan,0.5\n", "row 3, column 2", "nan"),
    ("0.1,0.2,1.0\n0.3,0.4,0.5\n\n0.5,0.6, inf\n", "row 4, column 3", "inf"),
    # only the first row may be a header; later text cells are named
    ("f0,f1,label\nname,x,y\n0.1,0.2,1.0\n", "row 2, column 1", "name"),
    ("f0,f1,label\n0.1,x,1.0\n", "row 2, column 2", "x"),
    ("0.1,0.2,1.0\n0.3, abc ,0.5\n", "row 2, column 2", "abc"),
    ("0.1,0.2,1.0\n0.3,,0.5\n", "row 2, column 2", ""),
    # faults of a whole row or file name the row, with no cell
    ("f0,f1,label\n0.1,0.2,1.0\n0.3,0.4\n", "row 3: 2 cells", None),
    ("0.1,0.2\n0.3,0.4,0.5\n", "row 2: 3 cells", None),
    ("f0,f1,label\n", "no data rows after the header at row 1", None),
])
def test_load_dataset_rejects_non_finite(tmp_path, text, where, cell):
    path = tmp_path / "net.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(path) in str(err.value) and where in str(err.value)
    assert cell is None or repr(cell) in str(err.value)


def test_load_dataset_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\n")
    with pytest.raises(ValueError):
        load_dataset(path)
