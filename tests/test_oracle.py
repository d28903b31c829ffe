"""Grid ground truth: construction, Gibbs maps, divergences, sandwich."""
import numpy as np
import pytest
from scipy.special import gammaln

from mirrormfld.errors import ConfigError, NonConvergenceError, SupportViolationError
from mirrormfld.objectives import LinearPotential, MeanMatchBarrier, NetworkRisk
from mirrormfld.oracle import (
    GridMeasure,
    build_grid,
    entropy_sandwich_check,
    export_solution,
    fixed_point_solve,
    grid_functionals,
    kl_divergence,
    measure_from_weights,
    proximal_gibbs,
    relative_fisher_information,
    uniform_measure,
)
from mirrormfld.geometry import SimplexEntropyMap
from mirrormfld.oracle import _stencil_gradient

Q = (0.5, 0.3, 0.2)
LAM = 0.1
AREA = np.sqrt(3) / 2


def dirichlet_density(nodes, alpha=(2.0, 2.0, 2.0)):
    """Dirichlet density with respect to the surface measure of the simplex."""
    a = np.asarray(alpha)
    logc = gammaln(a.sum()) - gammaln(a).sum()
    return np.exp(logc + ((a - 1) * np.log(nodes)).sum(axis=1)) / np.sqrt(3)


@pytest.fixture(scope="module")
def grid():
    return build_grid(64, 1e-4)


@pytest.fixture(scope="module")
def mean_match():
    return MeanMatchBarrier(target=Q, beta=0.0)


@pytest.fixture(scope="module")
def solution(grid, mean_match):
    return fixed_point_solve(grid, mean_match, LAM)


# -- grid construction --------------------------------------------------------

def test_grid_node_count_is_resolution_squared():
    assert build_grid(8, 1e-4).n_nodes == 64
    assert build_grid(16, 1e-4).n_nodes == 256


def test_grid_area(grid):
    assert float(np.sum(grid.volumes)) == pytest.approx(AREA, abs=1e-10)


def test_grid_nodes_interior(grid):
    assert np.min(grid.nodes) >= grid.margin
    assert np.min(grid.nodes) == pytest.approx(1 / (3 * 64), rel=1e-12)


def test_grid_margin_validation():
    with pytest.raises(ConfigError):
        build_grid(4, 1e-4)
    with pytest.raises(ConfigError):
        build_grid(8, 0.1)  # >= 1/(3R): would clip cells


def test_grid_neighbors_consistent(grid):
    ids = np.arange(grid.n_nodes)
    for slot, opp in ((0, 1), (1, 0), (2, 3), (3, 2)):
        nb = grid.neighbors[:, slot]
        has = nb >= 0
        assert np.all(grid.neighbors[nb[has], opp] == ids[has])


# -- functionals ----------------------------------------------------------------

def test_uniform_entropy_is_log_area(grid, mean_match):
    fun = grid_functionals(grid, mean_match, uniform_measure(grid), LAM)
    assert fun.entropy == pytest.approx(-np.log(AREA), abs=1e-12)
    assert np.allclose(fun.mean, 1 / 3, atol=1e-12)


def test_point_mass_entropy_is_log_cell(grid, mean_match):
    w = np.zeros(grid.n_nodes)
    w[17] = 1.0
    fun = grid_functionals(grid, mean_match, GridMeasure(grid, w), LAM)
    assert fun.entropy == pytest.approx(-np.log(grid.volumes[17]), abs=1e-12)


def test_free_energy_combines_value_and_entropy(grid, mean_match):
    mu = uniform_measure(grid)
    fun = grid_functionals(grid, mean_match, mu, LAM)
    assert fun.free_energy == pytest.approx(fun.value + LAM * fun.entropy, abs=1e-15)


def test_grid_rejects_network_objective(grid, rng):
    net = NetworkRisk(features=rng.normal(size=(3, 2)), labels=rng.normal(size=3))
    with pytest.raises(ConfigError):
        grid_functionals(grid, net, uniform_measure(grid), LAM)


# -- proximal Gibbs ---------------------------------------------------------------

def test_gibbs_uniform_for_constant_potential(grid):
    obj = LinearPotential(alpha=(1.0, 1.0, 1.0), reference_temperature=LAM)
    gibbs = proximal_gibbs(grid, obj, uniform_measure(grid), LAM)
    assert np.allclose(gibbs.weights, 1.0 / grid.n_nodes, atol=1e-15)


def test_gibbs_uniform_when_mean_matches_target(grid, mean_match):
    # measure with mean exactly q: first variation is constant
    nodes = grid.nodes
    picks = [np.argmax(nodes @ v) for v in (np.array([1.0, 0, 0]),
                                            np.array([0, 1.0, 0]),
                                            np.array([0, 0, 1.0]))]
    basis = nodes[picks]
    coeff = np.linalg.solve(basis.T, np.array(Q))
    assert np.all(coeff > 0)
    w = np.zeros(grid.n_nodes)
    w[picks] = coeff / coeff.sum()
    mu = GridMeasure(grid, w)
    assert np.allclose(mean_match.stats(nodes, mu.weights).stats, Q, atol=1e-12)
    gibbs = proximal_gibbs(grid, mean_match, mu, LAM)
    assert np.max(np.abs(gibbs.weights * grid.n_nodes - 1.0)) <= 1e-10


def test_gibbs_matches_dirichlet_density(grid):
    obj = LinearPotential(alpha=(2.0, 2.0, 2.0), reference_temperature=LAM)
    gibbs = proximal_gibbs(grid, obj, uniform_measure(grid), LAM)
    truth = dirichlet_density(grid.nodes)
    rel = np.abs(gibbs.densities - truth) / truth
    assert np.max(rel) <= 1e-3


# -- fixed point -------------------------------------------------------------------

def test_linear_fixed_point_reached_in_one_application(grid):
    obj = LinearPotential(alpha=(2.0, 2.0, 2.0), reference_temperature=LAM)
    res = fixed_point_solve(grid, obj, LAM, damping=1.0)
    # first damped application already lands on the Gibbs measure
    assert res.residual_history[0] <= 1e-10
    assert np.allclose(res.measure.weights,
                       proximal_gibbs(grid, obj, res.measure, LAM).weights,
                       atol=1e-14)


def test_mean_match_fixed_point(grid, mean_match, solution):
    assert solution.residual < 1e-6
    gibbs = proximal_gibbs(grid, mean_match, solution.measure, LAM)
    rel = np.abs(gibbs.weights - solution.measure.weights) / solution.measure.weights
    assert np.max(rel) <= 1e-6


def test_fixed_point_damping_invariance(grid, mean_match, solution):
    quarter = fixed_point_solve(grid, mean_match, LAM, damping=0.25)
    assert np.max(np.abs(quarter.measure.weights - solution.measure.weights)) <= 1e-9
    # the undamped iteration of the linear objective agrees too
    obj = LinearPotential(alpha=(3.0, 2.0, 1.0), reference_temperature=LAM)
    full = fixed_point_solve(grid, obj, LAM, damping=1.0)
    half = fixed_point_solve(grid, obj, LAM, damping=0.5)
    assert np.max(np.abs(full.measure.weights - half.measure.weights)) <= 1e-9


def test_fixed_point_residual_monotone_under_half_damping(grid, mean_match, solution):
    hist = np.asarray(solution.residual_history)
    assert np.all(np.diff(hist) <= 1e-12)


def test_fixed_point_budget_error(grid, mean_match):
    with pytest.raises(NonConvergenceError) as err:
        fixed_point_solve(grid, mean_match, LAM, damping=0.5, tol=1e-8, max_iter=2)
    assert err.value.residual is not None


def test_refinement_consistency(mean_match):
    means = {}
    for r in (16, 32, 64):
        g = build_grid(r, 1e-4)
        res = fixed_point_solve(g, mean_match, LAM)
        means[r] = grid_functionals(g, mean_match, res.measure, LAM).mean
    first = np.max(np.abs(means[32] - means[16]))
    second = np.max(np.abs(means[64] - means[32]))
    assert second < 4 * first


# -- divergences --------------------------------------------------------------------

def test_kl_self_is_zero(grid, rng):
    mu = measure_from_weights(grid, rng.exponential(size=grid.n_nodes))
    assert kl_divergence(mu, mu) == pytest.approx(0.0, abs=1e-14)


def test_kl_uniform_vs_dirichlet_matches_direct_quadrature(grid):
    u = uniform_measure(grid)
    d = measure_from_weights(grid, dirichlet_density(grid.nodes) * grid.volumes)
    kl = kl_divergence(u, d)
    assert kl > 0
    direct = float(np.sum(u.weights * (np.log(u.densities)
                                       - np.log(dirichlet_density(grid.nodes)))))
    assert kl == pytest.approx(direct, abs=1e-3)


def test_kl_support_violation(grid):
    w = np.zeros(grid.n_nodes)
    w[:10] = 0.1
    nu = GridMeasure(grid, w)
    mu = uniform_measure(grid)
    with pytest.raises(SupportViolationError):
        kl_divergence(mu, nu)


def test_fisher_information_self_is_zero(grid):
    u = uniform_measure(grid)
    assert relative_fisher_information(u, u) == pytest.approx(0.0, abs=1e-6)


def test_fisher_information_positive_and_finite(grid):
    u = uniform_measure(grid)
    d = measure_from_weights(grid, dirichlet_density(grid.nodes) * grid.volumes)
    fi = relative_fisher_information(d, u)
    assert np.isfinite(fi) and fi > 0


def test_fisher_closed_form_matches_dense_inverse(rng):
    # g^T H^{-1} g as sum_c x_c g_c^2 - (x . g)^2 at every node, against a
    # solve with the simplex map's dense Hessian; then the Fisher information
    # itself against the sum of the dense forms over its stencil gradients
    grid = build_grid(16, 1e-4)
    mm = SimplexEntropyMap(ambient_dim=3)
    x = grid.intrinsic
    h = np.moveaxis(mm.metric_from_dual(mm.forward(x.T), 0.0)[0], -1, 0)

    def dense_form(g):
        return np.einsum("ni,ni->n", g, np.linalg.solve(h, g[..., None])[..., 0])

    g = rng.standard_normal(x.shape)
    closed = np.sum(x * g * g, axis=1) - np.sum(x * g, axis=1) ** 2
    np.testing.assert_allclose(closed, dense_form(g), rtol=1e-12, atol=0)

    u = uniform_measure(grid)
    d = measure_from_weights(grid, dirichlet_density(grid.nodes) * grid.volumes)
    grad = _stencil_gradient(grid, np.log(d.weights) - np.log(u.weights))
    expect = float(np.sum(d.weights * dense_form(grad)))
    assert relative_fisher_information(d, u) == pytest.approx(expect, rel=1e-12)


# -- entropy sandwich ------------------------------------------------------------------

def test_sandwich_at_solution_collapses_left(grid, mean_match, solution):
    res = entropy_sandwich_check(grid, mean_match, LAM, solution.measure,
                                 solution=solution.measure)
    assert res.passed
    assert res.lower == pytest.approx(0.0, abs=1e-12)
    assert abs(res.middle) <= 1e-8
    assert res.upper >= -1e-12


def test_sandwich_random_measures(grid, mean_match, solution, rng):
    for _ in range(20):
        mu = measure_from_weights(grid, rng.exponential(size=grid.n_nodes))
        res = entropy_sandwich_check(grid, mean_match, LAM, mu,
                                     solution=solution.measure)
        assert res.passed
        assert res.lower <= res.middle + 1e-3 * max(1, abs(res.middle))
        assert res.middle <= res.upper + 1e-3 * max(1, abs(res.middle))


def test_sandwich_linear_collapses_entirely(grid, rng):
    # proximal Gibbs equals the minimizer: both KL terms coincide
    obj = LinearPotential(alpha=(2.0, 1.5, 1.0), reference_temperature=LAM)
    solution = fixed_point_solve(grid, obj, LAM, damping=1.0)
    mu = measure_from_weights(grid, rng.exponential(size=grid.n_nodes))
    res = entropy_sandwich_check(grid, obj, LAM, mu, solution=solution.measure)
    assert res.passed
    assert res.lower == pytest.approx(res.upper, rel=1e-6)
    assert res.middle == pytest.approx(res.lower, rel=1e-6)


# -- export -------------------------------------------------------------------------

def test_export_solution_payload(grid, mean_match, solution):
    payload = export_solution(grid, mean_match, LAM, solution)
    assert payload["resolution"] == 64
    assert len(payload["weights"]) == grid.n_nodes
    assert payload["residual"] < 1e-6
    assert sum(payload["weights"]) == pytest.approx(1.0, abs=1e-9)
    import json
    json.dumps(payload)  # JSON-serializable
