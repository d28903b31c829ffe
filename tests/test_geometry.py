"""Identity and accuracy tests for the two mirror maps."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from mirrormfld.errors import ConfigError, DomainViolationError, FactorizationError
from mirrormfld.geometry import (
    BoxLogBarrierMap,
    SimplexEntropyMap,
    coordinate_sum,
    self_concordance_probe,
)

from conftest import interior_box_points, interior_simplex_points


# The mirror maps take coordinate-first (m, N) batches and return dense
# matrices as (m, m, N); the tests build (N, m) rows and transpose.

def _stack(mats):
    """An (m, m, N) batch of matrices as an (N, m, m) stack for ``@``."""
    return np.moveaxis(mats, -1, 0)


# -- worked values ----------------------------------------------------------

def test_simplex_forward_barycenter(simplex3):
    y = simplex3.forward(np.array([1 / 3, 1 / 3]))
    assert np.allclose(y, 0.0, atol=1e-14)


def test_simplex_forward_closed_form(simplex3):
    y = simplex3.forward(np.array([0.5, 0.3]))
    assert np.allclose(y, [np.log(2.5), np.log(1.5)], atol=1e-12)


def test_simplex_backward_softmax_of_zeros(simplex3):
    assert np.allclose(simplex3.backward(np.zeros(2)), [1 / 3, 1 / 3], atol=1e-15)


def test_box_backward_midpoint(unit_box):
    assert unit_box.backward(np.array([0.0])) == pytest.approx(0.5, abs=1e-15)


def test_box_backward_quadratic_root(unit_box):
    # interior root of the barrier-gradient quadratic at y = 3
    x = unit_box.backward(np.array([3.0]))[0]
    assert x == pytest.approx((1 + np.sqrt(13)) / 6, abs=1e-12)
    assert unit_box.forward(np.array([x]))[0] == pytest.approx(3.0, abs=1e-4)


def test_simplex_metric_barycenter(simplex3):
    # dual 0 is the barycenter
    h, ell = simplex3.metric_from_dual(np.zeros(2), 1.0)
    assert np.allclose(h, [[6.0, 3.0], [3.0, 6.0]], atol=1e-12)
    assert np.allclose(ell, [[np.sqrt(6), 0.0], [3 / np.sqrt(6), np.sqrt(4.5)]],
                       atol=1e-12)


def test_metric_zero_scale_gives_zero_factor(simplex3, box2):
    for mm, x in ((simplex3, np.array([0.2, 0.5])), (box2, np.array([0.5, 0.5]))):
        _, ell = mm.metric_from_dual(mm.forward(x), 0.0)
        assert np.all(ell == 0.0)


def test_embed_and_pullback(simplex3, box2):
    assert np.allclose(simplex3.embed(np.array([0.5, 0.3])), [0.5, 0.3, 0.2])
    g = simplex3.pullback(np.array([-0.2, 0.0, 0.2]))
    assert np.allclose(g, [-0.4, -0.2])
    g2 = box2.pullback(np.array([0.3, -0.1]))
    assert np.allclose(g2, [0.3, -0.1])
    assert np.allclose(box2.embed(np.array([0.5, 0.5])), [0.5, 0.5])


# -- sums across coordinates ----------------------------------------------------

_SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e300])


def _same_bits(a, b):
    """Bit-equal, except that NaN payloads (not fixed by IEEE arithmetic) are free."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from([2, 3, 7, 8, 9, 16, 17, 50, 128, 129, 500]),
       rows=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       lowest=st.integers(-300, 300), span=st.integers(0, 600),
       specials=st.lists(st.tuples(st.integers(0, 2000), _SPECIAL), max_size=4))
def test_coordinate_sum_is_numpy_row_sum_bit_for_bit(d, rows, seed, lowest, span, specials):
    # normals scaled by powers of ten between 10^lowest and 10^(lowest + span),
    # capped at 1e300; then a few entries set to inf, NaN, signed zeros or
    # subnormals
    rng = np.random.default_rng(seed)
    exponents = rng.integers(lowest, min(lowest + span, 300) + 1, size=(rows, d))
    x = rng.standard_normal((rows, d)) * 10.0 ** exponents
    for pos, value in specials:
        x.flat[pos % x.size] = value
    with np.errstate(over="ignore", invalid="ignore"):
        expect = np.sum(x, axis=-1)
        assert _same_bits(coordinate_sum(np.ascontiguousarray(x.T)), expect)
        assert _same_bits(coordinate_sum(x.T), expect)        # strided rows
        assert _same_bits(coordinate_sum(x[0]), expect[0])    # a single point


@pytest.mark.parametrize("d", [2, 3, 7, 8, 9, 10, 16, 17, 50, 51, 128, 129, 200, 500, 1000])
def test_coordinate_sum_of_normals(d):
    # same-magnitude terms, where any change of summation order shows
    x = np.random.default_rng(d).standard_normal((64, d))
    assert _same_bits(coordinate_sum(x.T), np.sum(x, axis=-1))


@pytest.mark.parametrize("d", [2, 3, 7, 8, 9, 50, 129, 500])
def test_coordinate_sum_signed_zero(d):
    # numpy's reduction starts from +0.0, so a row of -0.0 sums to +0.0
    x = np.full((2, d), -0.0)
    x[1, 0] = 0.0
    assert _same_bits(coordinate_sum(x.T), np.sum(x, axis=-1))


# -- round trips --------------------------------------------------------------

def test_simplex_round_trip(simplex3, rng):
    pts = interior_simplex_points(rng, 1000).T
    err = np.max(np.abs(simplex3.backward(simplex3.forward(pts)) - pts))
    assert err <= 1e-10


def test_box_round_trip(box2, rng):
    pts = interior_box_points(rng, box2, 1000, least=1e-6).T
    err = np.max(np.abs(box2.backward(box2.forward(pts)) - pts))
    assert err <= 1e-10


def test_box_dual_round_trip(box2, rng):
    y = rng.uniform(-20, 20, size=(1000, 2)).T
    err = np.max(np.abs(box2.forward(box2.backward(y)) - y))
    assert err <= 1e-8


def test_simplex_dual_round_trip(simplex3, rng):
    # Near the pinned face the intrinsic doubles cannot encode x_d below
    # machine epsilon, so the attainable error is eps / x_d; the 1e-8 target
    # applies wherever the point is representable (x_d >= 1e-7) and the
    # machine envelope is asserted everywhere.
    y = rng.uniform(-20, 20, size=(1000, 2)).T
    back = simplex3.backward(y)
    err = np.max(np.abs(simplex3.forward(back) - y), axis=0)
    smallest = np.min(simplex3.embed(back), axis=0)
    assert np.all(err <= np.maximum(1e-8, 8 * np.finfo(float).eps / smallest))
    conditioned = smallest >= 1e-7
    assert conditioned.sum() > 400
    assert np.max(err[conditioned]) <= 1e-8


def test_ambient_from_dual_tracks_extreme_points(simplex3):
    y = np.array([[40.0, -10.0], [300.0, 299.0], [-200.0, -100.0]])
    amb = simplex3.ambient_from_dual(y.T).T
    assert np.all(amb > 0)
    assert np.allclose(amb.sum(axis=1), 1.0)
    # pinned coordinate keeps relative accuracy far below machine epsilon
    assert amb[1, 2] == pytest.approx(np.exp(-300) / (1 + np.exp(-1) + np.exp(-300)),
                                      rel=1e-12)


# -- Hessian identities -------------------------------------------------------

def _fd_hessian(mm, x, h=1e-6):
    m = x.size
    out = np.zeros((m, m))
    for c in range(m):
        e = np.zeros(m)
        e[c] = h
        out[:, c] = (mm.forward(x + e) - mm.forward(x - e)) / (2 * h)
    return 0.5 * (out + out.T)


def test_hessian_matches_forward_differences(simplex3, box2, rng):
    for mm, pts in ((simplex3, interior_simplex_points(rng, 50, least=0.05)),
                    (box2, interior_box_points(rng, box2, 50, least=0.05))):
        for x in pts:
            h = mm.metric_from_dual(mm.forward(x), 0.0)[0]
            fd = _fd_hessian(mm, x)
            assert np.max(np.abs(fd - h)) <= 1e-5 * np.max(np.abs(h))


def test_dual_hessian_from_backward_differences(simplex3, rng):
    # finite differences of mirror_backward at forward(x) invert the metric
    pts = interior_simplex_points(rng, 20, least=0.05)
    for x in pts:
        y = simplex3.forward(x)
        m = x.size
        fd = np.zeros((m, m))
        h = 1e-6
        for c in range(m):
            e = np.zeros(m)
            e[c] = h
            fd[:, c] = (simplex3.backward(y + e) - simplex3.backward(y - e)) / (2 * h)
        hess, _ = simplex3.metric_from_dual(y, 1.0)
        assert np.max(np.abs(hess @ fd - np.eye(m))) <= 1e-4


def test_gradient_map_monotone(simplex3, rng):
    pts = interior_simplex_points(rng, 400)
    a, b = pts[:200], pts[200:]
    inner = np.sum((simplex3.forward(a.T) - simplex3.forward(b.T)) * (a - b).T, axis=0)
    assert np.all(inner > 0)


def test_factor_reproduces_scaled_hessian(simplex3, box2, rng):
    for mm, pts in ((simplex3, interior_simplex_points(rng, 300)),
                    (box2, interior_box_points(rng, box2, 300, least=1e-4))):
        for scale in (1.0, 0.37, 2e-4):
            h, ell = map(_stack, mm.metric_from_dual(mm.forward(pts.T), scale))
            err = np.abs(ell @ np.swapaxes(ell, -1, -2) - scale * h)
            assert np.max(err / np.maximum(scale * np.abs(h).max(axis=(-1, -2),
                                                           keepdims=True), 1e-300)) <= 1e-12


def test_metric_from_dual_matches_primal_closed_form(simplex3, box2, rng):
    # H at forward(x) against the Hessian written in x: diag(1/x_c) + 1/x_d
    # for the simplex, 1/(x - a)^2 + 1/(b - x)^2 for the box
    x = interior_simplex_points(rng, 100)
    closed = (np.eye(2) / x[:, None, :]) + 1.0 / (1.0 - x.sum(axis=1))[:, None, None]
    xb = interior_box_points(rng, box2, 100, least=1e-3)
    diag = 1.0 / (xb - box2.lower) ** 2 + 1.0 / (box2.upper - xb) ** 2
    for mm, pts, expect in ((simplex3, x, closed),
                            (box2, xb, np.eye(2) * diag[:, None, :])):
        for scale in (0.0, 0.7):
            h = _stack(mm.metric_from_dual(mm.forward(pts.T), scale)[0])
            np.testing.assert_allclose(h, expect, rtol=1e-9, atol=0)


def test_rank_one_cholesky_survives_extreme_conditioning(simplex3):
    # pinned coordinate ~1e-40: LAPACK's generic factorization fails here
    y = np.array([[46.0, 45.0]])
    h, ell = map(_stack, simplex3.metric_from_dual(y.T, 6e-4))
    assert np.all(np.isfinite(ell))
    prod = ell @ np.swapaxes(ell, -1, -2)
    assert np.allclose(prod, 6e-4 * h, rtol=1e-10)


# -- matrix-free kicks against the dense factor -------------------------------

def _dense_kick(mm, y, scale, xi):
    """The dense factor of (N, m) rows and its kick L xi, as (N, m, m) and (N, m)."""
    ell = _stack(mm.metric_from_dual(y.T, scale)[1])
    return ell, np.einsum("...ij,...j->...i", ell, xi)


@pytest.mark.parametrize("dim", [3, 10, 50])
def test_simplex_kick_matches_dense_factor(dim, rng):
    # bulk duals plus near-face ones: pinned coordinate ~1e-20 and a
    # coordinate ~e^-300 whose Hessian entry is ~1e130
    m = dim - 1
    y = rng.uniform(-20, 20, size=(300, m))
    y[0] = 46.0 - np.arange(m)
    y[1] = -300.0
    y[2, 0] = -300.0
    xi = rng.standard_normal(y.shape)
    mm = SimplexEntropyMap(ambient_dim=dim)
    ell, dense = _dense_kick(mm, y, 6e-4, xi)
    got = mm.diffusion_substep(y.T, 6e-4, xi.T).T
    if dim == 3:
        assert np.array_equal(got, y + dense)
    else:
        size = np.abs(y) + np.einsum("...ij,...j->...i", np.abs(ell), np.abs(xi))
        assert np.max(np.abs(got - (y + dense)) / size) <= 1e-12


def _reference_factor(diag, bump):
    """The pivot recursion of ``_diag_rank_one_factor`` on its own copies:
    a copied bump and an (m, N) col whose last row stays zero."""
    m = diag.shape[0]
    root = diag.copy()
    col = np.zeros(root.shape)
    bump = np.broadcast_to(bump, root.shape[1:]).copy()
    pivot = np.empty(root.shape[1:])
    for k in range(m):
        np.add(root[k], bump, out=pivot)
        if k + 1 < m:
            ratio = np.divide(bump, pivot, out=col[k])
            np.multiply(root[k], ratio, out=bump)
        np.sqrt(pivot, out=root[k])
        if k + 1 < m:
            ratio *= root[k]
    return root, col


def _reference_kick(mm, y, scale, xi, step_cap=None):
    """The simplex substep with the kick's running sum in its own row,
    started at +0.0 and added row by row, and every array kept to the end."""
    ambient = mm.ambient_from_dual(y)
    kick, col = _reference_factor(scale / ambient[:-1], scale / ambient[-1])
    kick *= xi
    running = np.zeros(y.shape[1:])
    for k in range(1, mm.intrinsic_dim):
        running += col[k - 1] * xi[k - 1]
        kick[k] += running
    if step_cap is not None:
        np.clip(kick, -step_cap, step_cap, out=kick)
    kick += y
    if step_cap is not None:
        deep = np.min(ambient, axis=0) < scale / step_cap ** 2
        if np.any(deep):
            amb = ambient[:, deep]
            face = np.argmin(amb, axis=0)
            exp_draw = -np.log1p(-ndtr(xi[0, deep]))
            amb[face, np.arange(amb.shape[1])] = 0.5 * scale * exp_draw
            amb /= coordinate_sum(amb)
            kick[:, deep] = np.log(amb[:-1]) - np.log(amb[-1])
    return kick


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("duals", ["random", "near-face"])
@pytest.mark.parametrize("step_cap", [None, 4.0])
@pytest.mark.parametrize("dim", [2, 3, 50])
def test_simplex_kick_equals_row_by_row_reference(dim, step_cap, duals, rng):
    # the kick and the dense factor, built in fewer arrays, equal the
    # row-by-row reference as uint64 words; near-face duals put about half
    # the columns inside the redraw layer min(x) < scale / cap**2
    m, n, scale = dim - 1, 400, 6e-4
    mm = SimplexEntropyMap(ambient_dim=dim)
    if duals == "random":
        y = rng.uniform(-20, 20, size=(m, n))
    else:
        amb = rng.dirichlet(np.ones(dim), size=n)
        amb[np.arange(n // 2), rng.integers(0, dim, n // 2)] = np.exp(
            rng.uniform(np.log(1e-9), np.log(1e-3), n // 2))
        y = (np.log(amb[:, :-1]) - np.log(amb[:, -1:])).T.copy()
        y[:, 0] = 46.0 - np.arange(m)
        y[:, 1] = -300.0
        y[0, 2] = -300.0
        deep = mm.ambient_from_dual(y).min(axis=0) < scale / 4.0 ** 2
        assert 0 < deep.sum() < n
    xi = rng.standard_normal((m, n))
    y_in, xi_in = y.copy(), xi.copy()
    got = mm.diffusion_substep(y, scale, xi, step_cap=step_cap)
    assert got.shape == (m, n) and got.flags.c_contiguous
    assert np.array_equal(_bits(got), _bits(_reference_kick(mm, y, scale, xi, step_cap)))
    assert np.array_equal(_bits(y), _bits(y_in)) and np.array_equal(_bits(xi), _bits(xi_in))
    ambient = mm.ambient_from_dual(y)
    root, col = _reference_factor(scale / ambient[:-1], scale / ambient[-1])
    below = np.tri(m, k=-1, dtype=bool)[:, :, None]
    dense = np.where(below, col[None], 0.0) + root[None] * np.eye(m)[:, :, None]
    assert np.array_equal(_bits(mm.metric_from_dual(y, scale)[1]), _bits(dense))


def test_box_kick_matches_dense_factor_bit_for_bit(box2, rng):
    y = rng.uniform(-1e3, 1e3, size=(500, 2))
    xi = rng.standard_normal(y.shape)
    _, dense = _dense_kick(box2, y, 6e-4, xi)
    assert np.array_equal(box2.diffusion_substep(y.T, 6e-4, xi.T).T, y + dense)
    assert np.array_equal(box2.diffusion_substep(y.T, 6e-4, xi.T, step_cap=4.0).T,
                          y + np.clip(dense, -4.0, 4.0))


def test_box_hessian_diagonal_is_closed_form_bit_for_bit(rng):
    # the diagonal the kick factors, against the closed form in the wall gaps
    box = BoxLogBarrierMap(bounds=((-3.0, 3.0), (0.0, 1e-3)))
    shape = (2, 1000)
    y = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 6, size=shape)
    gap_lo, gap_hi = box._wall_gaps(y)
    assert np.array_equal(box._hessian_diagonal_from_dual(y),
                          1.0 / gap_lo ** 2 + 1.0 / gap_hi ** 2)


@pytest.mark.parametrize("dim", [3, 10])
def test_tamed_simplex_kick(dim, rng):
    # ambient rows with one coordinate spread across [1e-7, 1e-3], which
    # straddles the near-face layer min(x) < scale / cap**2 = 3.75e-5, plus
    # a pinned coordinate ~1e-20 and coordinates ~e^-300
    m, scale, cap = dim - 1, 6e-4, 4.0
    amb = rng.dirichlet(np.ones(dim), size=400)
    small = np.arange(200)
    amb[small, rng.integers(0, dim, 200)] = np.exp(rng.uniform(np.log(1e-7),
                                                               np.log(1e-3), 200))
    y = np.log(amb[:, :-1]) - np.log(amb[:, -1:])
    y[0] = 46.0 - np.arange(m)
    y[1] = -300.0
    y[2, 0] = -300.0
    xi = rng.standard_normal(y.shape)
    mm = SimplexEntropyMap(ambient_dim=dim)
    got = mm.diffusion_substep(y.T, scale, xi.T, step_cap=cap).T
    assert np.all(np.isfinite(got)) and np.all(mm.ambient_from_dual(got.T) > 0)

    before = mm.ambient_from_dual(y.T).T
    deep = before.min(axis=1) < scale / cap ** 2
    ell, dense = _dense_kick(mm, y, scale, xi)
    assert 0 < deep.sum() < len(deep) and np.any(np.abs(dense[~deep]) > cap)
    tamed = y + np.clip(dense, -cap, cap)
    if dim == 3:
        assert np.array_equal(got[~deep], tamed[~deep])
    else:
        size = np.abs(y) + np.einsum("...ij,...j->...i", np.abs(ell), np.abs(xi))
        assert np.max((np.abs(got - tamed) / size)[~deep]) <= 1e-12
    # deep columns: the face coordinate is redrawn from the exact near-face
    # law, then the column is renormalised
    redrawn = before[deep].copy()
    face = np.argmin(redrawn, axis=1)
    redrawn[np.arange(len(face)), face] = 0.5 * scale * -np.log1p(-ndtr(xi[deep, 0]))
    redrawn /= redrawn.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(mm.ambient_from_dual(got[deep].T).T, redrawn,
                               rtol=1e-10, atol=0)


# -- errors -------------------------------------------------------------------

def test_forward_rejects_boundary_points(simplex3, unit_box):
    with pytest.raises(DomainViolationError):
        simplex3.forward(np.array([0.0, 0.5]))
    with pytest.raises(DomainViolationError):
        simplex3.forward(np.array([0.6, 0.4]))  # pinned coordinate zero
    with pytest.raises(DomainViolationError):
        unit_box.forward(np.array([1.0]))


def test_metric_rejects_boundary(simplex3):
    # the softmax of (800, 0) underflows to the vertex (1, 0, 0)
    with pytest.raises(FactorizationError), np.errstate(divide="ignore"):
        simplex3.metric_from_dual(np.array([800.0, 0.0]), 1.0)


def test_map_constructors_validate():
    assert SimplexEntropyMap(ambient_dim=4).intrinsic_dim == 3
    assert BoxLogBarrierMap(bounds=[(-3, 3)] * 2).ambient_dim == 2
    with pytest.raises(ConfigError):
        BoxLogBarrierMap(bounds=[(1.0, 0.0)])
    with pytest.raises(ConfigError):
        BoxLogBarrierMap(bounds=[(0.0, 1.0, 2.0)])
    with pytest.raises(ConfigError):
        SimplexEntropyMap(ambient_dim=1)


# -- self-concordance probe ---------------------------------------------------

def test_box_barrier_one_self_concordant(unit_box):
    ratios = [self_concordance_probe(unit_box, np.array([x]), np.array([1.0]))
              for x in np.linspace(0.05, 0.95, 19)]
    assert max(ratios) <= 1.0 + 1e-3


def test_probe_scale_invariant_in_direction(simplex3):
    x = np.array([0.4, 0.25])
    u = np.array([0.3, -0.7])
    r1 = self_concordance_probe(simplex3, x, u)
    r2 = self_concordance_probe(simplex3, x, 10.0 * u)
    assert r1 == pytest.approx(r2, abs=1e-6)


def test_probe_simplex_barycenter(simplex3):
    # (1, 1) has a genuine third derivative at the barycenter: the exact
    # ratio is sqrt(2)/4.  Along (1, -1) the cubic form vanishes there by
    # symmetry, so only stencil noise remains.
    r = self_concordance_probe(simplex3, np.array([1 / 3, 1 / 3]), np.array([1.0, 1.0]))
    assert r == pytest.approx(np.sqrt(2) / 4, abs=1e-6)
    r0 = self_concordance_probe(simplex3, np.array([1 / 3, 1 / 3]), np.array([1.0, -1.0]))
    assert 0.0 <= r0 <= 1e-8


def test_probe_conjugate_variant(unit_box, simplex3):
    r = self_concordance_probe(unit_box, np.array([2.0]), np.array([1.0]),
                               conjugate=True)
    assert np.isfinite(r) and r >= 0
    r = self_concordance_probe(simplex3, np.array([0.5, -0.3]), np.array([1.0, 1.0]),
                               conjugate=True)
    assert np.isfinite(r) and r >= 0


def test_probe_rejects_zero_direction(simplex3):
    with pytest.raises(ValueError):
        self_concordance_probe(simplex3, np.array([1 / 3, 1 / 3]), np.zeros(2))
