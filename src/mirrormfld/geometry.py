"""Mirror maps of Legendre type on constrained convex domains.

Two barrier geometries are shipped:

* ``SimplexEntropyMap`` -- the entropy barrier ``phi(x) = sum_c X_c log X_c``
  on the open unit simplex, handled in *reduced* coordinates: a point with
  d = m + 1 ambient coordinates summing to one is represented by its first
  m coordinates, the last pinned to ``1 - sum(x)``.  The full softmax dual
  is shift-degenerate; pinning one coordinate restores a bijective gradient
  map onto R^m and a nonsingular Hessian.
* ``BoxLogBarrierMap`` -- the coordinate-wise log barrier
  ``-log(x_c - a_c) - log(b_c - x_c)`` on a product of open intervals.

Conventions
-----------
Arrays are coordinate-first: axis 0 is the coordinate axis and any further
axes index points, so an ensemble is one (m, N) array whose coordinates are
contiguous rows, and a single point is a 1-D (m,) array.  The one dense
matrix form, ``metric_from_dual``, is (m, m, ...) with the point axes last.
At the small m of the shipped settings, whole-row operations are far faster
than numpy reductions along a short last axis.  Every sum across coordinates
goes through ``coordinate_sum``, which adds in numpy's pairwise order, so
the results equal those of the (N, m) layout bit for bit at every m.
``forward`` is the gradient of the barrier (primal -> dual) and
``backward`` its inverse (dual -> primal, always interior-valued).

Each map has one diffusion-factor primitive, a Cholesky factor L of
``scale * H`` kept in its structured form: a diagonal for the box, a
diagonal plus one constant sub-diagonal per column for the simplex.
``diffusion_substep`` applies it matrix-free, in O(m) per particle.
``metric_from_dual`` returns the dense (H, L) built from the same primitive,
the one dense reference for the Hessian; it serves tests and checks, not the
sampler.

A substep leaves its inputs y and xi unchanged and holds few arrays of
their size.  The simplex substep peaks at the (d, n) ambient points plus the
factor's fresh (m, n) diagonal and one row: it copies out the near-face
columns of the ambient points and frees the points before the factor
allocates its (m - 1, n) ``col`` and a pivot row, then builds the kick in
the factor's root and the kick's running sum in ``col``.  The box substep builds its kick
in its (m, n) diagonal.

Everything here is a pure function of its inputs; no coordination is
needed between concurrent callers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, DomainViolationError, FactorizationError

Array = np.ndarray


def _as_points(x, dim, what):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[:1] != (dim,):
        raise ValueError(f"{what} must have first axis of length {dim}, got shape {x.shape}")
    return x


def _column(v, x):
    """The per-coordinate vector v shaped to broadcast against coordinate-first x."""
    return v.reshape(v.shape + (1,) * (np.ndim(x) - 1))


def _pairwise_sum(x):
    """numpy's pairwise summation of a contiguous row, applied to every column
    of x: sequential below 8 terms, eight interleaved accumulators up to 128,
    halves split at a multiple of 8 above that."""
    d = x.shape[0]
    if d < 8:
        out = x[0] + 0.0
        for row in x[1:]:
            out += row
        return out
    if d <= 128:
        acc = x[:8].copy()
        body = d - d % 8
        for i in range(8, body, 8):
            acc += x[i:i + 8]
        out = (acc[0] + acc[1]) + (acc[2] + acc[3])
        out += (acc[4] + acc[5]) + (acc[6] + acc[7])
        for row in x[body:]:
            out += row
        return out
    half = d // 2
    half -= half % 8
    out = _pairwise_sum(x[:half])
    out += _pairwise_sum(x[half:])
    return out


def coordinate_sum(x: Array) -> Array:
    """Sum over axis 0, bit for bit what ``np.sum(a, axis=-1)`` gives for the
    row-major ``a = np.ascontiguousarray(x.T)``.

    numpy's reduction starts from the identity +0.0, which shows only in
    the sign of a zero sum; NaN payloads may differ.
    """
    out = _pairwise_sum(x)
    if x.shape[0] >= 8:
        out += 0.0
    return out


def _diag_matrix(d):
    """Dense (m, m, ...) matrix with d on the diagonal and zeros elsewhere."""
    m = d.shape[0]
    out = np.zeros((m,) + d.shape)
    idx = np.arange(m)
    out[idx, idx] = d
    return out


def _diag_rank_one_factor(diag, bump, what):
    """Cholesky factor of diag(diag) + bump * ones(m, m), batched, as (root, col).

    Column k of the factor holds root[k] on the diagonal and the constant
    col[k] everywhere below it; root is (m, ...) like diag, and col is
    (m - 1, ...), since the last column has nothing below its diagonal.
    The pivot recursion for this structure is cancellation-free -- the
    Schur-complement bump updates as bump * d_k / (d_k + bump), a positive
    product -- so the factorization succeeds whenever the inputs are
    positive and finite, even when the rank-one term dominates by hundreds
    of orders of magnitude (LAPACK's generic routine breaks down there).

    ``diag`` and ``bump`` are consumed: fresh arrays from the caller, diag
    overwritten row by row as ``root`` once its row has fed the recursion,
    bump overwritten by the running Schur-complement bump.  Besides its
    inputs the factor costs ``col`` and one pivot row.
    """
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(bump))):
        raise FactorizationError(f"{what}: non-finite Hessian entries (point at boundary?)")
    shape, m = diag.shape, diag.shape[0]
    root = diag.reshape(m, -1)
    bump = bump.reshape(-1)
    col = np.empty((m - 1, root.shape[1]))
    pivot = np.empty(root.shape[1])
    # pivots are checked once at the end: a nonpositive one leaves a
    # nonpositive or NaN root behind; col[k] holds the ratio until the end
    # of its row
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(m):
            np.add(root[k], bump, out=pivot)
            if k + 1 < m:
                ratio = np.divide(bump, pivot, out=col[k])
                np.multiply(root[k], ratio, out=bump)
            np.sqrt(pivot, out=root[k])
            if k + 1 < m:
                ratio *= root[k]
    if not np.all(root > 0):
        raise FactorizationError(f"{what}: Hessian not numerically SPD")
    return root.reshape(shape), col.reshape((m - 1,) + shape[1:])


def _diag_root(d, scale):
    """sqrt(scale * d), the diagonal factor of scale * diag(d)."""
    sd = scale * d
    if not np.all(np.isfinite(sd)):
        raise FactorizationError("box metric: non-finite Hessian entries (point at boundary?)")
    return np.sqrt(sd, out=sd)


def _direction(u, x):
    """u as a direction at each point of x: same shape, no column all zero."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != x.shape:
        raise ValueError(f"direction shape {u.shape} differs from point shape {x.shape}")
    if not np.all(np.any(u != 0.0, axis=0)):
        raise ValueError("self-concordance direction must be nonzero")
    return u


@dataclass(frozen=True)
class SimplexEntropyMap:
    """Entropy barrier on the unit simplex in reduced coordinates.

    ``ambient_dim`` is the number of simplex coordinates d; the intrinsic
    dimension is m = d - 1.  Operations accept the true open domain: every
    ambient coordinate, including the pinned last one, strictly positive.
    """

    ambient_dim: int
    kind: str = field(default="simplex-entropy", init=False)

    def __post_init__(self):
        if self.ambient_dim < 2:
            raise ConfigError("simplex ambient dimension must be at least 2")

    @property
    def intrinsic_dim(self) -> int:
        return self.ambient_dim - 1

    # -- domain --------------------------------------------------------

    def last_coordinate(self, x: Array) -> Array:
        x = _as_points(x, self.intrinsic_dim, "primal point")
        return 1.0 - coordinate_sum(x)

    def require_interior(self, x: Array, what: str = "point") -> Array:
        x = _as_points(x, self.intrinsic_dim, what)
        worst = float(min(np.min(x), np.min(self.last_coordinate(x))))
        if not worst > 0.0:
            raise DomainViolationError(
                f"{what} on or outside the simplex boundary "
                f"(worst coordinate {worst:.3e})"
            )
        return x

    # -- embedding ------------------------------------------------------

    def embed(self, x: Array) -> Array:
        """Append the pinned coordinate: (m, ...) -> (m+1, ...)."""
        x = _as_points(x, self.intrinsic_dim, "primal point")
        return np.concatenate([x, self.last_coordinate(x)[None]], axis=0)

    def pullback(self, g_ambient: Array) -> Array:
        """Chain rule through the affine embedding: g_c - g_d, C-contiguous."""
        g = _as_points(g_ambient, self.ambient_dim, "ambient gradient")
        return np.subtract(g[:-1], g[-1], out=np.empty((self.intrinsic_dim,) + g.shape[1:]))

    # -- gradient maps ----------------------------------------------------

    def forward(self, x: Array) -> Array:
        """Mirror map: y_c = log(x_c / x_d) with x_d the pinned coordinate."""
        x = self.require_interior(x, "mirror_forward input")
        return np.log(x) - np.log(self.last_coordinate(x))

    def backward(self, y: Array) -> Array:
        """Inverse mirror map, the pinned-coordinate softmax.

        Overflow-safe: the shift max(0, max_c y_c) keeps every exponent
        nonpositive, so dual coordinates of magnitude in the hundreds are
        handled without overflow.
        """
        return self.ambient_from_dual(y)[:-1]

    def ambient_from_dual(self, y: Array) -> Array:
        """All d ambient coordinates of backward(y), each relative-accurate.

        The pinned coordinate is exp(-shift)/denom rather than 1 - sum(x),
        so points with x_d below machine epsilon keep a faithful (positive)
        representation; the dynamics leans on this to track particles near
        the pinned face.
        """
        y = _as_points(y, self.intrinsic_dim, "dual point")
        shift = np.maximum(np.max(y, axis=0), 0.0)
        e = np.empty((self.ambient_dim,) + y.shape[1:])
        np.subtract(y, shift, out=e[:-1])
        np.negative(shift, out=e[-1:])
        np.exp(e, out=e)
        e /= coordinate_sum(e)
        return e

    # -- Hessian metric ---------------------------------------------------

    def metric_from_dual(self, y: Array, scale: float) -> tuple[Array, Array]:
        """Dense (H, L) at x = backward(y): the reduced Hessian
        H = diag(1/x_c) + (1/x_d) 11^T and L L^T = scale * H, from the factor
        ``diffusion_substep`` applies; both (m, m, ...)."""
        if scale < 0:
            raise ValueError("metric scale must be nonnegative")
        ambient = self.ambient_from_dual(y)
        h = _diag_matrix(1.0 / ambient[:-1]) + 1.0 / ambient[-1]
        if scale == 0.0:
            return h, np.zeros_like(h)
        root, col = _diag_rank_one_factor(scale / ambient[:-1], scale / ambient[-1],
                                          "simplex metric")
        m = self.intrinsic_dim
        ell = _diag_matrix(root)
        ell[:, :-1] += np.where(_column(np.tri(m, m - 1, k=-1, dtype=bool), root),
                                col[None], 0.0)
        return h, ell

    def diffusion_substep(self, y: Array, scale: float, xi: Array,
                          step_cap: float | None = None) -> Array:
        """One substep of the pure mirror diffusion with window 2*lambda*h.

        Euler-Maruyama everywhere the kick is resolvable: y + L xi with
        L L^T = scale * H, components clipped at ``step_cap``.  Within
        ``scale / step_cap**2`` of a face the Euler kick is meaningless (its
        scale exceeds the cap and a clipped walk piles mass arbitrarily
        deep), so the offending face distance is redrawn instead from
        (lambda h) * Exp(1).  That is the one-substep law of the face
        distance, a squared Bessel process, only for dimension 2 (a smooth
        drift) started at depth 0; it ignores the start depth and a
        potential whose first variation blows up at the face, such as
        Dirichlet alpha_c < 1, so it is an approximation inside the layer,
        not the exact law there.  The draw reuses the particle's first
        normal through the normal CDF, keeping the one-value-per-draw stream
        protocol intact.  ``step_cap=None`` disables both the cap and the
        near-face redraw.
        """
        y = _as_points(y, self.intrinsic_dim, "dual point")
        xi = np.asarray(xi, dtype=np.float64)
        ambient = self.ambient_from_dual(y)
        near = None
        if step_cap is not None:
            deep = np.min(ambient, axis=0) < scale / step_cap ** 2
            if np.any(deep):
                near = ambient[:, deep]
        # the factor's inputs are fresh, so it builds in them; ambient is
        # freed before it allocates
        diag, bump = scale / ambient[:-1], scale / ambient[-1]
        del ambient
        kick, col = _diag_rank_one_factor(diag, bump, "simplex metric")
        # the kick is built in the factor's root: L xi in O(m), since column k
        # of L is constant below its diagonal, so row k adds the running sum
        # of col * xi over earlier rows, built in col.  Started from
        # col[0] * xi[0], not from +0.0, the sum can differ from one started
        # at +0.0 only in the sign of a zero, which takes an xi of -0.0
        kick *= xi
        col *= xi[:-1]
        for k in range(1, len(col)):
            col[k] += col[k - 1]
        kick[1:] += col
        if step_cap is not None:
            np.clip(kick, -step_cap, step_cap, out=kick)
        kick += y
        if near is not None:
            face = np.argmin(near, axis=0)
            exp_draw = -np.log1p(-ndtr(xi[0, deep]))
            near[face, np.arange(near.shape[1])] = 0.5 * scale * exp_draw
            near /= coordinate_sum(near)
            kick[:, deep] = np.log(near[:-1]) - np.log(near[-1])
        return kick

    # -- self-concordance -------------------------------------------------

    def self_concordance(self, x: Array, u: Array) -> Array:
        """|D^3 phi(x)[u,u,u]| / (2 (D^2 phi(x)[u,u])^{3/2}) per point, in
        closed form.  With s = sum(u) and x_d the pinned coordinate,
        D^2 = sum u_c^2/x_c + s^2/x_d and D^3 = -sum u_c^3/x_c^2 + s^3/x_d^2.

        The conjugate barrier's ratio at a dual point y along v is this one
        at backward(y) along H^{-1} v, since D^3 phi* = -D^3 phi there.
        """
        x = self.require_interior(x, "self-concordance point")
        u = _direction(u, x)
        xd = self.last_coordinate(x)
        s = coordinate_sum(u)
        ux = u / x
        second = coordinate_sum(ux * u) + s * s / xd
        third = s ** 3 / (xd * xd) - coordinate_sum(ux * ux * u)
        return np.abs(third) / (2.0 * second ** 1.5)


@dataclass(frozen=True)
class BoxLogBarrierMap:
    """Coordinate-wise log barrier on the open box prod_c (a_c, b_c)."""

    bounds: tuple
    kind: str = field(default="box-log-barrier", init=False)

    def __post_init__(self):
        arr = np.asarray(self.bounds, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ConfigError("box bounds must be a sequence of (a, b) pairs")
        if not np.all(arr[:, 0] < arr[:, 1]):
            raise ConfigError("box bounds require a_c < b_c for every coordinate")
        object.__setattr__(self, "bounds", tuple(map(tuple, arr)))
        object.__setattr__(self, "_lo", arr[:, 0])
        object.__setattr__(self, "_hi", arr[:, 1])

    @property
    def intrinsic_dim(self) -> int:
        return len(self.bounds)

    @property
    def ambient_dim(self) -> int:
        return len(self.bounds)

    @property
    def lower(self) -> Array:
        return self._lo

    @property
    def upper(self) -> Array:
        return self._hi

    # -- domain --------------------------------------------------------

    def require_interior(self, x: Array, what: str = "point") -> Array:
        x = _as_points(x, self.intrinsic_dim, what)
        lo, hi = _column(self._lo, x), _column(self._hi, x)
        worst = float(np.min(np.minimum(x - lo, hi - x)))
        if not worst > 0.0:
            raise DomainViolationError(
                f"{what} on or outside the box boundary (worst margin {worst:.3e})"
            )
        return x

    # -- embedding (identity) -------------------------------------------

    def embed(self, x: Array) -> Array:
        return _as_points(x, self.intrinsic_dim, "primal point")

    def pullback(self, g_ambient: Array) -> Array:
        """The identity, C-contiguous (a copy unless g_ambient already is)."""
        return np.ascontiguousarray(_as_points(g_ambient, self.intrinsic_dim, "ambient gradient"))

    # -- gradient maps ----------------------------------------------------

    def forward(self, x: Array) -> Array:
        """Barrier gradient -1/(x - a) + 1/(b - x), coordinate-wise."""
        x = self.require_interior(x, "mirror_forward input")
        return -1.0 / (x - _column(self._lo, x)) + 1.0 / (_column(self._hi, x) - x)

    def _wall_gaps(self, y: Array) -> tuple[Array, Array]:
        """Stable (x - a, b - x) for x = backward(y), both relative-accurate."""
        y = _as_points(y, self.intrinsic_dim, "dual point")
        w = _column(self._hi - self._lo, y)
        ybar = y * w
        s = ybar * ybar
        s += 4.0
        np.sqrt(s, out=s)
        lo_gap = s - ybar
        lo_gap += 2.0
        s += ybar
        s += 2.0
        return np.divide(2.0 * w, lo_gap, out=lo_gap), np.divide(2.0 * w, s, out=s)

    def backward(self, y: Array) -> Array:
        """Invert the barrier gradient per coordinate.

        The inversion reduces to the quadratic y u^2 + (2 - yw) u - w = 0 in
        u = x - a with w = b - a, whose interior root is, in cancellation-free
        form with s = sqrt((yw)^2 + 4),

            x - a = 2w / (s - yw + 2),      b - x = 2w / (s + yw + 2).

        The first expression is exact for y <= 0 and the second for y >= 0;
        evaluating from the nearer wall keeps the result strictly interior
        for all dual points of practical magnitude.
        """
        lo_gap, hi_gap = self._wall_gaps(y)
        y = np.asarray(y, dtype=np.float64)
        lo, hi = _column(self._lo, y), _column(self._hi, y)
        return np.where(y * (hi - lo) <= 0.0, lo + lo_gap, hi - hi_gap)

    ambient_from_dual = backward

    # -- Hessian metric ---------------------------------------------------

    def _hessian_diagonal_from_dual(self, y: Array) -> Array:
        """The Hessian diagonal 1/(x - a)^2 + 1/(b - x)^2 at x = backward(y),
        with the wall gaps taken stably from y and squared in place."""
        lo_gap, hi_gap = self._wall_gaps(y)
        lo_gap *= lo_gap
        np.divide(1.0, lo_gap, out=lo_gap)
        hi_gap *= hi_gap
        np.divide(1.0, hi_gap, out=hi_gap)
        lo_gap += hi_gap
        return lo_gap

    def metric_from_dual(self, y: Array, scale: float) -> tuple[Array, Array]:
        """Dense (H, L) at backward(y): H the diagonal Hessian and
        L L^T = scale * H, from the factor ``diffusion_substep`` applies."""
        if scale < 0:
            raise ValueError("metric scale must be nonnegative")
        d = self._hessian_diagonal_from_dual(y)
        h = _diag_matrix(d)
        if scale == 0.0:
            return h, np.zeros_like(h)
        return h, _diag_matrix(_diag_root(d, scale))

    def diffusion_substep(self, y: Array, scale: float, xi: Array,
                          step_cap: float | None = None) -> Array:
        """Euler-Maruyama substep of the pure mirror diffusion, with no
        near-wall special case.

        Near a wall the uncapped kick is the multiplicative walk
        y (1 + sqrt(scale) xi), whose log-gap has an inward drift.  Where
        ``step_cap`` binds the walk turns additive and that drift is lost, so
        capped steps let mass drain into the walls: the wall layer's share
        grows with run time, up to 19 times the exact law's on the
        network-risk box after 5000 steps.
        """
        kick = _diag_root(self._hessian_diagonal_from_dual(y), scale)
        kick *= xi
        if step_cap is not None:
            np.clip(kick, -step_cap, step_cap, out=kick)
        kick += y
        return kick

    # -- self-concordance -------------------------------------------------

    def self_concordance(self, x: Array, u: Array) -> Array:
        """|D^3 phi(x)[u,u,u]| / (2 (D^2 phi(x)[u,u])^{3/2}) per point, in
        closed form: D^2 = sum u_c^2 (1/(x-a)^2 + 1/(b-x)^2) and
        D^3 = sum 2 u_c^3 (1/(b-x)^3 - 1/(x-a)^3).  Conjugate side as for
        the simplex map."""
        x = self.require_interior(x, "self-concordance point")
        u = _direction(u, x)
        lo = u / (x - _column(self._lo, x))
        hi = u / (_column(self._hi, x) - x)
        second = coordinate_sum(lo * lo + hi * hi)
        third = 2.0 * coordinate_sum(hi ** 3 - lo ** 3)
        return np.abs(third) / (2.0 * second ** 1.5)
