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
All operations take arrays whose last axis is the coordinate axis and
broadcast over leading axes, so an ensemble of shape (N, m) is handled in
one call.  ``forward`` is the gradient of the barrier (primal -> dual) and
``backward`` its inverse (dual -> primal, always interior-valued).

Each map has one diffusion-factor primitive, a Cholesky factor L of
``scale * H`` kept in its structured form: a diagonal for the box, a
diagonal plus one constant sub-diagonal per column for the simplex.
``diffusion_substep`` applies it matrix-free, in O(m) per particle.
``metric`` and ``metric_from_dual`` return the dense (H, L) built from the
same primitive; they serve tests and checks, not the sampler.

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
    if x.shape[-1:] != (dim,):
        raise ValueError(f"{what} must have last axis of length {dim}, got shape {x.shape}")
    return x


def _diag_matrix(d):
    """Dense (..., m, m) matrix with d on the diagonal and zeros elsewhere."""
    m = d.shape[-1]
    out = np.zeros(d.shape + (m,))
    idx = np.arange(m)
    out[..., idx, idx] = d
    return out


def _diag_rank_one_factor(diag, bump, what):
    """Cholesky factor of diag(diag) + bump * ones(m, m), batched, as (root, col).

    Column k of the factor holds root[..., k] on the diagonal and the
    constant col[..., k] everywhere below it; both are (..., m).  The pivot
    recursion for this structure is cancellation-free -- the
    Schur-complement bump updates as bump * d_k / (d_k + bump), a positive
    product -- so the factorization succeeds whenever the inputs are
    positive and finite, even when the rank-one term dominates by hundreds
    of orders of magnitude (LAPACK's generic routine breaks down there).
    """
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(bump))):
        raise FactorizationError(f"{what}: non-finite Hessian entries (point at boundary?)")
    m = diag.shape[-1]
    root = np.empty(diag.shape)
    col = np.zeros(diag.shape)
    bump = np.broadcast_to(bump, diag.shape[:-1]).copy()
    for k in range(m):
        pivot = diag[..., k] + bump
        if not np.all(pivot > 0):
            raise FactorizationError(f"{what}: Hessian not numerically SPD")
        root[..., k] = np.sqrt(pivot)
        if k + 1 < m:
            ratio = bump / pivot
            col[..., k] = ratio * root[..., k]
            bump = diag[..., k] * ratio
    return root, col


def _diag_root(d, scale):
    """sqrt(scale * d), the diagonal factor of scale * diag(d)."""
    sd = scale * d
    if not np.all(np.isfinite(sd)):
        raise FactorizationError("box metric: non-finite Hessian entries (point at boundary?)")
    return np.sqrt(sd)


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
        return 1.0 - np.sum(x, axis=-1)

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
        """Append the pinned coordinate: (..., m) -> (..., m+1)."""
        x = _as_points(x, self.intrinsic_dim, "primal point")
        return np.concatenate([x, self.last_coordinate(x)[..., None]], axis=-1)

    def pullback(self, g_ambient: Array) -> Array:
        """Chain rule through the affine embedding: g_c - g_d."""
        g = _as_points(g_ambient, self.ambient_dim, "ambient gradient")
        return g[..., :-1] - g[..., -1:]

    # -- gradient maps ----------------------------------------------------

    def forward(self, x: Array) -> Array:
        """Mirror map: y_c = log(x_c / x_d) with x_d the pinned coordinate."""
        x = self.require_interior(x, "mirror_forward input")
        return np.log(x) - np.log(self.last_coordinate(x))[..., None]

    def backward(self, y: Array) -> Array:
        """Inverse mirror map, the pinned-coordinate softmax.

        Overflow-safe: the shift max(0, max_c y_c) keeps every exponent
        nonpositive, so dual coordinates of magnitude in the hundreds are
        handled without overflow.
        """
        return self.ambient_from_dual(y)[..., :-1]

    def ambient_from_dual(self, y: Array) -> Array:
        """All d ambient coordinates of backward(y), each relative-accurate.

        The pinned coordinate is exp(-shift)/denom rather than 1 - sum(x),
        so points with x_d below machine epsilon keep a faithful (positive)
        representation; the dynamics leans on this to track particles near
        the pinned face.
        """
        y = _as_points(y, self.intrinsic_dim, "dual point")
        shift = np.maximum(np.max(y, axis=-1, keepdims=True), 0.0)
        e = np.concatenate([np.exp(y - shift), np.exp(-shift)], axis=-1)
        return e / np.sum(e, axis=-1, keepdims=True)

    # -- Hessian metric ---------------------------------------------------

    def hessian(self, x: Array) -> Array:
        """Reduced Hessian diag(1/x_c) + (1/x_d) 11^T, shape (..., m, m)."""
        x = self.require_interior(x, "hessian input")
        return _diag_matrix(1.0 / x) + (1.0 / self.last_coordinate(x))[..., None, None]

    def inverse_hessian(self, x: Array) -> Array:
        """Closed-form inverse diag(x) - x x^T (the dual Hessian at forward(x))."""
        x = self.require_interior(x, "inverse_hessian input")
        return _diag_matrix(x) - x[..., :, None] * x[..., None, :]

    def dual_hessian(self, y: Array) -> Array:
        return self.inverse_hessian(self.backward(y))

    @staticmethod
    def _factor(ambient: Array, scale: float) -> tuple[Array, Array]:
        """The (root, col) factor of scale * H at the ambient point."""
        return _diag_rank_one_factor(scale / ambient[..., :-1], scale / ambient[..., -1],
                                     "simplex metric")

    def _metric_from_ambient(self, ambient: Array, scale: float) -> tuple[Array, Array]:
        if scale < 0:
            raise ValueError("metric scale must be nonnegative")
        h = _diag_matrix(1.0 / ambient[..., :-1]) + (1.0 / ambient[..., -1])[..., None, None]
        if scale == 0.0:
            return h, np.zeros_like(h)
        root, col = self._factor(ambient, scale)
        below = np.broadcast_to(col[..., None, :], h.shape)
        return h, np.tril(below, -1) + _diag_matrix(root)

    def metric(self, x: Array, scale: float) -> tuple[Array, Array]:
        """Return (H, L) with H the Hessian and L L^T = scale * H exactly."""
        x = self.require_interior(x, "metric input")
        return self._metric_from_ambient(self.embed(x), scale)

    def metric_from_dual(self, y: Array, scale: float) -> tuple[Array, Array]:
        """metric(backward(y), scale), from the factor ``diffusion_substep`` applies."""
        return self._metric_from_ambient(self.ambient_from_dual(y), scale)

    def diffusion_substep(self, y: Array, scale: float, xi: Array,
                          step_cap: float | None = None) -> Array:
        """One substep of the pure mirror diffusion with window 2*lambda*h.

        Euler-Maruyama everywhere the kick is resolvable: y + L xi with
        L L^T = scale * H, components clipped at ``step_cap``.  Within
        ``scale / step_cap**2`` of a face the Euler kick is meaningless (its
        scale exceeds the cap and a clipped walk piles mass arbitrarily
        deep), so the offending face distance is redrawn from the exact
        near-face law of the diffusion instead: the face distance is a
        square-root (Cox-Ingersoll-Ross) process with inward rate lambda,
        whose one-substep transition from any depth well below lambda*h is
        depth-independent with density (lambda h) * Exp(1).  The draw reuses
        the particle's first normal through the normal CDF, keeping the
        one-value-per-draw stream protocol intact.  ``step_cap=None``
        disables both the cap and the near-face kernel.
        """
        y = _as_points(y, self.intrinsic_dim, "dual point")
        single = y.ndim == 1
        y = np.atleast_2d(y)
        xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
        ambient = self.ambient_from_dual(y)
        root, col = self._factor(ambient, scale)
        # L xi in O(m): column k of L is constant below its diagonal, so row k
        # adds the running sum of col * xi over earlier columns (a shifted
        # cumsum; np.cumsum along a short last axis is slower than this loop)
        kick = root * xi
        running = np.zeros(y.shape[0])
        for k in range(1, self.intrinsic_dim):
            running += col[:, k - 1] * xi[:, k - 1]
            kick[:, k] += running
        if step_cap is None:
            out = y + kick
            return out[0] if single else out
        out = y + np.clip(kick, -step_cap, step_cap)
        deep = np.min(ambient, axis=-1) < scale / step_cap ** 2
        if np.any(deep):
            amb = ambient[deep]
            face = np.argmin(amb, axis=-1)
            exp_draw = -np.log1p(-ndtr(xi[deep, 0]))
            amb[np.arange(amb.shape[0]), face] = 0.5 * scale * exp_draw
            amb /= np.sum(amb, axis=-1, keepdims=True)
            out[deep] = np.log(amb[:, :-1]) - np.log(amb[:, -1:])
        return out[0] if single else out

    # -- probe support ----------------------------------------------------

    def boundary_distance_along(self, x: Array, u: Array) -> float:
        """Distance from x to the boundary along +/-u (single point only)."""
        x = self.require_interior(np.asarray(x, dtype=np.float64), "probe point")
        u = np.asarray(u, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("boundary_distance_along takes a single point")
        xd = float(self.last_coordinate(x))
        su = float(np.sum(u))
        bounds = []
        for sign in (1.0, -1.0):
            v = sign * u
            cand = [x[c] / -v[c] for c in range(x.size) if v[c] < 0]
            if su * sign > 0:
                cand.append(xd / (su * sign))
            bounds.append(min(cand))
        return min(bounds)


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
        worst = float(np.min(np.minimum(x - self._lo, self._hi - x)))
        if not worst > 0.0:
            raise DomainViolationError(
                f"{what} on or outside the box boundary (worst margin {worst:.3e})"
            )
        return x

    # -- embedding (identity) -------------------------------------------

    def embed(self, x: Array) -> Array:
        return _as_points(x, self.intrinsic_dim, "primal point")

    def pullback(self, g_ambient: Array) -> Array:
        return _as_points(g_ambient, self.intrinsic_dim, "ambient gradient")

    # -- gradient maps ----------------------------------------------------

    def forward(self, x: Array) -> Array:
        """Barrier gradient -1/(x - a) + 1/(b - x), coordinate-wise."""
        x = self.require_interior(x, "mirror_forward input")
        return -1.0 / (x - self._lo) + 1.0 / (self._hi - x)

    def _wall_gaps(self, y: Array) -> tuple[Array, Array]:
        """Stable (x - a, b - x) for x = backward(y), both relative-accurate."""
        y = _as_points(y, self.intrinsic_dim, "dual point")
        w = self._hi - self._lo
        ybar = y * w
        s = np.sqrt(ybar * ybar + 4.0)
        return 2.0 * w / (s - ybar + 2.0), 2.0 * w / (s + ybar + 2.0)

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
        return np.where(y * (self._hi - self._lo) <= 0.0,
                        self._lo + lo_gap, self._hi - hi_gap)

    def ambient_from_dual(self, y: Array) -> Array:
        return self.backward(y)

    # -- Hessian metric ---------------------------------------------------

    def hessian_diagonal(self, x: Array) -> Array:
        x = self.require_interior(x, "hessian input")
        return 1.0 / (x - self._lo) ** 2 + 1.0 / (self._hi - x) ** 2

    def hessian(self, x: Array) -> Array:
        return _diag_matrix(self.hessian_diagonal(x))

    def inverse_hessian(self, x: Array) -> Array:
        return _diag_matrix(1.0 / self.hessian_diagonal(x))

    def dual_hessian(self, y: Array) -> Array:
        return self.inverse_hessian(self.backward(y))

    def _hessian_diagonal_from_dual(self, y: Array) -> Array:
        """hessian_diagonal(backward(y)), with wall gaps taken stably from y."""
        lo_gap, hi_gap = self._wall_gaps(y)
        return 1.0 / lo_gap ** 2 + 1.0 / hi_gap ** 2

    def _metric_from_diagonal(self, d: Array, scale: float) -> tuple[Array, Array]:
        if scale < 0:
            raise ValueError("metric scale must be nonnegative")
        h = _diag_matrix(d)
        if scale == 0.0:
            return h, np.zeros_like(h)
        return h, _diag_matrix(_diag_root(d, scale))

    def metric(self, x: Array, scale: float) -> tuple[Array, Array]:
        return self._metric_from_diagonal(self.hessian_diagonal(x), scale)

    def metric_from_dual(self, y: Array, scale: float) -> tuple[Array, Array]:
        """metric(backward(y), scale), from the factor ``diffusion_substep`` applies."""
        return self._metric_from_diagonal(self._hessian_diagonal_from_dual(y), scale)

    def diffusion_substep(self, y: Array, scale: float, xi: Array,
                          step_cap: float | None = None) -> Array:
        """Euler-Maruyama substep of the pure mirror diffusion.

        The box needs no near-wall special case: in dual coordinates the
        wall region is a log-scale random walk with bounded increments and
        inward drift, so capped Euler steps already track it faithfully.
        """
        kick = _diag_root(self._hessian_diagonal_from_dual(y), scale) * xi
        if step_cap is not None:
            kick = np.clip(kick, -step_cap, step_cap)
        return y + kick

    # -- probe support ----------------------------------------------------

    def boundary_distance_along(self, x: Array, u: Array) -> float:
        x = self.require_interior(np.asarray(x, dtype=np.float64), "probe point")
        u = np.asarray(u, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("boundary_distance_along takes a single point")
        bounds = []
        for sign in (1.0, -1.0):
            v = sign * u
            cand = []
            for c in range(x.size):
                if v[c] > 0:
                    cand.append((self._hi[c] - x[c]) / v[c])
                elif v[c] < 0:
                    cand.append((x[c] - self._lo[c]) / -v[c])
            bounds.append(min(cand) if cand else np.inf)
        return min(bounds)


MirrorMap = SimplexEntropyMap | BoxLogBarrierMap


def make_mirror_map(kind: str, *, ambient_dim: int | None = None, bounds=None) -> MirrorMap:
    """Construct one of the shipped mirror maps from plain parameters."""
    if kind == "simplex-entropy":
        if ambient_dim is None:
            raise ConfigError("simplex-entropy map needs ambient_dim")
        return SimplexEntropyMap(ambient_dim=ambient_dim)
    if kind == "box-log-barrier":
        if bounds is None:
            raise ConfigError("box-log-barrier map needs bounds")
        return BoxLogBarrierMap(bounds=tuple(map(tuple, bounds)))
    raise ConfigError(f"unknown mirror map kind {kind!r}")


def _quadratic_form_curve(mirror_map, x, u, conjugate):
    if conjugate:
        def q(s):
            h = mirror_map.dual_hessian(x + s * u)
            return float(u @ h @ u)
    else:
        def q(s):
            h = mirror_map.hessian(x + s * u)
            return float(u @ h @ u)
    return q


def self_concordance_probe(mirror_map, x, u, *, conjugate: bool = False,
                           step_fraction: float = 1e-3) -> float:
    """Estimate the self-concordance parameter of the barrier along (x, u).

    Returns ``|D^3 phi(x)[u,u,u]| / (2 <u, H(x) u>^{3/2})`` where the third
    directional derivative is a 5-point central finite difference of
    ``s -> <u, H(x + s u) u>``.  With ``conjugate=True`` the same probe is
    run on the conjugate barrier: x is then a dual point (any finite vector)
    and H its dual Hessian.  Both variants are exposed because the two sides
    of the inequality can be stated with either barrier; callers can compare.

    The step is ``step_fraction`` times the distance to the boundary along u
    (primal probe) or times ``(1 + |x|)/|u|`` (dual probe, unconstrained).
    """
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if x.ndim != 1 or u.shape != x.shape:
        raise ValueError("probe takes a single point and a direction of equal shape")
    norm_u = float(np.linalg.norm(u))
    if norm_u == 0.0:
        raise ValueError("probe direction must be nonzero")
    if conjugate:
        dist = (1.0 + float(np.linalg.norm(x))) / norm_u
    else:
        dist = mirror_map.boundary_distance_along(x, u)
    h = step_fraction * dist
    # stencil reaches x +/- 2h u; h = 1e-3 * dist keeps it safely interior
    q = _quadratic_form_curve(mirror_map, x, u, conjugate)
    third = (-q(2 * h) + 8.0 * q(h) - 8.0 * q(-h) + q(-2 * h)) / (12.0 * h)
    denom = 2.0 * q(0.0) ** 1.5
    return abs(third) / denom
