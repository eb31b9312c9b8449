"""Parametric 2-D transforms and bilinear sampling.

Three transform families, all mapping normalized target coordinates to
normalized source coordinates (the direction used by the mask warp):

``affine``
    6 parameters ``(a11, a12, tx, a21, a22, ty)``:
    ``x' = a11*x + a12*y + tx``, ``y' = a21*x + a22*y + ty``.
``homography``
    8 parameters ``(h11, h12, h13, h21, h22, h23, h31, h32)`` with the
    ninth matrix entry fixed to 1; projective division by
    ``D = h31*x + h32*y + 1``.
``tps``
    Thin-plate spline with an ``n x n`` control grid on ``{-1,0,1}^2``
    (default ``n = 3``, i.e. 18 parameters).  Parameters are control-point
    *displacements* interleaved ``(dx_0, dy_0, dx_1, dy_1, ...)`` in
    row-major control order, so the zero vector is the identity map.

The TPS kernel is ``U(r) = r^2 log r^2`` with ``U(0) = 0``; each output
dimension solves the standard interpolation system (kernel weights plus an
affine part, side conditions ``sum w = 0`` and ``sum w*c = 0``) with zero
regularization.  The solve happens once at construction and the resulting
map is affine-linear in the displacement vector, which makes the parameter
Jacobian a fixed basis evaluation.

Bilinear sampling uses zero padding: coordinates outside
``[0, h-1] x [0, w-1]`` contribute value 0, with partial blending for the
cells straddling the border.  At integer knots the cell-membership
convention is half-open, ``[n, n+1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from softalign.errors import InvariantError

AFFINE = "affine"
HOMOGRAPHY = "homography"
TPS = "tps"

FAMILIES = (AFFINE, HOMOGRAPHY, TPS)

_IDENTITY_PARAMS = {
    AFFINE: (1.0, 0.0, 0.0, 0.0, 1.0, 0.0),
    HOMOGRAPHY: (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
}

#: parameter-vector length per family (TPS assumes the default 3x3 control grid)
PARAM_COUNTS = {AFFINE: 6, HOMOGRAPHY: 8, TPS: 18}

#: minimum |det| for the linear part / |denominator| for projective division
DEGENERACY_EPS = 1e-9


def _tps_kernel(sq_dist: np.ndarray) -> np.ndarray:
    """U as a function of squared radius: q * log(q), with the 0 limit."""
    out = np.zeros_like(sq_dist)
    nz = sq_dist > 0.0
    out[nz] = sq_dist[nz] * np.log(sq_dist[nz])
    return out


def tps_control_points(n: int = 3) -> np.ndarray:
    """``(n*n, 2)`` control points (x, y) on the unit square, row-major."""
    if n < 2:
        raise ValueError("TPS control grid must be at least 2x2")
    axis = np.linspace(-1.0, 1.0, n)
    xs, ys = np.meshgrid(axis, axis)  # row-major: y varies slowest
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


class _TpsSolution:
    """Solved TPS interpolant for one displacement vector.

    Holds the control points, per-dimension coefficients (kernel weights
    plus affine part) and the cardinal-basis matrix used for parameter
    Jacobians.
    """

    def __init__(self, control: np.ndarray, displacements: np.ndarray):
        n = control.shape[0]
        sq = np.sum((control[:, None, :] - control[None, :, :]) ** 2, axis=2)
        L = np.zeros((n + 3, n + 3))
        L[:n, :n] = _tps_kernel(sq)
        P = np.column_stack([np.ones(n), control])
        L[:n, n:] = P
        L[n:, :n] = P.T

        targets = control + displacements  # interpolation targets per dim
        rhs = np.zeros((n + 3, 2))
        rhs[:n] = targets
        try:
            coef = np.linalg.solve(L, rhs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - fixed grid
            raise InvariantError(f"singular TPS system: {exc}") from exc
        residual = np.abs(L @ coef - rhs).max()
        if residual >= 1e-9:
            raise InvariantError(f"TPS solve residual {residual:.3e} >= 1e-9")

        self.control = control
        self.coef = coef  # (n+3, 2); columns are x' and y' coefficients
        # x'(pt) = basis(pt) @ L^-1 @ [targets_x; 0]: the first n columns of
        # basis @ L^-1 are cardinal functions H_p(pt), one per control point.
        self.cardinal = np.linalg.inv(L)[:, :n]  # (n+3, n)

    def basis(self, pts: np.ndarray) -> np.ndarray:
        """``(m, n+3)`` rows: [U(|pt - c_p|^2) ..., 1, x, y]."""
        sq = np.sum((pts[:, None, :] - self.control[None, :, :]) ** 2, axis=2)
        return np.column_stack([_tps_kernel(sq), np.ones(len(pts)), pts])

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        return self.basis(pts) @ self.coef

    def cardinal_values(self, pts: np.ndarray) -> np.ndarray:
        """``(m, n)`` values H_p(pt): the g-independent Jacobian entries."""
        return self.basis(pts) @ self.cardinal


class Transform:
    """An immutable parametric map from target to source coordinates."""

    def __init__(self, family: str, params, control_grid: int = 3):
        if family not in FAMILIES:
            raise ValueError(f"unknown transform family {family!r}")
        params = np.array(params, dtype=np.float64).reshape(-1)
        if not np.isfinite(params).all():
            raise ValueError("transform parameters must be finite")
        self.family = family
        self.control_grid = control_grid if family == TPS else None
        self._tps: _TpsSolution | None = None

        if family == AFFINE:
            if params.size != 6:
                raise ValueError(f"affine expects 6 parameters, got {params.size}")
            det = params[0] * params[4] - params[1] * params[3]
            if abs(det) <= DEGENERACY_EPS:
                raise ValueError(f"degenerate affine transform, |det| = {abs(det):.3e}")
        elif family == HOMOGRAPHY:
            if params.size != 8:
                raise ValueError(f"homography expects 8 parameters, got {params.size}")
            H = np.append(params, 1.0).reshape(3, 3)
            det = np.linalg.det(H)
            if abs(det) <= DEGENERACY_EPS:
                raise ValueError(f"degenerate homography, |det| = {abs(det):.3e}")
        else:
            k = 2 * control_grid * control_grid
            if params.size != k:
                raise ValueError(
                    f"tps with {control_grid}x{control_grid} controls expects "
                    f"{k} parameters, got {params.size}"
                )
            control = tps_control_points(control_grid)
            self._tps = _TpsSolution(control, params.reshape(-1, 2))

        params.setflags(write=False)
        self.params = params

    # -- constructors ------------------------------------------------------

    @classmethod
    def affine(cls, params) -> "Transform":
        return cls(AFFINE, params)

    @classmethod
    def homography(cls, params) -> "Transform":
        return cls(HOMOGRAPHY, params)

    @classmethod
    def identity(cls, family: str, control_grid: int = 3) -> "Transform":
        if family == TPS:
            return cls(TPS, np.zeros(2 * control_grid * control_grid), control_grid)
        if family not in _IDENTITY_PARAMS:
            raise ValueError(f"unknown transform family {family!r}")
        return cls(family, _IDENTITY_PARAMS[family])

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = {"family": self.family, "params": [float(p) for p in self.params]}
        if self.family == TPS:
            out["control_grid"] = self.control_grid
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "Transform":
        family = obj["family"]
        if family == TPS:
            return cls(family, obj["params"], control_grid=int(obj.get("control_grid", 3)))
        return cls(family, obj["params"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        vals = ", ".join(f"{p:.4g}" for p in self.params)
        return f"Transform({self.family}, [{vals}])"


def make_tps(displacements, control_grid: int = 3) -> Transform:
    """Build a TPS transform from per-control-point (dx, dy) displacements.

    ``displacements`` may be an ``(n*n, 2)`` array in row-major control
    order or the equivalent flat interleaved vector.
    """
    d = np.asarray(displacements, dtype=np.float64).reshape(-1)
    return Transform(TPS, d, control_grid=control_grid)


def _affine_map(g, x, y):
    return g[0] * x + g[1] * y + g[2], g[3] * x + g[4] * y + g[5]


def _homography_map(g, x, y):
    den = g[6] * x + g[7] * y + 1.0
    small = np.abs(den) < DEGENERACY_EPS
    if small.any():
        i = int(np.argmax(small)) % x.size  # first parameter row, first point
        raise ValueError(
            f"homography denominator ~ 0 at point ({x[i]:g}, {y[i]:g})"
        )
    return (g[0] * x + g[1] * y + g[2]) / den, (g[3] * x + g[4] * y + g[5]) / den


_PARAMETRIC_MAPS = {AFFINE: _affine_map, HOMOGRAPHY: _homography_map}


def _check_points(pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def apply(T: Transform, pts) -> np.ndarray:
    """Map an ``(n, 2)`` array (or list) of (x, y) points through ``T``."""
    pts = _check_points(pts)
    if T.family == TPS:
        return T._tps.evaluate(pts)
    xp, yp = _PARAMETRIC_MAPS[T.family](T.params, pts[:, 0], pts[:, 1])
    return np.stack([xp, yp], axis=1)


def apply_many(family: str, params, pts) -> tuple[np.ndarray, np.ndarray]:
    """Map points through a stack of affine or homography parameter vectors.

    ``params`` is ``(B, K)``, one vector per row; returns ``(x', y')``,
    each ``(B, n)``.  Row ``b`` is bit-identical to
    ``apply(Transform(family, params[b]), pts)``, and a vanishing
    homography denominator raises the same ``ValueError``, for the first
    row that has one.
    """
    if family not in _PARAMETRIC_MAPS:
        raise ValueError(f"apply_many maps affine or homography, not {family!r}")
    pts = _check_points(pts)
    g = np.asarray(params, dtype=np.float64).T[:, :, None]  # g[i] is a (B, 1) column
    return _PARAMETRIC_MAPS[family](g, pts[:, 0], pts[:, 1])


def jacobian_many(T: Transform, pts) -> np.ndarray:
    """``(n, K, 2)`` stack of parameter Jacobians; [:, :, 0] is d x'/d g."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {pts.shape}")
    n = pts.shape[0]
    x, y = pts[:, 0], pts[:, 1]
    ones = np.ones(n)

    if T.family == AFFINE:
        jac = np.zeros((n, 6, 2))
        jac[:, 0, 0] = x
        jac[:, 1, 0] = y
        jac[:, 2, 0] = ones
        jac[:, 3, 1] = x
        jac[:, 4, 1] = y
        jac[:, 5, 1] = ones
        return jac

    if T.family == HOMOGRAPHY:
        g = T.params
        den = g[6] * x + g[7] * y + 1.0
        small = np.abs(den) < DEGENERACY_EPS
        if small.any():
            i = int(np.argmax(small))
            raise ValueError(
                f"homography denominator ~ 0 at point ({x[i]:g}, {y[i]:g})"
            )
        xp = (g[0] * x + g[1] * y + g[2]) / den
        yp = (g[3] * x + g[4] * y + g[5]) / den
        jac = np.zeros((n, 8, 2))
        jac[:, 0, 0] = x / den
        jac[:, 1, 0] = y / den
        jac[:, 2, 0] = ones / den
        jac[:, 3, 1] = x / den
        jac[:, 4, 1] = y / den
        jac[:, 5, 1] = ones / den
        jac[:, 6, 0] = -xp * x / den
        jac[:, 7, 0] = -xp * y / den
        jac[:, 6, 1] = -yp * x / den
        jac[:, 7, 1] = -yp * y / den
        return jac

    basis = T._tps.cardinal_values(pts)  # (n, n_ctrl), independent of g
    k = T.params.size
    jac = np.zeros((n, k, 2))
    jac[:, 0::2, 0] = basis  # dx_p moves x' only
    jac[:, 1::2, 1] = basis  # dy_p moves y' only
    return jac


def jacobian(T: Transform, pt) -> np.ndarray:
    """``(K, 2)`` Jacobian of the mapped point w.r.t. the parameters."""
    return jacobian_many(T, np.asarray(pt, dtype=np.float64).reshape(1, 2))[0]


def compose_affine(outer: Transform, inner: Transform) -> Transform:
    """The affine map equivalent to applying ``inner`` then ``outer``."""
    if outer.family != AFFINE or inner.family != AFFINE:
        raise ValueError("compose_affine requires two affine transforms")
    a, b = outer.params, inner.params
    A2 = np.array([[a[0], a[1]], [a[3], a[4]]])
    A1 = np.array([[b[0], b[1]], [b[3], b[4]]])
    t2 = np.array([a[2], a[5]])
    t1 = np.array([b[2], b[5]])
    A = A2 @ A1
    t = A2 @ t1 + t2
    return Transform.affine([A[0, 0], A[0, 1], t[0], A[1, 0], A[1, 1], t[1]])


# ---------------------------------------------------------------------------
# Sampling grids and bilinear interpolation


@dataclass
class SamplingGrid:
    """An ``(h2, w2, 2)`` array of continuous source-grid (u, v) coordinates."""

    uv: np.ndarray

    def __post_init__(self) -> None:
        self.uv = np.asarray(self.uv, dtype=np.float64)
        if self.uv.ndim != 3 or self.uv.shape[2] != 2:
            raise ValueError(f"sampling grid must be (h2, w2, 2), got {self.uv.shape}")
        if not np.isfinite(self.uv).all():
            raise ValueError("sampling grid contains non-finite coordinates")


def transform_sampling_grid(
    T: Transform,
    src_shape: tuple[int, int],
    tgt_shape: tuple[int, int] | None = None,
) -> SamplingGrid:
    """Source-grid sampling coordinates for every target cell under ``T``.

    Each target cell center is converted to normalized coordinates (using
    the target grid dimensions), mapped through ``T``, and converted to
    continuous source-grid units (using the source dimensions).
    """
    from softalign.grids import cells_to_normalized, normalized_to_cells

    h, w = src_shape
    th, tw = tgt_shape if tgt_shape is not None else src_shape
    kk, ll = np.meshgrid(np.arange(th), np.arange(tw), indexing="ij")
    x, y = cells_to_normalized(kk.ravel(), ll.ravel(), th, tw)
    mapped = apply(T, np.stack([x, y], axis=1))
    u, v = normalized_to_cells(mapped[:, 0], mapped[:, 1], h, w)
    return SamplingGrid(np.stack([u, v], axis=1).reshape(th, tw, 2))


def _coerce_coords(grid) -> np.ndarray:
    uv = grid.uv if isinstance(grid, SamplingGrid) else np.asarray(grid, dtype=np.float64)
    if uv.shape[-1] != 2:
        raise ValueError(f"coordinates must have a trailing axis of 2, got {uv.shape}")
    if not np.isfinite(uv).all():
        raise ValueError("sampling coordinates contain non-finite values")
    return uv


#: coordinates this close to the integer lattice are snapped onto it, so
#: warps that are integral in exact arithmetic (e.g. whole-cell
#: translations after the normalized round trip) hit nodes exactly
LATTICE_SNAP_EPS = 1e-9


def _snap(c: np.ndarray) -> np.ndarray:
    r = np.round(c)
    return np.where(np.abs(c - r) < LATTICE_SNAP_EPS, r, c)


def bilinear_blend(c00, c01, c10, c11, du, dv):
    """Bilinear blend of the four corner values."""
    return (
        c00 * (1.0 - du) * (1.0 - dv)
        + c01 * (1.0 - du) * dv
        + c10 * du * (1.0 - dv)
        + c11 * du * dv
    )


def bilinear_slopes(c00, c01, c10, c11, du, dv):
    """Derivatives of :func:`bilinear_blend` with respect to u and v."""
    d_du = (1.0 - dv) * (c10 - c00) + dv * (c11 - c01)
    d_dv = (1.0 - du) * (c01 - c00) + du * (c11 - c10)
    return d_du, d_dv


def _corner_values(img: np.ndarray, u: np.ndarray, v: np.ndarray):
    """The four cell-corner values under zero padding, plus fractions."""
    h, w = img.shape[-2], img.shape[-1]
    u = _snap(u)
    v = _snap(v)
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    du = u - u0
    dv = v - v0
    vals = []
    idx = []
    for oi in (0, 1):
        for oj in (0, 1):
            ui = u0 + oi
            vi = v0 + oj
            ok = (ui >= 0) & (ui < h) & (vi >= 0) & (vi < w)
            uc = np.clip(ui, 0, h - 1)
            vc = np.clip(vi, 0, w - 1)
            vals.append(img[..., uc, vc] * ok)
            idx.append((uc, vc, ok))
    return vals, idx, du, dv


def bilinear_sample(img, grid) -> np.ndarray:
    """Sample ``img`` (h x w) at continuous (u, v) coordinates.

    ``grid`` is a :class:`SamplingGrid` or any array with a trailing axis
    of (u, v) pairs; the result matches its leading shape.  Coordinates
    outside the image rectangle see an implicit zero border; points
    partially outside blend with 0.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {img.shape}")
    uv = _coerce_coords(grid)
    corners, _, du, dv = _corner_values(img, uv[..., 0], uv[..., 1])
    return bilinear_blend(*corners, du, dv)


def bilinear_sample_backward(img, grid, upstream) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``sum(upstream * bilinear_sample(img, grid))``.

    Returns ``(grad_img, grad_coords)`` where ``grad_img`` has the image's
    shape and ``grad_coords`` the coordinate array's shape (trailing axis
    ordered (u, v)).  Gradients are exact for the piecewise-bilinear
    interpolant, using the half-open cell convention at integer knots.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {img.shape}")
    uv = _coerce_coords(grid)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != uv.shape[:-1]:
        raise ValueError(
            f"upstream shape {upstream.shape} does not match coords {uv.shape[:-1]}"
        )
    (c00, c01, c10, c11), idx, du, dv = _corner_values(img, uv[..., 0], uv[..., 1])

    weights = (
        (1.0 - du) * (1.0 - dv),
        (1.0 - du) * dv,
        du * (1.0 - dv),
        du * dv,
    )
    grad_img = np.zeros_like(img)
    for wgt, (uc, vc, ok) in zip(weights, idx):
        contrib = upstream * wgt * ok
        np.add.at(grad_img, (uc.ravel(), vc.ravel()), contrib.ravel())

    d_du, d_dv = bilinear_slopes(c00, c01, c10, c11, du, dv)
    grad_coords = np.stack([upstream * d_du, upstream * d_dv], axis=-1)
    return grad_img, grad_coords


def lattice_cells(points):
    """Top-left lattice corner ``(u0, v0)`` of every (u, v) point, plus fractions.

    Coordinates within :data:`LATTICE_SNAP_EPS` of a knot are snapped onto
    it first; every gather sampler shares this corner convention.
    """
    pts = _coerce_coords(points)
    u = _snap(pts[:, 0])
    v = _snap(pts[:, 1])
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    return u0, v0, u - u0, v - v0


def padded_corners(points, h: int, w: int):
    """Flat gather indices of the four bilinear corners, plus fractions.

    Indices address an ``(h + 2) x (w + 2)`` image whose one-cell zero
    border surrounds the h x w interior, flattened row-major: every
    out-of-range corner clips onto a zero border cell, so no validity
    masks are needed.  Returns ``((i00, i01, i10, i11), du, dv)``.
    """
    u0, v0, du, dv = lattice_cells(points)
    ui = np.clip(u0 + 1, 0, h + 1)
    vi = np.clip(v0 + 1, 0, w + 1)
    ui1 = np.clip(u0 + 2, 0, h + 1)
    vi1 = np.clip(v0 + 2, 0, w + 1)
    stride = w + 2
    corners = (ui * stride + vi, ui * stride + vi1, ui1 * stride + vi, ui1 * stride + vi1)
    return corners, du, dv


def _stack_corners(imgs: np.ndarray, points: np.ndarray):
    """Corner values for stack sampling via a zero-padded flat gather."""
    imgs = np.asarray(imgs, dtype=np.float64)
    n, h, w = imgs.shape
    padded = np.zeros((n, h + 2, w + 2))
    padded[:, 1:-1, 1:-1] = imgs
    flat = padded.reshape(n, -1)
    corners, du, dv = padded_corners(points, h, w)
    return (*(flat.take(idx, axis=1) for idx in corners), du, dv)


def bilinear_sample_stack(imgs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Sample a stack of images at a shared list of points.

    ``imgs`` is ``(n, h, w)`` and ``points`` ``(m, 2)`` of (u, v); returns
    ``(n, m)`` values with the same zero-padding semantics as
    :func:`bilinear_sample`.  All images are sampled at all points, which
    is the access pattern of the mask warp.
    """
    return bilinear_blend(*_stack_corners(imgs, points))


def bilinear_sample_stack_grad(
    imgs: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack sampling plus per-sample coordinate derivatives.

    Returns ``(values, d_du, d_dv)``, each ``(n, m)``: the derivative of
    ``values[i, p]`` with respect to point ``p``'s u and v coordinate.
    """
    corners = _stack_corners(imgs, points)
    return (bilinear_blend(*corners), *bilinear_slopes(*corners))
