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
dimension solves the standard interpolation system ``L`` (kernel weights
plus an affine part, side conditions ``sum w = 0`` and ``sum w*c = 0``)
with zero regularization.  ``L`` depends only on the control grid, so its
inverse is computed once per grid size and cached; the map is then linear
in the control targets, ``x' = H(pt) @ (control + displacements)``, where
the cardinal functions ``H`` (:func:`tps_cardinal_values`) are also the
parameter Jacobian.  Constructing a TPS :class:`Transform` solves nothing.

One coordinate map takes target cells to source cells:
:func:`cell_points` gives the normalized centres of a grid's cells, and
:func:`source_cells` maps normalized points through ``T`` into continuous
source-grid (u, v) units; :func:`transform_sampling_grid` composes the
two for a whole target grid.

One corner convention serves every bilinear sampler: :func:`lattice_cells`
snaps a point within :data:`LATTICE_SNAP_EPS` of a knot onto it and takes
the top-left corner of its half-open cell ``[n, n+1)``, and
:func:`padded_corners` turns that corner into flat indices of the image
held inside a one-cell zero border.  Every sampler is that padded gather
followed by :func:`bilinear_blend` (or :func:`bilinear_slopes`), so
coordinates outside ``[0, h-1] x [0, w-1]`` contribute value 0, with
partial blending for the cells straddling the border.
"""

from __future__ import annotations

import functools

import numpy as np

from softalign.errors import InvariantError
from softalign.grids import cells_to_normalized, normalized_to_cells

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


@functools.lru_cache(maxsize=8)
def _tps_cardinal(control_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(control, cardinal)`` of an ``n x n`` control grid.

    ``control`` holds the ``(n*n, 2)`` control points; ``cardinal`` is the
    first ``n*n`` columns of ``L^-1``, so ``basis(pt) @ cardinal`` are the
    cardinal functions ``H_p(pt)``.
    """
    control = tps_control_points(control_grid)
    n = control.shape[0]
    sq = np.sum((control[:, None, :] - control[None, :, :]) ** 2, axis=2)
    L = np.zeros((n + 3, n + 3))
    L[:n, :n] = _tps_kernel(sq)
    P = np.column_stack([np.ones(n), control])
    L[:n, n:] = P
    L[n:, :n] = P.T
    try:
        L_inv = np.linalg.inv(L)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - fixed grid
        raise InvariantError(f"singular TPS system: {exc}") from exc
    residual = np.abs(L @ L_inv - np.eye(n + 3)).max()
    if residual >= 1e-9:
        raise InvariantError(f"TPS inverse residual {residual:.3e} >= 1e-9")
    control.setflags(write=False)
    L_inv.setflags(write=False)
    return control, L_inv[:, :n]


def tps_cardinal_values(pts, control_grid: int = 3) -> np.ndarray:
    """``(m, n*n)`` cardinal functions ``H_p(pt)`` of an ``n x n`` control grid.

    A TPS maps ``pts`` to ``H @ (control + displacements)``, and ``H`` is
    its parameter Jacobian, independent of the displacements.
    """
    pts = np.asarray(pts, dtype=np.float64)
    control, cardinal = _tps_cardinal(control_grid)
    sq = np.sum((pts[:, None, :] - control[None, :, :]) ** 2, axis=2)
    return np.column_stack([_tps_kernel(sq), np.ones(len(pts)), pts]) @ cardinal


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
            if control_grid < 2:
                raise ValueError("TPS control grid must be at least 2x2")

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
        control, _ = _tps_cardinal(T.control_grid)
        return tps_cardinal_values(pts, T.control_grid) @ (control + T.params.reshape(-1, 2))
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
    return parameter_jacobians(T.family, T.params[None], pts, T.control_grid)[0]


def parameter_jacobians(family: str, params, pts, control_grid: int | None = 3) -> np.ndarray:
    """``(B, n, K, 2)`` parameter Jacobians at ``pts`` for ``(B, K)`` parameter rows.

    ``[b, :, :, 0]`` is d x'/d g under row b.  Only the homography's
    Jacobian depends on the parameters: for affine and TPS the leading
    axis has length 1, shared by every row.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {pts.shape}")
    n = pts.shape[0]
    x, y = pts[:, 0], pts[:, 1]
    ones = np.ones(n)

    if family == AFFINE:
        jac = np.zeros((1, n, 6, 2))
        jac[..., 0, 0] = x
        jac[..., 1, 0] = y
        jac[..., 2, 0] = ones
        jac[..., 3, 1] = x
        jac[..., 4, 1] = y
        jac[..., 5, 1] = ones
        return jac

    if family == HOMOGRAPHY:
        g = np.asarray(params, dtype=np.float64).T[:, :, None]  # g[i] is a (B, 1) column
        xp, yp = _homography_map(g, x, y)
        den = g[6] * x + g[7] * y + 1.0
        jac = np.zeros(den.shape + (8, 2))
        jac[..., 0, 0] = x / den
        jac[..., 1, 0] = y / den
        jac[..., 2, 0] = ones / den
        jac[..., 3, 1] = x / den
        jac[..., 4, 1] = y / den
        jac[..., 5, 1] = ones / den
        jac[..., 6, 0] = -xp * x / den
        jac[..., 7, 0] = -xp * y / den
        jac[..., 6, 1] = -yp * x / den
        jac[..., 7, 1] = -yp * y / den
        return jac

    basis = tps_cardinal_values(pts, control_grid)  # (n, n_ctrl), independent of g
    jac = np.zeros((1, n, 2 * basis.shape[1], 2))
    jac[0, :, 0::2, 0] = basis  # dx_p moves x' only
    jac[0, :, 1::2, 1] = basis  # dy_p moves y' only
    return jac


# ---------------------------------------------------------------------------
# Sampling grids and bilinear interpolation


def cell_points(h: int, w: int) -> np.ndarray:
    """``(h*w, 2)`` normalized (x, y) centres of an h x w grid's cells, row-major."""
    kk, ll = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return np.stack(cells_to_normalized(kk.ravel(), ll.ravel(), h, w), axis=1)


def source_cells(T: Transform, xy, h: int, w: int) -> np.ndarray:
    """``(m, 2)`` continuous (u, v) cells of an h x w source grid that ``T``
    maps the normalized points ``xy`` to."""
    mapped = apply(T, xy)
    return np.stack(normalized_to_cells(mapped[:, 0], mapped[:, 1], h, w), axis=1)


def transform_sampling_grid(
    T: Transform,
    src_shape: tuple[int, int],
    tgt_shape: tuple[int, int] | None = None,
) -> np.ndarray:
    """``(th, tw, 2)`` source-grid (u, v) coordinates of every target cell under ``T``.

    Each target cell centre is converted to normalized coordinates (using
    the target grid dimensions), mapped through ``T``, and converted to
    continuous source-grid units (using the source dimensions).
    """
    th, tw = tgt_shape if tgt_shape is not None else src_shape
    return source_cells(T, cell_points(th, tw), *src_shape).reshape(th, tw, 2)


def _coerce_coords(grid) -> np.ndarray:
    uv = np.asarray(grid, dtype=np.float64)
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


def _lattice(points):
    """``(corner, frac)``: ``(2, ...)`` stacks of the integer top-left
    corners ``(u0, v0)`` and the fractions ``(du, dv)``, after snapping
    onto nearby knots; each component is contiguous."""
    uv = _snap(np.moveaxis(_coerce_coords(points), -1, 0).copy())
    corner = np.floor(uv)
    return corner.astype(np.int64), uv - corner


def lattice_cells(points):
    """Top-left lattice corner ``(u0, v0)`` of every (u, v) point, plus fractions.

    ``points`` has a trailing axis of (u, v); the results keep its leading
    shape.  Coordinates within :data:`LATTICE_SNAP_EPS` of a knot are
    snapped onto it first, so a point on a knot lies in the cell that
    starts there (the half-open ``[n, n+1)`` convention).
    """
    (u0, v0), (du, dv) = _lattice(points)
    return u0, v0, du, dv


def padded_corners(points, h: int, w: int):
    """Flat gather indices of the four bilinear corners, plus fractions.

    Indices address an ``(h + 2) x (w + 2)`` image whose one-cell zero
    border surrounds the h x w interior, flattened row-major: every
    out-of-range corner clips onto a zero border cell, so no validity
    masks are needed.  Returns ``(corners, du, dv)``: ``corners`` stacks
    the indices of the (0, 0), (0, 1), (1, 0) and (1, 1) corners on a
    leading axis of 4, and all three keep the leading shape of ``points``.
    """
    (u0, v0), (du, dv) = _lattice(points)
    step = np.array([1, 2]).reshape((2,) + (1,) * u0.ndim)  # near and far corner
    rows = np.clip(u0 + step, 0, h + 1) * (w + 2)
    cols = np.clip(v0 + step, 0, w + 1)
    return (rows[:, None] + cols[None]).reshape((4,) + u0.shape), du, dv


def _padded_flat(imgs: np.ndarray) -> np.ndarray:
    """``(n, (h+2)*(w+2))``: each image inside a one-cell zero border, flattened."""
    n, h, w = imgs.shape
    padded = np.zeros((n, h + 2, w + 2))
    padded[:, 1:-1, 1:-1] = imgs
    return padded.reshape(n, -1)


def _stack_corners(imgs: np.ndarray, points: np.ndarray):
    """Corner values for stack sampling via a zero-padded flat gather."""
    imgs = np.asarray(imgs, dtype=np.float64)
    flat = _padded_flat(imgs)
    corners, du, dv = padded_corners(points, imgs.shape[1], imgs.shape[2])
    return (*(flat.take(idx, axis=1) for idx in corners), du, dv)


def bilinear_sample_stack(imgs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Sample a stack of images at a shared array of points.

    ``imgs`` is ``(n, h, w)`` and ``points`` ``(..., 2)`` of (u, v);
    returns ``(n, ...)`` values.  Coordinates outside the image rectangle
    see an implicit zero border; points partially outside blend with 0.
    All images are sampled at all points, which is the access pattern of
    the mask warp.
    """
    return bilinear_blend(*_stack_corners(imgs, points))


def bilinear_sample_stack_grad(
    imgs: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack sampling plus per-sample coordinate derivatives.

    Returns ``(values, d_du, d_dv)``, each ``(n, ...)``: the derivative of
    ``values[i, p]`` with respect to point ``p``'s u and v coordinate.
    """
    corners = _stack_corners(imgs, points)
    return (bilinear_blend(*corners), *bilinear_slopes(*corners))


def _check_image(img) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {img.shape}")
    return img


def bilinear_sample(img, grid) -> np.ndarray:
    """Sample ``img`` (h x w) at continuous (u, v) coordinates.

    ``grid`` is any array with a trailing axis of (u, v) pairs; the result
    matches its leading shape.  It is :func:`bilinear_sample_stack` on a
    stack of one image.
    """
    return bilinear_sample_stack(_check_image(img)[None], grid)[0]


def bilinear_sample_backward(img, grid, upstream) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``sum(upstream * bilinear_sample(img, grid))``.

    Returns ``(grad_img, grad_coords)`` where ``grad_img`` has the image's
    shape and ``grad_coords`` the coordinate array's shape (trailing axis
    ordered (u, v)).  Gradients are exact for the piecewise-bilinear
    interpolant, using the half-open cell convention at integer knots.
    """
    img = _check_image(img)
    uv = _coerce_coords(grid)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != uv.shape[:-1]:
        raise ValueError(
            f"upstream shape {upstream.shape} does not match coords {uv.shape[:-1]}"
        )
    h, w = img.shape
    corners, du, dv = padded_corners(uv, h, w)
    flat = _padded_flat(img[None])[0]
    d_du, d_dv = bilinear_slopes(*(flat.take(idx) for idx in corners), du, dv)
    grad_coords = np.stack([upstream * d_du, upstream * d_dv], axis=-1)

    # each corner's blend weight, scattered onto its padded cell; the
    # border cells collect the out-of-range corners and are cropped
    weights = ((1.0 - du) * (1.0 - dv), (1.0 - du) * dv, du * (1.0 - dv), du * dv)
    grad_img = np.bincount(
        np.concatenate([idx.ravel() for idx in corners]),
        weights=np.concatenate([(upstream * wgt).ravel() for wgt in weights]),
        minlength=(h + 2) * (w + 2),
    )
    return grad_img.reshape(h + 2, w + 2)[1:-1, 1:-1], grad_coords
