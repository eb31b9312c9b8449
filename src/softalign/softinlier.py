"""Inlier masks and the soft inlier count.

The alignment score of a transform ``T`` on a correlation volume ``s`` is
a differentiable stand-in for RANSAC's inlier count: build the binary
*identity* consensus mask

    m_id[i, j, k, l] = 1  iff  ||(i, j) - (k, l)|| < t      (strict)

then warp it by ``T`` with a spatial-transformer pass — every output slice
``m[., ., k, l]`` bilinearly samples ``m_id``'s last two dimensions at the
source-grid position of target cell (k, l) under ``T`` — and sum the
masked match scores::

    c = sum_ijkl s[i, j, k, l] * m[i, j, k, l]

Because the warped mask is piecewise bilinear in the warped coordinates,
``c`` is differentiable in the transform parameters; because it is linear
in ``s``, the score gradient is simply the warped mask itself.  Every
``c`` is reduced with a single numpy summation, so the result is
deterministic for fixed inputs.

The dense ``(h, w, h, w)`` mask is the reference path (:func:`warp_mask`,
:func:`soft_inlier_grad`, :func:`soft_inlier_count`).  Fitting and
training score through :class:`FilteredScores` instead, which rests on
the same linearity: with ``uv_kl = T(k, l)`` in source-grid units,

    c = sum_kl bilinear(S_t[., ., k, l], uv_kl),
    S_t[p, q, k, l] = sum_{||(i, j) - (p, q)|| < t} s[i, j, k, l]

with zero padding.  ``S_t`` does not depend on ``T``, so it is built
once per pair from a few shifted adds (at ``t <= 1`` it is ``s`` itself),
and every later score or gradient is an O(hw) gather of four corners
per target cell instead of an O((hw)^2) mask warp.  The two paths agree
to rounding; on whole-cell shifts both are exact.

Mask values are used as-is (fractional, in [0, 1]); softness comes only
from interpolation, never from re-binarization or sigmoid smoothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from softalign import geometry
from softalign.grids import cells_to_normalized, normalized_to_cells
from softalign.matching import CorrelationTensor

IDENTITY_BINARY = "identity_binary"
WARPED_SOFT = "warped_soft"


def default_threshold(h: int, w: int) -> float:
    """Default inlier radius in grid units: max(h, w) / 30."""
    return max(h, w) / 30.0


@dataclass
class InlierMask:
    """A dense (h, w, h, w) consensus mask.

    ``kind`` is ``identity_binary`` (exact 0/1 entries) or ``warped_soft``
    (fractional values in [0, 1] produced by the mask warp); ``threshold``
    is the inlier radius ``t`` in grid units.
    """

    data: np.ndarray
    kind: str
    threshold: float

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 4:
            raise ValueError(f"mask must be 4-D, got shape {self.data.shape}")
        if self.threshold <= 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.kind == IDENTITY_BINARY:
            if not np.isin(self.data, (0.0, 1.0)).all():
                raise ValueError("identity mask entries must be exactly 0 or 1")
        elif self.kind == WARPED_SOFT:
            if self.data.min() < -1e-9 or self.data.max() > 1.0 + 1e-9:
                raise ValueError("warped mask entries must lie in [0, 1]")
        else:
            raise ValueError(f"unknown mask kind {self.kind!r}")

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.data.shape[0], self.data.shape[1]


def identity_mask(h: int, w: int, t: float) -> InlierMask:
    """Binary neighborhood-consensus mask of radius ``t`` on an h x w grid."""
    if t <= 0.0:
        raise ValueError(f"threshold must be positive, got {t}")
    ii = np.arange(h, dtype=np.float64)
    jj = np.arange(w, dtype=np.float64)
    dist_sq = (
        (ii[:, None, None, None] - ii[None, None, :, None]) ** 2
        + (jj[None, :, None, None] - jj[None, None, None, :]) ** 2
    )
    return InlierMask((dist_sq < t * t).astype(np.float64), IDENTITY_BINARY, t)


def warp_mask(m_id: InlierMask, T: geometry.Transform) -> InlierMask:
    """Spatial-transformer warp of the identity mask by ``T``.

    Treats ``m_id`` as h*w little images indexed by (i, j) — each of size
    h x w over its last two dims — and samples every one of them at the
    warped position of each target cell, with zero padding outside the
    grid.  T = identity reproduces ``m_id`` exactly (integer nodes).
    """
    if m_id.kind != IDENTITY_BINARY:
        raise ValueError("warp_mask expects an identity_binary mask")
    h, w = m_id.grid_shape
    sg = geometry.transform_sampling_grid(T, (h, w))
    pts = sg.uv.reshape(-1, 2)
    imgs = m_id.data.reshape(h * w, h, w)
    vals = geometry.bilinear_sample_stack(imgs, pts)
    data = np.clip(vals.reshape(h, w, h, w), 0.0, 1.0)
    return InlierMask(data, WARPED_SOFT, m_id.threshold)


@dataclass
class ScoreBreakdown:
    """The soft count plus where it came from.

    ``contributions[k, l]`` is target cell (k, l)'s share of ``c``;
    ``inliers`` lists the strongest matches ((i, j), (k, l), weight) in
    descending weight order, ties broken by (k, l, i, j).
    """

    c: float
    contributions: np.ndarray
    inliers: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "c": float(self.c),
            "contributions": [[float(v) for v in row] for row in self.contributions],
            "inliers": [
                {"src": [int(i), int(j)], "tgt": [int(k), int(l)], "w": float(wt)}
                for (i, j), (k, l), wt in self.inliers
            ],
        }


def soft_inlier_count(
    s: CorrelationTensor, m: InlierMask, top_k: int = 32
) -> ScoreBreakdown:
    """Sum the masked match scores over the entire space of matches."""
    if s.data.shape != m.data.shape:
        raise ValueError(f"shape mismatch: scores {s.data.shape} vs mask {m.data.shape}")
    prod = s.data * m.data
    c = float(np.sum(prod))
    contributions = prod.sum(axis=(0, 1))

    flat = prod.ravel()
    pos = np.flatnonzero(flat > 0.0)
    inliers = []
    if pos.size:
        i, j, k, l = np.unravel_index(pos, prod.shape)
        wts = flat[pos]
        order = np.lexsort((j, i, l, k, -wts))[: max(top_k, 0)]
        inliers = [
            ((int(i[o]), int(j[o])), (int(k[o]), int(l[o])), float(wts[o]))
            for o in order
        ]
    return ScoreBreakdown(c=c, contributions=contributions, inliers=inliers)


def _target_points(h: int, w: int) -> np.ndarray:
    """``(h*w, 2)`` normalized (x, y) centres of the target cells, row-major."""
    kk, ll = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    x, y = cells_to_normalized(kk.ravel(), ll.ravel(), h, w)
    return np.stack([x, y], axis=1)


def _chain_to_params(
    T: geometry.Transform, xy: np.ndarray, dc_du: np.ndarray, dc_dv: np.ndarray, h: int, w: int
) -> np.ndarray:
    """dc/dg from per-target-cell derivatives in source-grid units.

    Chains through the normalized-to-grid scaling and the transform's
    parameter Jacobian at the target points ``xy``.
    """
    jac = geometry.jacobian_many(T, xy)  # (m, K, 2); [..., 0] is d x'/d g
    du_dy = (h - 1) / 2.0
    dv_dx = (w - 1) / 2.0
    return np.einsum("m,mk->k", dc_du * du_dy, jac[:, :, 1]) + np.einsum(
        "m,mk->k", dc_dv * dv_dx, jac[:, :, 0]
    )


def soft_inlier_grad(
    s: CorrelationTensor, m_id: InlierMask, T: geometry.Transform
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of c(g, s) at ``T``: returns ``(dc_dg, dc_ds)``.

    ``dc_ds`` is exactly the warped mask (c is linear in s).  ``dc_dg``
    chains the bilinear sampler's coordinate derivatives through the
    normalized-to-grid scaling and the transform's parameter Jacobian.
    """
    if m_id.kind != IDENTITY_BINARY:
        raise ValueError("soft_inlier_grad expects an identity_binary mask")
    if s.data.shape != m_id.data.shape:
        raise ValueError(
            f"shape mismatch: scores {s.data.shape} vs mask {m_id.data.shape}"
        )
    h, w = m_id.grid_shape
    xy = _target_points(h, w)
    mapped = geometry.apply(T, xy)
    u, v = normalized_to_cells(mapped[:, 0], mapped[:, 1], h, w)
    pts = np.stack([u, v], axis=1)

    imgs = m_id.data.reshape(h * w, h, w)
    vals, d_du, d_dv = geometry.bilinear_sample_stack_grad(imgs, pts)
    dc_ds = vals.reshape(h, w, h, w)

    s2 = s.data.reshape(h * w, h * w)
    dc_du = np.sum(s2 * d_du, axis=0)  # per target cell
    dc_dv = np.sum(s2 * d_dv, axis=0)
    return _chain_to_params(T, xy, dc_du, dc_dv, h, w), dc_ds


def _overlap(d: int, n: int) -> tuple[slice, slice]:
    """Destination and source ranges of ``dst[p] += src[p + d]``, 0 <= p + d < n."""
    return slice(max(0, -d), n - max(0, d)), slice(max(0, d), n - max(0, -d))


class FilteredScores:
    """``S_t`` of one correlation volume: the gather path of the soft count.

    ``S_t[p, q, k, l]`` sums ``s[i, j, k, l]`` over the source cells
    strictly within ``t`` of (p, q) — the cells ``identity_mask`` marks —
    and is held in a one-cell zero border around the source dims, so
    ``S_t[., ., k, l]`` can be sampled with :func:`geometry.padded_corners`.
    ``scores`` is the correlation data itself; when the disk is a single
    cell (``t <= 1``) it is a view of the border's interior, so the pair is
    stored once.  The normalized target-cell centres, which every score
    maps through ``T``, are computed here once as well.
    """

    def __init__(self, s: CorrelationTensor, t: float):
        if not t > 0.0:
            raise ValueError(f"threshold must be positive, got {t}")
        h, w = s.source_shape
        if s.target_shape != (h, w):
            raise ValueError(
                f"source and target grids must match, got {s.data.shape}"
            )
        padded = np.zeros((h + 2, w + 2, h, w))
        inner = padded[1:-1, 1:-1]
        r = int(min(t, max(h, w)))  # no disk reaches past the grid
        offsets = [
            (di, dj)
            for di in range(-min(r, h - 1), min(r, h - 1) + 1)
            for dj in range(-min(r, w - 1), min(r, w - 1) + 1)
            if float(di * di + dj * dj) < t * t
        ]
        for di, dj in offsets:
            (pi, si), (pj, sj) = _overlap(di, h), _overlap(dj, w)
            inner[pi, pj] += s.data[si, sj]
        self.grid_shape = (h, w)
        self.scores = inner if offsets == [(0, 0)] else s.data
        self.points = _target_points(h, w)
        self.padded = padded
        self._cells = np.arange(h * w)

    def gather(self, T: geometry.Transform) -> "ScoreSample":
        """``S_t`` sampled at ``T``'s source point of every target cell.

        Raises ``ValueError`` when ``T`` cannot map a target cell to a
        finite source point.
        """
        h, w = self.grid_shape
        mapped = geometry.apply(T, self.points)
        u, v = normalized_to_cells(mapped[:, 0], mapped[:, 1], h, w)
        corners, du, dv = geometry.padded_corners(np.stack([u, v], axis=1), h, w)
        flat = self.padded.reshape(-1)
        values = tuple(flat.take(idx * (h * w) + self._cells) for idx in corners)
        return ScoreSample(self, T, values, du, dv)


class ScoreSample:
    """The soft count ``c`` at one transform, and its gradient on demand."""

    def __init__(self, filtered: FilteredScores, T: geometry.Transform, corners, du, dv):
        self.T = T
        self.c = float(np.sum(geometry.bilinear_blend(*corners, du, dv)))
        self._filtered = filtered
        self._corners = corners
        self._du = du
        self._dv = dv

    def dc_dg(self) -> np.ndarray:
        """dc/dg, the same chain as :func:`soft_inlier_grad`'s."""
        dc_du, dc_dv = geometry.bilinear_slopes(*self._corners, self._du, self._dv)
        h, w = self._filtered.grid_shape
        return _chain_to_params(self.T, self._filtered.points, dc_du, dc_dv, h, w)


def hard_inlier_count(
    matches, T: geometry.Transform, t: float, h: int, w: int
) -> tuple[int, list]:
    """Classical inlier count of grid-unit matches under ``T``.

    ``matches`` is a list of ((i, j), (k, l)) pairs with both endpoints in
    grid units on an ``h x w`` lattice (the dims are needed to express the
    normalized-coordinate transform in grid units).  Counts matches whose
    source point lies strictly within ``t`` of the warped target point and
    returns them.
    """
    if t <= 0.0:
        raise ValueError(f"threshold must be positive, got {t}")
    if not matches:
        return 0, []
    src = np.array([m[0] for m in matches], dtype=np.float64)
    tgt = np.array([m[1] for m in matches], dtype=np.float64)
    x, y = cells_to_normalized(tgt[:, 0], tgt[:, 1], h, w)
    mapped = geometry.apply(T, np.stack([x, y], axis=1))
    u, v = normalized_to_cells(mapped[:, 0], mapped[:, 1], h, w)
    dist = np.hypot(src[:, 0] - u, src[:, 1] - v)
    keep = dist < t
    inliers = [m for m, k in zip(matches, keep) if k]
    return int(np.count_nonzero(keep)), inliers
