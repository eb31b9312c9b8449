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

with zero padding.  Both paths take ``uv_kl`` from the one target-to-source
cell map of :mod:`softalign.geometry` (:func:`geometry.cell_points` and
:func:`geometry.source_cells`, composed as
:func:`geometry.transform_sampling_grid`) and read values there with its
one padded-gather corner convention (:func:`geometry.padded_corners`).
``S_t`` does not depend on ``T``, so it is built
once per pair from a few shifted adds (at ``t <= 1`` it is ``s`` itself),
and every later score or gradient is an O(hw) gather of four corners
per target cell instead of an O((hw)^2) mask warp.  The two paths agree
to rounding; on whole-cell shifts both are exact.  The per-match
:class:`ScoreBreakdown` of a fit comes from :func:`score_breakdown`,
which evaluates the warped mask on its nonzero window only.

The hard count of RANSAC (:func:`hard_inlier_count`) rests on one rule,
:func:`hard_inliers`, which decides many hypotheses in one array pass.

Mask values are used as-is (fractional, in [0, 1]); softness comes only
from interpolation, never from re-binarization or sigmoid smoothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
        if not self.threshold > 0.0:
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
    if not t > 0.0:
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
    pts = geometry.transform_sampling_grid(T, (h, w)).reshape(-1, 2)
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
    inliers = _top_inliers(*np.unravel_index(pos, prod.shape), flat[pos], top_k)
    return ScoreBreakdown(c=c, contributions=contributions, inliers=inliers)


def _top_inliers(i, j, k, l, wts, top_k: int) -> list:
    """The positive-weight matches, strongest first, ties by (k, l, i, j)."""
    pos = wts > 0.0
    i, j, k, l, wts = i[pos], j[pos], k[pos], l[pos], wts[pos]
    order = np.lexsort((j, i, l, k, -wts))[: max(top_k, 0)]
    return [
        ((int(i[o]), int(j[o])), (int(k[o]), int(l[o])), float(wts[o]))
        for o in order
    ]


#: lattice corner offsets in :func:`geometry.bilinear_blend`'s argument order
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def score_breakdown(
    s: CorrelationTensor, T: geometry.Transform, t: float, top_k: int = 32
) -> ScoreBreakdown:
    """``soft_inlier_count(s, warp_mask(identity_mask(h, w, t), T), top_k)``
    without the dense mask.

    Slice (k, l) of the warped mask blends the radius-``t`` disks around
    the four lattice corners of ``T``'s source point for (k, l), so it is
    zero outside the source cells within ``t`` of those corners.  This
    evaluates the same blend, with the same corner values and fractions,
    on that window only: the inlier weights are bit-identical to the
    dense path's, and ``c`` and ``contributions`` agree with it to
    rounding (only the summation order differs).
    """
    if not t > 0.0:
        raise ValueError(f"threshold must be positive, got {t}")
    h, w = s.source_shape
    if s.target_shape != (h, w):
        raise ValueError(f"source and target grids must match, got {s.data.shape}")
    # window offsets (a, b) from the top-left corner, and whether each of
    # the four corners' disks covers them; no disk reaches past the grid
    r = int(min(t, max(h, w)))
    span = np.arange(-r, r + 2)
    a, b = (m.ravel() for m in np.meshgrid(span, span, indexing="ij"))
    covers = np.stack([(a - ci) ** 2 + (b - cj) ** 2 < t * t for ci, cj in _CORNERS])
    window = covers.any(axis=0)
    a, b, covers = a[window], b[window], covers[:, window]

    uv = geometry.transform_sampling_grid(T, (h, w)).reshape(-1, 2)
    u0, v0, du, dv = geometry.lattice_cells(uv)
    corner_ok = [
        (u0 + ci >= 0) & (u0 + ci < h) & (v0 + cj >= 0) & (v0 + cj < w) for ci, cj in _CORNERS
    ]
    ii = u0 + a[:, None]  # (window, target cell)
    jj = v0 + b[:, None]
    inside = (ii >= 0) & (ii < h) & (jj >= 0) & (jj < w)
    corners = [(cov[:, None] & ok).astype(np.float64) for cov, ok in zip(covers, corner_ok)]
    mask = np.clip(geometry.bilinear_blend(*corners, du, dv), 0.0, 1.0)

    cells = np.broadcast_to(np.arange(h * w), ii.shape)[inside]
    ii, jj = ii[inside], jj[inside]
    wts = s.data.reshape(-1)[(ii * w + jj) * (h * w) + cells] * mask[inside]
    contributions = np.bincount(cells, weights=wts, minlength=h * w).reshape(h, w)
    inliers = _top_inliers(ii, jj, cells // w, cells % w, wts, top_k)
    return ScoreBreakdown(c=float(np.sum(wts)), contributions=contributions, inliers=inliers)


def _chain_to_params(
    jac: np.ndarray, dc_du: np.ndarray, dc_dv: np.ndarray, h: int, w: int
) -> np.ndarray:
    """``(B, K)`` dc/dg from ``(B, m)`` per-target-cell derivatives in
    source-grid units.

    Chains through the normalized-to-grid scaling and the parameter
    Jacobians ``jac`` at the target points: ``(B, m, K, 2)``, or
    ``(1, m, K, 2)`` shared by every row (:func:`geometry.parameter_jacobians`).
    """
    spec, jac = ("bm,mk->bk", jac[0]) if len(jac) == 1 else ("bm,bmk->bk", jac)
    du_dy = (h - 1) / 2.0
    dv_dx = (w - 1) / 2.0
    return np.einsum(spec, dc_du * du_dy, jac[..., 1]) + np.einsum(spec, dc_dv * dv_dx, jac[..., 0])


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
    xy = geometry.cell_points(h, w)
    pts = geometry.source_cells(T, xy, h, w)

    imgs = m_id.data.reshape(h * w, h, w)
    vals, d_du, d_dv = geometry.bilinear_sample_stack_grad(imgs, pts)
    dc_ds = vals.reshape(h, w, h, w)

    s2 = s.data.reshape(h * w, h * w)
    dc_du = np.sum(s2 * d_du, axis=0)  # per target cell
    dc_dv = np.sum(s2 * d_dv, axis=0)
    jac = geometry.jacobian_many(T, xy)[None]
    return _chain_to_params(jac, dc_du[None], dc_dv[None], h, w)[0], dc_ds


def _overlap(d: int, n: int) -> tuple[slice, slice]:
    """Destination and source ranges of ``dst[p] += src[p + d]``, 0 <= p + d < n."""
    return slice(max(0, -d), n - max(0, d)), slice(max(0, d), n - max(0, -d))


class FilteredScores:
    """``S_t`` of a stack of correlation volumes: the gather path of the soft count.

    ``S_t[p, q, k, l]`` sums ``s[i, j, k, l]`` over the source cells
    strictly within ``t`` of (p, q) — the cells ``identity_mask`` marks.
    ``padded[n]`` holds pair n's ``S_t`` in a one-cell zero border around
    the source dims, so ``S_t[., ., k, l]`` can be sampled with
    :func:`geometry.padded_corners`; all pairs share one ``(n, h + 2,
    w + 2, h, w)`` array.  ``scores[n]`` is pair n's correlation data;
    when the disk is a single cell (``t <= 1``) ``scores`` is a view of
    the border's interior, so the pairs are stored once.  The normalized
    target-cell centres, which every score maps through ``T``, are
    computed here once, and so is the TPS cardinal matrix at them, on the
    first TPS gather.

    ``volumes`` is one :class:`CorrelationTensor`, or an iterable of
    ``count`` of them (default ``len(volumes)``) sharing one grid; it is
    read one volume at a time, so a generator of fresh correlations never
    holds more than one of them.
    """

    def __init__(self, volumes, t: float, count: int | None = None):
        if not t > 0.0:
            raise ValueError(f"threshold must be positive, got {t}")
        if isinstance(volumes, CorrelationTensor):
            volumes, count = (volumes,), 1
        elif count is None:
            count = len(volumes)
        if count < 1:
            raise ValueError("need at least one correlation volume")
        n = 0
        for n, s in enumerate(volumes, start=1):
            if n > count:
                raise ValueError(f"more than {count} correlation volumes")
            if n == 1:
                copy_scores = self._allocate(s, t, count)
            elif s.data.shape != self.scores.shape[1:]:
                raise ValueError(
                    f"correlation shape {s.data.shape} differs from the first, "
                    f"{self.scores.shape[1:]}"
                )
            self._fill(n - 1, s)
            if copy_scores:
                self.scores[n - 1] = s.data
        if n != count:
            raise ValueError(f"expected {count} correlation volumes, got {n}")

    def _allocate(self, s: CorrelationTensor, t: float, count: int) -> bool:
        """Size the stack from the first volume; true when ``scores`` is a
        stack of its own that each volume must be copied into."""
        h, w = s.source_shape
        if s.target_shape != (h, w):
            raise ValueError(
                f"source and target grids must match, got {s.data.shape}"
            )
        r = int(min(t, max(h, w)))  # no disk reaches past the grid
        self._offsets = [
            (di, dj)
            for di in range(-min(r, h - 1), min(r, h - 1) + 1)
            for dj in range(-min(r, w - 1), min(r, w - 1) + 1)
            if float(di * di + dj * dj) < t * t
        ]
        self.grid_shape = (h, w)
        self.padded = np.zeros((count, h + 2, w + 2, h, w))
        self.points = geometry.cell_points(h, w)
        self._flat = self.padded.reshape(-1)
        self._pair_size = self.padded[0].size
        self._cells = np.arange(h * w)
        self._tps = {}  # control grid -> (cardinal matrix at the points, control points)
        self._jac = {}  # (family, control grid) -> fixed parameter Jacobians at the points
        if self._offsets == [(0, 0)]:
            self.scores = self.padded[:, 1:-1, 1:-1]
        elif count == 1:
            self.scores = s.data[None]
        else:
            self.scores = np.empty((count, h, w, h, w))
            return True
        return False

    def _fill(self, n: int, s: CorrelationTensor) -> None:
        h, w = self.grid_shape
        inner = self.padded[n, 1:-1, 1:-1]
        for di, dj in self._offsets:
            (pi, si), (pj, sj) = _overlap(di, h), _overlap(dj, w)
            inner[pi, pj] += s.data[si, sj]

    def __len__(self) -> int:
        return len(self.padded)

    def gather(self, T: geometry.Transform, pair: int = 0) -> "ScoreSample":
        """``S_t`` of stacked pair ``pair`` sampled at ``T``'s source point of
        every target cell: :meth:`gather_many` for a batch of one.

        Raises ``ValueError`` when ``T`` cannot map a target cell to a
        finite source point.
        """
        return ScoreSample(self, T, self._sample(T.family, T.params[None], [pair], T.control_grid))

    def gather_many(self, family: str, params, pairs, grad: bool = False):
        """Soft counts of ``B`` stacked pairs, each at its own parameter row.

        ``params`` is ``(B, K)``; row b is scored on stacked pair
        ``pairs[b]``.  Returns ``c`` of shape ``(B,)``, or ``(c, dc_dg)``
        with ``dc_dg`` of shape ``(B, K)`` when ``grad`` is set.  Row b
        equals ``gather(Transform(family, params[b]), pairs[b])`` to
        rounding.  When a row cannot be scored, the ``ValueError`` raised
        is the one that per-row loop would raise first.
        """
        params = np.asarray(params, dtype=np.float64)
        try:
            rows = [geometry.Transform(family, row) for row in params]
            sample = self._sample(family, params, pairs, rows[0].control_grid)
        except ValueError:
            for row, pair in zip(params, pairs):  # the first failing row's own error
                self.gather(geometry.Transform(family, row), pair)
            raise
        return (sample.c, self._dc_dg(sample)) if grad else sample.c

    def _sample(self, family: str, params: np.ndarray, pairs, control_grid) -> "_Sample":
        """The one gather core: map, find corners, read ``S_t``, blend."""
        h, w = self.grid_shape
        if family == geometry.TPS:
            basis, control = self._tps_basis(control_grid)
            mapped = basis @ (control + params.reshape(len(params), -1, 2))
            x_src, y_src = mapped[..., 0], mapped[..., 1]
        else:
            x_src, y_src = geometry.apply_many(family, params, self.points)
        uv = np.stack(normalized_to_cells(x_src, y_src, h, w), axis=-1)
        corners, du, dv = geometry.padded_corners(uv, h, w)
        start = np.asarray(pairs, dtype=np.int64)[:, None] * self._pair_size + self._cells
        values = self._flat.take(corners * (h * w) + start)
        c = np.sum(geometry.bilinear_blend(*values, du, dv), axis=-1)
        return _Sample(family, params, control_grid, values, du, dv, c)

    def _tps_basis(self, control_grid: int) -> tuple[np.ndarray, np.ndarray]:
        if control_grid not in self._tps:
            self._tps[control_grid] = (
                geometry.tps_cardinal_values(self.points, control_grid),
                geometry.tps_control_points(control_grid),
            )
        return self._tps[control_grid]

    def _jacobians(self, sample: "_Sample") -> np.ndarray:
        """The parameter Jacobians at the points, cached where fixed."""
        if sample.family == geometry.HOMOGRAPHY:
            return geometry.parameter_jacobians(sample.family, sample.params, self.points)
        key = (sample.family, sample.control_grid)
        if key not in self._jac:
            self._jac[key] = geometry.parameter_jacobians(
                sample.family, None, self.points, sample.control_grid
            )
        return self._jac[key]

    def _dc_dg(self, sample: "_Sample") -> np.ndarray:
        """``(B, K)`` dc/dg, the same chain as :func:`soft_inlier_grad`'s."""
        h, w = self.grid_shape
        dc_du, dc_dv = geometry.bilinear_slopes(*sample.values, sample.du, sample.dv)
        return _chain_to_params(self._jacobians(sample), dc_du, dc_dv, h, w)


class _Sample(NamedTuple):
    """What one gather leaves for its gradient: ``B`` rows of everything."""

    family: str
    params: np.ndarray
    control_grid: int | None
    values: np.ndarray  # (4, B, m) corner values, in padded_corners order
    du: np.ndarray
    dv: np.ndarray
    c: np.ndarray


class ScoreSample:
    """The soft count ``c`` at one transform, and its gradient on demand."""

    def __init__(self, filtered: FilteredScores, T: geometry.Transform, sample: _Sample):
        self.T = T
        self.c = float(sample.c[0])
        self._filtered = filtered
        self._sample = sample

    def dc_dg(self) -> np.ndarray:
        """dc/dg, the same chain as :func:`soft_inlier_grad`'s."""
        return self._filtered._dc_dg(self._sample)[0]


def hard_inliers(mapped_x, mapped_y, src: np.ndarray, t: float, h: int, w: int) -> np.ndarray:
    """The hard inlier rule, for N matches under B hypotheses at once.

    ``mapped_x``/``mapped_y`` are ``(B, N)`` normalized source points: the
    target ends of the matches mapped through each hypothesis.  ``src``
    is the ``(N, 2)`` source ends in grid units on an ``h x w`` lattice.
    Entry ``[b, n]`` is true when match n's source point lies strictly
    within ``t`` of its mapped target point under hypothesis b.
    """
    u, v = normalized_to_cells(mapped_x, mapped_y, h, w)
    return np.hypot(src[:, 0] - u, src[:, 1] - v) < t


def hard_inlier_count(
    matches, T: geometry.Transform, t: float, h: int, w: int
) -> tuple[int, list]:
    """Classical inlier count of grid-unit matches under ``T``.

    ``matches`` is a list of ((i, j), (k, l)) pairs with both endpoints in
    grid units on an ``h x w`` lattice (the dims are needed to express the
    normalized-coordinate transform in grid units).  Counts matches whose
    source point lies strictly within ``t`` of the warped target point and
    returns them: :func:`hard_inliers` for a batch of one.
    """
    if not t > 0.0:
        raise ValueError(f"threshold must be positive, got {t}")
    if not matches:
        return 0, []
    src = np.array([m[0] for m in matches], dtype=np.float64)
    tgt = np.array([m[1] for m in matches], dtype=np.float64)
    x, y = cells_to_normalized(tgt[:, 0], tgt[:, 1], h, w)
    mapped = geometry.apply(T, np.stack([x, y], axis=1))
    keep = hard_inliers(mapped[None, :, 0], mapped[None, :, 1], src, t, h, w)[0]
    return int(np.count_nonzero(keep)), [matches[n] for n in np.flatnonzero(keep)]
