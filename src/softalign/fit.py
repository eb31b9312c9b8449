"""Transform estimation by maximizing the soft-inlier count.

Three routes:

* :func:`fit_direct` — gradient ascent on the differentiable count ``c``
  with adaptive-moment steps, backtracking, staged families
  (affine first, then TPS or homography), and seeded restarts.
* :func:`fit_ransac` — classical hypothesize-and-verify over candidate
  matches drawn from a correlation tensor, scored by the hard count.
* :func:`fit_line_demo` — the 2-D line-fitting analogue, either with
  classical 2-point sampling or with an exhaustive hypothesis grid over
  a soft score raster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from softalign.geometry import FAMILIES, Transform, apply, apply_many, make_tps, tps_control_points
from softalign.grids import FeatureGrid, cells_to_normalized
from softalign.matching import CorrelationTensor, correlate
from softalign.softinlier import (
    FilteredScores,
    ScoreBreakdown,
    default_threshold,
    hard_inliers,
    score_breakdown,
)

ADAM_EPS = 1e-8
MAX_BACKTRACKS = 12
STALL_LIMIT = 10


@dataclass(frozen=True)
class FitConfig:
    """Settings for :func:`fit_direct`.

    ``stages`` defaults to ``("affine",)`` for the affine family and to
    ``("affine", <family>)`` otherwise; ``threshold`` defaults to
    ``max(h, w) / 30`` at fit time.
    """

    family: str = "affine"
    stages: tuple[str, ...] | None = None
    iterations: int = 200
    step: float = 0.05
    stage2_step: float = 0.02
    betas: tuple[float, float] = (0.9, 0.999)
    restarts: int = 4
    seed: int = 0
    tol: float = 1e-5
    threshold: float | None = None
    control_grid: int = 3

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.step <= 0 or self.stage2_step <= 0:
            raise ValueError("step sizes must be > 0")
        b1, b2 = self.betas
        if not (0 < b1 < 1 and 0 < b2 < 1):
            raise ValueError("decay rates must lie in (0, 1)")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
        if self.threshold is not None and not self.threshold > 0:
            raise ValueError("threshold must be > 0")
        if self.stages is not None:
            if not self.stages or any(s not in FAMILIES for s in self.stages):
                raise ValueError(f"stages must be drawn from {sorted(FAMILIES)}")
            if self.stages[-1] != self.family:
                raise ValueError("last stage must match the configured family")

    def resolved_stages(self) -> tuple[str, ...]:
        if self.stages is not None:
            return self.stages
        if self.family == "affine":
            return ("affine",)
        return ("affine", self.family)


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of a fit: the transform, its score, and how it was reached.

    ``trace`` holds the accepted score after every iteration (the hard
    best-so-far count for RANSAC); ``no_signal`` marks an all-zero
    correlation; ``inlier_count``/``inliers`` are RANSAC-only.
    """

    transform: Transform
    c: float
    trace: tuple[float, ...]
    restart_index: int
    breakdown: ScoreBreakdown
    no_signal: bool = False
    inlier_count: int | None = None
    inliers: tuple = field(default=())

    def to_dict(self) -> dict:
        out = {
            "transform": self.transform.to_dict(),
            "c": float(self.c),
            "trace": [float(v) for v in self.trace],
            "restart_index": int(self.restart_index),
            "no_signal": bool(self.no_signal),
            "breakdown": self.breakdown.to_dict(),
        }
        if self.inlier_count is not None:
            out["inlier_count"] = int(self.inlier_count)
            out["inliers"] = [
                {"src": list(map(int, src)), "tgt": list(map(int, tgt))}
                for src, tgt in self.inliers
            ]
        return out


# ---------------------------------------------------------------------------
# Direct maximization


def _build_transform(stage: str, params: np.ndarray, control_grid: int) -> Transform:
    if stage == "affine":
        return Transform.affine(params)
    if stage == "homography":
        return Transform.homography(params)
    return make_tps(params, control_grid=control_grid)


def _count(filtered: FilteredScores, stage, params, control_grid):
    """``(c, sample)`` at the given parameters.

    ``(-inf, None)`` when the parameters give no usable mapping: a
    degenerate transform, a homography whose denominator vanishes at a
    target cell, or a non-finite source point.
    """
    try:
        sample = filtered.gather(_build_transform(stage, params, control_grid))
    except ValueError:
        return -np.inf, None
    return sample.c, sample


def _ascend(filtered, stage, g0, steps, lr, betas, tol, control_grid):
    """Adaptive-moment ascent with backtracking; accepted steps never lower c.

    Each accepted point is scored once: its gradient comes from the same
    gathered sample as its count.
    """
    g = np.asarray(g0, dtype=np.float64).copy()
    b1, b2 = betas
    m1 = np.zeros_like(g)
    m2 = np.zeros_like(g)
    start = filtered.gather(_build_transform(stage, g, control_grid))
    c_cur, grad = start.c, start.dc_dg()
    trace = [c_cur]
    stall = 0
    for it in range(1, steps + 1):
        m1 = b1 * m1 + (1 - b1) * grad
        m2 = b2 * m2 + (1 - b2) * grad * grad
        direction = (m1 / (1 - b1**it)) / (np.sqrt(m2 / (1 - b2**it)) + ADAM_EPS)
        scale = 1.0
        improvement = 0.0
        for _ in range(MAX_BACKTRACKS):
            g_try = g + lr * scale * direction
            c_try, sample = _count(filtered, stage, g_try, control_grid)
            if c_try >= c_cur:
                g = g_try
                improvement = c_try - c_cur
                c_cur = c_try
                grad = sample.dc_dg()
                break
            scale *= 0.5
        trace.append(c_cur)
        stall = stall + 1 if improvement < tol else 0
        if stall >= STALL_LIMIT:
            break
    return g, c_cur, trace


def _embed_stage(stage: str, affine_params: np.ndarray, control_grid: int) -> np.ndarray:
    """Parameters for `stage` that reproduce the given affine map exactly."""
    if stage == "homography":
        return np.concatenate([affine_params, [0.0, 0.0]])
    if stage == "tps":
        pts = tps_control_points(control_grid)
        moved = apply(Transform.affine(affine_params), pts)
        return (moved - pts).ravel()
    return affine_params.copy()


def _restart_start(cfg: FitConfig, restart: int) -> np.ndarray:
    identity = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    if restart == 0:
        return identity
    rng = np.random.default_rng([cfg.seed, restart])
    ang = rng.uniform(-0.5, 0.5)
    scale = np.exp(rng.uniform(-0.2, 0.2))
    tx, ty = rng.uniform(-0.4, 0.4, size=2)
    ca, sa = scale * np.cos(ang), scale * np.sin(ang)
    return np.array([ca, -sa, tx, sa, ca, ty])


def fit_direct(f_s: FeatureGrid, f_t: FeatureGrid, cfg: FitConfig | None = None) -> AlignmentResult:
    """Estimate the target-to-source transform by gradient ascent on c.

    Correlates once, then per restart runs staged ascent (affine first;
    TPS/homography stages start from an exact embedding of the affine
    result).  Restart 0 starts at the identity; later restarts perturb it
    with a seeded random affinity.  Deterministic given the seed.  A
    correlation with no score anywhere returns the identity flagged
    ``no_signal`` instead of failing.
    """
    cfg = cfg or FitConfig()
    if (f_s.h, f_s.w) != (f_t.h, f_t.w):
        raise ValueError(
            f"grids must share dimensions, got {f_s.h}x{f_s.w} vs {f_t.h}x{f_t.w}"
        )
    s = correlate(f_s, f_t)
    t = cfg.threshold if cfg.threshold is not None else default_threshold(f_s.h, f_s.w)
    filtered = FilteredScores(s, t)
    stages = cfg.resolved_stages()

    best = None  # (c, restart, params, stage, trace)
    for restart in range(cfg.restarts):
        g = _restart_start(cfg, restart)
        trace: list[float] = []
        stage = stages[0]
        for idx, stage in enumerate(stages):
            if idx > 0:
                g = _embed_stage(stage, g, cfg.control_grid)
            lr = cfg.step if idx == 0 else cfg.stage2_step
            g, c_end, tr = _ascend(
                filtered, stage, g, cfg.iterations, lr, cfg.betas, cfg.tol, cfg.control_grid
            )
            trace.extend(tr)
        if best is None or c_end > best[0]:
            best = (c_end, restart, g, stage, trace)

    c_best, restart_idx, g_best, stage_best, trace_best = best
    if c_best <= 0.0:
        T = Transform.identity(cfg.family)
        breakdown = score_breakdown(s, T, t)
        return AlignmentResult(
            transform=T,
            c=breakdown.c,
            trace=tuple(trace_best),
            restart_index=restart_idx,
            breakdown=breakdown,
            no_signal=True,
        )
    T = _build_transform(stage_best, g_best, cfg.control_grid)
    return AlignmentResult(
        transform=T,
        c=c_best,
        trace=tuple(trace_best),
        restart_index=restart_idx,
        breakdown=score_breakdown(s, T, t),
    )


# ---------------------------------------------------------------------------
# Classical RANSAC baseline

MINIMAL_SAMPLE = {"affine": 3, "homography": 4}


#: hypotheses verified per array pass in :func:`fit_ransac`; bounds the
#: ``(block, candidates)`` temporaries
VERIFY_BLOCK = 64


def _candidate_cells(s: CorrelationTensor) -> tuple[np.ndarray, np.ndarray]:
    """``(src, tgt)`` grid cells of :func:`candidate_matches`, ``(n, 2)`` each."""
    h_s, w_s, h_t, w_t = s.data.shape
    cols = s.data.reshape(h_s * w_s, h_t * w_t)
    best = np.argmax(cols, axis=0)  # first index on ties
    score = cols[best, np.arange(h_t * w_t)]
    global_max = float(s.data.max())
    tgt = np.flatnonzero(~((score <= 0.0) | (score < 0.5 * global_max)))
    return np.stack(np.divmod(best[tgt], w_s), axis=1), np.stack(np.divmod(tgt, w_t), axis=1)


def candidate_matches(s: CorrelationTensor) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """One candidate per target cell: its argmax source cell.

    Cells whose best score is zero or falls below half the tensor-wide
    maximum are dropped as matchless.  Candidates come in row-major
    target order; a tie goes to the first source cell in row-major order.
    """
    return _as_matches(*_candidate_cells(s))


def _as_matches(src: np.ndarray, tgt: np.ndarray) -> list:
    return [((i, j), (k, l)) for (i, j), (k, l) in zip(src.tolist(), tgt.tolist())]


def _affine_from_matches(src: np.ndarray, tgt: np.ndarray) -> Transform:
    n = len(src)
    design = np.column_stack([tgt[:, 0], tgt[:, 1], np.ones(n)])
    sol, *_ = np.linalg.lstsq(design, src, rcond=None)
    a11, a12, tx = sol[:, 0]
    a21, a22, ty = sol[:, 1]
    return Transform.affine(np.array([a11, a12, tx, a21, a22, ty]))


def _homography_from_matches(src: np.ndarray, tgt: np.ndarray) -> Transform:
    n = len(src)
    rows = np.zeros((2 * n, 9))
    x, y = tgt[:, 0], tgt[:, 1]
    u, v = src[:, 0], src[:, 1]
    rows[0::2, 0] = x
    rows[0::2, 1] = y
    rows[0::2, 2] = 1.0
    rows[0::2, 6] = -u * x
    rows[0::2, 7] = -u * y
    rows[0::2, 8] = -u
    rows[1::2, 3] = x
    rows[1::2, 4] = y
    rows[1::2, 5] = 1.0
    rows[1::2, 6] = -v * x
    rows[1::2, 7] = -v * y
    rows[1::2, 8] = -v
    _, _, vt = np.linalg.svd(rows)
    h = vt[-1]
    if abs(h[8]) < 1e-12:
        raise ValueError("degenerate homography sample")
    h = h / h[8]
    return Transform.homography(h[:8])


def _solve_transform(family: str, src: np.ndarray, tgt: np.ndarray) -> Transform:
    if family == "affine":
        return _affine_from_matches(src, tgt)
    return _homography_from_matches(src, tgt)


def fit_ransac(
    s: CorrelationTensor,
    family: str = "affine",
    t: float | None = None,
    iters: int = 500,
    seed: int = 0,
) -> AlignmentResult:
    """Hypothesize-and-verify estimation from correlation argmax matches.

    Samples minimal match subsets and solves each for a transform, then
    scores every hypothesis by the hard inlier count over all candidates,
    :data:`VERIFY_BLOCK` hypotheses per array pass, and finally refits on
    the best hypothesis' inliers (kept only if it scores at least as
    well).  The result equals that of sampling, solving and counting one
    hypothesis at a time.
    """
    if family not in MINIMAL_SAMPLE:
        raise ValueError(f"family must be one of {sorted(MINIMAL_SAMPLE)}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    h_s, w_s, h_t, w_t = s.data.shape
    if (h_s, w_s) != (h_t, w_t):
        raise ValueError("ransac scoring needs equal source/target grid shapes")
    if t is None:
        t = default_threshold(h_s, w_s)
    if not t > 0:
        raise ValueError("threshold must be > 0")

    src_cells, tgt_cells = _candidate_cells(s)
    n = len(src_cells)
    k = MINIMAL_SAMPLE[family]
    if n < k:
        raise ValueError(f"insufficient matches: {n} candidates, need >= {k}")
    src_xy = np.stack(cells_to_normalized(src_cells[:, 0], src_cells[:, 1], h_s, w_s), axis=1)
    tgt_xy = np.stack(cells_to_normalized(tgt_cells[:, 0], tgt_cells[:, 1], h_t, w_t), axis=1)

    def verify(params: np.ndarray) -> np.ndarray:
        """``(B, n)`` inlier decisions of the hypotheses in ``params``."""
        return hard_inliers(*apply_many(family, params, tgt_xy), src_cells, t, h_s, w_s)

    # Hypothesize: one seeded draw and one exact solve per iteration.
    rng = np.random.default_rng(seed)
    solved, hypotheses = [], []
    for it in range(iters):
        pick = rng.choice(n, size=k, replace=False)
        try:
            hypotheses.append(_solve_transform(family, src_xy[pick], tgt_xy[pick]))
        except (ValueError, np.linalg.LinAlgError):
            continue
        solved.append(it)
    if not hypotheses:
        raise ValueError("insufficient matches: no non-degenerate sample found")

    # Verify every hypothesis, a block at a time.  The first best count
    # wins, as a strict > would; a degenerate sample counts -1 in the trace.
    params = np.array([T.params for T in hypotheses])
    counts = np.empty(len(hypotheses), dtype=np.int64)
    for b in range(0, len(hypotheses), VERIFY_BLOCK):
        block = slice(b, b + VERIFY_BLOCK)
        counts[block] = np.count_nonzero(verify(params[block]), axis=1)
    by_iteration = np.full(iters, -1, dtype=np.int64)
    by_iteration[solved] = counts
    trace = np.maximum(np.maximum.accumulate(by_iteration), 0).astype(np.float64)
    winner = int(np.argmax(counts))
    best_T, best_count = hypotheses[winner], int(counts[winner])
    best = np.flatnonzero(verify(params[winner : winner + 1])[0])

    # Least-squares refit on the winning hypothesis' inliers.
    if len(best) >= k:
        try:
            refit = _solve_transform(family, src_xy[best], tgt_xy[best])
            refit_inliers = np.flatnonzero(verify(refit.params[None])[0])
            if len(refit_inliers) >= best_count:
                best_T, best_count, best = refit, len(refit_inliers), refit_inliers
        except (ValueError, np.linalg.LinAlgError):
            pass

    breakdown = score_breakdown(s, best_T, t)
    return AlignmentResult(
        transform=best_T,
        c=breakdown.c,
        trace=tuple(trace.tolist()),
        restart_index=0,
        breakdown=breakdown,
        inlier_count=best_count,
        inliers=tuple(_as_matches(src_cells[best], tgt_cells[best])),
    )


# ---------------------------------------------------------------------------
# Line-fitting demonstration


@dataclass(frozen=True)
class LineFitResult:
    """A line in normal form x*cos(theta) + y*sin(theta) = rho."""

    theta: float
    rho: float
    count: float
    mode: str
    degenerate: bool = False

    def distances(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        proj = points[:, 0] * np.cos(self.theta) + points[:, 1] * np.sin(self.theta)
        return np.abs(proj - self.rho)

    def to_dict(self) -> dict:
        return {
            "theta": float(self.theta),
            "rho": float(self.rho),
            "count": float(self.count),
            "mode": self.mode,
            "degenerate": bool(self.degenerate),
        }


def _canonical_line(theta: float, rho: float) -> tuple[float, float]:
    theta = theta % np.pi
    return theta, rho


def _line_through(p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    d = q - p
    norm = np.hypot(d[0], d[1])
    if norm == 0.0:
        raise ValueError("coincident points")
    nx, ny = -d[1] / norm, d[0] / norm
    theta = np.arctan2(ny, nx)
    rho = nx * p[0] + ny * p[1]
    if theta < 0:
        theta += np.pi
        rho = -rho
    return _canonical_line(theta, rho)


def splat_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bilinear rasterization of points onto an integer lattice.

    Returns ``(scores, xs, ys)``: a 2-D score array and the lattice
    coordinates of its columns and rows.  The lattice pads the point
    bounding box by one cell on every side, so all splat mass lands
    inside it.
    """
    points = np.asarray(points, dtype=np.float64)
    x0 = int(np.floor(points[:, 0].min())) - 1
    x1 = int(np.ceil(points[:, 0].max())) + 1
    y0 = int(np.floor(points[:, 1].min())) - 1
    y1 = int(np.ceil(points[:, 1].max())) + 1
    xs = np.arange(x0, x1 + 1, dtype=np.float64)
    ys = np.arange(y0, y1 + 1, dtype=np.float64)
    scores = np.zeros((ys.size, xs.size))
    fx = np.floor(points[:, 0]).astype(int) - x0
    fy = np.floor(points[:, 1]).astype(int) - y0
    ax = points[:, 0] - np.floor(points[:, 0])
    ay = points[:, 1] - np.floor(points[:, 1])
    np.add.at(scores, (fy, fx), (1 - ay) * (1 - ax))
    np.add.at(scores, (fy, fx + 1), (1 - ay) * ax)
    np.add.at(scores, (fy + 1, fx), ay * (1 - ax))
    np.add.at(scores, (fy + 1, fx + 1), ay * ax)
    return scores, xs, ys


def line_hypothesis_grid(points: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive (theta, rho) grid: 1-degree angles over [0, pi), rho in
    0.25 steps aligned to zero and covering every point with slack t+1."""
    points = np.asarray(points, dtype=np.float64)
    thetas = np.arange(180, dtype=np.float64) * (np.pi / 180.0)
    rho_max = float(np.hypot(points[:, 0], points[:, 1]).max()) + t + 1.0
    n = int(np.ceil(rho_max / 0.25))
    rhos = np.arange(-n, n + 1, dtype=np.float64) * 0.25
    return thetas, rhos


def fit_line_demo(
    points,
    t: float = 0.5,
    mode: str = "ransac",
    iters: int = 500,
    seed: int = 0,
) -> LineFitResult:
    """Fit a line to 2-D points by maximizing an inlier count.

    ``ransac`` mode samples point pairs and counts points within distance
    ``t`` (strict).  ``soft-grid`` mode rasterizes the points to a score
    lattice and sweeps an exhaustive (angle, offset) hypothesis grid,
    scoring each line by the score mass inside its band.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    n = len(points)
    if n < 2:
        raise ValueError("need at least 2 points")
    if not t > 0:
        raise ValueError("threshold must be > 0")
    if mode not in ("ransac", "soft-grid"):
        raise ValueError(f"unknown mode {mode!r}")

    if np.all(points == points[0]):
        # Any line through the single location scores n; report the
        # vertical one and flag the degeneracy.
        theta, rho = _canonical_line(0.0, points[0, 0])
        return LineFitResult(theta, rho, float(n), mode, degenerate=True)

    if mode == "ransac":
        rng = np.random.default_rng(seed)
        best = None
        for _ in range(iters):
            a, b = rng.choice(n, size=2, replace=False)
            if np.all(points[a] == points[b]):
                continue
            theta, rho = _line_through(points[a], points[b])
            proj = points[:, 0] * np.cos(theta) + points[:, 1] * np.sin(theta)
            count = int(np.count_nonzero(np.abs(proj - rho) < t))
            if best is None or count > best[0]:
                best = (count, theta, rho)
        count, theta, rho = best
        return LineFitResult(theta, rho, float(count), mode)

    scores, xs, ys = splat_points(points)
    cell_x = np.broadcast_to(xs, scores.shape).ravel()
    cell_y = np.broadcast_to(ys[:, None], scores.shape).ravel()
    flat = scores.ravel()
    thetas, rhos = line_hypothesis_grid(points, t)
    best = None
    for theta in thetas:
        proj = cell_x * np.cos(theta) + cell_y * np.sin(theta)
        inside = np.abs(proj[:, None] - rhos[None, :]) < t
        counts = flat @ inside
        j = int(np.argmax(counts))
        if best is None or counts[j] > best[0]:
            best = (float(counts[j]), float(theta), float(rhos[j]))
    count, theta, rho = best
    return LineFitResult(theta, rho, count, mode)


def demo_points(
    seed: int,
    n_inliers: int = 20,
    n_outliers: int = 30,
    noise: float = 0.15,
    extent: float = 20.0,
) -> np.ndarray:
    """Seeded line-plus-clutter cloud for the line-fitting demo.

    ``n_inliers`` points sit along a random line through the middle of the
    ``[0, extent]^2`` region with perpendicular Gaussian noise of sigma
    ``noise``; ``n_outliers`` points are uniform over the region.  Rows
    are shuffled so membership is not position-coded.
    """
    if n_inliers < 2 or n_outliers < 0:
        raise ValueError("need >= 2 inliers and >= 0 outliers")
    if noise < 0 or extent <= 0:
        raise ValueError("noise must be >= 0 and extent > 0")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, np.pi)
    normal = np.array([np.cos(theta), np.sin(theta)])
    tangent = np.array([-np.sin(theta), np.cos(theta)])
    center = rng.uniform(0.3 * extent, 0.7 * extent, size=2)
    along = rng.uniform(-extent / 2.0, extent / 2.0, size=n_inliers)
    perp = rng.normal(0.0, noise, size=n_inliers)
    inl = center + along[:, None] * tangent + perp[:, None] * normal
    out = rng.uniform(0.0, extent, size=(n_outliers, 2))
    pts = np.vstack([inl, out])
    rng.shuffle(pts, axis=0)
    return pts
