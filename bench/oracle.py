"""Reference computations the benchmark checks softalign's outputs against.

Everything here is written from the definitions, apart from the library
code it checks: the normalized correlation, the soft inlier count, the
classical (hard) inlier count over argmax matches, and keypoint PCK.
Affine maps are applied by hand; a thin-plate spline is evaluated with
``softalign.geometry.apply``, the one library call made here, so call
these functions only while no layer tracer is installed.

Coordinate conventions (grid units ``(row, col)``, normalized ``(x, y)``
in ``[-1, 1]``): ``x = -1 + 2 col / (w - 1)``, ``y = -1 + 2 row / (h - 1)``.
"""

from __future__ import annotations

import numpy as np


def correlation(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """``s[i, j, k, l]``: clamped inner products, each target column
    divided by its L2 norm over source cells (zero columns stay zero)."""
    h, w, d = src.shape
    raw = src.reshape(h * w, d) @ tgt.reshape(-1, d).T
    r = np.maximum(raw, 0.0)
    norm = np.sqrt((r * r).sum(axis=0))
    out = np.zeros_like(r)
    live = norm >= 1e-12
    out[:, live] = r[:, live] / norm[live]
    return out.reshape(h, w, tgt.shape[0], tgt.shape[1])


def map_points(transform, xy: np.ndarray) -> np.ndarray:
    """Map normalized target points ``(n, 2)`` to source coordinates.

    ``transform`` is a ``Transform`` or its ``to_dict()`` form."""
    family = transform["family"] if isinstance(transform, dict) else transform.family
    params = transform["params"] if isinstance(transform, dict) else transform.params
    if family == "affine":
        a = np.asarray(params, dtype=np.float64)
        x, y = xy[:, 0], xy[:, 1]
        return np.stack([a[0] * x + a[1] * y + a[2], a[3] * x + a[4] * y + a[5]], axis=1)
    from softalign import geometry

    if isinstance(transform, dict):
        transform = geometry.Transform.from_dict(transform)
    return geometry.apply(transform, xy)


def _source_cells(transform, rows, cols, h: int, w: int):
    """Continuous source (row, col) of target cells (rows, cols) under the map."""
    rows, cols = np.asarray(rows, dtype=np.float64), np.asarray(cols, dtype=np.float64)
    xy = np.stack([-1.0 + 2.0 * cols / (w - 1), -1.0 + 2.0 * rows / (h - 1)], axis=1)
    mapped = map_points(transform, xy)
    return (mapped[:, 1] + 1.0) * (h - 1) / 2.0, (mapped[:, 0] + 1.0) * (w - 1) / 2.0


def soft_count(s: np.ndarray, transform, t: float) -> float:
    """The soft inlier count ``c`` of ``transform`` on correlation ``s``.

    For target cell (k, l) mapped to source position (u, v), the mask over
    source cells is the bilinear blend of the four radius-``t`` disks
    (strict ``<``) centred on the lattice corners around (u, v); corners
    off the grid contribute zero.  ``c`` sums ``s`` times that mask.
    """
    h, w = s.shape[:2]
    u, v = _source_cells(transform, *np.divmod(np.arange(h * w), w), h, w)
    cols = s.reshape(h * w, h * w).T.reshape(h * w, h, w)  # per target cell
    ii = np.arange(h, dtype=np.float64)[None, :, None]
    jj = np.arange(w, dtype=np.float64)[None, None, :]
    u0, v0 = np.floor(u), np.floor(v)
    du, dv = u - u0, v - v0
    total = np.zeros(h * w)
    for a, b, weight in (
        (u0, v0, (1 - du) * (1 - dv)),
        (u0, v0 + 1, (1 - du) * dv),
        (u0 + 1, v0, du * (1 - dv)),
        (u0 + 1, v0 + 1, du * dv),
    ):
        on_grid = (a >= 0) & (a <= h - 1) & (b >= 0) & (b <= w - 1)
        disk = (ii - a[:, None, None]) ** 2 + (jj - b[:, None, None]) ** 2 < t * t
        total += np.where(on_grid, weight, 0.0) * (cols * disk).sum(axis=(1, 2))
    return float(total.sum())


def argmax_matches(s: np.ndarray) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """One match per target cell: its best source cell, kept when the
    score is positive and at least half the tensor-wide maximum."""
    h, w, h2, w2 = s.shape
    cols = s.reshape(h * w, h2 * w2)
    best = cols.argmax(axis=0)
    score = cols[best, np.arange(h2 * w2)]
    keep = (score > 0.0) & (score >= 0.5 * s.max())
    return [
        ((int(best[q] // w), int(best[q] % w)), (int(q // w2), int(q % w2)))
        for q in np.flatnonzero(keep)
    ]


def hard_count(matches, transform, t: float, h: int, w: int) -> int:
    """Matches whose source cell lies strictly within ``t`` grid units of
    the transformed target cell."""
    if not matches:
        return 0
    src = np.array([m[0] for m in matches], dtype=np.float64)
    tgt = np.array([m[1] for m in matches], dtype=np.float64)
    u, v = _source_cells(transform, tgt[:, 0], tgt[:, 1], h, w)
    return int(np.count_nonzero(np.hypot(src[:, 0] - u, src[:, 1] - v) < t))


def pck(coords: np.ndarray, transform, alpha: float = 0.1) -> float:
    """PCK under the pfpascal protocol: keypoints ``(xs, ys, xt, yt)`` in
    [0, 1]; a target keypoint transfers correctly when its mapped position
    lies strictly within ``alpha`` of the source keypoint."""
    coords = np.asarray(coords, dtype=np.float64)
    pred = (map_points(transform, coords[:, 2:4] * 2.0 - 1.0) + 1.0) / 2.0
    err = np.hypot(pred[:, 0] - coords[:, 0], pred[:, 1] - coords[:, 1])
    return float(np.count_nonzero(err < alpha)) / len(err)


IDENTITY_AFFINE = {"family": "affine", "params": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]}


def read_fgrid_text(path) -> np.ndarray:
    """The ``(h, w, d)`` descriptor array of an FGRID file."""
    with open(path, encoding="ascii") as fh:
        tag, h, w, d = fh.readline().split()
        rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    if tag != "FGRID":
        raise ValueError(f"{path}: not an FGRID file")
    return np.array(rows, dtype=np.float64).reshape(int(h), int(w), int(d))


def read_keypoint_csv(path) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split()
    if lines[0] != "xs,ys,xt,yt":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    return np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
