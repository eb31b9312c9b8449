"""Keypoint-transfer metrics and mask IoU.

Keypoints live in normalized [0, 1] image coordinates (0 = first pixel
center, 1 = last).  A predicted source keypoint is the transform applied
to the annotated target keypoint; its error against the annotated source
keypoint is measured under one of two protocols:

``pfpascal``
    Euclidean distance in normalized [0, 1] units, compared directly to
    the threshold ``alpha`` (0.1 by convention).
``tss``
    Euclidean distance in source-image pixels, compared to
    ``alpha * max(source width, source height)`` (alpha 0.05).

Both use strict ``<`` at the threshold.  Mask IoU warps the source mask
into the target frame by sampling it at the transform of every target
pixel, re-thresholds at 0.5, and intersects with the target mask; an
empty union is defined as IoU 1 with a both-empty flag.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from softalign import geometry
from softalign.features import GrayImage

PROTOCOLS = ("pfpascal", "tss")

#: conventional thresholds per protocol
DEFAULT_ALPHA = {"pfpascal": 0.1, "tss": 0.05}


@dataclass
class KeypointSet:
    """Matched keypoints: columns (xs, ys, xt, yt) in [0, 1].

    ``sizes`` carries the pixel dimensions (ws, hs, wt, ht); it may be
    omitted for protocols that never leave normalized units.
    """

    coords: np.ndarray
    sizes: tuple[int, int, int, int] | None = None

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 4:
            raise ValueError(f"keypoints must be (n, 4), got {self.coords.shape}")
        if self.coords.shape[0] < 1:
            raise ValueError("need at least one keypoint")
        if not np.isfinite(self.coords).all():
            raise ValueError("keypoints contain non-finite values")
        if self.coords.min() < 0.0 or self.coords.max() > 1.0:
            raise ValueError("keypoints must lie in [0, 1]")

    def __len__(self) -> int:
        return self.coords.shape[0]


@dataclass
class EvalReport:
    """Per-keypoint errors plus the PCK value they imply."""

    errors: np.ndarray
    pck: float
    protocol: str
    threshold: float


def transfer_errors(kps: KeypointSet, T: geometry.Transform, protocol: str) -> np.ndarray:
    """Per-keypoint transfer error of ``T`` (target keypoint -> source)."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r} (want one of {PROTOCOLS})")
    tgt = kps.coords[:, 2:4] * 2.0 - 1.0
    pred = (geometry.apply(T, tgt) + 1.0) / 2.0
    dx = pred[:, 0] - kps.coords[:, 0]
    dy = pred[:, 1] - kps.coords[:, 1]
    if protocol == "pfpascal":
        return np.hypot(dx, dy)
    if kps.sizes is None:
        raise ValueError("tss protocol needs keypoint image sizes")
    ws, hs = kps.sizes[0], kps.sizes[1]
    return np.hypot(dx * ws, dy * hs)


def pck_threshold(protocol: str, alpha: float, sizes=None) -> float:
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if protocol == "pfpascal":
        return alpha
    if protocol == "tss":
        if sizes is None:
            raise ValueError("tss protocol needs image sizes")
        return alpha * max(sizes[0], sizes[1])
    raise ValueError(f"unknown protocol {protocol!r} (want one of {PROTOCOLS})")


def pck(errors, protocol: str, alpha: float, sizes=None) -> float:
    """Fraction of errors strictly below the protocol threshold."""
    errors = np.asarray(errors, dtype=np.float64)
    thr = pck_threshold(protocol, alpha, sizes)
    return float(np.count_nonzero(errors < thr)) / errors.size


def evaluate_keypoints(
    kps: KeypointSet, T: geometry.Transform, protocol: str, alpha: float
) -> EvalReport:
    errors = transfer_errors(kps, T, protocol)
    return EvalReport(
        errors=errors,
        pck=pck(errors, protocol, alpha, kps.sizes),
        protocol=protocol,
        threshold=pck_threshold(protocol, alpha, kps.sizes),
    )


def aggregate_pck(error_lists, protocol: str, alpha: float, sizes_list=None):
    """Dataset-level PCK, both ways the papers do it.

    Returns ``(per_pair_mean, pooled)``: the mean of per-pair PCK values,
    and the PCK of all keypoints pooled before dividing.
    """
    if not error_lists:
        raise ValueError("no per-pair errors to aggregate")
    if sizes_list is None:
        sizes_list = [None] * len(error_lists)
    per_pair = [
        pck(err, protocol, alpha, sizes)
        for err, sizes in zip(error_lists, sizes_list)
    ]
    hits = 0
    total = 0
    for err, sizes in zip(error_lists, sizes_list):
        err = np.asarray(err, dtype=np.float64)
        thr = pck_threshold(protocol, alpha, sizes)
        hits += int(np.count_nonzero(err < thr))
        total += err.size
    return float(np.mean(per_pair)), hits / total


# ---------------------------------------------------------------------------
# Mask IoU


def mask_iou(
    src_mask: GrayImage,
    tgt_mask: GrayImage,
    T: geometry.Transform,
    declared_sizes: tuple[int, int, int, int] | None = None,
) -> tuple[float, bool]:
    """IoU of the warped source mask against the target mask.

    Returns ``(iou, both_empty)``; an empty union is scored 1.0 with the
    flag set.  ``declared_sizes`` (ws, hs, wt, ht), when given, must match
    the mask files.
    """
    if declared_sizes is not None:
        ws, hs, wt, ht = declared_sizes
        if (src_mask.w, src_mask.h) != (ws, hs) or (tgt_mask.w, tgt_mask.h) != (wt, ht):
            raise ValueError(
                f"mask sizes {src_mask.w}x{src_mask.h}/{tgt_mask.w}x{tgt_mask.h} "
                f"do not match declared {ws}x{hs}/{wt}x{ht}"
            )
    src = (src_mask.data >= 0.5).astype(np.float64)
    tgt = tgt_mask.data >= 0.5

    coords = geometry.transform_sampling_grid(T, src_mask.data.shape, tgt_mask.data.shape)
    warped = geometry.bilinear_sample(src, coords) >= 0.5

    inter = np.count_nonzero(warped & tgt)
    union = np.count_nonzero(warped | tgt)
    if union == 0:
        return 1.0, True
    return inter / union, False


# ---------------------------------------------------------------------------
# Keypoint CSV and synthetic keypoints


def write_keypoints(kps: KeypointSet, path) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["xs", "ys", "xt", "yt"])
        for row in kps.coords:
            writer.writerow([repr(float(v)) for v in row])


def read_keypoints(path, sizes=None) -> KeypointSet:
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["xs", "ys", "xt", "yt"]:
            raise ValueError(f"{path}: expected header xs,ys,xt,yt")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparseable float") from None
    if not rows:
        raise ValueError(f"{path}: no keypoints")
    return KeypointSet(np.asarray(rows), sizes)


def keypoints_from_transform(
    T: geometry.Transform,
    n: int,
    seed: int,
    sizes: tuple[int, int, int, int] | None = None,
    margin: float = 0.05,
) -> KeypointSet:
    """Seeded target keypoints whose exact source positions come from ``T``.

    Draws target points uniformly inside the margins and keeps those whose
    mapped source position lands in [0, 1]^2, so the set is consistent
    with the transform by construction (its transfer error is zero).
    """
    if n < 1:
        raise ValueError("need at least one keypoint")
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(200):
        tgt = rng.uniform(margin, 1.0 - margin, size=(4 * n, 2))
        pred = (geometry.apply(T, tgt * 2.0 - 1.0) + 1.0) / 2.0
        ok = (pred >= 0.0).all(axis=1) & (pred <= 1.0).all(axis=1)
        for p, q in zip(pred[ok], tgt[ok]):
            rows.append([p[0], p[1], q[0], q[1]])
            if len(rows) == n:
                return KeypointSet(np.asarray(rows), sizes)
    raise ValueError("transform maps too few points into frame for keypoints")
