"""Desk-scale feature extraction: images, descriptors, synthetic pairs.

Stands in for a learned feature extractor.  Images are grayscale PGM
(P2/P5) with intensities scaled to [0, 1].  Two hand-crafted descriptor
kinds are provided:

``patch``
    The raw pixel block of each grid cell, mean-subtracted and
    L2-normalized.
``gradhist``
    An 8-bin gradient-orientation histogram per cell (bins of 45 degrees
    over the full circle), each pixel voting with its gradient magnitude,
    L2-normalized.

Cells with no signal (zero variance / zero gradient energy) become empty
(all-zero) descriptors rather than noise.

``synth_pair`` draws a seeded random transform, renders the target image
by bilinear-sampling the source at the transform of each target pixel
(the same target-to-source direction the mask warp uses), and extracts
descriptors for both frames, giving evaluation pairs with exact ground
truth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from softalign import geometry
from softalign.grids import FeatureGrid

#: descriptor energy at or below this is treated as an empty cell
ZERO_ENERGY_EPS = 1e-12

#: hard caps on synthetic warp magnitudes
ROTATION_CAP_DEG = 45.0
SCALE_CAP = (0.7, 1.4)
TRANSLATION_CAP = 0.3
TPS_DISP_CAP = 0.3


@dataclass
class GrayImage:
    """An (h, w) float64 image with intensities in [0, 1], dims >= 16."""

    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"image must be 2-D, got shape {self.data.shape}")
        h, w = self.data.shape
        if h < 16 or w < 16:
            raise ValueError(f"image dimensions must be >= 16, got {h}x{w}")
        if not np.isfinite(self.data).all():
            raise ValueError("image contains non-finite values")
        if self.data.min() < 0.0 or self.data.max() > 1.0:
            raise ValueError("intensities must lie in [0, 1]")

    @property
    def h(self) -> int:
        return self.data.shape[0]

    @property
    def w(self) -> int:
        return self.data.shape[1]


# ---------------------------------------------------------------------------
# PGM I/O


def _header_tokens(buf: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace/comment-delimited tokens and the offset
    of the byte right after the single whitespace that ends the header."""
    tokens: list[bytes] = []
    i = 0
    n = len(buf)
    while len(tokens) < count:
        while i < n and buf[i : i + 1] in b" \t\r\n":
            i += 1
        if i < n and buf[i : i + 1] == b"#":
            while i < n and buf[i : i + 1] not in b"\r\n":
                i += 1
            continue
        start = i
        while i < n and buf[i : i + 1] not in b" \t\r\n#":
            i += 1
        if i == start:
            raise ValueError("truncated PGM header")
        tokens.append(buf[start:i])
    if i >= n or buf[i : i + 1] not in b" \t\r\n":
        raise ValueError("PGM header must end with whitespace")
    return tokens, i + 1


def load_pgm(path) -> GrayImage:
    """Read a P2 (ASCII) or P5 (binary) PGM file, scaling to [0, 1]."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic = buf[:2]
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"unsupported PGM magic {magic!r} (want P2 or P5)")

    if magic == b"P5":
        tokens, offset = _header_tokens(buf, 4)
        try:
            w, h, maxval = (int(t) for t in tokens[1:])
        except ValueError:
            raise ValueError("malformed PGM header: non-integer dimensions") from None
        if w <= 0 or h <= 0 or not 1 <= maxval <= 65535:
            raise ValueError(f"invalid PGM dimensions {w}x{h} maxval {maxval}")
        itemsize = 1 if maxval < 256 else 2
        payload = buf[offset:]
        if len(payload) != h * w * itemsize:
            raise ValueError(
                f"PGM payload length {len(payload)}, expected {h * w * itemsize}"
            )
        dtype = np.dtype(">u2") if itemsize == 2 else np.uint8
        values = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    else:
        try:
            text = buf.decode("ascii")
        except UnicodeDecodeError:
            raise ValueError("P2 file is not ASCII") from None
        text = re.sub(r"#[^\n]*", "", text)
        tokens = text.split()
        if len(tokens) < 4:
            raise ValueError("truncated PGM header")
        try:
            w, h, maxval = (int(t) for t in tokens[1:4])
            values = np.array([int(t) for t in tokens[4:]], dtype=np.float64)
        except ValueError:
            raise ValueError("malformed P2 content: non-integer token") from None
        if w <= 0 or h <= 0 or not 1 <= maxval <= 65535:
            raise ValueError(f"invalid PGM dimensions {w}x{h} maxval {maxval}")
        if values.size != h * w:
            raise ValueError(f"P2 payload has {values.size} values, expected {h * w}")

    if values.size and (values.min() < 0 or values.max() > maxval):
        raise ValueError("PGM sample out of range")
    return GrayImage(values.reshape(h, w) / maxval)


def save_pgm(img: GrayImage, path, binary: bool = True) -> None:
    """Write ``img`` as maxval-255 PGM (P5 by default, P2 if not binary).

    Loading the result reproduces the quantized pixel values exactly.
    """
    q = np.rint(img.data * 255.0).astype(np.uint8)
    header = f"{'P5' if binary else 'P2'}\n{img.w} {img.h}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(q.tobytes())
        else:
            fh.write("\n".join(" ".join(str(v) for v in row) for row in q).encode("ascii"))
            fh.write(b"\n")


# ---------------------------------------------------------------------------
# Descriptors


def _normalize_cells(flat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(flat, axis=-1, keepdims=True)
    out = np.zeros_like(flat)
    live = norms[..., 0] > ZERO_ENERGY_EPS
    out[live] = flat[live] / norms[live]
    return out


def extract_descriptors(img: GrayImage, kind: str, grid_h: int, grid_w: int) -> FeatureGrid:
    """Per-cell descriptors on a ``grid_h x grid_w`` partition of ``img``.

    The image must divide evenly into cells of at least 4x4 pixels.
    Returned grids satisfy the normalization invariant (unit or empty
    cells).
    """
    if grid_h < 2 or grid_w < 2:
        raise ValueError(f"descriptor grid must be at least 2x2, got {grid_h}x{grid_w}")
    h, w = img.h, img.w
    if h % grid_h or w % grid_w:
        raise ValueError(
            f"image {h}x{w} does not divide into a {grid_h}x{grid_w} grid"
        )
    ch, cw = h // grid_h, w // grid_w
    if ch < 4 or cw < 4:
        raise ValueError(f"cells must be at least 4x4 pixels, got {ch}x{cw}")

    if kind == "patch":
        blocks = img.data.reshape(grid_h, ch, grid_w, cw).transpose(0, 2, 1, 3)
        flat = blocks.reshape(grid_h, grid_w, ch * cw)
        flat = flat - flat.mean(axis=2, keepdims=True)
        return FeatureGrid(_normalize_cells(flat))

    if kind == "gradhist":
        gy, gx = np.gradient(img.data)
        mag = np.hypot(gx, gy)
        ang = np.arctan2(gy, gx)  # [-pi, pi]
        bins = np.floor((ang + np.pi) / (np.pi / 4.0)).astype(np.int64) % 8
        hist = np.zeros((grid_h, grid_w, 8))
        for b in range(8):
            masked = np.where(bins == b, mag, 0.0)
            hist[:, :, b] = masked.reshape(grid_h, ch, grid_w, cw).sum(axis=(1, 3))
        return FeatureGrid(_normalize_cells(hist))

    raise ValueError(f"unknown descriptor kind {kind!r} (want patch or gradhist)")


# ---------------------------------------------------------------------------
# Synthetic pairs


@dataclass
class SynthPair:
    """A rendered source/target pair with exact ground truth.

    ``gt`` maps target coordinates into the source frame (the direction
    the mask warp consumes).  The rendered images are kept alongside the
    descriptor grids for mask/keypoint evaluation and for saving to disk.
    """

    source: FeatureGrid
    target: FeatureGrid
    gt: geometry.Transform
    seed: int
    source_image: GrayImage
    target_image: GrayImage


def render_warped(img: GrayImage, T: geometry.Transform) -> GrayImage:
    """Render the target frame of ``img`` under target->source map ``T``."""
    coords = geometry.transform_sampling_grid(T, (img.h, img.w))
    return GrayImage(np.clip(geometry.bilinear_sample(img.data, coords), 0.0, 1.0))


def _draw_transform(
    rng: np.random.Generator,
    family: str,
    magnitude: float,
    rotation_max_deg,
    scale_range,
    translation_max,
    tps_disp_max,
) -> geometry.Transform:
    if not 0.0 <= magnitude <= 1.0:
        raise ValueError(f"magnitude out of range [0, 1]: {magnitude}")

    if rotation_max_deg is None:
        rotation_max_deg = ROTATION_CAP_DEG * magnitude
    if not 0.0 <= rotation_max_deg <= ROTATION_CAP_DEG:
        raise ValueError(f"rotation range exceeds {ROTATION_CAP_DEG} degrees")
    if scale_range is None:
        half = magnitude * np.log(SCALE_CAP[1])
        scale_range = (float(np.exp(-half)), float(np.exp(half)))
    lo, hi = scale_range
    if not (SCALE_CAP[0] <= lo <= hi <= SCALE_CAP[1]):
        raise ValueError(f"scale range must lie within {SCALE_CAP}")
    if translation_max is None:
        translation_max = TRANSLATION_CAP * magnitude
    if not 0.0 <= translation_max <= TRANSLATION_CAP:
        raise ValueError(f"translation range exceeds {TRANSLATION_CAP}")
    if tps_disp_max is None:
        tps_disp_max = TPS_DISP_CAP * magnitude
    if not 0.0 <= tps_disp_max <= TPS_DISP_CAP:
        raise ValueError(f"TPS displacement range exceeds {TPS_DISP_CAP}")

    if family == "affine":
        ang = np.deg2rad(rng.uniform(-rotation_max_deg, rotation_max_deg))
        s = np.exp(rng.uniform(np.log(lo), np.log(hi)))
        tx, ty = rng.uniform(-translation_max, translation_max, size=2)
        c, sn = s * np.cos(ang), s * np.sin(ang)
        return geometry.Transform.affine([c, -sn, tx, sn, c, ty])
    if family == "tps":
        disp = rng.uniform(-tps_disp_max, tps_disp_max, size=(9, 2))
        return geometry.make_tps(disp)
    raise ValueError(f"synthetic families are affine and tps, got {family!r}")


def synth_pair(
    img: GrayImage,
    family: str,
    magnitude: float,
    grid_h: int,
    grid_w: int,
    seed: int,
    kind: str = "gradhist",
    rotation_max_deg: float | None = None,
    scale_range: tuple[float, float] | None = None,
    translation_max: float | None = None,
    tps_disp_max: float | None = None,
) -> SynthPair:
    """Generate a seeded synthetic pair from ``img`` with known ground truth.

    ``magnitude`` in [0, 1] scales the documented warp ranges (rotation up
    to 45 degrees, scale within [0.7, 1.4], translation up to 0.3
    normalized units, TPS control displacements up to 0.3); the keyword
    overrides pin individual ranges, and must stay inside the caps.
    ``magnitude=0`` yields the identity transform and an identical target.
    """
    rng = np.random.default_rng(seed)
    gt = _draw_transform(
        rng, family, magnitude, rotation_max_deg, scale_range, translation_max,
        tps_disp_max,
    )
    target_image = render_warped(img, gt)
    return SynthPair(
        source=extract_descriptors(img, kind, grid_h, grid_w),
        target=extract_descriptors(target_image, kind, grid_h, grid_w),
        gt=gt,
        seed=seed,
        source_image=img,
        target_image=target_image,
    )


def synthetic_image(seed: int, h: int = 64, w: int = 64, blobs: int = 12) -> GrayImage:
    """A smooth random test image: a sum of anisotropic Gaussian blobs.

    Smooth textures give the descriptors broad, well-behaved correlation
    patterns, which is the regime the desk-scale experiments target.
    """
    rng = np.random.default_rng(seed)
    rr, cc = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    img = np.zeros((h, w))
    scale = (h + w) / 2.0
    for _ in range(blobs):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        sy, sx = rng.uniform(0.06 * scale, 0.2 * scale, size=2)
        amp = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        ang = rng.uniform(0, np.pi)
        dy, dx = rr - cy, cc - cx
        ry = dy * np.cos(ang) - dx * np.sin(ang)
        rx = dy * np.sin(ang) + dx * np.cos(ang)
        img += amp * np.exp(-0.5 * ((ry / sy) ** 2 + (rx / sx) ** 2))
    img -= img.min()
    peak = img.max()
    if peak > 0:
        img /= peak
    return GrayImage(img)
