"""Feature grids, the shared coordinate convention, and FGRID text I/O.

A feature grid is an ``h x w`` lattice of ``d``-dimensional descriptors.
Cell ``(i, j)`` uses row index ``i`` (top to bottom) and column index ``j``
(left to right).  All geometry in this package runs in *normalized*
coordinates where the extreme cell centers sit exactly at -1 and +1::

    x = -1 + 2 * j / (w - 1)        (column -> x)
    y = -1 + 2 * i / (h - 1)        (row    -> y)

so a grid must have at least 2 rows and 2 columns for the convention to be
well defined.  Continuous positions between (and beyond) cell centers are
legal everywhere; nothing here snaps to the lattice.

The FGRID format is a plain-text serialization of a feature grid::

    FGRID <h> <w> <d>
    <d floats> ...                  # one line per cell, row-major

Lines starting with ``#`` and blank lines are ignored.  Values are written
with ``repr`` so a write/read round trip is bit-exact for float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _require_grid_dims(h: int, w: int) -> None:
    if h < 2 or w < 2:
        raise ValueError(
            f"grid must be at least 2x2 for normalized coordinates, got {h}x{w}"
        )


@dataclass
class FeatureGrid:
    """An ``(h, w, d)`` array of per-cell descriptors (float64).

    The container itself only enforces shape; descriptor values are
    validated by the operations that care (``l2_normalize`` rejects
    non-finite entries, ``matching.correlate`` rejects un-normalized
    inputs).  Cells whose vector is (numerically) zero are *empty*: they
    carry no descriptor and stay zero through normalization.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValueError(
                f"feature grid data must be (h, w, d), got shape {self.data.shape}"
            )
        h, w, d = self.data.shape
        _require_grid_dims(h, w)
        if d < 1:
            raise ValueError("descriptor dimension must be >= 1")

    @property
    def h(self) -> int:
        return self.data.shape[0]

    @property
    def w(self) -> int:
        return self.data.shape[1]

    @property
    def d(self) -> int:
        return self.data.shape[2]

    def norms(self) -> np.ndarray:
        """Per-cell L2 norms, shape ``(h, w)``."""
        return np.linalg.norm(self.data, axis=2)

    def empty_mask(self, tol: float = 1e-3) -> np.ndarray:
        """Boolean ``(h, w)`` mask of cells with norm <= ``tol``."""
        return self.norms() <= tol

    def is_normalized(self, tol: float = 1e-3) -> bool:
        """True if every cell is unit-norm within ``tol`` or empty."""
        n = self.norms()
        return bool(np.all((np.abs(n - 1.0) <= tol) | (n <= tol)))


@dataclass
class Tensor4:
    """A dense ``(h, w, h2, w2)`` volume of pairwise cell values.

    Axis order is source rows, source cols, target rows, target cols.
    Entries must be finite.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 4:
            raise ValueError(
                f"expected a 4-D (h, w, h2, w2) array, got shape {self.data.shape}"
            )
        if not np.isfinite(self.data).all():
            raise ValueError("4-D volume contains non-finite entries")

    @property
    def source_shape(self) -> tuple[int, int]:
        return self.data.shape[0], self.data.shape[1]

    @property
    def target_shape(self) -> tuple[int, int]:
        return self.data.shape[2], self.data.shape[3]


def l2_normalize(grid: FeatureGrid) -> FeatureGrid:
    """Return a copy of ``grid`` with every non-empty cell scaled to unit norm.

    All-zero cells are left exactly zero (they stay flagged empty).  Any
    non-finite input value is rejected with the offending cell named.
    """
    bad = ~np.isfinite(grid.data).all(axis=2)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"non-finite descriptor at cell ({i}, {j})")
    n = grid.norms()
    out = grid.data.copy()
    nz = n > 0.0
    out[nz] /= n[nz][:, None]
    return FeatureGrid(out)


def cells_to_normalized(ii, jj, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Continuous grid rows ``ii`` and columns ``jj`` (arrays or scalars) -> normalized (x, y)."""
    _require_grid_dims(h, w)
    ii = np.asarray(ii, dtype=np.float64)
    jj = np.asarray(jj, dtype=np.float64)
    return -1.0 + 2.0 * jj / (w - 1), -1.0 + 2.0 * ii / (h - 1)


def normalized_to_cells(x, y, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized (x, y) (arrays or scalars) -> continuous grid (row, col)."""
    _require_grid_dims(h, w)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return (y + 1.0) * (h - 1) / 2.0, (x + 1.0) * (w - 1) / 2.0


# ---------------------------------------------------------------------------
# FGRID text format


def write_fgrid(grid: FeatureGrid, path) -> None:
    """Serialize ``grid`` to ``path`` in the FGRID text format."""
    bad = ~np.isfinite(grid.data).all(axis=2)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"cannot serialize non-finite descriptor at cell ({i}, {j})")
    h, w, d = grid.data.shape
    lines = [f"FGRID {h} {w} {d}"]
    flat = grid.data.reshape(h * w, d)
    for row in flat:
        lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_fgrid(path) -> FeatureGrid:
    """Parse an FGRID file.  Malformed input raises ValueError with the
    1-based line number of the offending line."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()

    header: tuple[int, int, int] | None = None
    rows: list[list[float]] = []
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if header is None:
            parts = text.split()
            if len(parts) != 4 or parts[0] != "FGRID":
                raise ValueError(f"line {lineno}: expected header 'FGRID <h> <w> <d>'")
            try:
                h, w, d = (int(p) for p in parts[1:])
            except ValueError:
                raise ValueError(f"line {lineno}: header dimensions must be integers") from None
            if h < 2 or w < 2 or d < 1:
                raise ValueError(f"line {lineno}: invalid dimensions {h}x{w}x{d}")
            header = (h, w, d)
            continue
        h, w, d = header
        if len(rows) >= h * w:
            raise ValueError(f"line {lineno}: more than {h * w} data rows")
        tokens = text.split()
        if len(tokens) != d:
            raise ValueError(
                f"line {lineno}: expected {d} values per cell, got {len(tokens)}"
            )
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            raise ValueError(f"line {lineno}: unparseable float") from None
        if not all(np.isfinite(values)):
            raise ValueError(f"line {lineno}: non-finite value")
        rows.append(values)

    if header is None:
        raise ValueError("line 1: empty file, expected FGRID header")
    h, w, d = header
    if len(rows) != h * w:
        raise ValueError(
            f"line {len(raw) + 1}: expected {h * w} data rows, found {len(rows)}"
        )
    return FeatureGrid(np.asarray(rows, dtype=np.float64).reshape(h, w, d))
