"""Weakly-supervised training of a tiny transform regressor.

The only training signal is that each (source, target) pair should match:
the loss is the negated soft-inlier count of the predicted transform, and
its gradient flows through the count's transform parameters into the
regressor parameters.
No correspondence or ground-truth-transform data enters any code path in
this module — :func:`train` accepts feature-grid pairs and nothing else.

The regressor is a two-layer perceptron over the flattened correlation
tensor, with the output bias initialized to the identity transform and
the output weights to zero, so the untrained model predicts the identity
everywhere.

:func:`train` correlates every pair once and holds the filtered scores
``S_t`` of all pairs in one stacked :class:`softinlier.FilteredScores`.
A training step works on a whole mini-batch at once: the batch's
correlation rows ``X_b`` are copied from the stack, the forward pass is
``Z = X_b @ W1.T`` (then the output layer), one batched gather scores
every row of predicted parameters and returns ``dc/dg``, the backward
pass is ``grad_W1 = dZ.T @ X_b`` and its ``W2`` counterpart, and Adam
updates its moments and the parameters in place.  The per-epoch loss
uses the same forward pass and gather, ``batch_size`` pairs at a time.
:func:`loss_and_grad` is that step for a batch of one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from softalign.geometry import FAMILIES, PARAM_COUNTS, Transform
from softalign.grids import FeatureGrid
from softalign.matching import CorrelationTensor, correlate
from softalign.softinlier import FilteredScores, default_threshold

CHECKPOINT_FORMAT = "softalign-regressor"
CHECKPOINT_VERSION = 1
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 16
    step: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    seed: int = 0
    hidden: int = 64
    family: str = "affine"
    threshold: float | None = None  # inlier radius t; default max(h, w) / 30

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.step > 0:
            raise ValueError("step must be > 0")
        b1, b2 = self.betas
        if not (0 < b1 < 1 and 0 < b2 < 1):
            raise ValueError("decay rates must lie in (0, 1)")
        if self.hidden < 1:
            raise ValueError("hidden width must be >= 1")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.threshold is not None and not self.threshold > 0:
            raise ValueError("threshold must be > 0")


@dataclass
class RegressorModel:
    """vec(s) -> hidden relu layer -> transform parameters."""

    family: str
    grid_h: int
    grid_w: int
    W1: np.ndarray  # (hidden, (h*w)**2)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (K, hidden)
    b2: np.ndarray  # (K,)

    def __post_init__(self):
        if not (isinstance(self.family, str) and self.family in FAMILIES):
            raise ValueError(f"unknown family {self.family!r}")
        if not (_is_count(self.grid_h) and _is_count(self.grid_w)):
            raise ValueError(
                f"grid must be two positive ints, got {self.grid_h!r} x {self.grid_w!r}"
            )
        self.W1 = np.asarray(self.W1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.W2 = np.asarray(self.W2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        n_in = (self.grid_h * self.grid_w) ** 2
        k = PARAM_COUNTS[self.family]
        hidden = self.b1.size
        if self.b1.ndim != 1 or hidden < 1:
            raise ValueError(f"b1 must be a non-empty vector, got shape {self.b1.shape}")
        if self.W1.shape != (hidden, n_in):
            raise ValueError(f"W1 must be ({hidden}, {n_in}), got {self.W1.shape}")
        if self.W2.shape != (k, hidden):
            raise ValueError(f"W2 must be ({k}, {hidden}), got {self.W2.shape}")
        if self.b2.shape != (k,):
            raise ValueError(f"b2 must be ({k},), got {self.b2.shape}")
        for name in ("W1", "b1", "W2", "b2"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} contains non-finite values")

    @property
    def hidden(self) -> int:
        return self.b1.size

    def parameters(self) -> dict[str, np.ndarray]:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}


def init_model(grid_h: int, grid_w: int, cfg: TrainConfig | None = None) -> RegressorModel:
    """A fresh model predicting the identity transform for every input."""
    cfg = cfg or TrainConfig()
    n_in = (grid_h * grid_w) ** 2
    rng = np.random.default_rng(cfg.seed)
    W1 = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(cfg.hidden, n_in))
    b1 = np.zeros(cfg.hidden)
    W2 = np.zeros((PARAM_COUNTS[cfg.family], cfg.hidden))
    b2 = Transform.identity(cfg.family).params.copy()
    return RegressorModel(cfg.family, grid_h, grid_w, W1, b1, W2, b2)


def _forward(model: RegressorModel, X: np.ndarray):
    """The regressor on the ``(B, n_in)`` rows of ``X``: ``(G, A, Z)``, the
    ``(B, K)`` parameters, hidden activations and pre-activations."""
    Z = X @ model.W1.T
    Z += model.b1
    A = np.maximum(Z, 0.0)
    G = A @ model.W2.T
    G += model.b2
    return G, A, Z


def predict(model: RegressorModel, s: CorrelationTensor) -> Transform:
    """The transform the regressor proposes for one correlation tensor."""
    h, w = model.grid_h, model.grid_w
    if s.data.shape != (h, w, h, w):
        raise ValueError(
            f"correlation shape {s.data.shape} does not match model grid {h}x{w}"
        )
    G, _, _ = _forward(model, s.data.reshape(1, -1))
    return Transform(model.family, G[0])


def _batch_losses(
    model: RegressorModel, filtered: FilteredScores, batch, grads=None
) -> np.ndarray:
    """Per-pair losses of the stacked pairs ``batch``, in one forward pass
    and one gather.

    With ``grads`` (arrays shaped like the parameters), the gradient of the
    batch's mean loss is written into it: two matrix products per layer.
    """
    X = filtered.scores[batch].reshape(len(batch), -1)
    G, A, Z = _forward(model, X)
    if grads is None:
        return -filtered.gather_many(model.family, G, batch)
    c, dc_dg = filtered.gather_many(model.family, G, batch, grad=True)
    dG = dc_dg / -len(batch)
    np.sum(dG, axis=0, out=grads["b2"])
    np.matmul(dG.T, A, out=grads["W2"])
    dZ = (dG @ model.W2) * (Z > 0.0)
    np.sum(dZ, axis=0, out=grads["b1"])
    np.matmul(dZ.T, X, out=grads["W1"])
    return -c


def loss_and_grad(
    model: RegressorModel, f_s: FeatureGrid, f_t: FeatureGrid, t: float | None = None
) -> tuple[float, dict[str, np.ndarray]]:
    """Negated soft-inlier count of the predicted transform, with gradients.

    The correlation tensor is treated as a constant input: gradients cover
    the regressor parameters only.  This is one training step's loss and
    gradient for a batch of one.
    """
    s = correlate(f_s, f_t)
    h, w = model.grid_h, model.grid_w
    if s.data.shape != (h, w, h, w):
        raise ValueError(
            f"correlation shape {s.data.shape} does not match model grid {h}x{w}"
        )
    if t is None:
        t = default_threshold(h, w)
    grads = {k: np.empty_like(v) for k, v in model.parameters().items()}
    loss = _batch_losses(model, FilteredScores(s, t), np.zeros(1, dtype=np.int64), grads)
    return float(loss[0]), grads


def _mean_loss(model: RegressorModel, filtered: FilteredScores, chunk: int) -> float:
    """Mean loss over every stacked pair, ``chunk`` pairs per pass."""
    n = len(filtered)
    return float(np.mean(np.concatenate([
        _batch_losses(model, filtered, np.arange(start, min(start + chunk, n)))
        for start in range(0, n, chunk)
    ])))


def _adam_step(params, grads, m1, m2, scratch, step_count: int, cfg: TrainConfig) -> None:
    """One adaptive-moment descent step, in place: moments, then parameters.

    The bias corrections are folded into the step size and ``ADAM_EPS``
    (Kingma & Ba's reordering), which is the textbook update with fewer
    passes over the arrays.  ``grads`` and ``scratch`` are overwritten.
    """
    b1d, b2d = cfg.betas
    root_c2 = np.sqrt(1 - b2d**step_count)
    step = cfg.step * root_c2 / (1 - b1d**step_count)
    for k, p in params.items():
        g, m, v, tmp = grads[k], m1[k], m2[k], scratch[k]
        np.multiply(g, 1 - b1d, out=tmp)
        m *= b1d
        m += tmp
        g *= g
        g *= 1 - b2d
        v *= b2d
        v += g
        np.sqrt(v, out=tmp)
        tmp += ADAM_EPS * root_c2
        np.divide(m, tmp, out=tmp)
        tmp *= step
        p -= tmp


def _check_dataset(dataset) -> list[tuple[FeatureGrid, FeatureGrid]]:
    if not dataset:
        raise ValueError("dataset must contain at least one pair")
    pairs = []
    for idx, item in enumerate(dataset):
        if not (isinstance(item, (tuple, list)) and len(item) == 2):
            raise TypeError(
                f"dataset[{idx}]: expected a (source, target) feature-grid pair"
            )
        f_s, f_t = item
        if not (isinstance(f_s, FeatureGrid) and isinstance(f_t, FeatureGrid)):
            raise TypeError(
                f"dataset[{idx}]: pairs must hold FeatureGrid instances only"
            )
        pairs.append((f_s, f_t))
    return pairs


def train(dataset, cfg: TrainConfig | None = None) -> tuple[RegressorModel, list[float]]:
    """Mini-batch adaptive-moment descent on the mean pair loss.

    Deterministic given the seed: the shuffle schedule, batch order, and
    accumulation order are all fixed.  Returns the trained model and the
    full-dataset mean-loss trace — entry 0 before any update, then one
    entry after each epoch.
    """
    cfg = cfg or TrainConfig()
    pairs = _check_dataset(dataset)
    h, w = pairs[0][0].h, pairs[0][0].w
    for idx, (f_s, f_t) in enumerate(pairs):
        if (f_s.h, f_s.w) != (h, w) or (f_t.h, f_t.w) != (h, w):
            raise ValueError(f"dataset[{idx}]: all grids must be {h}x{w}")

    t = cfg.threshold if cfg.threshold is not None else default_threshold(h, w)
    n = len(pairs)
    filtered = FilteredScores((correlate(f_s, f_t) for f_s, f_t in pairs), t, count=n)

    model = init_model(h, w, cfg)
    params = model.parameters()
    m1, m2, grads, scratch = ({k: np.zeros_like(v) for k, v in params.items()} for _ in range(4))
    rng = np.random.default_rng(cfg.seed)

    trace = [_mean_loss(model, filtered, cfg.batch_size)]
    step_count = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            _batch_losses(model, filtered, order[start : start + cfg.batch_size], grads)
            step_count += 1
            _adam_step(params, grads, m1, m2, scratch, step_count, cfg)
        trace.append(_mean_loss(model, filtered, cfg.batch_size))
    return model, trace


# ---------------------------------------------------------------------------
# Checkpoints


def save_model(model: RegressorModel, path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "family": model.family,
        "grid": [model.grid_h, model.grid_w],
        "hidden": model.hidden,
        "weights": {k: v.ravel().tolist() for k, v in model.parameters().items()},
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _is_count(value) -> bool:
    """A positive ``int`` that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def load_model(path) -> RegressorModel:
    """Read a checkpoint written by :func:`save_model`.

    Any malformed content raises ``ValueError`` naming the problem.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a valid checkpoint: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {payload.get('version')!r}")
    family, grid, hidden, weights = (
        payload.get(k) for k in ("family", "grid", "hidden", "weights")
    )
    if not (isinstance(family, str) and family in PARAM_COUNTS):
        raise ValueError(f"{path}: unknown family {family!r}")
    if not (isinstance(grid, list) and len(grid) == 2 and all(map(_is_count, grid))):
        raise ValueError(f"{path}: grid must be two positive ints, got {grid!r}")
    if not _is_count(hidden):
        raise ValueError(f"{path}: hidden must be a positive int, got {hidden!r}")
    if not isinstance(weights, dict):
        raise ValueError(f"{path}: weights must be an object")
    h, w = grid
    k = PARAM_COUNTS[family]
    shapes = {"W1": (hidden, (h * w) ** 2), "b1": (hidden,), "W2": (k, hidden), "b2": (k,)}
    arrays = {}
    for name, shape in shapes.items():
        try:
            flat = np.asarray(weights.get(name), dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: weights {name}: {exc}") from None
        if flat.ndim != 1 or flat.size != math.prod(shape):
            raise ValueError(
                f"{path}: weights {name} must list {math.prod(shape)} numbers for shape {shape}"
            )
        arrays[name] = flat.reshape(shape)
    return RegressorModel(family, h, w, **arrays)
