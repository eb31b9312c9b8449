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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from softalign.geometry import FAMILIES, PARAM_COUNTS, Transform
from softalign.grids import FeatureGrid
from softalign.matching import CorrelationTensor, correlate
from softalign.softinlier import FilteredScores, default_threshold

CHECKPOINT_FORMAT = "softalign-regressor"
CHECKPOINT_VERSION = 1
ADAM_EPS = 1e-8


def identity_params(family: str) -> np.ndarray:
    return Transform.identity(family).params.copy()


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
        if self.step <= 0:
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
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        self.W1 = np.asarray(self.W1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.W2 = np.asarray(self.W2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        n_in = (self.grid_h * self.grid_w) ** 2
        k = PARAM_COUNTS[self.family]
        hidden = self.b1.size
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
    b2 = identity_params(cfg.family)
    return RegressorModel(cfg.family, grid_h, grid_w, W1, b1, W2, b2)


def _forward(model: RegressorModel, vec: np.ndarray):
    z = model.W1 @ vec + model.b1
    a = np.maximum(z, 0.0)
    g = model.W2 @ a + model.b2
    return g, a, z


def predict(model: RegressorModel, s: CorrelationTensor) -> Transform:
    """The transform the regressor proposes for one correlation tensor."""
    h, w = model.grid_h, model.grid_w
    if s.data.shape != (h, w, h, w):
        raise ValueError(
            f"correlation shape {s.data.shape} does not match model grid {h}x{w}"
        )
    g, _, _ = _forward(model, s.data.ravel())
    return _to_transform(model.family, g)


def _to_transform(family: str, g: np.ndarray) -> Transform:
    if family == "affine":
        return Transform.affine(g)
    if family == "homography":
        return Transform.homography(g)
    from softalign.geometry import make_tps

    return make_tps(g)


def _pair_loss(model: RegressorModel, filtered: FilteredScores) -> float:
    """The loss alone for one cached pair: no gradient is built."""
    g, _, _ = _forward(model, filtered.scores.ravel())
    return -filtered.gather(_to_transform(model.family, g)).c


def _pair_loss_grad(model: RegressorModel, filtered: FilteredScores):
    """Loss and parameter gradients for one cached pair."""
    vec = filtered.scores.ravel()
    g, a, z = _forward(model, vec)
    sample = filtered.gather(_to_transform(model.family, g))
    loss = -sample.c
    dloss_dg = -sample.dc_dg()
    grad_b2 = dloss_dg
    grad_W2 = np.outer(dloss_dg, a)
    dz = (model.W2.T @ dloss_dg) * (z > 0.0)
    grad_b1 = dz
    grad_W1 = np.outer(dz, vec)
    return loss, {"W1": grad_W1, "b1": grad_b1, "W2": grad_W2, "b2": grad_b2}


def loss_and_grad(
    model: RegressorModel, f_s: FeatureGrid, f_t: FeatureGrid, t: float | None = None
) -> tuple[float, dict[str, np.ndarray]]:
    """Negated soft-inlier count of the predicted transform, with gradients.

    The correlation tensor is treated as a constant input: gradients cover
    the regressor parameters only.
    """
    s = correlate(f_s, f_t)
    h, w = model.grid_h, model.grid_w
    if s.data.shape != (h, w, h, w):
        raise ValueError(
            f"correlation shape {s.data.shape} does not match model grid {h}x{w}"
        )
    if t is None:
        t = default_threshold(h, w)
    return _pair_loss_grad(model, FilteredScores(s, t))


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
    cached = [FilteredScores(correlate(f_s, f_t), t) for f_s, f_t in pairs]

    model = init_model(h, w, cfg)
    params = model.parameters()
    m1 = {k: np.zeros_like(v) for k, v in params.items()}
    m2 = {k: np.zeros_like(v) for k, v in params.items()}
    b1d, b2d = cfg.betas
    rng = np.random.default_rng(cfg.seed)

    def mean_loss() -> float:
        return float(np.mean([_pair_loss(model, f) for f in cached]))

    trace = [mean_loss()]
    step_count = 0
    n = len(cached)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            acc = {k: np.zeros_like(v) for k, v in params.items()}
            for idx in batch:
                _, grads = _pair_loss_grad(model, cached[idx])
                for k in acc:
                    acc[k] += grads[k]
            step_count += 1
            for k in acc:
                gk = acc[k] / len(batch)
                m1[k] = b1d * m1[k] + (1 - b1d) * gk
                m2[k] = b2d * m2[k] + (1 - b2d) * gk * gk
                mh = m1[k] / (1 - b1d**step_count)
                vh = m2[k] / (1 - b2d**step_count)
                params[k] -= cfg.step * mh / (np.sqrt(vh) + ADAM_EPS)
        trace.append(mean_loss())
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


def load_model(path) -> RegressorModel:
    with open(path, "r", encoding="ascii") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a valid checkpoint: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {payload.get('version')!r}")
    try:
        family = payload["family"]
        h, w = payload["grid"]
        hidden = int(payload["hidden"])
        weights = payload["weights"]
        n_in = (h * w) ** 2
        k = PARAM_COUNTS[family]
        W1 = np.asarray(weights["W1"], dtype=np.float64).reshape(hidden, n_in)
        b1 = np.asarray(weights["b1"], dtype=np.float64).reshape(hidden)
        W2 = np.asarray(weights["W2"], dtype=np.float64).reshape(k, hidden)
        b2 = np.asarray(weights["b2"], dtype=np.float64).reshape(k)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from None
    return RegressorModel(family, int(h), int(w), W1, b1, W2, b2)
