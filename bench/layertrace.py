"""Per-layer call counts and self times, taken from outside softalign.

A layer is one softalign module; its public functions are wrapped while a
:class:`LayerTracer` is installed.  softalign modules bind many of these
functions with ``from ... import``, so the wrapper replaces the function
object under every name that refers to it in every loaded softalign
module (``fit.warp_mask`` as well as ``softinlier.warp_mask``), and
:meth:`LayerTracer.remove` puts every original back.

Self time is a call's wall time minus the wall time of the wrapped calls
made inside it.  ``softinlier.dense_mask_mb`` adds up the size of every
dense ``(h, w, h, w)`` float64 mask that ``warp_mask`` and
``soft_inlier_grad`` return, computed from its shape.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: every traced function, as ``<module>.<function>`` under ``softalign``
LAYER_FUNCTIONS = (
    "softinlier.identity_mask",
    "softinlier.warp_mask",
    "softinlier.soft_inlier_grad",
    "softinlier.hard_inlier_count",
    "geometry.apply",
    "geometry.jacobian_many",
    "geometry.transform_sampling_grid",
    "geometry.bilinear_sample_stack",
    "geometry.bilinear_sample_stack_grad",
    "matching.correlate",
    "fit.fit_direct",
    "fit.fit_ransac",
    "fit.candidate_matches",
    "weaktrain.train",
    "weaktrain.predict",
    "features.synthetic_image",
    "features.synth_pair",
    "features.extract_descriptors",
    "features.render_warped",
    "grids.read_fgrid",
    "grids.write_fgrid",
    "evalkit.keypoints_from_transform",
    "evalkit.read_keypoints",
    "evalkit.evaluate_keypoints",
    "cli.main",
    "cli.canonical_json",
)

DENSE_MASK_METRIC = "softinlier.dense_mask_mb"


def _mask_elements(name: str, out) -> int:
    if name == "softinlier.warp_mask":
        return out.data.size
    if name == "softinlier.soft_inlier_grad":
        return out[1].size
    return 0


class LayerTracer:
    """Wraps :data:`LAYER_FUNCTIONS` between :meth:`install` and :meth:`remove`."""

    def __init__(self):
        self.calls = {f: 0 for f in LAYER_FUNCTIONS}
        self.self_s = {f: 0.0 for f in LAYER_FUNCTIONS}
        self.mask_elements = 0
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # wall time of traced callees
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            self.mask_elements += _mask_elements(name, out)
            return out

        return traced

    def install(self) -> "LayerTracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name in LAYER_FUNCTIONS:
            importlib.import_module("softalign." + name.rsplit(".", 1)[0])
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "softalign" or key.startswith("softalign."))
        ]
        for name in LAYER_FUNCTIONS:
            mod_name, fn_name = name.rsplit(".", 1)
            original = getattr(sys.modules["softalign." + mod_name], fn_name)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def patched_names(self) -> list[str]:
        return sorted({f"{mod.__name__}.{attr}" for mod, attr, _ in self._patched})

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "mask_elements": self.mask_elements,
        }


def merge(snapshots, minus=(None, None)) -> dict:
    """Sum tracer snapshots (from several processes) into one.

    ``minus = (later, earlier)`` takes out what one process recorded
    between two of its snapshots, such as an untimed warm-up.
    """
    out = {"calls": {f: 0 for f in LAYER_FUNCTIONS},
           "self_s": {f: 0.0 for f in LAYER_FUNCTIONS},
           "mask_elements": 0}
    later, earlier = minus
    signed = [(1, s) for s in snapshots]
    if later is not None:
        signed += [(-1, later), (1, earlier)]
    for sign, snap in signed:
        for f in LAYER_FUNCTIONS:
            out["calls"][f] += sign * snap["calls"][f]
            out["self_s"][f] += sign * snap["self_s"][f]
        out["mask_elements"] += sign * snap["mask_elements"]
    return out


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics, named as in BENCHMARK.json."""
    metrics = {}
    for f in LAYER_FUNCTIONS:
        metrics[f + ".calls"] = {"value": snap["calls"][f], "unit": "count"}
        metrics[f + ".self_s"] = {"value": snap["self_s"][f], "unit": "s"}
    metrics[DENSE_MASK_METRIC] = {"value": snap["mask_elements"] * 8 / 1e6, "unit": "MB"}
    return metrics
