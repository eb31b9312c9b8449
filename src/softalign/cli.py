"""Command-line surface: subcommands, dataset manifests, JSON run reports.

Subcommands
-----------
align      align one source/target pair and report the transform
eval       align every pair in a JSONL manifest and aggregate metrics
synth      generate a seeded synthetic dataset on disk
train      fit the weak-supervision regressor and save a checkpoint
linedemo   2-D line fitting by inlier-count maximization
score      soft-inlier count of a given transform on a pair
ransac     hypothesize-and-verify alignment baseline

Pair inputs may be PGM images (descriptors are extracted on a ``--grid``
lattice with ``--descriptor``) or FGRID descriptor files (used as-is);
the format is sniffed from the file contents, never the extension.

Reports are JSON with sorted keys.  ``started_at``/``finished_at`` and
every ``timings`` object are the only wall-clock-dependent fields, so two
runs with the same seed are byte-identical once those are removed
(:func:`strip_timestamps` does exactly that).  Reports validate against
the schema shipped at ``softalign/schemas/report.schema.json``
(:func:`report_schema`).  With ``--out`` the report is written to a
temporary file and renamed into place, so a failed run never leaves a
partial report behind.

Manifests are JSONL, one pair per line:
``{"id": ..., "source": ..., "target": ..., "keypoints": ...?,
"src_mask": ...?, "tgt_mask": ...?, "sizes": [ws, hs, wt, ht]?}``.
Relative paths resolve against the manifest's own directory; all paths
are checked up front and ids must be unique.  Dataset evaluation records
per-pair failures and keeps going; it fails outright only when no pair
succeeds.  Pairs are processed sequentially in manifest order (they are
independent, so concurrent processing would be sound, but assembly order
and determinism come first here).

Exit codes: 0 success, 2 usage/input error, 3 internal invariant
violation.  No command mutates its inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from softalign import __version__, evalkit, features, fit, geometry, grids, matching, softinlier, weaktrain
from softalign.errors import InvariantError

PROG = "softalign"

#: report keys that carry wall-clock values (instants and durations);
#: everything else is deterministic given the seed
TIMESTAMP_KEYS = frozenset({"started_at", "finished_at", "timings"})

DESCRIPTOR_KINDS = ("patch", "gradhist")


# ---------------------------------------------------------------------------
# Report plumbing


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def strip_timestamps(obj):
    """Deep copy of a report with every wall-clock field removed.

    Two reports from identical seeded runs compare equal after this.
    """
    if isinstance(obj, dict):
        return {
            k: strip_timestamps(v) for k, v in obj.items() if k not in TIMESTAMP_KEYS
        }
    if isinstance(obj, list):
        return [strip_timestamps(v) for v in obj]
    return obj


def canonical_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def report_schema() -> dict:
    """The published report schema shipped with the package."""
    text = (
        resources.files("softalign")
        .joinpath("schemas/report.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def _report_skeleton(command: str, config: dict) -> dict:
    return {
        "tool": {"name": PROG, "version": __version__},
        "command": command,
        "config": config,
        "started_at": _now(),
    }


def _emit_report(report: dict, out: str | None, summary: str | None = None) -> None:
    """Write the finished report to ``out`` (atomically) or to stdout."""
    report["finished_at"] = _now()
    text = canonical_json(report)
    if out is None:
        sys.stdout.write(text)
        return
    # a unique temp file beside ``out``, so concurrent runs do not clash
    # and a failed write or rename leaves nothing behind
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(out) + ".", suffix=".tmp", dir=os.path.dirname(out) or "."
    )
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            os.fchmod(fd, 0o666 & ~umask)  # the mode open() would have given
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise
    if summary:
        print(f"{summary} -> {out}")


# ---------------------------------------------------------------------------
# Input loading


def _sniff_format(path) -> str:
    with open(path, "rb") as fh:
        head = fh.read(5)
    if head[:2] in (b"P2", b"P5"):
        return "pgm"
    if head == b"FGRID":
        return "fgrid"
    raise ValueError(f"{path}: neither a PGM (P2/P5) nor an FGRID file")


def _grid_dims(values) -> tuple[int, int]:
    if len(values) == 1:
        return int(values[0]), int(values[0])
    if len(values) == 2:
        return int(values[0]), int(values[1])
    raise ValueError("--grid takes one (square) or two (H W) integers")


def _load_grid(path, grid_hw: tuple[int, int], descriptor: str) -> grids.FeatureGrid:
    if _sniff_format(path) == "fgrid":
        return grids.read_fgrid(path)
    img = features.load_pgm(path)
    return features.extract_descriptors(img, descriptor, grid_hw[0], grid_hw[1])


def _read_transform(path) -> geometry.Transform:
    """Read a transform JSON file (or pluck one out of a run report)."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if "pairs" in obj:  # a full align/eval/ransac report
        aligned = [p for p in obj["pairs"] if p.get("status") == "ok"]
        if len(aligned) != 1:
            raise ValueError(
                f"{path}: report has {len(aligned)} aligned pairs; extract one transform"
            )
        obj = aligned[0]
    if isinstance(obj.get("result"), dict) and "transform" in obj["result"]:
        obj = obj["result"]  # a score report
    if "transform" in obj:  # a pair record
        obj = obj["transform"]
    try:
        return geometry.Transform.from_dict(obj)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a transform JSON ({exc})") from None


def _read_points(path) -> np.ndarray:
    """Read an (n, 2) point list: one ``x y`` or ``x,y`` pair per line."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two values per line")
            try:
                row = [float(parts[0]), float(parts[1])]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparseable number") from None
            if not np.isfinite(row).all():
                raise ValueError(f"{path}:{lineno}: coordinates must be finite")
            rows.append(row)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 points")
    return np.asarray(rows)


MANIFEST_PATH_KEYS = ("source", "target", "keypoints", "src_mask", "tgt_mask")


def _manifest_objects(path):
    """Yield ``(lineno, record)`` for every non-blank line of a JSONL manifest.

    Each line must hold a JSON object.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: pair record must be a JSON object")
            yield lineno, obj


def _is_sizes(value) -> bool:
    """Whether ``value`` is a list of four positive integers."""
    return (
        isinstance(value, list)
        and len(value) == 4
        and all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in value)
    )


def _read_manifest(path) -> list[dict]:
    """Read a JSONL pair manifest, resolving and checking every path."""
    base = os.path.dirname(os.path.abspath(path))
    records = []
    ids = set()
    for lineno, obj in _manifest_objects(path):
        rec = dict(obj)
        if "id" not in rec:
            raise ValueError(f"{path}:{lineno}: pair record needs an 'id'")
        rec["id"] = str(rec["id"])
        if rec["id"] in ids:
            raise ValueError(f"{path}:{lineno}: duplicate id {rec['id']!r}")
        ids.add(rec["id"])
        for key in ("source", "target"):
            if not rec.get(key):
                raise ValueError(f"{path}:{lineno}: pair record needs {key!r}")
        if rec.get("sizes") is not None and not _is_sizes(rec["sizes"]):
            raise ValueError(
                f"{path}:{lineno}: 'sizes' must be a list of four positive integers"
            )
        for key in MANIFEST_PATH_KEYS:
            if rec.get(key) is None:
                continue
            if not isinstance(rec[key], str):
                raise ValueError(f"{path}:{lineno}: {key!r} must be a path string")
            if not os.path.isabs(rec[key]):
                rec[key] = os.path.join(base, rec[key])
        records.append(rec)
    if not records:
        raise ValueError(f"{path}: empty manifest")
    missing = [
        rec[key]
        for rec in records
        for key in MANIFEST_PATH_KEYS
        if rec.get(key) is not None and not os.path.exists(rec[key])
    ]
    if missing:
        raise ValueError(f"{path}: missing files: " + ", ".join(sorted(set(missing))))
    return records


def _read_grid_pairs(path, grid_hw, descriptor) -> list[tuple]:
    """Read training pairs from a manifest (either the pair-manifest
    format above or the synthetic dataset format with ``source_fgrid`` /
    ``target_fgrid`` keys)."""
    base = os.path.dirname(os.path.abspath(path))
    pairs = []
    for lineno, obj in _manifest_objects(path):
        src = obj.get("source", obj.get("source_fgrid"))
        tgt = obj.get("target", obj.get("target_fgrid"))
        if not src or not tgt:
            raise ValueError(f"{path}:{lineno}: pair record needs source and target")
        if not isinstance(src, str) or not isinstance(tgt, str):
            raise ValueError(f"{path}:{lineno}: source and target must be path strings")
        paths = [p if os.path.isabs(p) else os.path.join(base, p) for p in (src, tgt)]
        pairs.append(
            (
                _load_grid(paths[0], grid_hw, descriptor),
                _load_grid(paths[1], grid_hw, descriptor),
            )
        )
    if not pairs:
        raise ValueError(f"{path}: empty manifest")
    return pairs


# ---------------------------------------------------------------------------
# Shared alignment record


def _pair_record(rec: dict, aligner, args) -> dict:
    """Align one manifest record and build its report entry."""
    grid_hw = _grid_dims(args.grid)
    t0 = time.perf_counter()
    f_s = _load_grid(rec["source"], grid_hw, args.descriptor)
    f_t = _load_grid(rec["target"], grid_hw, args.descriptor)
    t1 = time.perf_counter()
    res = aligner(f_s, f_t)
    t2 = time.perf_counter()

    t_used = args.t if args.t is not None else softinlier.default_threshold(f_s.h, f_s.w)
    out = {
        "id": rec["id"],
        "status": "ok",
        "grid": [f_s.h, f_s.w],
        "t": float(t_used),
        "transform": res.transform.to_dict(),
        "c": float(res.c),
        "no_signal": bool(res.no_signal),
        "restart_index": int(res.restart_index),
        "inliers": [
            {"src": [i, j], "tgt": [k, l], "w": wt}
            for (i, j), (k, l), wt in res.breakdown.inliers[: args.top_k]
        ],
        "timings": {
            "load_seconds": t1 - t0,
            "fit_seconds": t2 - t1,
            "total_seconds": t2 - t0,
        },
    }
    if res.inlier_count is not None:
        out["inlier_count"] = int(res.inlier_count)

    sizes = rec.get("sizes")
    if sizes is not None:
        sizes = tuple(sizes)
    if rec.get("keypoints"):
        kps = evalkit.read_keypoints(rec["keypoints"], sizes)
        alpha = args.alpha if args.alpha is not None else evalkit.DEFAULT_ALPHA[args.protocol]
        report = evalkit.evaluate_keypoints(kps, res.transform, args.protocol, alpha)
        out["pck"] = float(report.pck)
        out["n_keypoints"] = len(kps)
    if rec.get("src_mask") and rec.get("tgt_mask"):
        src_mask = features.load_pgm(rec["src_mask"])
        tgt_mask = features.load_pgm(rec["tgt_mask"])
        iou, both_empty = evalkit.mask_iou(src_mask, tgt_mask, res.transform, sizes)
        out["iou"] = float(iou)
        out["iou_both_empty"] = bool(both_empty)
    return out


def _aggregate(pair_records: list[dict]) -> dict:
    ok = [r for r in pair_records if r["status"] == "ok"]
    agg = {
        "n_pairs": len(pair_records),
        "n_ok": len(ok),
        "n_failed": len(pair_records) - len(ok),
    }
    for key in ("c", "pck", "iou"):
        vals = [r[key] for r in ok if key in r]
        if vals:
            agg[key] = float(np.mean(vals))
    if ok:
        totals = [r["timings"]["total_seconds"] for r in ok]
        agg["timings"] = {
            "mean_pair_seconds": float(np.mean(totals)),
            "total_seconds": float(np.sum(totals)),
        }
    return agg


def _align_single(args, command: str, config: dict, aligner) -> tuple[dict, dict]:
    """Report and pair entry of a single-pair command (``align``, ``ransac``)."""
    report = _report_skeleton(command, config)
    rec = {"id": "pair0000", "sizes": args.sizes}
    rec |= {key: getattr(args, key, None) for key in MANIFEST_PATH_KEYS}
    entry = _pair_record(rec, aligner, args)
    report["pairs"] = [entry]
    report["aggregate"] = _aggregate(report["pairs"])
    return report, entry


def _direct_aligner(args):
    cfg = fit.FitConfig(
        family=args.family,
        iterations=args.iterations,
        restarts=args.restarts,
        seed=args.seed,
        threshold=args.t,
    )
    return lambda f_s, f_t: fit.fit_direct(f_s, f_t, cfg)


def _ransac_aligner(args):
    def run(f_s, f_t):
        s = matching.correlate(f_s, f_t)
        return fit.fit_ransac(s, family=args.family, t=args.t, iters=args.iters, seed=args.seed)

    return run


# ---------------------------------------------------------------------------
# Subcommands


def _echo_common(args) -> dict:
    return {
        "seed": args.seed,
        "family": getattr(args, "family", None),
        "t": args.t,
        "descriptor": getattr(args, "descriptor", None),
        "grid": list(_grid_dims(args.grid)) if hasattr(args, "grid") else None,
    }


def cmd_align(args) -> int:
    config = _echo_common(args) | {
        "source": args.source,
        "target": args.target,
        "keypoints": args.keypoints,
        "src_mask": args.src_mask,
        "tgt_mask": args.tgt_mask,
        "protocol": args.protocol,
        "alpha": args.alpha,
        "sizes": args.sizes,
        "iterations": args.iterations,
        "restarts": args.restarts,
        "top_k": args.top_k,
    }
    report, entry = _align_single(args, "align", config, _direct_aligner(args))
    summary = f"align: c={entry['c']:.4f} no_signal={entry['no_signal']}"
    if "pck" in entry:
        summary += f" pck={entry['pck']:.4f}"
    _emit_report(report, args.out, summary)
    return 0


def cmd_eval(args) -> int:
    records = _read_manifest(args.manifest)
    config = _echo_common(args) | {
        "manifest": args.manifest,
        "protocol": args.protocol,
        "alpha": args.alpha,
        "iterations": args.iterations,
        "restarts": args.restarts,
        "top_k": args.top_k,
    }
    report = _report_skeleton("eval", config)
    aligner = _direct_aligner(args)
    pairs = []
    for rec in records:
        try:
            pairs.append(_pair_record(rec, aligner, args))
        except (ValueError, OSError) as exc:
            pairs.append({"id": rec["id"], "status": "error", "error": str(exc)})
    report["pairs"] = pairs
    report["aggregate"] = _aggregate(pairs)
    agg = report["aggregate"]
    summary = f"eval: {agg['n_ok']}/{agg['n_pairs']} pairs ok"
    if "pck" in agg:
        summary += f", mean pck={agg['pck']:.4f}"
    if agg["n_ok"] == 0:
        _emit_report(report, args.out, summary)
        raise ValueError("every pair failed; see the report for per-pair errors")
    _emit_report(report, args.out, summary)
    return 0


def cmd_ransac(args) -> int:
    config = _echo_common(args) | {
        "source": args.source,
        "target": args.target,
        "keypoints": args.keypoints,
        "protocol": args.protocol,
        "alpha": args.alpha,
        "sizes": args.sizes,
        "iters": args.iters,
        "top_k": args.top_k,
    }
    report, entry = _align_single(args, "ransac", config, _ransac_aligner(args))
    summary = f"ransac: c={entry['c']:.4f} inliers={entry.get('inlier_count')}"
    _emit_report(report, args.out, summary)
    return 0


def cmd_score(args) -> int:
    config = _echo_common(args) | {
        "source": args.source,
        "target": args.target,
        "transform": args.transform,
        "top_k": args.top_k,
    }
    report = _report_skeleton("score", config)
    grid_hw = _grid_dims(args.grid)
    T = _read_transform(args.transform)
    f_s = _load_grid(args.source, grid_hw, args.descriptor)
    f_t = _load_grid(args.target, grid_hw, args.descriptor)
    s = matching.correlate(f_s, f_t)
    t_used = args.t if args.t is not None else softinlier.default_threshold(f_s.h, f_s.w)
    breakdown = softinlier.score_breakdown(s, T, t_used, args.top_k)
    report["result"] = {
        "c": float(breakdown.c),
        "t": float(t_used),
        "grid": [f_s.h, f_s.w],
        "transform": T.to_dict(),
        "inliers": [
            {"src": [i, j], "tgt": [k, l], "w": wt}
            for (i, j), (k, l), wt in breakdown.inliers[: args.top_k]
        ],
    }
    _emit_report(report, args.out, f"score: c={breakdown.c:.4f}")
    return 0


def cmd_synth(args) -> int:
    grid_hw = _grid_dims(args.grid)
    img_hw = _grid_dims(args.image_size)
    config = {
        "seed": args.seed,
        "family": args.family,
        "t": None,
        "descriptor": args.descriptor,
        "grid": list(grid_hw),
        "n": args.n,
        "magnitude": args.magnitude,
        "image_size": list(img_hw),
        "keypoints": args.keypoints,
        "rotation_max": args.rotation_max,
        "scale_range": args.scale_range,
        "translation_max": args.translation_max,
        "tps_disp_max": args.tps_disp_max,
        "images": args.images,
        "outdir": args.outdir,
    }
    report = _report_skeleton("synth", config)
    os.makedirs(args.outdir, exist_ok=True)
    scale_range = tuple(args.scale_range) if args.scale_range else None

    # One independent seed triple (image, warp, keypoints) per pair.
    state = np.random.SeedSequence(args.seed).generate_state(3 * args.n)
    pair_lines, eval_lines, files = [], [], []
    for k in range(args.n):
        img_seed, warp_seed, kp_seed = (int(v) for v in state[3 * k : 3 * k + 3])
        img = features.synthetic_image(img_seed, img_hw[0], img_hw[1])
        pair = features.synth_pair(
            img,
            args.family,
            args.magnitude,
            grid_hw[0],
            grid_hw[1],
            warp_seed,
            kind=args.descriptor,
            rotation_max_deg=args.rotation_max,
            scale_range=scale_range,
            translation_max=args.translation_max,
            tps_disp_max=args.tps_disp_max,
        )
        stem = f"pair{k:04d}"
        names = {"src": stem + "_src.fgrid", "tgt": stem + "_tgt.fgrid"}
        grids.write_fgrid(pair.source, os.path.join(args.outdir, names["src"]))
        grids.write_fgrid(pair.target, os.path.join(args.outdir, names["tgt"]))
        files += [names["src"], names["tgt"]]
        pair_lines.append(
            json.dumps(
                {
                    "source_fgrid": names["src"],
                    "target_fgrid": names["tgt"],
                    "gt_transform": pair.gt.to_dict(),
                    "seed": warp_seed,
                },
                sort_keys=True,
            )
        )
        erec = {"id": stem, "source": names["src"], "target": names["tgt"]}
        if args.keypoints > 0:
            kps = evalkit.keypoints_from_transform(pair.gt, args.keypoints, kp_seed)
            kp_name = stem + "_kp.csv"
            evalkit.write_keypoints(kps, os.path.join(args.outdir, kp_name))
            erec["keypoints"] = kp_name
            files.append(kp_name)
        if args.images:
            for tag, image in (("src", pair.source_image), ("tgt", pair.target_image)):
                pgm_name = f"{stem}_{tag}.pgm"
                features.save_pgm(image, os.path.join(args.outdir, pgm_name))
                files.append(pgm_name)
        eval_lines.append(json.dumps(erec, sort_keys=True))

    for name, lines in (("pairs.jsonl", pair_lines), ("eval.jsonl", eval_lines)):
        with open(os.path.join(args.outdir, name), "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        files.append(name)
    report["result"] = {
        "outdir": args.outdir,
        "n": args.n,
        "pairs_manifest": "pairs.jsonl",
        "eval_manifest": "eval.jsonl",
        "files": sorted(files),
    }
    _emit_report(report, args.out, f"synth: {args.n} pairs in {args.outdir}")
    return 0


def cmd_train(args) -> int:
    config = _echo_common(args) | {
        "data": args.data,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "step": args.step,
        "hidden": args.hidden,
        "checkpoint": args.checkpoint,
    }
    report = _report_skeleton("train", config)
    grid_hw = _grid_dims(args.grid)
    dataset = _read_grid_pairs(args.data, grid_hw, args.descriptor)
    cfg = weaktrain.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        step=args.step,
        seed=args.seed,
        hidden=args.hidden,
        family=args.family,
        threshold=args.t,
    )
    model, trace = weaktrain.train(dataset, cfg)
    weaktrain.save_model(model, args.checkpoint)
    report["result"] = {
        "checkpoint": args.checkpoint,
        "n_pairs": len(dataset),
        "grid": [model.grid_h, model.grid_w],
        "family": model.family,
        "trace": [float(v) for v in trace],
    }
    summary = (
        f"train: {len(dataset)} pairs, loss {trace[0]:.4f} -> {trace[-1]:.4f}, "
        f"checkpoint {args.checkpoint}"
    )
    _emit_report(report, args.out, summary)
    return 0


def cmd_linedemo(args) -> int:
    config = {
        "seed": args.seed,
        "t": args.t,
        "mode": args.mode,
        "points": args.points,
        "inliers": args.inliers,
        "outliers": args.outliers,
        "iters": args.iters,
    }
    report = _report_skeleton("linedemo", config)
    if args.points is not None:
        points = _read_points(args.points)
    else:
        points = fit.demo_points(args.seed, args.inliers, args.outliers)
    res = fit.fit_line_demo(points, t=args.t, mode=args.mode, iters=args.iters, seed=args.seed)
    report["result"] = res.to_dict() | {"n_points": len(points)}
    print(
        f"line: theta={res.theta:.6f} rad rho={res.rho:.6f} "
        f"count={res.count:.4f} ({res.mode})"
    )
    _emit_report(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _checked(convert, accept, requirement: str):
    """argparse type: ``convert`` the text, then require ``accept(value)``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


_positive_float = _checked(float, lambda v: np.isfinite(v) and v > 0, "a finite number > 0")


def _int_at_least(low: int):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


_nonnegative_int = _int_at_least(0)
_positive_int = _int_at_least(1)


def _add_top_k_flag(p):
    p.add_argument("--top-k", type=_nonnegative_int, default=10, help="strongest matches to report (default %(default)s)")


def _add_report_flags(p, *, seed: int = 0):
    p.add_argument("--seed", type=_nonnegative_int, default=seed, help="run seed (default %(default)s)")
    p.add_argument("--out", metavar="FILE", help="write the JSON report here (default: stdout)")


def _add_grid_flags(p):
    p.add_argument(
        "--grid",
        nargs="+",
        type=int,
        default=[16],
        metavar="N",
        help="descriptor grid for PGM inputs: H or H W (default 16)",
    )
    p.add_argument(
        "--descriptor",
        choices=DESCRIPTOR_KINDS,
        default="gradhist",
        help="descriptor kind for PGM inputs (default %(default)s)",
    )


def _add_threshold_flag(p):
    p.add_argument(
        "--t",
        type=_positive_float,
        default=None,
        help="inlier radius in grid units (default max(h, w) / 30)",
    )


def _add_eval_flags(p):
    p.add_argument(
        "--protocol",
        choices=evalkit.PROTOCOLS,
        default="pfpascal",
        help="keypoint error protocol (default %(default)s)",
    )
    p.add_argument(
        "--alpha",
        type=_positive_float,
        default=None,
        help="PCK threshold factor (default: protocol convention)",
    )
    p.add_argument(
        "--sizes",
        nargs=4,
        type=int,
        metavar=("WS", "HS", "WT", "HT"),
        help="image pixel sizes for protocols that need them",
    )


def _add_fit_flags(p):
    p.add_argument("--iterations", type=_positive_int, default=200, help="ascent iterations per stage (default %(default)s)")
    p.add_argument("--restarts", type=_positive_int, default=4, help="perturbed restarts (default %(default)s)")
    _add_top_k_flag(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Geometric alignment of feature grids by soft-inlier counting.",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("align", help="align one source/target pair")
    p.add_argument("--source", required=True, help="source image (PGM) or feature grid (FGRID)")
    p.add_argument("--target", required=True, help="target image or feature grid")
    p.add_argument("--keypoints", help="keypoint CSV (xs,ys,xt,yt); adds PCK to the report")
    p.add_argument("--src-mask", help="source mask PGM; with --tgt-mask adds IoU")
    p.add_argument("--tgt-mask", help="target mask PGM")
    p.add_argument("--family", choices=geometry.FAMILIES, default="affine")
    _add_grid_flags(p)
    _add_threshold_flag(p)
    _add_eval_flags(p)
    _add_fit_flags(p)
    _add_report_flags(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("eval", help="align every pair in a JSONL manifest")
    p.add_argument("manifest", help="JSONL manifest of pair records")
    p.add_argument("--family", choices=geometry.FAMILIES, default="affine")
    _add_grid_flags(p)
    _add_threshold_flag(p)
    _add_eval_flags(p)
    _add_fit_flags(p)
    _add_report_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--outdir", required=True, help="output directory (created if missing)")
    p.add_argument("--n", type=_positive_int, default=20, help="number of pairs (default %(default)s)")
    p.add_argument("--family", choices=("affine", "tps"), default="affine")
    p.add_argument("--magnitude", type=float, default=0.5, help="warp magnitude in [0, 1] (default %(default)s)")
    p.add_argument("--image-size", nargs="+", type=_positive_int, default=[64], metavar="N", help="synthetic image size: H or H W (default 64)")
    p.add_argument("--keypoints", type=_nonnegative_int, default=20, metavar="N", help="keypoints per pair, 0 to disable (default %(default)s)")
    p.add_argument("--rotation-max", type=float, default=None, metavar="DEG", help="override the rotation range")
    p.add_argument("--scale-range", nargs=2, type=float, default=None, metavar=("LO", "HI"), help="override the scale range")
    p.add_argument("--translation-max", type=float, default=None, metavar="X", help="override the translation range")
    p.add_argument("--tps-disp-max", type=float, default=None, metavar="X", help="override the control-point displacement range")
    p.add_argument("--images", action="store_true", help="also write the rendered PGM images")
    _add_grid_flags(p)
    _add_report_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the weak-supervision regressor")
    p.add_argument("data", help="JSONL manifest of training pairs")
    p.add_argument("--epochs", type=_positive_int, default=30, help="training epochs (default %(default)s)")
    p.add_argument("--batch-size", type=_positive_int, default=16, help="minibatch size (default %(default)s)")
    p.add_argument("--step", type=_positive_float, default=1e-3, help="optimizer step size (default %(default)s)")
    p.add_argument("--hidden", type=_positive_int, default=64, help="hidden width (default %(default)s)")
    p.add_argument("--family", choices=geometry.FAMILIES, default="affine")
    p.add_argument("--checkpoint", default="model.json", metavar="FILE", help="checkpoint path (default %(default)s)")
    _add_grid_flags(p)
    _add_threshold_flag(p)
    _add_report_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("linedemo", help="line fitting by inlier-count maximization")
    p.add_argument("--points", metavar="FILE", help="point list (x y per line); default: seeded demo cloud")
    p.add_argument("--inliers", type=_int_at_least(2), default=20, help="demo cloud collinear points (default %(default)s)")
    p.add_argument("--outliers", type=_nonnegative_int, default=30, help="demo cloud clutter points (default %(default)s)")
    p.add_argument("--mode", choices=("ransac", "soft-grid"), default="soft-grid")
    p.add_argument("--iters", type=_positive_int, default=500, help="sampling iterations for ransac mode (default %(default)s)")
    p.add_argument("--t", type=_positive_float, default=0.5, help="band half-width (default %(default)s)")
    _add_report_flags(p)
    p.set_defaults(func=cmd_linedemo)

    p = sub.add_parser("score", help="soft-inlier count of a given transform")
    p.add_argument("--source", required=True, help="source image or feature grid")
    p.add_argument("--target", required=True, help="target image or feature grid")
    p.add_argument("--transform", required=True, metavar="FILE", help="transform JSON (or a report containing one)")
    _add_top_k_flag(p)
    _add_grid_flags(p)
    _add_threshold_flag(p)
    _add_report_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("ransac", help="hypothesize-and-verify alignment")
    p.add_argument("--source", required=True, help="source image or feature grid")
    p.add_argument("--target", required=True, help="target image or feature grid")
    p.add_argument("--keypoints", help="keypoint CSV; adds PCK to the report")
    p.add_argument("--family", choices=sorted(fit.MINIMAL_SAMPLE), default="affine")
    p.add_argument("--iters", type=_positive_int, default=500, help="hypothesis samples (default %(default)s)")
    _add_grid_flags(p)
    _add_threshold_flag(p)
    _add_eval_flags(p)
    _add_top_k_flag(p)
    _add_report_flags(p)
    p.set_defaults(func=cmd_ransac)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"{PROG} {args.command}: invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"{PROG} {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
