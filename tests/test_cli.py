import json
import os
import stat
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from softalign import weaktrain
from softalign.cli import (
    canonical_json,
    main,
    report_schema,
    strip_timestamps,
)
from softalign.features import save_pgm, synthetic_image
from softalign.fit import demo_points
from softalign.geometry import Transform
from softalign.grids import FeatureGrid, write_fgrid

SCHEMA = report_schema()


def run(argv):
    return main([str(a) for a in argv])


def make_pgm(tmp_path, name="img.pgm", seed=3):
    path = tmp_path / name
    save_pgm(synthetic_image(seed, 48, 48), path)
    return path


def make_dataset(tmp_path, n=3, seed=7, magnitude=0.4):
    outdir = tmp_path / "ds"
    code = run(
        ["synth", "--outdir", outdir, "--n", n, "--seed", seed, "--grid", 8,
         "--image-size", 48, "--magnitude", magnitude,
         "--out", tmp_path / "synth.json"]
    )
    assert code == 0
    return outdir


def load_report(path):
    report = json.loads(path.read_text())
    jsonschema.validate(report, SCHEMA)
    return report


def canonical(report) -> bytes:
    return canonical_json(strip_timestamps(report)).encode()


FAST_FIT = ["--iterations", 60, "--restarts", 2]


class TestAlign:
    def test_self_pair_near_identity(self, tmp_path, capsys):
        img = make_pgm(tmp_path)
        assert run(["align", "--source", img, "--target", img, "--grid", 8] + FAST_FIT) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        (pair,) = report["pairs"]
        assert pair["status"] == "ok"
        assert not pair["no_signal"]
        assert pair["c"] > 0
        params = pair["transform"]["params"]
        assert np.allclose(params, [1, 0, 0, 0, 1, 0], atol=0.05)
        assert pair["inliers"] and {"src", "tgt", "w"} == set(pair["inliers"][0])

    def test_report_file_and_summary(self, tmp_path, capsys):
        img = make_pgm(tmp_path)
        out = tmp_path / "report.json"
        code = run(
            ["align", "--source", img, "--target", img, "--grid", 8, "--out", out]
            + FAST_FIT
        )
        assert code == 0
        assert "align: c=" in capsys.readouterr().out
        report = load_report(out)
        assert report["command"] == "align"
        assert report["config"]["seed"] == 0
        assert report["aggregate"]["n_ok"] == 1

    def test_keypoints_add_pck(self, tmp_path):
        ds = make_dataset(tmp_path, n=1)
        out = tmp_path / "report.json"
        code = run(
            ["align", "--source", ds / "pair0000_src.fgrid",
             "--target", ds / "pair0000_tgt.fgrid",
             "--keypoints", ds / "pair0000_kp.csv", "--out", out] + FAST_FIT
        )
        assert code == 0
        (pair,) = load_report(out)["pairs"]
        assert 0.0 <= pair["pck"] <= 1.0
        assert pair["n_keypoints"] == 20

    def test_missing_file_exits_2_no_partial_report(self, tmp_path, capsys):
        img = make_pgm(tmp_path)
        out = tmp_path / "report.json"
        code = run(["align", "--source", tmp_path / "nope.pgm", "--target", img, "--out", out])
        assert code == 2
        assert "nope.pgm" in capsys.readouterr().err
        assert not out.exists()

    def test_garbage_input_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x00\x01\x02rubbish")
        code = run(["align", "--source", bad, "--target", bad])
        assert code == 2
        assert "neither a PGM" in capsys.readouterr().err


class TestEval:
    def test_dataset_roundtrip_and_determinism(self, tmp_path):
        ds = make_dataset(tmp_path)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code = run(["eval", ds / "eval.jsonl", "--grid", 8, "--out", out] + FAST_FIT)
            assert code == 0
            outs.append(load_report(out))
        r1, r2 = outs
        assert canonical(r1) == canonical(r2)
        assert canonical_json(r1) != canonical_json(r2)  # timestamps differ
        agg = r1["aggregate"]
        assert agg["n_pairs"] == 3 and agg["n_ok"] == 3
        assert 0.0 <= agg["pck"] <= 1.0
        assert agg["pck"] == pytest.approx(
            np.mean([p["pck"] for p in r1["pairs"]])
        )

    def test_empty_manifest_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "empty.jsonl"
        manifest.write_text("")
        assert run(["eval", manifest]) == 2
        assert "empty manifest" in capsys.readouterr().err

    def test_unresolvable_path_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"id": "p0", "source": "gone.fgrid", "target": "gone.fgrid"}) + "\n")
        assert run(["eval", manifest]) == 2
        assert "gone.fgrid" in capsys.readouterr().err

    def test_duplicate_ids_exit_2(self, tmp_path, capsys):
        ds = make_dataset(tmp_path, n=1)
        rec = json.dumps({"id": "p0", "source": str(ds / "pair0000_src.fgrid"), "target": str(ds / "pair0000_tgt.fgrid")})
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(rec + "\n" + rec + "\n")
        assert run(["eval", manifest]) == 2
        assert "duplicate id" in capsys.readouterr().err

    def test_pair_failure_recorded_run_continues(self, tmp_path):
        ds = make_dataset(tmp_path, n=2)
        # second record points at a valid file that is not a pair input
        notes = tmp_path / "notes.txt"
        notes.write_text("not a grid\n")
        records = [
            {"id": "good", "source": str(ds / "pair0000_src.fgrid"), "target": str(ds / "pair0000_tgt.fgrid")},
            {"id": "bad", "source": str(notes), "target": str(ds / "pair0001_tgt.fgrid")},
        ]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        out = tmp_path / "report.json"
        assert run(["eval", manifest, "--out", out] + FAST_FIT) == 0
        report = load_report(out)
        by_id = {p["id"]: p for p in report["pairs"]}
        assert by_id["good"]["status"] == "ok"
        assert by_id["bad"]["status"] == "error"
        assert "neither a PGM" in by_id["bad"]["error"]
        assert report["aggregate"]["n_failed"] == 1

    @pytest.mark.parametrize("sizes", [5, "64 64 64 64", [64, 64, 64], [64, 64, 0, 64],
                                       [64, 64, 64.5, 64], [64, True, 64, 64], ["64", 64, 64, 64]])
    def test_bad_sizes_exit_2_naming_the_line(self, tmp_path, capsys, sizes):
        ds = make_dataset(tmp_path, n=1)
        good = {"id": "p0", "source": str(ds / "pair0000_src.fgrid"),
                "target": str(ds / "pair0000_tgt.fgrid"), "sizes": [48, 48, 48, 48]}
        bad = dict(good, id="p1", sizes=sizes)
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        assert run(["eval", manifest, "--out", tmp_path / "r.json"]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}:2:" in err and "'sizes'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key", ["source", "keypoints"])
    def test_non_string_path_exits_2(self, tmp_path, capsys, key):
        ds = make_dataset(tmp_path, n=1)
        rec = {"id": "p0", "source": str(ds / "pair0000_src.fgrid"),
               "target": str(ds / "pair0000_tgt.fgrid"), key: 5}
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps(rec) + "\n")
        assert run(["eval", manifest]) == 2
        assert f"{manifest}:1: '{key}' must be a path string" in capsys.readouterr().err

    def test_all_pairs_failing_exits_2(self, tmp_path, capsys):
        notes = tmp_path / "notes.txt"
        notes.write_text("still not a grid\n")
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"id": "bad", "source": str(notes), "target": str(notes)}) + "\n")
        out = tmp_path / "report.json"
        assert run(["eval", manifest, "--out", out]) == 2
        assert "every pair failed" in capsys.readouterr().err
        # the report itself is still written, with the failure recorded
        assert load_report(out)["aggregate"]["n_ok"] == 0


class TestSynth:
    def test_same_seed_same_artifacts(self, tmp_path):
        args = ["--n", 3, "--seed", 11, "--grid", 8, "--image-size", 48]
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        assert run(["synth", "--outdir", d1, "--out", tmp_path / "s1.json"] + args) == 0
        assert run(["synth", "--outdir", d2, "--out", tmp_path / "s2.json"] + args) == 0
        for name in ("pairs.jsonl", "eval.jsonl", "pair0001_src.fgrid", "pair0002_kp.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        r1, r2 = load_report(tmp_path / "s1.json"), load_report(tmp_path / "s2.json")
        r1["result"]["outdir"] = r2["result"]["outdir"] = ""
        r1["config"]["outdir"] = r2["config"]["outdir"] = ""
        assert canonical(r1) == canonical(r2)

    def test_out_existing_directory_exits_2_leaving_no_temp_file(self, tmp_path, capsys):
        out = tmp_path / "report"
        out.mkdir()
        args = ["--n", 1, "--seed", 3, "--grid", 8, "--image-size", 48]
        assert run(["synth", "--outdir", tmp_path / "ds", "--out", out] + args) == 2
        assert "report" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds", "report"]
        assert not any(out.iterdir())

    def test_report_file_mode_follows_umask(self, tmp_path):
        out = tmp_path / "s.json"
        old = os.umask(0o027)
        try:
            code = run(["synth", "--outdir", tmp_path / "ds", "--out", out,
                        "--n", 1, "--grid", 8, "--image-size", 48])
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds", "s.json"]

    def test_manifest_contents(self, tmp_path):
        ds = make_dataset(tmp_path, n=2)
        pairs = [json.loads(l) for l in (ds / "pairs.jsonl").read_text().splitlines()]
        assert len(pairs) == 2
        for rec in pairs:
            assert set(rec) == {"source_fgrid", "target_fgrid", "gt_transform", "seed"}
            T = Transform.from_dict(rec["gt_transform"])
            assert T.family == "affine"
            assert (ds / rec["source_fgrid"]).exists()
            assert (ds / rec["target_fgrid"]).exists()
        evals = [json.loads(l) for l in (ds / "eval.jsonl").read_text().splitlines()]
        assert [r["id"] for r in evals] == ["pair0000", "pair0001"]
        assert all("keypoints" in r for r in evals)

    def test_images_flag_writes_pgms(self, tmp_path):
        outdir = tmp_path / "ds"
        code = run(["synth", "--outdir", outdir, "--n", 1, "--grid", 8,
                    "--image-size", 48, "--images", "--out", tmp_path / "s.json"])
        assert code == 0
        assert (outdir / "pair0000_src.pgm").exists()
        assert (outdir / "pair0000_tgt.pgm").exists()

    def test_zero_keypoints_skips_csv(self, tmp_path):
        outdir = tmp_path / "ds"
        code = run(["synth", "--outdir", outdir, "--n", 1, "--grid", 8,
                    "--image-size", 48, "--keypoints", 0, "--out", tmp_path / "s.json"])
        assert code == 0
        assert not (outdir / "pair0000_kp.csv").exists()
        rec = json.loads((outdir / "eval.jsonl").read_text())
        assert "keypoints" not in rec


class TestTrain:
    def test_checkpoint_round_trip(self, tmp_path, capsys):
        ds = make_dataset(tmp_path, n=2)
        ckpt = tmp_path / "model.json"
        out = tmp_path / "train.json"
        code = run(["train", ds / "pairs.jsonl", "--epochs", 1, "--checkpoint", ckpt, "--out", out])
        assert code == 0
        assert "train:" in capsys.readouterr().out
        model = weaktrain.load_model(ckpt)
        assert (model.grid_h, model.grid_w) == (8, 8)
        report = load_report(out)
        assert len(report["result"]["trace"]) == 2
        assert report["result"]["n_pairs"] == 2

    @pytest.mark.parametrize("line", ["[1, 2]", "7", '"pair"', "null"])
    def test_non_object_line_exits_2(self, tmp_path, capsys, line):
        ds = make_dataset(tmp_path, n=1)
        manifest = ds / "m.jsonl"  # a valid line, a blank one, then the bad one
        manifest.write_text((ds / "pairs.jsonl").read_text() + "\n" + line + "\n")
        ckpt = tmp_path / "model.json"
        assert run(["train", manifest, "--epochs", 1, "--checkpoint", ckpt]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}:3: pair record must be a JSON object" in err
        assert not ckpt.exists()

    def test_non_string_path_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"source": 5, "target": "b.fgrid"}) + "\n")
        assert run(["train", manifest, "--checkpoint", tmp_path / "model.json"]) == 2
        assert f"{manifest}:1: source and target must be path strings" in capsys.readouterr().err

    def test_eval_manifest_also_accepted(self, tmp_path):
        ds = make_dataset(tmp_path, n=1)
        ckpt = tmp_path / "model.json"
        code = run(["train", ds / "eval.jsonl", "--epochs", 1, "--checkpoint", ckpt,
                    "--out", tmp_path / "t.json"])
        assert code == 0
        assert weaktrain.load_model(ckpt).family == "affine"


class TestLinedemo:
    def test_soft_grid_matches_exhaustive_oracle(self, tmp_path, capsys):
        out = tmp_path / "line.json"
        assert run(["linedemo", "--seed", 4, "--mode", "soft-grid", "--out", out]) == 0
        assert "count=" in capsys.readouterr().out
        result = load_report(out)["result"]

        # independent exhaustive sweep over the same hypothesis lattice
        points = demo_points(4, 20, 30)
        from softalign.fit import line_hypothesis_grid, splat_points

        scores, xs, ys = splat_points(points)
        cx = np.broadcast_to(xs, scores.shape).ravel()
        cy = np.broadcast_to(ys[:, None], scores.shape).ravel()
        thetas, rhos = line_hypothesis_grid(points, 0.5)
        best = (-1.0, None, None)
        for theta in thetas:
            proj = cx * np.cos(theta) + cy * np.sin(theta)
            counts = scores.ravel() @ (np.abs(proj[:, None] - rhos[None, :]) < 0.5)
            j = int(np.argmax(counts))
            if counts[j] > best[0]:
                best = (float(counts[j]), float(theta), float(rhos[j]))
        assert result["count"] == pytest.approx(best[0], rel=1e-12)
        assert result["theta"] == pytest.approx(best[1])
        assert result["rho"] == pytest.approx(best[2])

    def test_points_file_input(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("# demo\n0,0\n1,1\n2,2\n3,3\n9,1\n")
        out = tmp_path / "line.json"
        assert run(["linedemo", "--points", pts, "--mode", "ransac", "--out", out]) == 0
        result = load_report(out)["result"]
        assert result["count"] >= 4.0
        assert result["n_points"] == 5

    def test_bad_points_file(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("1 2 3\n")
        assert run(["linedemo", "--points", pts]) == 2
        assert "pts.csv:1" in capsys.readouterr().err


class TestScore:
    def test_identity_on_self_pair(self, tmp_path):
        img = make_pgm(tmp_path)
        tfile = tmp_path / "T.json"
        tfile.write_text(json.dumps(Transform.identity("affine").to_dict()))
        out = tmp_path / "score.json"
        code = run(["score", "--source", img, "--target", img,
                    "--transform", tfile, "--grid", 8, "--out", out])
        assert code == 0
        result = load_report(out)["result"]
        assert result["c"] > 0
        assert result["transform"]["family"] == "affine"
        # the CLI must reproduce the library's number exactly
        from softalign.features import extract_descriptors, load_pgm
        from softalign.matching import correlate
        from softalign.softinlier import default_threshold, identity_mask, soft_inlier_count

        grid = extract_descriptors(load_pgm(img), "gradhist", 8, 8)
        expected = soft_inlier_count(
            correlate(grid, grid), identity_mask(8, 8, default_threshold(8, 8))
        ).c
        assert result["c"] == pytest.approx(expected, rel=1e-12)

    def test_transform_extracted_from_align_report(self, tmp_path):
        img = make_pgm(tmp_path)
        align_out = tmp_path / "align.json"
        assert run(["align", "--source", img, "--target", img, "--grid", 8,
                    "--out", align_out] + FAST_FIT) == 0
        out = tmp_path / "score.json"
        code = run(["score", "--source", img, "--target", img,
                    "--transform", align_out, "--grid", 8, "--out", out])
        assert code == 0
        align_c = load_report(align_out)["pairs"][0]["c"]
        assert load_report(out)["result"]["c"] == pytest.approx(align_c, rel=1e-9)


class TestRansac:
    def test_recovers_synthetic_pair(self, tmp_path):
        ds = make_dataset(tmp_path, n=1, magnitude=0.3)
        out = tmp_path / "ransac.json"
        code = run(["ransac", "--source", ds / "pair0000_src.fgrid",
                    "--target", ds / "pair0000_tgt.fgrid",
                    "--keypoints", ds / "pair0000_kp.csv",
                    "--iters", 300, "--out", out])
        assert code == 0
        (pair,) = load_report(out)["pairs"]
        assert pair["inlier_count"] >= 3
        assert pair["inliers"]
        assert 0.0 <= pair["pck"] <= 1.0

    def test_collinear_candidates_give_a_flagged_identity(self, tmp_path):
        # every target cell's best match lies on source row 3, so no
        # 3-match sample has a triangle
        d = 8
        src, tgt = np.zeros((d, d, d)), np.zeros((d, d, d))
        for n, (k, l) in enumerate([(0, 0), (0, 5), (5, 0), (7, 6)]):
            src[3, 2 * n, n] = tgt[k, l, n] = 1.0
        paths = [tmp_path / "src.fgrid", tmp_path / "tgt.fgrid"]
        for grid, path in zip((src, tgt), paths):
            write_fgrid(FeatureGrid(grid), path)
        out = tmp_path / "ransac.json"
        assert run(["ransac", "--source", paths[0], "--target", paths[1], "--t", 0.5,
                    "--out", out]) == 0
        (pair,) = load_report(out)["pairs"]
        assert pair["no_signal"] is True
        assert pair["transform"] == Transform.identity("affine").to_dict()
        assert pair["inlier_count"] == 0


def parse_error(argv, capsys) -> str:
    """stderr of a command line that argparse rejects with exit code 2."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


class TestNumberFlags:
    """Bad numbers stop the run when arguments are parsed, before any work."""

    def test_align_infinite_threshold(self, tmp_path, capsys):
        img = make_pgm(tmp_path)
        out = tmp_path / "r.json"
        err = parse_error(["align", "--source", img, "--target", img, "--t", "inf", "--out", out], capsys)
        assert "--t" in err and not out.exists()

    def test_align_nan_alpha(self, tmp_path, capsys):
        img = make_pgm(tmp_path)
        kps = tmp_path / "kp.csv"
        kps.write_text("10,10,10,10\n")
        out = tmp_path / "r.json"
        err = parse_error(["align", "--source", img, "--target", img, "--keypoints", kps,
                           "--alpha", "nan", "--out", out], capsys)
        assert "--alpha" in err and not out.exists()

    def test_train_nan_step(self, tmp_path, capsys):
        outdir = make_dataset(tmp_path)
        ckpt = tmp_path / "model.json"
        err = parse_error(["train", outdir / "pairs.jsonl", "--grid", 8, "--step", "nan",
                           "--checkpoint", ckpt], capsys)
        assert "--step" in err and not ckpt.exists()

    def test_linedemo_infinite_threshold(self, capsys):
        assert "--t" in parse_error(["linedemo", "--t", "inf"], capsys)

    @pytest.mark.parametrize("command", ["align", "score"])
    def test_negative_top_k(self, tmp_path, capsys, command):
        img = make_pgm(tmp_path)
        argv = [command, "--source", img, "--target", img, "--top-k", "-1"]
        if command == "score":
            tfile = tmp_path / "T.json"
            tfile.write_text(json.dumps(Transform.identity("affine").to_dict()))
            argv += ["--transform", tfile]
        assert "--top-k" in parse_error(argv, capsys)

    @pytest.mark.parametrize("command, flag", [
        ("train", "--epochs"),
        ("train", "--batch-size"),
        ("train", "--hidden"),
        ("align", "--iterations"),
        ("align", "--restarts"),
        ("linedemo", "--iters"),
        ("ransac", "--iters"),
        ("synth", "--n"),
        ("synth", "--image-size"),
    ])
    def test_count_flag_below_one(self, tmp_path, capsys, command, flag):
        img = make_pgm(tmp_path)
        out = tmp_path / "out"
        argv = {
            "train": ["train", tmp_path / "pairs.jsonl", "--checkpoint", out / "model.json"],
            "align": ["align", "--source", img, "--target", img],
            "linedemo": ["linedemo", "--mode", "ransac"],
            "ransac": ["ransac", "--source", img, "--target", img],
            "synth": ["synth", "--outdir", out],
        }[command]
        before = sorted(os.listdir(tmp_path))
        err = parse_error(argv + [flag, 0, "--out", out / "r.json"], capsys)
        assert f"argument {flag}" in err and "integer >= 1" in err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("command", ["align", "eval", "synth", "train", "linedemo", "score", "ransac"])
    def test_negative_seed(self, tmp_path, capsys, command):
        img = make_pgm(tmp_path)
        out = tmp_path / "out"
        argv = {
            "align": ["align", "--source", img, "--target", img],
            "eval": ["eval", tmp_path / "eval.jsonl"],
            "synth": ["synth", "--outdir", out],
            "train": ["train", tmp_path / "pairs.jsonl", "--checkpoint", out / "model.json"],
            "linedemo": ["linedemo"],
            "score": ["score", "--source", img, "--target", img, "--transform", img],
            "ransac": ["ransac", "--source", img, "--target", img],
        }[command]
        before = sorted(os.listdir(tmp_path))
        err = parse_error(argv + ["--seed", -1, "--out", out / "r.json"], capsys)
        assert "argument --seed" in err and "integer >= 0" in err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("command, flag, value, requirement", [
        ("synth", "--keypoints", -3, "integer >= 0"),
        ("linedemo", "--inliers", 1, "integer >= 2"),
        ("linedemo", "--outliers", -1, "integer >= 0"),
    ])
    def test_count_flag_out_of_range(self, tmp_path, capsys, command, flag, value, requirement):
        out = tmp_path / "out"
        argv = {"synth": ["synth", "--outdir", out], "linedemo": ["linedemo"]}[command]
        err = parse_error(argv + [flag, value, "--out", tmp_path / "r.json"], capsys)
        assert f"argument {flag}" in err and requirement in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_point_coordinate(self, tmp_path, capsys, value):
        pts = tmp_path / "pts.csv"
        pts.write_text(f"0,0\n{value},2\n3,3\n")
        assert run(["linedemo", "--points", pts, "--mode", "soft-grid"]) == 2
        err = capsys.readouterr().err
        assert "pts.csv:2" in err and "finite" in err and "Traceback" not in err


    def test_huge_point_extent_refused_before_allocating(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0\n1e300,2\n3,3\n")
        assert run(["linedemo", "--points", pts, "--mode", "soft-grid"]) == 2
        err = capsys.readouterr().err
        assert "point extent 1e+300" in err and "limit" in err and "Traceback" not in err


class TestPlumbing:
    def test_strip_timestamps_recurses(self):
        report = {
            "started_at": "x", "finished_at": "y",
            "pairs": [{"id": "p", "timings": {"s": 1.0}, "c": 2.0}],
            "aggregate": {"timings": {"s": 1.0}, "n_ok": 1},
        }
        stripped = strip_timestamps(report)
        assert stripped == {"pairs": [{"id": "p", "c": 2.0}], "aggregate": {"n_ok": 1}}
        assert "timings" in report["pairs"][0]  # original untouched

    def test_bad_grid_flag(self, tmp_path, capsys):
        img = make_pgm(tmp_path)
        code = run(["align", "--source", img, "--target", img, "--grid", 8, 8, 8])
        assert code == 2
        assert "--grid" in capsys.readouterr().err

    def test_console_entry_point(self, tmp_path):
        img = make_pgm(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "softalign", "align", "--source", str(img),
             "--target", str(img), "--grid", "8", "--iterations", "40",
             "--restarts", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        jsonschema.validate(report, SCHEMA)
        assert report["tool"]["name"] == "softalign"

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()
