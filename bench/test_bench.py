"""Tests of the benchmark's own parts: the oracle, the tracer, the schema check.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import layertrace  # noqa: E402
import minischema  # noqa: E402
import oracle  # noqa: E402
from softalign import cli, evalkit, fit, geometry, grids, matching, softinlier  # noqa: E402


def _grids(rng, h, w, d=8):
    def one():
        return grids.l2_normalize(grids.FeatureGrid(rng.normal(size=(h, w, d))))

    return one(), one()


def _transform(rng, family):
    if family == "affine":
        ang, scale = rng.uniform(-0.4, 0.4), np.exp(rng.uniform(-0.2, 0.2))
        c, s = scale * np.cos(ang), scale * np.sin(ang)
        tx, ty = rng.uniform(-0.3, 0.3, size=2)
        return geometry.Transform.affine([c, -s, tx, s, c, ty])
    return geometry.make_tps(rng.uniform(-0.2, 0.2, size=(9, 2)))


@pytest.mark.parametrize("grid", [8, 12, 16])
@pytest.mark.parametrize("t", ["default", 1.5, 2.2])
@pytest.mark.parametrize("family", ["affine", "tps"])
def test_soft_count_matches_library(grid, t, family):
    rng = np.random.default_rng([grid, 7])
    t = grid / 30.0 if t == "default" else t
    f_s, f_t = _grids(rng, grid, grid)
    s = matching.correlate(f_s, f_t)
    for _ in range(3):
        T = _transform(rng, family)
        lib = softinlier.soft_inlier_count(
            s, softinlier.warp_mask(softinlier.identity_mask(grid, grid, t), T)
        ).c
        ref = oracle.soft_count(oracle.correlation(f_s.data, f_t.data), T, t)
        assert ref == pytest.approx(lib, rel=1e-12, abs=1e-12)


def test_soft_count_identity_is_disk_sum():
    rng = np.random.default_rng(3)
    f_s, f_t = _grids(rng, 6, 6)
    s = oracle.correlation(f_s.data, f_t.data)
    ii, jj = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
    d2 = (ii[:, :, None, None] - ii[None, None]) ** 2 + (jj[:, :, None, None] - jj[None, None]) ** 2
    assert oracle.soft_count(s, oracle.IDENTITY_AFFINE, 1.5) == pytest.approx(
        float((s * (d2 < 2.25)).sum()), rel=1e-12
    )


def test_correlation_matches_library():
    f_s, f_t = _grids(np.random.default_rng(1), 9, 7)
    f_t = grids.FeatureGrid(np.where(np.arange(7)[None, :, None] == 3, 0.0, f_t.data))
    lib = matching.correlate(f_s, f_t).data
    np.testing.assert_allclose(oracle.correlation(f_s.data, f_t.data), lib, rtol=0, atol=1e-14)


def test_matches_and_hard_count_match_library():
    rng = np.random.default_rng(5)
    f_s, f_t = _grids(rng, 10, 10)
    s = matching.correlate(f_s, f_t)
    matches = oracle.argmax_matches(s.data)
    assert matches == fit.candidate_matches(s)
    for _ in range(5):
        T = _transform(rng, "affine")
        assert oracle.hard_count(matches, T, 1.2, 10, 10) == softinlier.hard_inlier_count(
            matches, T, 1.2, 10, 10
        )[0]


def test_pck_matches_library():
    rng = np.random.default_rng(2)
    T = _transform(rng, "tps")
    kps = evalkit.keypoints_from_transform(_transform(rng, "affine"), 30, seed=4)
    assert oracle.pck(kps.coords, T) == evalkit.evaluate_keypoints(kps, T, "pfpascal", 0.1).pck


def _softalign_functions():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "softalign" or name.startswith("softalign.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_wraps_every_import_site_and_restores_them():
    before = _softalign_functions()
    tracer = layertrace.LayerTracer().install()
    try:
        patched = tracer.patched_names()
        for name in ("softalign.softinlier.warp_mask", "softalign.fit.warp_mask",
                     "softalign.weaktrain.soft_inlier_grad", "softalign.fit.apply",
                     "softalign.geometry.apply", "softalign.cli.main"):
            assert name in patched
        assert fit.warp_mask is not before[("softalign.fit", "warp_mask")]
        f_s, f_t = _grids(np.random.default_rng(0), 8, 8)
        fit.fit_direct(f_s, f_t, fit.FitConfig(restarts=1, iterations=3))
    finally:
        tracer.remove()
    after = _softalign_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    calls = tracer.calls
    assert calls["fit.fit_direct"] == 1 and calls["matching.correlate"] == 1
    assert calls["softinlier.warp_mask"] == calls["geometry.bilinear_sample_stack"] > 0
    assert calls["softinlier.soft_inlier_grad"] == calls["geometry.bilinear_sample_stack_grad"] > 0
    masks = calls["softinlier.warp_mask"] + calls["softinlier.soft_inlier_grad"]
    assert tracer.mask_elements == masks * 8**4
    assert all(v >= 0 for v in tracer.self_s.values())


def test_self_time_excludes_traced_callees():
    import time

    tracer = layertrace.LayerTracer()
    orig = geometry.apply

    def slow_apply(T, pts):
        time.sleep(0.05)
        return orig(T, pts)

    geometry.apply = slow_apply
    try:
        with tracer:
            softinlier.hard_inlier_count([((0, 0), (1, 1))], geometry.Transform.identity("affine"),
                                         1.0, 4, 4)
    finally:
        geometry.apply = orig
    assert tracer.self_s["geometry.apply"] >= 0.05
    assert tracer.self_s["softinlier.hard_inlier_count"] < 0.05


def test_merge_takes_out_a_span():
    snap = layertrace.LayerTracer().snapshot()
    a = json.loads(json.dumps(snap))
    b = json.loads(json.dumps(snap))
    a["calls"]["fit.fit_direct"], b["calls"]["fit.fit_direct"] = 5, 2
    merged = layertrace.merge([a, a], minus=(a, b))
    assert merged["calls"]["fit.fit_direct"] == 7


@pytest.fixture(scope="module")
def eval_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert cli.main(["synth", "--outdir", str(out), "--n", "2", "--seed", "1", "--grid", "8",
                     "--image-size", "32", "--out", str(out / "s.json")]) == 0
    assert cli.main(["eval", str(out / "eval.jsonl"), "--grid", "8", "--iterations", "5",
                     "--restarts", "1", "--out", str(out / "r.json")]) == 0
    return json.loads((out / "r.json").read_text())


def test_minischema_accepts_a_real_report(eval_report):
    assert minischema.errors(eval_report, cli.report_schema()) == []


@pytest.mark.parametrize("mutate", [
    lambda r: r.pop("pairs"),
    lambda r: r["aggregate"].update(n_ok=-1),
    lambda r: r["pairs"][0].update(status="maybe"),
    lambda r: r["pairs"][0]["transform"].update(family="spline"),
    lambda r: r["tool"].update(extra=1),
])
def test_minischema_rejects_broken_reports(eval_report, mutate):
    report = json.loads(json.dumps(eval_report))
    mutate(report)
    assert minischema.errors(report, cli.report_schema())
    jsonschema = pytest.importorskip("jsonschema")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, cli.report_schema())
