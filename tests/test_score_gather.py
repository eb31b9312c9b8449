"""The filtered-score gather and the windowed breakdown against the dense
mask warp they replace.

``FilteredScores`` scores a transform by sampling ``S_t`` (the correlation
summed over radius-``t`` source disks) at one point per target cell; the
reference is the dense path, ``sum(s * warp_mask(identity_mask, T))`` and
``soft_inlier_grad``.  The two sum in different orders, so they agree to
rounding, except on whole-cell shifts, where both are exact.
``score_breakdown`` evaluates the warped mask on its nonzero window only;
its per-match weights equal the dense ones exactly.
"""

import numpy as np
import pytest

from helpers import random_normalized, random_transform
from softalign import fit
from softalign.features import synth_pair, synthetic_image
from softalign.fit import FitConfig, fit_direct
from softalign.geometry import Transform, apply, make_tps, tps_control_points
from softalign.matching import CorrelationTensor, correlate
from softalign.softinlier import (
    FilteredScores,
    default_threshold,
    hard_inlier_count,
    identity_mask,
    score_breakdown,
    soft_inlier_count,
    soft_inlier_grad,
    warp_mask,
)

REL = 1e-12
GRIDS = [(8, 8), (12, 12), (6, 9)]
THRESHOLDS = ["default", 1.0, 1.5, 2.2]
FAMILIES = ["affine", "homography", "tps"]


def _threshold(t, h, w):
    return default_threshold(h, w) if t == "default" else t


def _in_family(family, affine_params):
    """The given affine map, expressed in ``family``'s parameters."""
    if family == "affine":
        return Transform.affine(affine_params)
    if family == "homography":
        return Transform.homography(np.concatenate([affine_params, [0.0, 0.0]]))
    pts = tps_control_points(3)
    return make_tps(apply(Transform.affine(affine_params), pts) - pts)


def _shift(h, w, di, dj):
    """Affine parameters moving every target cell by (di, dj) source cells."""
    return np.array([1.0, 0.0, 2.0 * dj / (w - 1), 0.0, 1.0, 2.0 * di / (h - 1)])


def _transforms(rng, family, h, w):
    """On-knot, knot-straddling, partly and wholly off-grid, and generic warps."""
    out = {"identity": _in_family(family, _shift(h, w, 0, 0)),
           "on-knot": _in_family(family, _shift(h, w, 2, -1))}
    for eps in (1e-10, -1e-10, 1e-7, -1e-7):
        out[f"straddle{eps:+g}"] = _in_family(family, _shift(h, w, 1 + eps, -2 - eps))
    out["partly-off"] = _in_family(family, _shift(h, w, h / 2.0 + 0.3, 0.4))
    out["wholly-off"] = _in_family(family, _shift(h, w, h + 1.5, w + 2.5))
    for k in range(3):
        out[f"random{k}"] = random_transform(rng, family)
    return out


def _dense(s, t, T):
    h, w = s.source_shape
    m_id = identity_mask(h, w, t)
    c = float(np.sum(s.data * warp_mask(m_id, T).data))
    dc_dg, _ = soft_inlier_grad(s, m_id, T)
    return c, dc_dg


@pytest.mark.parametrize("grid", GRIDS, ids=[f"{h}x{w}" for h, w in GRIDS])
@pytest.mark.parametrize("t", THRESHOLDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_gather_matches_dense(grid, t, family):
    h, w = grid
    rng = np.random.default_rng([h, w, FAMILIES.index(family)])
    t = _threshold(t, h, w)
    s = correlate(random_normalized(rng, h, w, 8), random_normalized(rng, h, w, 8))
    filtered = FilteredScores(s, t)
    for name, T in _transforms(rng, family, h, w).items():
        c_ref, g_ref = _dense(s, t, T)
        sample = filtered.gather(T)
        assert sample.c == pytest.approx(c_ref, rel=REL, abs=REL), name
        np.testing.assert_allclose(
            sample.dc_dg(), g_ref, rtol=REL, atol=REL * max(1.0, np.abs(g_ref).max()),
            err_msg=name,
        )
        if name == "wholly-off":
            assert sample.c == 0.0


BREAKDOWN_GRIDS = [(8, 8), (6, 9)]


@pytest.mark.parametrize("grid", BREAKDOWN_GRIDS, ids=[f"{h}x{w}" for h, w in BREAKDOWN_GRIDS])
@pytest.mark.parametrize("t", THRESHOLDS + [float("inf")])
@pytest.mark.parametrize("family", FAMILIES)
def test_breakdown_matches_dense(grid, t, family):
    h, w = grid
    rng = np.random.default_rng([h, w, 7, FAMILIES.index(family)])
    t = _threshold(t, h, w)
    m_id = identity_mask(h, w, t)
    real = correlate(random_normalized(rng, h, w, 8), random_normalized(rng, h, w, 8))
    ties = CorrelationTensor((rng.random((h, w, h, w)) < 0.2).astype(np.float64))
    for s in (real, ties):
        for name, T in _transforms(rng, family, h, w).items():
            ref = soft_inlier_count(s, warp_mask(m_id, T), top_k=(h * w) ** 2)
            got = score_breakdown(s, T, t, top_k=(h * w) ** 2)
            assert got.inliers == ref.inliers, name
            assert got.c == pytest.approx(ref.c, rel=REL, abs=0.0), name
            np.testing.assert_allclose(got.contributions, ref.contributions, rtol=REL, atol=0.0,
                                       err_msg=name)
            assert score_breakdown(s, T, t).inliers == soft_inlier_count(s, warp_mask(m_id, T)).inliers


def test_breakdown_rejects_bad_inputs():
    with pytest.raises(ValueError, match="must match"):
        score_breakdown(CorrelationTensor(np.zeros((3, 3, 3, 4))), Transform.identity("affine"), 1.0)
    for t in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            score_breakdown(CorrelationTensor(np.zeros((3, 3, 3, 3))), Transform.identity("affine"), t)


@pytest.mark.parametrize("t", [0.5, 1.0, 1.5, 2.2, 3.7, float("inf")])
def test_filtered_scores_are_disk_sums(t):
    rng = np.random.default_rng(5)
    h, w = 6, 9
    s = correlate(random_normalized(rng, h, w, 4), random_normalized(rng, h, w, 4))
    m_id = identity_mask(h, w, t).data  # symmetric: m_id[i, j, p, q] = [|ij - pq| < t]
    expect = np.einsum("ijpq,ijkl->pqkl", m_id, s.data)
    filtered = FilteredScores(s, t)
    padded = filtered.padded
    np.testing.assert_allclose(padded[1:-1, 1:-1], expect, rtol=1e-14, atol=1e-14)
    assert not padded[0].any() and not padded[-1].any()
    assert not padded[:, 0].any() and not padded[:, -1].any()
    np.testing.assert_array_equal(filtered.scores, s.data)


def test_single_cell_disk_shares_storage():
    rng = np.random.default_rng(6)
    s = correlate(random_normalized(rng, 5, 5, 4), random_normalized(rng, 5, 5, 4))
    f = FilteredScores(s, 1.0)
    assert np.shares_memory(f.scores, f.padded)
    assert FilteredScores(s, 1.5).scores is s.data


def test_rejects_bad_inputs():
    s = CorrelationTensor(np.zeros((3, 3, 3, 4)))
    with pytest.raises(ValueError, match="must match"):
        FilteredScores(s, 1.0)
    for t in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            FilteredScores(CorrelationTensor(np.zeros((3, 3, 3, 3))), t)


def test_degenerate_mapping_raises():
    s = CorrelationTensor(np.ones((4, 4, 4, 4)))
    f = FilteredScores(s, 1.0)
    # denominator -x + 1 vanishes on the right edge of the target frame
    with pytest.raises(ValueError, match="denominator"):
        f.gather(Transform.homography([1, 0, 0, 0, 1, 0, -1.0, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            f.gather(Transform.affine([1e308, 0, 0, 0, 1e308, 0]))


@pytest.mark.parametrize("t", ["default", 1.5, 2.2])
def test_integer_shifts_exact(t):
    # criterion 3 through the gather: 0/1 scores and whole-cell shifts give
    # integer sums, equal to the hard count (default t) and to the dense path
    rng = np.random.default_rng(301)
    for _ in range(30):
        h, w = (int(v) for v in rng.integers(6, 13, size=2))
        di, dj = (int(v) for v in rng.integers(-3, 4, size=2))
        T = Transform.affine(_shift(h, w, di, dj))
        data = (rng.random((h, w, h, w)) < 0.06).astype(np.float64)
        s = CorrelationTensor(data)
        tt = _threshold(t, h, w)
        soft = FilteredScores(s, tt).gather(T).c
        assert soft == float(np.sum(s.data * warp_mask(identity_mask(h, w, tt), T).data))
        if t == "default":
            matches = [((int(i), int(j)), (int(k), int(l))) for i, j, k, l in zip(*np.nonzero(data))]
            assert soft == float(hard_inlier_count(matches, T, tt, h, w)[0])


class _DenseSample:
    def __init__(self, s, m_id, T):
        self.c = float(np.sum(s.data * warp_mask(m_id, T).data))
        self._args = (s, m_id, T)

    def dc_dg(self):
        return soft_inlier_grad(*self._args)[0]


class _DenseScores:
    """The dense mask-warp path behind :class:`FilteredScores`' interface."""

    def __init__(self, s, t):
        h, w = s.source_shape
        self.s, self.m_id = s, identity_mask(h, w, t)

    def gather(self, T):
        return _DenseSample(self.s, self.m_id, T)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_direct_matches_dense_path(seed, monkeypatch):
    # criterion-5 pairs and settings, with fewer iterations to keep the
    # dense reference affordable
    pair = synth_pair(
        synthetic_image(1000 + seed, 64, 64), "affine", 1.0, 16, 16, seed=seed,
        rotation_max_deg=30.0, scale_range=(0.8, 1.25), translation_max=0.25,
    )
    cfg = FitConfig(seed=seed, tol=1e-4, restarts=4, iterations=60)
    res = fit_direct(pair.source, pair.target, cfg)
    monkeypatch.setattr(fit, "FilteredScores", _DenseScores)
    ref = fit_direct(pair.source, pair.target, cfg)
    assert res.restart_index == ref.restart_index
    assert len(res.trace) == len(ref.trace)
    assert res.c == pytest.approx(ref.c, rel=1e-9)
    np.testing.assert_allclose(res.transform.params, ref.transform.params, rtol=0, atol=1e-9)
