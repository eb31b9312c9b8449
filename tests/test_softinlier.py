import numpy as np
import pytest

from helpers import clear_random_transform, random_normalized, random_transform
from softalign.fit import FitConfig, fit_line_demo
from softalign.geometry import Transform, make_tps
from softalign.matching import CorrelationTensor, correlate
from softalign.softinlier import (
    IDENTITY_BINARY,
    WARPED_SOFT,
    InlierMask,
    ScoreBreakdown,
    default_threshold,
    hard_inlier_count,
    identity_mask,
    soft_inlier_count,
    soft_inlier_grad,
    warp_mask,
)
from softalign.weaktrain import TrainConfig


def count_entries_brute(h, w, t):
    """Enumerate the identity-mask support directly."""
    n = 0
    for i in range(h):
        for j in range(w):
            for k in range(h):
                for l in range(w):
                    if np.hypot(i - k, j - l) < t:
                        n += 1
    return n


class TestIdentityMask:
    def test_4x4_radius_1_1_matches_enumeration(self):
        m = identity_mask(4, 4, 1.1)
        assert int(m.data.sum()) == count_entries_brute(4, 4, 1.1) == 64

    def test_15x15_half_radius_is_diagonal(self):
        m = identity_mask(15, 15, 0.5)
        assert int(m.data.sum()) == 225
        for i in range(15):
            for j in range(15):
                assert m.data[i, j, i, j] == 1.0

    def test_half_radius_has_no_off_diagonal(self):
        m = identity_mask(5, 7, 0.5)
        off = m.data.copy()
        for i in range(5):
            for j in range(7):
                off[i, j, i, j] = 0.0
        assert np.all(off == 0.0)

    def test_random_sizes_match_enumeration(self):
        rng = np.random.default_rng(40)
        for _ in range(5):
            h, w = rng.integers(2, 7, size=2)
            t = rng.uniform(0.3, 3.0)
            m = identity_mask(h, w, t)
            assert int(m.data.sum()) == count_entries_brute(h, w, t)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            identity_mask(4, 4, 0.0)
        with pytest.raises(ValueError):
            identity_mask(4, 4, -1.0)

    def test_default_threshold_rule(self):
        assert default_threshold(15, 15) == 0.5
        assert default_threshold(30, 12) == 1.0
        assert default_threshold(8, 24) == 0.8


class TestInlierMaskType:
    def test_identity_kind_must_be_binary(self):
        data = np.zeros((2, 2, 2, 2))
        data[0, 0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="0 or 1"):
            InlierMask(data, IDENTITY_BINARY, 0.5)

    def test_warped_kind_range_checked(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            InlierMask(np.full((2, 2, 2, 2), 1.5), WARPED_SOFT, 0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            InlierMask(np.zeros((2, 2, 2, 2)), "fuzzy", 0.5)


NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda: FitConfig(threshold=NAN),
        lambda: fit_line_demo(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]]), t=NAN),
        lambda: InlierMask(np.zeros((2, 2, 2, 2)), IDENTITY_BINARY, NAN),
        lambda: identity_mask(4, 4, NAN),
        lambda: hard_inlier_count([((0, 0), (0, 0))], Transform.identity("affine"), NAN, 4, 4),
        lambda: TrainConfig(threshold=NAN),
    ],
    ids=["FitConfig", "fit_line_demo", "InlierMask", "identity_mask", "hard_inlier_count", "TrainConfig"],
)
def test_nan_threshold_rejected(make):
    with pytest.raises(ValueError, match="threshold must be"):
        make()


class TestWarpMask:
    def test_identity_transform_reproduces_mask(self):
        m_id = identity_mask(6, 5, 1.2)
        warped = warp_mask(m_id, Transform.identity("affine"))
        assert warped.kind == WARPED_SOFT
        np.testing.assert_array_equal(warped.data, m_id.data)

    def test_integer_translation_shifts_fourth_index(self):
        h = w = 6
        m_id = identity_mask(h, w, 1.5)
        # one grid column to the right: normalized x shift of 2/(w-1)
        T = Transform.affine([1, 0, 2.0 / (w - 1), 0, 1, 0])
        warped = warp_mask(m_id, T)
        expected = np.zeros_like(m_id.data)
        expected[:, :, :, : w - 1] = m_id.data[:, :, :, 1:]
        np.testing.assert_allclose(warped.data, expected, atol=1e-12)

    def test_integer_row_translation(self):
        h = w = 5
        m_id = identity_mask(h, w, 1.1)
        T = Transform.affine([1, 0, 0, 0, 1, 2.0 / (h - 1)])
        warped = warp_mask(m_id, T)
        expected = np.zeros_like(m_id.data)
        expected[:, :, : h - 1, :] = m_id.data[:, :, 1:, :]
        np.testing.assert_allclose(warped.data, expected, atol=1e-12)

    def test_out_of_frame_gives_zero(self):
        m_id = identity_mask(4, 4, 1.0)
        T = Transform.affine([1, 0, 50.0, 0, 1, 0])
        warped = warp_mask(m_id, T)
        assert np.all(warped.data == 0.0)

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(41)
        m_id = identity_mask(7, 7, 1.4)
        for family in ("affine", "homography", "tps"):
            warped = warp_mask(m_id, random_transform(rng, family))
            assert warped.data.min() >= 0.0 and warped.data.max() <= 1.0

    def test_rejects_warped_input(self):
        m_id = identity_mask(4, 4, 1.0)
        warped = warp_mask(m_id, Transform.identity("affine"))
        with pytest.raises(ValueError):
            warp_mask(warped, Transform.identity("affine"))


class TestSoftInlierCount:
    def test_full_sum(self):
        s = CorrelationTensor(np.ones((2, 2, 2, 2)))
        m = InlierMask(np.ones((2, 2, 2, 2)), WARPED_SOFT, 0.5)
        assert soft_inlier_count(s, m).c == 16.0

    def test_zero_mask(self):
        s = CorrelationTensor(np.ones((2, 2, 2, 2)))
        m = InlierMask(np.zeros((2, 2, 2, 2)), WARPED_SOFT, 0.5)
        assert soft_inlier_count(s, m).c == 0.0

    def test_orthonormal_self_pair_counts_grid_cells(self):
        g = random_normalized(np.random.default_rng(42), 3, 3, 9)
        g.data[:] = np.eye(9).reshape(3, 3, 9)
        s = correlate(g, g)
        m = warp_mask(identity_mask(3, 3, 0.5), Transform.identity("affine"))
        got = soft_inlier_count(s, m)
        brute = sum(
            s.data[i, j, k, l] * m.data[i, j, k, l]
            for i in range(3)
            for j in range(3)
            for k in range(3)
            for l in range(3)
        )
        assert got.c == brute == 9.0

    def test_breakdown_consistency(self):
        rng = np.random.default_rng(43)
        s = correlate(random_normalized(rng, 5, 5, 8), random_normalized(rng, 5, 5, 8))
        m = warp_mask(identity_mask(5, 5, 1.2), random_transform(rng, "affine"))
        bd = soft_inlier_count(s, m)
        assert abs(bd.c - bd.contributions.sum()) <= 1e-9
        np.testing.assert_allclose(
            bd.contributions, (s.data * m.data).sum(axis=(0, 1)), atol=1e-12
        )

    def test_inliers_sorted_and_capped(self):
        rng = np.random.default_rng(44)
        s = correlate(random_normalized(rng, 4, 4, 6), random_normalized(rng, 4, 4, 6))
        m = warp_mask(identity_mask(4, 4, 1.5), Transform.identity("affine"))
        bd = soft_inlier_count(s, m, top_k=5)
        assert len(bd.inliers) <= 5
        weights = [wt for _, _, wt in bd.inliers]
        assert weights == sorted(weights, reverse=True)
        assert all(wt > 0 for wt in weights)

    def test_tie_breaking_lexicographic(self):
        s = CorrelationTensor(np.ones((2, 2, 2, 2)))
        m = InlierMask(np.ones((2, 2, 2, 2)), WARPED_SOFT, 0.5)
        bd = soft_inlier_count(s, m, top_k=16)
        keys = [(k, l, i, j) for (i, j), (k, l), _ in bd.inliers]
        assert keys == sorted(keys)

    def test_linearity_and_monotonicity(self):
        rng = np.random.default_rng(45)
        s = correlate(random_normalized(rng, 4, 4, 8), random_normalized(rng, 4, 4, 8))
        m = warp_mask(identity_mask(4, 4, 1.0), random_transform(rng, "affine"))
        c1 = soft_inlier_count(s, m).c
        c2 = soft_inlier_count(CorrelationTensor(2.5 * s.data), m).c
        np.testing.assert_allclose(c2, 2.5 * c1, rtol=1e-12)
        bumped = s.data.copy()
        bumped[1, 2, 3, 0] += 0.4
        assert soft_inlier_count(CorrelationTensor(bumped), m).c >= c1

    def test_shape_mismatch(self):
        s = CorrelationTensor(np.ones((2, 2, 2, 2)))
        m = InlierMask(np.ones((3, 3, 3, 3)), WARPED_SOFT, 0.5)
        with pytest.raises(ValueError, match="mismatch"):
            soft_inlier_count(s, m)

    def test_serialization_shape(self):
        s = CorrelationTensor(np.ones((2, 2, 2, 2)))
        m = InlierMask(np.ones((2, 2, 2, 2)), WARPED_SOFT, 0.5)
        d = soft_inlier_count(s, m).to_dict()
        assert set(d) == {"c", "contributions", "inliers"}
        assert d["inliers"][0] == {"src": [0, 0], "tgt": [0, 0], "w": 1.0}


class TestSoftInlierGrad:
    def test_dc_ds_equals_warped_mask(self):
        rng = np.random.default_rng(46)
        s = correlate(random_normalized(rng, 5, 5, 8), random_normalized(rng, 5, 5, 8))
        m_id = identity_mask(5, 5, 1.0)
        for family in ("affine", "homography", "tps"):
            T = random_transform(rng, family)
            _, dc_ds = soft_inlier_grad(s, m_id, T)
            np.testing.assert_array_equal(dc_ds, warp_mask(m_id, T).data)

    def test_zero_scores_zero_gradient(self):
        s = CorrelationTensor(np.zeros((4, 4, 4, 4)))
        m_id = identity_mask(4, 4, 1.0)
        dc_dg, _ = soft_inlier_grad(s, m_id, Transform.identity("affine"))
        assert np.all(dc_dg == 0.0)

    def test_dc_dg_matches_finite_differences(self):
        rng = np.random.default_rng(47)
        h = w = 5
        m_id = identity_mask(h, w, 1.3)
        s = correlate(random_normalized(rng, h, w, 16), random_normalized(rng, h, w, 16))
        step = 1e-4
        for family in ("affine", "homography", "tps"):
            for _ in range(4):
                T = clear_random_transform(rng, family, h, w, clearance=0.05)
                dc_dg, _ = soft_inlier_grad(s, m_id, T)
                for p in range(T.params.size):
                    hi = np.array(T.params)
                    lo = np.array(T.params)
                    hi[p] += step
                    lo[p] -= step
                    thi = Transform(T.family, hi) if family != "tps" else make_tps(hi)
                    tlo = Transform(T.family, lo) if family != "tps" else make_tps(lo)
                    fd = (
                        soft_inlier_count(s, warp_mask(m_id, thi)).c
                        - soft_inlier_count(s, warp_mask(m_id, tlo)).c
                    ) / (2 * step)
                    assert abs(dc_dg[p] - fd) <= 1e-4 * (abs(fd) + 1e-6), (family, p)

    def test_self_pair_peak(self):
        h = w = 4
        g = random_normalized(np.random.default_rng(48), h, w, h * w)
        g.data[:] = np.eye(h * w).reshape(h, w, h * w)
        s = correlate(g, g)
        m_id = identity_mask(h, w, 0.5)
        c_identity = soft_inlier_count(s, warp_mask(m_id, Transform.identity("affine"))).c
        assert c_identity == h * w
        rng = np.random.default_rng(49)
        for n in range(1000):
            family = ("affine", "homography", "tps")[n % 3]
            c = soft_inlier_count(s, warp_mask(m_id, random_transform(rng, family))).c
            assert c <= c_identity + 1e-9


class TestHardInlierCount:
    def test_line_fit_analogue(self):
        # diagonal hypothesis: a point with column x should sit at (x, x)
        matches = [
            ((0, 0), (0, 0), 1.0),
            ((1, 1), (1, 1), 1.0),
            ((2, 2), (2, 2), 1.0),
            ((5, 0), (0, 0), 1.0),  # off the diagonal by 5
        ]
        count, inliers = hard_inlier_count(
            matches, Transform.identity("affine"), 0.5, 6, 6
        )
        assert count == 3
        assert inliers == matches[:3]

    def test_identity_self_matches(self):
        matches = [((i, j), (i, j), 1.0) for i in range(4) for j in range(4)]
        count, inliers = hard_inlier_count(
            matches, Transform.identity("affine"), 0.5, 4, 4
        )
        assert count == len(matches) and inliers == matches

    def test_tiny_threshold(self):
        matches = [((0, 0), (1, 1), 1.0), ((2, 0), (0, 2), 1.0)]
        count, inliers = hard_inlier_count(
            matches, Transform.identity("affine"), 1e-6, 4, 4
        )
        assert count == 0 and inliers == []

    def test_empty_matches(self):
        assert hard_inlier_count([], Transform.identity("affine"), 0.5, 4, 4) == (0, [])

    def test_hard_soft_equivalence_integer_translation(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            h, w = rng.integers(4, 9, size=2)
            t = rng.uniform(0.2, 1.0)
            m_id = identity_mask(h, w, t)
            binary = (rng.random(size=(h, w, h, w)) < 0.08).astype(float)
            s = CorrelationTensor(binary)
            di = int(rng.integers(-2, 3))
            dj = int(rng.integers(-2, 3))
            T = Transform.affine(
                [1, 0, 2.0 * dj / (w - 1), 0, 1, 2.0 * di / (h - 1)]
            )
            soft = soft_inlier_count(s, warp_mask(m_id, T)).c
            matches = [
                ((int(i), int(j)), (int(k), int(l)), 1.0)
                for i, j, k, l in np.argwhere(binary == 1.0)
            ]
            hard, _ = hard_inlier_count(matches, T, t, h, w)
            assert soft == hard
