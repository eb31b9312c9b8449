import itertools

import numpy as np
import pytest

from helpers import candidate_matches_loop, collinear_sample, random_normalized, ransac_reference
from softalign import fit
from softalign.features import GrayImage, extract_descriptors, render_warped, synth_pair, synthetic_image
from softalign.fit import (
    AlignmentResult,
    FitConfig,
    LineFitResult,
    candidate_matches,
    fit_direct,
    fit_line_demo,
    fit_ransac,
    line_hypothesis_grid,
    splat_points,
)
from softalign.geometry import Transform, apply
from softalign.grids import FeatureGrid, cells_to_normalized
from softalign.matching import CorrelationTensor, correlate
from softalign.softinlier import (
    FilteredScores,
    hard_inlier_count,
    identity_mask,
    score_breakdown,
    soft_inlier_count,
    warp_mask,
)


def orthonormal_grid(h, w):
    d = h * w
    data = np.eye(d).reshape(h, w, d)
    return FeatureGrid(data)


def endpoint_deviation_cells(T, ref, h, w):
    """Max distance, in grid units, between T and ref over the frame corners."""
    corners = np.array([[-1, -1], [1, -1], [-1, 1], [1, 1]], dtype=float)
    diff = apply(T, corners) - apply(ref, corners)
    return float(np.hypot(diff[:, 0] * (w - 1) / 2, diff[:, 1] * (h - 1) / 2).max())


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="iterations"):
            FitConfig(iterations=0)
        with pytest.raises(ValueError, match="step"):
            FitConfig(step=0)
        with pytest.raises(ValueError, match="decay"):
            FitConfig(betas=(1.0, 0.999))
        with pytest.raises(ValueError, match="restarts"):
            FitConfig(restarts=0)
        with pytest.raises(ValueError, match="family"):
            FitConfig(family="rigid")
        for field in ("step", "stage2_step"):
            with pytest.raises(ValueError, match="step"):
                FitConfig(**{field: float("nan")})

    def test_stage_defaults(self):
        assert FitConfig(family="affine").resolved_stages() == ("affine",)
        assert FitConfig(family="tps").resolved_stages() == ("affine", "tps")
        assert FitConfig(family="homography").resolved_stages() == ("affine", "homography")


class TestFitDirect:
    def test_self_alignment_orthonormal(self):
        f = orthonormal_grid(4, 4)
        res = fit_direct(f, f, FitConfig(iterations=40, restarts=2))
        assert endpoint_deviation_cells(res.transform, Transform.identity("affine"), 4, 4) < 0.1
        assert abs(res.c - 16.0) <= 0.16
        assert not res.no_signal

    def test_integer_translation_recovery(self):
        img = synthetic_image(90, 64, 64)
        # shift right by 2 cells = 8 px; descriptor grids then translate
        # exactly, up to the border column that sees padding
        dx = 2 * (2 * 8 / 63.0) / 2  # normalized shift for an 8 px move... computed below
        shift_px = 8
        dx = 2 * shift_px / 63.0
        T_true = Transform.affine(np.array([1, 0, dx, 0, 1, 0], dtype=float))
        target = render_warped(img, T_true)
        f_s = extract_descriptors(img, "gradhist", 16, 16)
        f_t = extract_descriptors(target, "gradhist", 16, 16)
        res = fit_direct(f_s, f_t, FitConfig(seed=0))
        a11, a12, tx, a21, a22, ty = res.transform.params
        tx_cells = tx * 15 / 2
        ty_cells = ty * 15 / 2
        assert abs(tx_cells - 2.0) <= 0.25, tx_cells
        assert abs(ty_cells) <= 0.25, ty_cells

    def test_zero_correlation_no_signal(self):
        # nonnegative source vs nonpositive target descriptors: every raw
        # dot is <= 0, so the clamp zeroes the whole tensor
        rng = np.random.default_rng(91)
        f_s = FeatureGrid(np.abs(random_normalized(rng, 5, 5, 8).data))
        f_t = FeatureGrid(-np.abs(random_normalized(rng, 5, 5, 8).data))
        res = fit_direct(f_s, f_t, FitConfig(iterations=10, restarts=2))
        assert res.no_signal
        assert res.c == 0.0
        np.testing.assert_array_equal(res.transform.params, [1, 0, 0, 0, 1, 0])

    def test_trace_monotone(self):
        rng = np.random.default_rng(92)
        f_s = random_normalized(rng, 6, 6, 8)
        f_t = random_normalized(rng, 6, 6, 8)
        for family in ("affine", "tps"):
            res = fit_direct(f_s, f_t, FitConfig(family=family, iterations=30, restarts=2))
            trace = np.asarray(res.trace)
            assert np.all(np.diff(trace) >= -1e-9), family

    def test_seed_determinism(self):
        rng = np.random.default_rng(93)
        f_s = random_normalized(rng, 6, 6, 8)
        f_t = random_normalized(rng, 6, 6, 8)
        cfg = FitConfig(iterations=25, restarts=3, seed=5)
        a = fit_direct(f_s, f_t, cfg)
        b = fit_direct(f_s, f_t, cfg)
        np.testing.assert_array_equal(a.transform.params, b.transform.params)
        assert a.trace == b.trace
        assert a.restart_index == b.restart_index
        assert a.c == b.c

    def test_never_below_initialization(self):
        rng = np.random.default_rng(94)
        f = random_normalized(rng, 6, 6, 8)
        s = correlate(f, f)
        m_id = identity_mask(6, 6, 0.2)
        c_id = soft_inlier_count(s, warp_mask(m_id, Transform.identity("affine"))).c
        res = fit_direct(f, f, FitConfig(iterations=30, restarts=2, threshold=0.2))
        assert res.c >= c_id - 1e-6

    def test_tps_stage_returns_tps(self):
        rng = np.random.default_rng(95)
        f = random_normalized(rng, 6, 6, 8)
        res = fit_direct(f, f, FitConfig(family="tps", iterations=15, restarts=1))
        assert res.transform.family == "tps"
        assert len(res.transform.params) == 18

    def test_grid_shape_mismatch(self):
        rng = np.random.default_rng(96)
        with pytest.raises(ValueError, match="share dimensions"):
            fit_direct(random_normalized(rng, 5, 5, 8), random_normalized(rng, 5, 6, 8),
                       FitConfig(iterations=1, restarts=1))

    def test_unusable_mapping_scores_minus_inf(self):
        rng = np.random.default_rng(97)
        s = correlate(random_normalized(rng, 6, 6, 8), random_normalized(rng, 6, 6, 8))
        filtered = FilteredScores(s, 1.0)
        # the denominator -x + 1 vanishes at the target frame's right edge
        assert fit._count(filtered, "homography", [1, 0, 0, 0, 1, 0, -1.0, 0]) == (-np.inf, None)
        with np.errstate(over="ignore", invalid="ignore"):  # overflows to a non-finite grid
            assert fit._count(filtered, "affine", [1e308, 0, 0, 0, 1e308, 0]) == (-np.inf, None)
        assert fit._count(filtered, "affine", [1, 1, 0, 1, 1, 0]) == (-np.inf, None)

    def test_homography_trial_with_vanishing_denominator(self):
        # a backtracking trial hits "homography denominator ~ 0"; it must
        # count as a rejected step, not abort the fit
        p = synth_pair(synthetic_image(3, 64, 64), "affine", 1.0, 16, 16, seed=3)
        res = fit_direct(p.source, p.target, FitConfig(
            family="homography", step=5.0, stage2_step=5.0, iterations=30, restarts=2))
        assert np.isfinite(res.c)
        assert np.all(np.diff(res.trace) >= 0)

    @pytest.mark.parametrize("family", ["affine", "homography", "tps"])
    def test_scoring_accepted_points_once(self, family, monkeypatch):
        # the ascent reuses each accepted trial's gather for its gradient;
        # results equal those of the loop that scores the point again
        p = synth_pair(synthetic_image(3, 48, 48), "affine", 1.0, 12, 12, seed=3)
        cfg = FitConfig(family=family, iterations=25, restarts=2, step=0.2, stage2_step=0.5)
        gathers = {"n": 0}
        gather = FilteredScores.gather

        def counted(self, T):
            gathers["n"] += 1
            return gather(self, T)

        monkeypatch.setattr(FilteredScores, "gather", counted)
        once = fit_direct(p.source, p.target, cfg)
        n_once, gathers["n"] = gathers["n"], 0
        monkeypatch.setattr(fit, "_ascend", _ascend_scoring_twice)
        twice = fit_direct(p.source, p.target, cfg)
        assert once.trace == twice.trace
        assert once.c == twice.c and once.restart_index == twice.restart_index
        np.testing.assert_array_equal(once.transform.params, twice.transform.params)
        assert n_once < gathers["n"]


def _ascend_scoring_twice(filtered, stage, g0, steps, lr, betas, tol):
    """The ascent loop that scores every accepted point a second time."""

    def count_and_grad(g):
        sample = filtered.gather(Transform(stage, g))
        return sample.c, sample.dc_dg()

    g = np.asarray(g0, dtype=np.float64).copy()
    b1, b2 = betas
    m1 = np.zeros_like(g)
    m2 = np.zeros_like(g)
    c_cur, grad = count_and_grad(g)
    trace = [c_cur]
    stall = 0
    for it in range(1, steps + 1):
        m1 = b1 * m1 + (1 - b1) * grad
        m2 = b2 * m2 + (1 - b2) * grad * grad
        direction = (m1 / (1 - b1**it)) / (np.sqrt(m2 / (1 - b2**it)) + fit.ADAM_EPS)
        scale = 1.0
        accepted = False
        for _ in range(fit.MAX_BACKTRACKS):
            g_try = g + lr * scale * direction
            if fit._count(filtered, stage, g_try)[0] >= c_cur:
                accepted = True
                break
            scale *= 0.5
        if accepted:
            g = g_try
            c_new, grad = count_and_grad(g)
            improvement = c_new - c_cur
            c_cur = max(c_new, c_cur)
        else:
            improvement = 0.0
        trace.append(c_cur)
        stall = stall + 1 if improvement < tol else 0
        if stall >= fit.STALL_LIMIT:
            break
    return g, c_cur, trace


def translation_tensor(h, w, di, dj, targets):
    """Correlation with a single unit score mapping (k,l) -> (k+di, l+dj)."""
    s = np.zeros((h, w, h, w))
    for k, l in targets:
        s[k + di, l + dj, k, l] = 1.0
    return CorrelationTensor(s)


class TestFitRansac:
    def test_exact_affine_recovery(self):
        h = w = 10
        targets = [(k, l) for k in range(8) for l in range(7)]
        s = translation_tensor(h, w, 1, 2, targets)
        res = fit_ransac(s, "affine", t=0.5, iters=50, seed=0)
        assert res.inlier_count == len(targets)
        src = np.array([m[0] for m in res.inliers], dtype=float)
        tgt = np.array([m[1] for m in res.inliers], dtype=float)
        tx, ty = cells_to_normalized(tgt[:, 0], tgt[:, 1], h, w)
        sx, sy = cells_to_normalized(src[:, 0], src[:, 1], h, w)
        mapped = apply(res.transform, np.stack([tx, ty], axis=1))
        resid = np.hypot(mapped[:, 0] - sx, mapped[:, 1] - sy)
        assert resid.max() < 1e-6

    def test_exact_homography_recovery(self):
        h = w = 10
        targets = [(k, l) for k in range(8) for l in range(7)]
        s = translation_tensor(h, w, 1, 2, targets)
        res = fit_ransac(s, "homography", t=0.5, iters=80, seed=1)
        assert res.inlier_count == len(targets)
        dev = endpoint_deviation_cells(
            res.transform,
            Transform.affine(np.array([1, 0, 2 * 2 / 9, 0, 1, 2 * 1 / 9])),
            h, w,
        )
        assert dev < 1e-5

    def test_candidate_filter(self):
        s = np.zeros((6, 6, 6, 6))
        s[2, 2, 1, 1] = 1.0
        s[3, 3, 2, 2] = 0.6
        s[4, 4, 3, 3] = 0.4  # below half the global max: dropped
        got = candidate_matches(CorrelationTensor(s))
        assert ((2, 2), (1, 1)) in got
        assert ((3, 3), (2, 2)) in got
        assert all(tgt != (3, 3) for _, tgt in got)

    def test_sixty_percent_outliers_monte_carlo(self):
        h = w = 12
        rng = np.random.default_rng(97)
        successes = 0
        for seed in range(20):
            cells = [(k, l) for k in range(9) for l in range(7)]
            rng.shuffle(cells)
            inlier_tgts = cells[:20]
            outlier_tgts = cells[20:50]
            s = np.zeros((h, w, h, w))
            for k, l in inlier_tgts:
                s[k + 1, l + 2, k, l] = 1.0
            for k, l in outlier_tgts:
                i, j = rng.integers(0, h), rng.integers(0, w)
                if (i, j) == (k + 1, l + 2):
                    i = (i + 5) % h
                s[i, j, k, l] = 1.0
            res = fit_ransac(CorrelationTensor(s), "affine", t=0.5, iters=500, seed=seed)
            if res.inlier_count >= len(inlier_tgts) - 1:
                successes += 1
        assert successes >= 19

    def test_insufficient_matches(self):
        s = np.zeros((6, 6, 6, 6))
        s[1, 1, 0, 0] = 1.0
        s[2, 2, 1, 1] = 1.0
        with pytest.raises(ValueError, match="insufficient matches"):
            fit_ransac(CorrelationTensor(s), "affine", t=0.5, iters=10, seed=0)

    def test_family_validation(self):
        s = translation_tensor(6, 6, 0, 0, [(k, l) for k in range(6) for l in range(6)])
        with pytest.raises(ValueError, match="family"):
            fit_ransac(s, "tps", t=0.5, iters=10, seed=0)

    def test_candidate_matches_match_the_column_loop(self):
        rng = np.random.default_rng(41)
        for h_s, w_s, h_t, w_t in ((6, 6, 6, 6), (5, 7, 4, 6)):
            # few distinct levels: many ties, all-zero columns, columns
            # below half the maximum
            data = rng.integers(0, 4, size=(h_s, w_s, h_t, w_t)).astype(np.float64)
            data[:, :, 1, 2] = 0.0
            data[:, :, 0, 3] = np.minimum(data[:, :, 0, 3], 1.0)
            data *= rng.random((h_s, w_s, h_t, w_t)) < 0.3
            s = CorrelationTensor(data)
            got = candidate_matches(s)
            assert got == candidate_matches_loop(s)
            assert all(tgt != (1, 2) for _, tgt in got)
            assert all(type(v) is int for m in got for cell in m for v in cell)
        assert candidate_matches(CorrelationTensor(np.zeros((3, 3, 3, 3)))) == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_per_hypothesis_loop_on_criterion_5_pairs(self, seed):
        pair = synth_pair(
            synthetic_image(1000 + seed, 64, 64), "affine", 1.0, 16, 16, seed=seed,
            rotation_max_deg=30.0, scale_range=(0.8, 1.25), translation_max=0.25,
        )
        s = correlate(pair.source, pair.target)
        for t in (None, 1.5):
            self._assert_same_as_reference(s, "affine", t, 500, seed)
            # every homography fit of these pairs meets a hypothesis whose
            # denominator vanishes at a candidate, which raises in both
            self._assert_same_as_reference(s, "homography", t, 500, seed)

    @pytest.mark.parametrize("family", ["affine", "homography"])
    def test_matches_per_hypothesis_loop_on_translation_tensors(self, family):
        h = w = 10
        targets = [(k, l) for k in range(8) for l in range(7)]
        clean = translation_tensor(h, w, 1, 2, targets)
        rng = np.random.default_rng(5)
        noisy = clean.data.copy()
        for k, l in targets[::3]:  # a third of the matches become outliers
            noisy[:, :, k, l] = 0.0
            noisy[rng.integers(0, h), rng.integers(0, w), k, l] = 1.0
        for s in (clean, CorrelationTensor(noisy)):
            for seed in range(3):
                self._assert_same_as_reference(s, family, 0.5, 80, seed)

    def test_matches_per_hypothesis_loop_with_degenerate_samples(self):
        # six of eight source cells on one row: most samples hold a
        # collinear triple and are gated, and some runs start with one
        s = np.zeros((8, 8, 8, 8))
        sources = [(3, 0), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (6, 2), (0, 6)]
        targets = [(0, 0), (0, 5), (5, 0), (7, 6), (2, 7), (6, 3), (4, 4), (1, 2)]
        for (i, j), (k, l) in zip(sources, targets):
            s[i, j, k, l] = 1.0
        s = CorrelationTensor(s)
        starts = []
        for seed in range(6):
            self._assert_same_as_reference(s, "affine", 0.5, 50, seed)
            starts.append(fit_ransac(s, "affine", t=0.5, iters=50, seed=seed).trace[0])
        assert 0.0 in starts  # a gated first draw is traced as 0

    @pytest.mark.parametrize("family", ["affine", "homography"])
    def test_matches_per_hypothesis_loop_with_collinear_targets(self, family):
        # five target cells on row 0, source cells in general position: the
        # least-squares affine solve of such a sample can pass the det check
        # (its homography is singular), and the gate drops it
        s = np.zeros((8, 8, 8, 8))
        sources = [(1, 1), (2, 6), (6, 2), (5, 7), (7, 4), (0, 3), (4, 0)]
        targets = [(0, 0), (0, 2), (0, 3), (0, 5), (0, 7), (4, 1), (6, 6)]
        for (i, j), (k, l) in zip(sources, targets):
            s[i, j, k, l] = 1.0
        s = CorrelationTensor(s)
        src, tgt = (np.array(side, dtype=np.float64) for side in (sources, targets))
        src_xy = np.stack(cells_to_normalized(src[:, 0], src[:, 1], 8, 8), axis=1)
        tgt_xy = np.stack(cells_to_normalized(tgt[:, 0], tgt[:, 1], 8, 8), axis=1)
        k = fit.MINIMAL_SAMPLE[family]
        solvable = 0
        for seed in range(4):
            self._assert_same_as_reference(s, family, 0.5, 60, seed)
            rng = np.random.default_rng(seed)
            for _ in range(60):
                pick = rng.choice(len(sources), size=k, replace=False)
                if collinear_sample(tgt[pick]) and not collinear_sample(src[pick]):
                    try:
                        fit._solve_transform(family, src_xy[pick], tgt_xy[pick])
                        solvable += 1
                    except ValueError:
                        pass
        assert (solvable > 0) == (family == "affine")

    @pytest.mark.parametrize("family", ["affine", "homography"])
    def test_collinear_candidates_give_a_flagged_identity(self, family):
        s = np.zeros((8, 8, 8, 8))
        for n, (k, l) in enumerate([(0, 0), (0, 5), (5, 0), (7, 6)]):
            s[3, 2 * n, k, l] = 1.0  # every source cell on row 3
        s = CorrelationTensor(s)
        identity = Transform.identity(family)
        count, inliers = hard_inlier_count(candidate_matches(s), identity, 0.5, 8, 8)
        expected = score_breakdown(s, identity, 0.5)
        for seed in range(5):
            self._assert_same_as_reference(s, family, 0.5, 50, seed)
            res = fit_ransac(s, family, t=0.5, iters=50, seed=seed)
            assert res.no_signal
            np.testing.assert_array_equal(res.transform.params, identity.params)
            assert res.inlier_count == count and list(res.inliers) == inliers
            assert res.c == res.breakdown.c == expected.c
            np.testing.assert_array_equal(res.breakdown.contributions, expected.contributions)
            assert res.breakdown.inliers == expected.inliers
            assert res.trace == (0.0,) * 50

    def test_gate_matches_the_rank_of_centred_cells(self):
        rng = np.random.default_rng(61)
        for k in (3, 4):
            samples = [rng.integers(-6, 7, size=(k, 2)) for _ in range(400)]
            for _ in range(100):  # exact-collinear triples with a free last cell
                a, d = rng.integers(-6, 7, size=2), rng.integers(-3, 4, size=2)
                line = a + np.outer(rng.integers(-2, 3, size=3), d)
                samples.append(np.vstack([line, rng.integers(-6, 7, size=(k - 3, 2))]))
            for _ in range(50):  # a repeated cell
                cells = rng.integers(-6, 7, size=(k, 2))
                cells[-1] = cells[0]
                samples.append(cells)
            for _ in range(50):  # one lattice step off a line: near-collinear
                a, d = rng.integers(-600, 601, size=2), rng.integers(1, 300, size=2)
                far = rng.integers(-600, 601, size=(k - 3, 2))
                samples.append(np.vstack([a, a + d, a + 2 * d + [0, 1], far]))
            cells = np.array(samples)
            got = fit.has_collinear_triple(cells)

            def rank_deficient(tri):
                return np.linalg.matrix_rank(tri - tri.mean(axis=0)) < 2

            want = [any(rank_deficient(c[list(t)].astype(float))
                        for t in itertools.combinations(range(k), 3)) for c in cells]
            assert got.tolist() == want
            assert got.tolist() == [collinear_sample(c) for c in cells]
            assert 0 < got.sum() < len(cells)

    @staticmethod
    def _assert_same_as_reference(s, family, t, iters, seed):
        """The batched fit against the per-sample loop: the same counts,
        inliers and trace; the same homography, and an affine map within
        1e-12 (one stacked solve against one least-squares solve each)."""
        try:
            ref = ransac_reference(s, family, t, iters, seed)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                fit_ransac(s, family, t=t, iters=iters, seed=seed)
            assert str(got.value) == str(exc)
            return
        res = fit_ransac(s, family, t=t, iters=iters, seed=seed)
        T, count, inliers, trace, c, no_signal = ref
        assert res.transform.family == T.family
        if family == "affine":
            np.testing.assert_allclose(res.transform.params, T.params, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(res.transform.params, T.params)
        assert res.inlier_count == count
        assert res.inliers == inliers
        assert res.trace == trace
        assert res.c == pytest.approx(c, rel=1e-9, abs=1e-12)
        assert res.no_signal == no_signal

    def test_trace_is_best_so_far(self):
        h = w = 10
        targets = [(k, l) for k in range(8) for l in range(7)]
        s = translation_tensor(h, w, 1, 2, targets)
        res = fit_ransac(s, "affine", t=0.5, iters=30, seed=3)
        trace = np.asarray(res.trace)
        assert np.all(np.diff(trace) >= 0)


class TestLineDemo:
    def test_ten_collinear_both_modes(self):
        pts = np.array([[k, k] for k in range(10)], dtype=float)
        for mode in ("ransac", "soft-grid"):
            res = fit_line_demo(pts, t=0.5, mode=mode)
            assert res.count == 10.0, mode
            assert res.distances(pts).max() < 0.5, mode
            assert not res.degenerate

    def test_cluster_beats_outliers_soft_grid(self):
        rng = np.random.default_rng(98)
        cluster = np.array([[2 * k, 2 + k] for k in range(12)], dtype=float)
        outliers = rng.uniform([0, 0], [22, 13], size=(30, 2))
        pts = np.vstack([cluster, outliers])
        res = fit_line_demo(pts, t=0.5, mode="soft-grid")

        # independent exhaustive oracle over the same hypothesis grid
        scores, xs, ys = splat_points(pts)
        thetas, rhos = line_hypothesis_grid(pts, 0.5)
        best = None
        miss_best = -1.0
        for theta in thetas:
            for rho in rhos:
                total = 0.0
                n_cluster = 0
                for r in range(scores.shape[0]):
                    for c in range(scores.shape[1]):
                        if scores[r, c] and abs(xs[c] * np.cos(theta) + ys[r] * np.sin(theta) - rho) < 0.5:
                            total += scores[r, c]
                proj = cluster[:, 0] * np.cos(theta) + cluster[:, 1] * np.sin(theta)
                n_cluster = int(np.count_nonzero(np.abs(proj - rho) < 0.5))
                if best is None or total > best[0]:
                    best = (total, theta, rho)
                if n_cluster < 6:
                    miss_best = max(miss_best, total)
        np.testing.assert_allclose(res.count, best[0], rtol=1e-12)
        np.testing.assert_allclose([res.theta, res.rho], best[1:], atol=1e-12)
        assert best[0] > miss_best

    def test_ransac_mode_finds_cluster(self):
        rng = np.random.default_rng(99)
        cluster = np.array([[2 * k, 2 + k] for k in range(12)], dtype=float)
        outliers = rng.uniform([0, 0], [22, 13], size=(30, 2))
        pts = np.vstack([cluster, outliers])
        res = fit_line_demo(pts, t=0.5, mode="ransac", iters=500, seed=4)
        assert res.count >= 12
        assert res.distances(cluster).max() < 0.5

    def test_degenerate_identical_points(self):
        pts = np.full((7, 2), 3.5)
        for mode in ("ransac", "soft-grid"):
            res = fit_line_demo(pts, t=0.5, mode=mode)
            assert res.degenerate
            assert res.count == 7.0
            assert res.distances(pts).max() < 1e-12

    def test_ransac_needs_an_iteration(self):
        with pytest.raises(ValueError, match="iters"):
            fit_line_demo(np.array([[0.0, 0.0], [1.0, 1.0]]), t=0.5, mode="ransac", iters=0)

    def test_ransac_without_distinct_draw_is_flagged(self):
        # the one draw at seed 1 picks the duplicated point twice
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        res = fit_line_demo(pts, t=0.5, mode="ransac", iters=1, seed=1)
        assert res.degenerate
        assert res.count == 2.0  # the vertical line x = 0 holds both copies of (0, 0)
        assert res.distances(pts[:2]).max() < 1e-12

    def test_soft_grid_extent_refused_before_allocating(self):
        # each check runs on the bounding box alone: none of these allocates
        with pytest.raises(ValueError, match=r"point extent 1e\+300 x 4 .* limit of 268435456 bytes"):
            fit_line_demo(np.array([[0.0, 0.0], [1e300, 2.0]]), t=0.5, mode="soft-grid")
        with pytest.raises(ValueError, match="raster"):
            splat_points(np.array([[0.0, 0.0], [1e6, 1e6]]))
        # the raster of a 2000-unit cloud fits; its per-angle band test does not
        with pytest.raises(ValueError, match="per-angle band test"):
            fit_line_demo(np.array([[0.0, 0.0], [2000.0, 2000.0]]), t=0.5, mode="soft-grid")

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_line_demo(np.array([[0.0, 0.0]]), t=0.5, mode="ransac")
        with pytest.raises(ValueError, match="mode"):
            fit_line_demo(np.zeros((3, 2)), t=0.5, mode="hough")
        with pytest.raises(ValueError, match="threshold"):
            fit_line_demo(np.zeros((3, 2)), t=0.0, mode="ransac")
