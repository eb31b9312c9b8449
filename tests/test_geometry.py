import numpy as np
import pytest

from helpers import (
    bilinear_sample_backward_reference,
    bilinear_sample_reference,
    tps_apply_reference,
    tps_cardinal_reference,
)
from softalign import geometry
from softalign.errors import InvariantError
from softalign.evalkit import mask_iou
from softalign.features import GrayImage, render_warped, synth_pair, synthetic_image
from softalign.geometry import (
    Transform,
    apply,
    apply_many,
    bilinear_sample,
    bilinear_sample_backward,
    bilinear_sample_stack,
    bilinear_sample_stack_grad,
    jacobian_many,
    make_tps,
    tps_cardinal_values,
    tps_control_points,
    transform_sampling_grid,
)
from softalign.grids import cells_to_normalized, normalized_to_cells


def fd_jacobian(family, params, pt, step=1e-6, control_grid=3):
    """Central finite differences of apply() w.r.t. each parameter."""
    params = np.asarray(params, dtype=np.float64)
    jac = np.zeros((params.size, 2))
    for p in range(params.size):
        hi = params.copy()
        lo = params.copy()
        hi[p] += step
        lo[p] -= step
        thi = Transform(family, hi, control_grid=control_grid)
        tlo = Transform(family, lo, control_grid=control_grid)
        jac[p] = (apply(thi, [pt])[0] - apply(tlo, [pt])[0]) / (2 * step)
    return jac


def bilinear_scalar(img, u, v):
    """Independent scalar reference for zero-padded bilinear sampling."""
    h, w = img.shape
    u0, v0 = int(np.floor(u)), int(np.floor(v))
    du, dv = u - u0, v - v0
    total = 0.0
    for oi, oj, wgt in (
        (0, 0, (1 - du) * (1 - dv)),
        (0, 1, (1 - du) * dv),
        (1, 0, du * (1 - dv)),
        (1, 1, du * dv),
    ):
        ui, vi = u0 + oi, v0 + oj
        if 0 <= ui < h and 0 <= vi < w:
            total += wgt * img[ui, vi]
    return total


def random_transform(rng, family):
    if family == "affine":
        ang = rng.uniform(-0.5, 0.5)
        s = np.exp(rng.uniform(-0.2, 0.2))
        c, sn = s * np.cos(ang), s * np.sin(ang)
        tx, ty = rng.uniform(-0.3, 0.3, size=2)
        return Transform.affine([c, -sn, tx, sn, c, ty])
    if family == "homography":
        base = random_transform(rng, "affine").params
        proj = rng.uniform(-0.15, 0.15, size=2)
        return Transform.homography(np.concatenate([base, proj]))
    return make_tps(rng.uniform(-0.2, 0.2, size=(9, 2)))


class TestTransformConstruction:
    def test_param_counts_enforced(self):
        with pytest.raises(ValueError):
            Transform.affine([1, 0, 0, 0, 1])
        with pytest.raises(ValueError):
            Transform.homography([1, 0, 0, 0, 1, 0, 0])
        with pytest.raises(ValueError):
            make_tps(np.zeros((8, 2)))
        with pytest.raises(ValueError, match="at least 2x2"):
            make_tps(np.zeros(2), control_grid=1)

    def test_degenerate_linear_part_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            Transform.affine([1, 1, 0, 1, 1, 0])
        with pytest.raises(ValueError, match="degenerate"):
            Transform.homography([1, 0, 0, 1, 0, 0, 0, 0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Transform.affine([np.nan, 0, 0, 0, 1, 0])

    def test_params_immutable(self):
        T = Transform.identity("affine")
        with pytest.raises(ValueError):
            T.params[0] = 2.0

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(5)
        for family in ("affine", "homography", "tps"):
            T = random_transform(rng, family)
            back = Transform.from_dict(T.to_dict())
            assert back.family == T.family
            np.testing.assert_array_equal(back.params, T.params)


class TestApply:
    def test_affine_identity(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-2, 2, size=(100, 2))
        out = apply(Transform.identity("affine"), pts)
        np.testing.assert_allclose(out, pts, atol=1e-9)

    def test_every_family_identity(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.5, 1.5, size=(100, 2))
        for family in ("affine", "homography", "tps"):
            out = apply(Transform.identity(family), pts)
            np.testing.assert_allclose(out, pts, atol=1e-9, err_msg=family)

    def test_rotation_90(self):
        T = Transform.affine([0, -1, 0, 1, 0, 0])
        np.testing.assert_allclose(apply(T, [(1.0, 0.0)])[0], [0.0, 1.0], atol=1e-12)

    def test_homography_division(self):
        # x' = (x + 0.5) / (0.5x + 1) at x=1, y=0 -> 1.5 / 1.5 = 1
        T = Transform.homography([1, 0, 0.5, 0, 1, 0, 0.5, 0])
        np.testing.assert_allclose(apply(T, [(1.0, 0.0)])[0], [1.0, 0.0], atol=1e-12)

    def test_homography_singular_point_named(self):
        T = Transform.homography([1, 0, 0, 0, 1, 0, 1.0, 0])
        with pytest.raises(ValueError, match="-1"):
            apply(T, [(0.0, 0.0), (-1.0, 0.0)])

    @pytest.mark.parametrize("family", ["affine", "homography"])
    def test_apply_many_rows_equal_apply_bitwise(self, family):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-1.2, 1.2, size=(40, 2))
        params = np.array([random_transform(rng, family).params for _ in range(7)])
        xp, yp = apply_many(family, params, pts)
        assert xp.shape == yp.shape == (7, 40)
        for b, g in enumerate(params):
            np.testing.assert_array_equal(np.stack([xp[b], yp[b]], axis=1),
                                          apply(Transform(family, g), pts))

    def test_apply_many_raises_for_first_vanishing_row(self):
        pts = np.array([(0.0, 0.0), (-1.0, 0.0), (0.5, 0.0)])
        good = [1, 0, 0, 0, 1, 0, 0.1, 0]
        rows = [good, [1, 0, 0, 0, 1, 0, -2.0, 0], [1, 0, 0, 0, 1, 0, 1.0, 0]]
        with pytest.raises(ValueError) as single:
            apply(Transform.homography(rows[1]), pts)
        with pytest.raises(ValueError) as many:
            apply_many("homography", np.array(rows), pts)
        assert str(many.value) == str(single.value)
        assert "(0.5, 0)" in str(many.value)
        with pytest.raises(ValueError, match="affine or homography"):
            apply_many("tps", np.zeros((1, 18)), pts)

    def test_bad_point_shapes(self):
        T = Transform.identity("affine")
        with pytest.raises(ValueError):
            apply(T, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            apply(T, [(np.inf, 0.0)])


class TestTps:
    def test_zero_displacement_identity(self):
        T = make_tps(np.zeros(18))
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1.3, 1.3, size=(1000, 2))
        np.testing.assert_allclose(apply(T, pts), pts, atol=1e-9)

    def test_uniform_displacement_is_translation(self):
        delta = 0.17
        T = make_tps(np.full((9, 2), delta))
        rng = np.random.default_rng(10)
        pts = rng.uniform(-1, 1, size=(200, 2))
        np.testing.assert_allclose(apply(T, pts), pts + delta, atol=1e-9)

    def test_interpolates_control_targets(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            disp = rng.uniform(-0.4, 0.4, size=(9, 2))
            T = make_tps(disp)
            ctrl = tps_control_points(3)
            out = apply(T, ctrl)
            np.testing.assert_allclose(out, ctrl + disp, atol=1e-9)

    def test_affine_consistent_displacements_reduce_to_affine(self):
        # displacements sampled from an affine map solve with zero kernel weights
        A = np.array([[1.1, 0.2], [-0.1, 0.9]])
        b = np.array([0.05, -0.1])
        ctrl = tps_control_points(3)
        disp = ctrl @ A.T + b - ctrl
        T = make_tps(disp)
        rng = np.random.default_rng(12)
        pts = rng.uniform(-1.5, 1.5, size=(300, 2))
        np.testing.assert_allclose(apply(T, pts), pts @ A.T + b, atol=1e-9)

    def test_control_grid_parameter(self):
        T = make_tps(np.zeros((16, 2)), control_grid=4)
        assert T.params.size == 32
        pts = np.random.default_rng(13).uniform(-1, 1, size=(50, 2))
        np.testing.assert_allclose(apply(T, pts), pts, atol=1e-9)


class TestTpsLinearMap:
    """The cached cardinal map against the per-transform solve it replaced."""

    @pytest.mark.parametrize("control_grid", [3, 4])
    def test_apply_matches_per_transform_solve(self, control_grid):
        rng = np.random.default_rng(40 + control_grid)
        pts = np.vstack([rng.uniform(-1, 1, size=(200, 2)), rng.uniform(-3, 3, size=(200, 2))])
        assert (np.abs(pts) > 1).any()
        for _ in range(10):
            disp = rng.uniform(-0.3, 0.3, size=(control_grid**2, 2))
            T = make_tps(disp, control_grid=control_grid)
            np.testing.assert_allclose(
                apply(T, pts), tps_apply_reference(disp, pts, control_grid), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("control_grid", [3, 4])
    def test_jacobian_is_the_cardinal_matrix(self, control_grid):
        rng = np.random.default_rng(50 + control_grid)
        pts = rng.uniform(-1.5, 1.5, size=(60, 2))
        T = make_tps(rng.uniform(-0.3, 0.3, size=(control_grid**2, 2)), control_grid=control_grid)
        H = tps_cardinal_reference(pts, control_grid)
        np.testing.assert_array_equal(tps_cardinal_values(pts, control_grid), H)
        jac = jacobian_many(T, pts)
        np.testing.assert_array_equal(jac[:, 0::2, 0], H)
        np.testing.assert_array_equal(jac[:, 1::2, 1], H)
        assert not jac[:, 1::2, 0].any() and not jac[:, 0::2, 1].any()


class TestParametricFixedValues:
    """Affine and homography maps on dyadic inputs, where every result is exact."""

    AFFINE_PTS = np.array([(0, 0), (1, -1), (-2, 0.5), (4, 2)], dtype=float)
    HOMOGRAPHY_PTS = np.array([(0, 0), (4, 0), (0, -1), (2, 1)], dtype=float)
    AFFINE = Transform.affine([0.5, -0.25, 0.125, 0.75, 1.5, -0.5])
    HOMOGRAPHY = Transform.homography([1, 0.5, -0.25, -0.5, 2, 0.75, 0.25, 0.5])

    def test_affine(self):
        expected = [[0.125, -0.5], [0.875, -1.25], [-1.0, -1.25], [1.625, 5.5]]
        assert np.array_equal(apply(self.AFFINE, self.AFFINE_PTS), expected)
        xp, yp = apply_many("affine", self.AFFINE.params[None], self.AFFINE_PTS)
        assert np.array_equal(np.stack([xp[0], yp[0]], axis=1), expected)
        jac = jacobian_many(self.AFFINE, self.AFFINE_PTS)
        x, y = self.AFFINE_PTS.T
        one, zero = np.ones(4), np.zeros(4)
        assert np.array_equal(jac[:, :, 0], np.stack([x, y, one, zero, zero, zero], axis=1))
        assert np.array_equal(jac[:, :, 1], np.stack([zero, zero, zero, x, y, one], axis=1))

    def test_homography(self):
        expected = [[-0.25, 0.75], [1.875, -0.625], [-1.5, -2.5], [1.125, 0.875]]
        assert np.array_equal(apply(self.HOMOGRAPHY, self.HOMOGRAPHY_PTS), expected)
        xp, yp = apply_many("homography", self.HOMOGRAPHY.params[None], self.HOMOGRAPHY_PTS)
        assert np.array_equal(np.stack([xp[0], yp[0]], axis=1), expected)
        jac = jacobian_many(self.HOMOGRAPHY, self.HOMOGRAPHY_PTS)
        assert np.array_equal(jac[:, :, 0], [
            [0, 0, 1, 0, 0, 0, 0, 0],
            [2, 0, 0.5, 0, 0, 0, -3.75, 0],
            [0, -2, 2, 0, 0, 0, 0, -3],
            [1, 0.5, 0.5, 0, 0, 0, -1.125, -0.5625],
        ])
        assert np.array_equal(jac[:, :, 1], [
            [0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 2, 0, 0.5, 1.25, 0],
            [0, 0, 0, 0, -2, 2, 0, -5],
            [0, 0, 0, 1, 0.5, 0.5, -0.875, -0.4375],
        ])

    def test_homography_vanishing_denominator(self):
        pts = np.array([(1.0, 0.0), (0.0, -2.0)])
        message = "homography denominator ~ 0 at point (0, -2)"
        for call in (
            lambda: apply(self.HOMOGRAPHY, pts),
            lambda: apply_many("homography", self.HOMOGRAPHY.params[None], pts),
            lambda: jacobian_many(self.HOMOGRAPHY, pts),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message


class TestJacobian:
    def test_affine_linear_form(self):
        T = random_transform(np.random.default_rng(14), "affine")
        x, y = 0.3, -0.7
        jac = jacobian_many(T, np.array([[x, y]]))[0]
        np.testing.assert_array_equal(jac[:, 0], [x, y, 1, 0, 0, 0])
        np.testing.assert_array_equal(jac[:, 1], [0, 0, 0, x, y, 1])

    def test_tps_columns_independent_of_g(self):
        rng = np.random.default_rng(15)
        pts = rng.uniform(-1, 1, size=(30, 2))
        j1 = jacobian_many(random_transform(rng, "tps"), pts)
        j2 = jacobian_many(random_transform(rng, "tps"), pts)
        np.testing.assert_allclose(j1, j2, atol=1e-12)

    def test_all_families_match_finite_differences(self):
        rng = np.random.default_rng(16)
        for family in ("affine", "homography", "tps"):
            for _ in range(10):
                T = random_transform(rng, family)
                pt = rng.uniform(-1, 1, size=2)
                analytic = jacobian_many(T, pt[None])[0]
                numeric = fd_jacobian(family, T.params, pt)
                scale = np.abs(numeric).max() + 1.0
                np.testing.assert_allclose(
                    analytic, numeric, atol=1e-5 * scale, err_msg=family
                )

    def test_jacobian_many_matches_single(self):
        rng = np.random.default_rng(17)
        T = random_transform(rng, "homography")
        pts = rng.uniform(-1, 1, size=(9, 2))
        stack = jacobian_many(T, pts)
        for n, pt in enumerate(pts):
            np.testing.assert_allclose(stack[n], jacobian_many(T, pt[None])[0], atol=1e-12)


class TestBilinearSample:
    def test_integer_nodes_exact(self):
        rng = np.random.default_rng(18)
        img = rng.normal(size=(6, 9))
        uu, vv = np.meshgrid(np.arange(6.0), np.arange(9.0), indexing="ij")
        out = bilinear_sample(img, np.stack([uu, vv], axis=-1))
        np.testing.assert_array_equal(out, img)

    def test_center_of_2x2_is_mean(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = bilinear_sample(img, np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(out, [2.5], atol=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(19)
        img = rng.normal(size=(7, 5))
        pts = rng.uniform(-2, 8, size=(200, 2))
        out = bilinear_sample(img, pts)
        ref = [bilinear_scalar(img, u, v) for u, v in pts]
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_zero_padding(self):
        img = np.ones((4, 4))
        pts = np.array([[-1.0, 0.0], [0.0, -1.0], [5.0, 2.0], [2.0, 7.5]])
        np.testing.assert_array_equal(bilinear_sample(img, pts), np.zeros(4))
        # straddling the border blends with zero
        np.testing.assert_allclose(bilinear_sample(img, np.array([[-0.5, 1.0]])), [0.5])

    def test_exact_on_bilinear_functions(self):
        rng = np.random.default_rng(20)
        a, b, g = rng.normal(size=3)
        ii, jj = np.meshgrid(np.arange(8.0), np.arange(6.0), indexing="ij")
        img = a * ii + b * jj + g
        pts = rng.uniform([0, 0], [7, 5], size=(300, 2))
        out = bilinear_sample(img, pts)
        np.testing.assert_allclose(out, a * pts[:, 0] + b * pts[:, 1] + g, atol=1e-12)

    def test_non_finite_coords_rejected(self):
        with pytest.raises(ValueError):
            bilinear_sample(np.ones((3, 3)), np.array([[np.nan, 0.0]]))


class TestBilinearBackward:
    def test_grad_img_matches_fd(self):
        rng = np.random.default_rng(21)
        img = rng.normal(size=(5, 6))
        pts = rng.uniform(-0.5, 5.5, size=(40, 2))
        up = rng.normal(size=40)
        grad_img, _ = bilinear_sample_backward(img, pts, up)
        step = 1e-6
        for _ in range(25):
            r, c = rng.integers(0, 5), rng.integers(0, 6)
            hi, lo = img.copy(), img.copy()
            hi[r, c] += step
            lo[r, c] -= step
            fd = (np.sum(up * bilinear_sample(hi, pts)) - np.sum(up * bilinear_sample(lo, pts))) / (2 * step)
            np.testing.assert_allclose(grad_img[r, c], fd, atol=1e-6)

    def test_grad_coords_matches_fd_away_from_knots(self):
        rng = np.random.default_rng(22)
        img = rng.normal(size=(6, 6))
        # keep fractional parts >= 0.05 from the knot lattice
        pts = rng.integers(0, 5, size=(60, 2)) + rng.uniform(0.1, 0.9, size=(60, 2))
        up = rng.normal(size=60)
        _, grad_coords = bilinear_sample_backward(img, pts, up)
        step = 1e-6
        fd = np.zeros_like(pts)
        for n in range(60):
            for axis in range(2):
                hi, lo = pts.copy(), pts.copy()
                hi[n, axis] += step
                lo[n, axis] -= step
                fd[n, axis] = (
                    np.sum(up * bilinear_sample(img, hi)) - np.sum(up * bilinear_sample(img, lo))
                ) / (2 * step)
        err = np.abs(grad_coords - fd) / (np.abs(fd) + 1e-8)
        assert np.quantile(err, 0.99) <= 1e-4

    def test_stack_matches_loop(self):
        rng = np.random.default_rng(23)
        imgs = rng.normal(size=(10, 4, 5))
        pts = rng.uniform(-1, 6, size=(13, 2))
        stacked = bilinear_sample_stack(imgs, pts)
        for n in range(10):
            np.testing.assert_allclose(stacked[n], bilinear_sample(imgs[n], pts), atol=1e-12)

    def test_stack_grad_consistent_with_backward(self):
        rng = np.random.default_rng(24)
        imgs = rng.normal(size=(6, 5, 5))
        pts = rng.integers(0, 4, size=(11, 2)) + rng.uniform(0.2, 0.8, size=(11, 2))
        vals, d_du, d_dv = bilinear_sample_stack_grad(imgs, pts)
        for n in range(6):
            np.testing.assert_allclose(vals[n], bilinear_sample(imgs[n], pts), atol=1e-12)
            _, gc = bilinear_sample_backward(imgs[n], pts, np.ones(11))
            np.testing.assert_allclose(d_du[n], gc[:, 0], atol=1e-12)
            np.testing.assert_allclose(d_dv[n], gc[:, 1], atol=1e-12)


def reference_points(rng, h, w):
    """(u, v) points of every kind the sampler distinguishes, on an h x w image."""
    knots = np.stack(np.meshgrid(np.arange(-1.0, h + 1), np.arange(-1.0, w + 1), indexing="ij"), -1)
    knots = knots.reshape(-1, 2)
    return np.concatenate([
        rng.uniform([-2.0, -2.0], [h + 1.0, w + 1.0], size=(300, 2)),  # random, some off-grid
        knots,  # on knots, including the zero border's
        knots + rng.choice([-1e-10, 1e-10], size=knots.shape),  # snapped onto the knot
        knots + rng.choice([-1e-8, 1e-8], size=knots.shape),  # straddling it
        rng.uniform([-1.0, 0.0], [0.0, w - 1.0], size=(40, 2)),  # partly off the top
        rng.uniform([0.0, w - 1.0], [h - 1.0, w], size=(40, 2)),  # partly off the right
        rng.uniform([h, -50.0], [h + 50.0, w + 50.0], size=(40, 2)),  # wholly off-grid
        rng.uniform([-50.0, -50.0], [-1.0, -1.0], size=(40, 2)),
    ])


def reference_warp(img, T, tgt_shape):
    """Bilinear samples of ``img`` at ``T``'s source points of a target grid,
    mapped cell by cell as the callers did before ``transform_sampling_grid``."""
    th, tw = tgt_shape
    rr, cc = np.meshgrid(np.arange(th), np.arange(tw), indexing="ij")
    x, y = cells_to_normalized(rr.ravel(), cc.ravel(), th, tw)
    mapped = apply(T, np.stack([x, y], axis=1))
    u, v = normalized_to_cells(mapped[:, 0], mapped[:, 1], *img.shape)
    return bilinear_sample_reference(img, np.stack([u, v], axis=1).reshape(th, tw, 2))


class TestPaddedSamplerMatchesReference:
    SHAPES = [(2, 2), (2, 9), (9, 2), (5, 7), (16, 11)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sample_exact(self, shape):
        rng = np.random.default_rng(sum(shape))
        img = rng.normal(size=shape)
        pts = reference_points(rng, *shape)
        assert np.array_equal(bilinear_sample(img, pts), bilinear_sample_reference(img, pts))
        grid = pts[:288].reshape(12, 24, 2)
        assert np.array_equal(bilinear_sample(img, grid), bilinear_sample_reference(img, grid))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_backward_matches(self, shape):
        rng = np.random.default_rng(100 + sum(shape))
        img = rng.normal(size=shape)
        pts = reference_points(rng, *shape)
        up = rng.normal(size=len(pts))
        grad_img, grad_coords = bilinear_sample_backward(img, pts, up)
        ref_img, ref_coords = bilinear_sample_backward_reference(img, pts, up)
        assert np.array_equal(grad_coords, ref_coords)
        np.testing.assert_allclose(grad_img, ref_img, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_render_warped_and_mask_iou_byte_identical(self, seed):
        family = ("affine", "tps", "affine")[seed]
        pair = synth_pair(synthetic_image(seed, 48, 56), family, 1.0, 8, 8, seed=seed)
        src, tgt = pair.source_image, pair.target_image
        ref = np.clip(reference_warp(src.data, pair.gt, src.data.shape), 0.0, 1.0)
        assert render_warped(src, pair.gt).data.tobytes() == ref.tobytes()

        src_mask = GrayImage((src.data >= 0.5).astype(np.float64))
        for tgt_mask in (
            GrayImage((tgt.data >= 0.5).astype(np.float64)),
            GrayImage((tgt.data[:40, 8:] >= 0.5).astype(np.float64)),  # other target shape
        ):
            warped = reference_warp(src_mask.data, pair.gt, tgt_mask.data.shape) >= 0.5
            tgt_on = tgt_mask.data >= 0.5
            union = np.count_nonzero(warped | tgt_on)
            expected = np.count_nonzero(warped & tgt_on) / union, False
            assert mask_iou(src_mask, tgt_mask, pair.gt) == expected


class TestTransformSamplingGrid:
    def test_identity_gives_cell_centers(self):
        sg = transform_sampling_grid(Transform.identity("affine"), (4, 6))
        uu, vv = np.meshgrid(np.arange(4.0), np.arange(6.0), indexing="ij")
        np.testing.assert_allclose(sg[..., 0], uu, atol=1e-12)
        np.testing.assert_allclose(sg[..., 1], vv, atol=1e-12)

    def test_translation_shifts_uniformly(self):
        # normalized translation of 2/(w-1) is one grid column
        h, w = 5, 5
        T = Transform.affine([1, 0, 2.0 / (w - 1), 0, 1, 0])
        sg = transform_sampling_grid(T, (h, w))
        np.testing.assert_allclose(sg[..., 1][:, 0], 1.0, atol=1e-12)
