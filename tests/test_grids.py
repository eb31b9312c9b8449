import numpy as np
import pytest

from softalign.grids import (
    FeatureGrid,
    Tensor4,
    cells_to_normalized,
    l2_normalize,
    normalized_to_cells,
    read_fgrid,
    write_fgrid,
)


class TestFeatureGrid:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            FeatureGrid(np.zeros((1, 4, 3)))
        with pytest.raises(ValueError):
            FeatureGrid(np.zeros((4, 1, 3)))
        with pytest.raises(ValueError):
            FeatureGrid(np.zeros((4, 4)))

    def test_casts_to_float64(self):
        g = FeatureGrid(np.ones((2, 2, 1), dtype=np.float32))
        assert g.data.dtype == np.float64

    def test_empty_mask_flags_zero_cells(self):
        data = np.zeros((3, 3, 4))
        data[1, 2] = [1.0, 0.0, 0.0, 0.0]
        g = FeatureGrid(data)
        mask = g.empty_mask()
        assert not mask[1, 2]
        assert mask.sum() == 8


class TestL2Normalize:
    def test_unit_norms(self):
        rng = np.random.default_rng(0)
        g = l2_normalize(FeatureGrid(rng.normal(size=(5, 7, 16))))
        np.testing.assert_allclose(g.norms(), 1.0, atol=1e-12)
        assert g.is_normalized()

    def test_zero_cells_stay_zero(self):
        data = np.zeros((2, 2, 3))
        data[0, 0] = [3.0, 4.0, 0.0]
        g = l2_normalize(FeatureGrid(data))
        np.testing.assert_allclose(g.data[0, 0], [0.6, 0.8, 0.0])
        assert np.all(g.data[1, 1] == 0.0)
        assert g.is_normalized()

    def test_direction_preserved(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(4, 4, 8))
        g = l2_normalize(FeatureGrid(raw))
        # each normalized cell is a positive multiple of the raw cell
        cos = np.sum(g.data * raw, axis=2) / np.linalg.norm(raw, axis=2)
        np.testing.assert_allclose(cos, 1.0, atol=1e-12)

    def test_rejects_non_finite_naming_cell(self):
        data = np.ones((3, 3, 2))
        data[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match=r"\(2, 1\)"):
            l2_normalize(FeatureGrid(data))


class TestCoordinateConvention:
    def test_corners_map_to_unit_square(self):
        h, w = 7, 11
        xs, ys = cells_to_normalized([0, h - 1, 0], [0, w - 1, w - 1], h, w)
        assert xs.tolist() == [-1.0, 1.0, 1.0]
        assert ys.tolist() == [-1.0, 1.0, -1.0]

    def test_center_of_odd_grid(self):
        x, y = cells_to_normalized(2, 2, 5, 5)
        assert (float(x), float(y)) == (0.0, 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            h, w = rng.integers(2, 40, size=2)
            i, j = rng.uniform(-3, 40, size=2)
            x, y = cells_to_normalized(i, j, h, w)
            back = normalized_to_cells(x, y, h, w)
            np.testing.assert_allclose(back, [i, j], atol=1e-12)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        h, w = 9, 13
        ii = rng.uniform(0, h - 1, size=20)
        jj = rng.uniform(0, w - 1, size=20)
        xs, ys = cells_to_normalized(ii, jj, h, w)
        for n in range(20):
            x, y = cells_to_normalized(ii[n], jj[n], h, w)
            assert (xs[n], ys[n]) == (x, y) == (-1.0 + 2.0 * jj[n] / (w - 1), -1.0 + 2.0 * ii[n] / (h - 1))
        uu, vv = normalized_to_cells(xs, ys, h, w)
        for n in range(20):
            assert (uu[n], vv[n]) == normalized_to_cells(xs[n], ys[n], h, w)
        np.testing.assert_allclose(uu, ii, atol=1e-12)
        np.testing.assert_allclose(vv, jj, atol=1e-12)

    def test_degenerate_dims_rejected(self):
        with pytest.raises(ValueError, match="at least 2x2"):
            cells_to_normalized(0, 0, 1, 5)
        with pytest.raises(ValueError, match="at least 2x2"):
            normalized_to_cells(0.0, 0.0, 5, 1)


class TestTensor4:
    def test_validates(self):
        Tensor4(np.zeros((2, 3, 4, 5)))
        with pytest.raises(ValueError):
            Tensor4(np.zeros((2, 3, 4)))
        bad = np.zeros((2, 2, 2, 2))
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            Tensor4(bad)


class TestFgridFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        grid = FeatureGrid(rng.normal(size=(6, 5, 9)) * 10.0 ** rng.integers(-8, 8))
        path = tmp_path / "g.fgrid"
        write_fgrid(grid, path)
        back = read_fgrid(path)
        assert back.data.shape == grid.data.shape
        assert np.array_equal(back.data, grid.data)  # exact, not approximate

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.fgrid"
        path.write_text(
            "# leading comment\n\nFGRID 2 2 1\n1.0\n# interior\n2.0\n\n3.0\n4.0\n"
        )
        g = read_fgrid(path)
        np.testing.assert_array_equal(g.data[:, :, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_header_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "g.fgrid"
        path.write_text("# c\nFGRID 2 2\n")
        with pytest.raises(ValueError, match="line 2"):
            read_fgrid(path)

    def test_bad_value_line_number(self, tmp_path):
        path = tmp_path / "g.fgrid"
        path.write_text("FGRID 2 2 1\n1.0\nnope\n3.0\n4.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_fgrid(path)

    def test_wrong_cardinality(self, tmp_path):
        path = tmp_path / "g.fgrid"
        path.write_text("FGRID 2 2 1\n1.0\n2.0\n3.0\n")
        with pytest.raises(ValueError, match="expected 4 data rows"):
            read_fgrid(path)
        path.write_text("FGRID 2 2 2\n1.0\n2.0 0.0\n3.0 0.0\n4.0 0.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_fgrid(path)

    def test_non_finite_rejected_both_ways(self, tmp_path):
        path = tmp_path / "g.fgrid"
        path.write_text("FGRID 2 2 1\n1.0\ninf\n3.0\n4.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_fgrid(path)
        bad = np.ones((2, 2, 1))
        bad[1, 0, 0] = np.inf
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            write_fgrid(FeatureGrid(bad), tmp_path / "h.fgrid")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.fgrid"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            read_fgrid(path)
