import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    holder_norm,
    locate_searchsorted,
    p_variation,
    p_variation_suffixes_dense,
    restrict,
    superadditivity_defect,
    uniform_norm,
)

from youngbsde import paths
from youngbsde.paths import (
    SamplePath,
    TimeGrid,
    aligned_index,
    dyadic_blocks,
    dyadic_interp,
    locate,
    p_variation_brute_force,
    p_variation_suffixes,
)


def path_on_unit_grid(values):
    values = np.asarray(values, dtype=float)
    return SamplePath(TimeGrid(np.linspace(0, 1, values.shape[0])), values)


def pvar_control(path, p):
    """w(s, t) = ||path||_{p-var;[s,t]}^p, a control for p >= 1."""
    return lambda s, t: p_variation(restrict(path, (s, t)), p) ** p if t > s else 0.0


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(np.array([0.5, np.inf]))
        # a grid may start at any finite time
        np.testing.assert_array_equal(TimeGrid(np.array([0.5, 1.0])).points, [0.5, 1.0])
        np.testing.assert_array_equal(TimeGrid(np.array([-1.0, 0.0])).dt, [1.0])

    def test_index_of_misaligned(self):
        g = TimeGrid.uniform(1.0, 4)
        assert aligned_index(g.points, 0.25) == 1
        with pytest.raises(ValueError, match="misaligned interval"):
            aligned_index(g.points, 0.3)

    def test_refine_dyadic(self):
        g = TimeGrid(np.array([0.0, 0.5, 1.0]))
        f = g.refine(2)
        assert f.n == 9
        np.testing.assert_allclose(f.points[::4], g.points)


class TestDyadicInterp:
    """The dyadic kernel against np.interp at the refined grid's points."""

    @pytest.mark.parametrize("level", range(7))
    def test_matches_np_interp(self, level):
        rng = np.random.default_rng(level)
        for n in (2, 3, 17, 65):
            uneven = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))])
            for pts in (np.linspace(0.0, 1.0, n), uneven / uneven[-1]):
                grid = TimeGrid(pts)
                v = np.cumsum(rng.standard_normal((n, 3)), axis=0)
                fine = grid.refine(level).points
                want = np.column_stack([np.interp(fine, pts, v[:, j]) for j in range(3)])
                got = dyadic_interp(v, level)
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(v)))
                np.testing.assert_allclose(
                    dyadic_interp(v[:, 1], level), want[:, 1], rtol=0,
                    atol=1e-14 * np.max(np.abs(v)),
                )
                np.testing.assert_array_equal(got[:: 2**level], v)

    @pytest.mark.parametrize("level", range(7))
    def test_grid_points_bitwise(self, level):
        # on a grid's own points the kernel is the split a + j (b - a) / 2^l
        pts = np.concatenate([[0.0], np.cumsum(np.random.default_rng(9).uniform(0.1, 1.0, 20))])
        k = 2**level
        want = (pts[:-1, None] + (np.diff(pts) / k)[:, None] * np.arange(k)).ravel()
        np.testing.assert_array_equal(dyadic_interp(pts, level), np.append(want, pts[-1]))


class TestDyadicBlocks:
    """The block walk against the rows of the whole refinement, bitwise."""

    @staticmethod
    def _walk(level, *values):
        # each block's first base cell and rows, checked to be whole cells
        # that follow on from the previous block
        k, out, nxt = 2**level, [], 0
        for c, blocks in dyadic_blocks(level, *values):
            assert c == nxt and len(blocks) == len(values)
            m, rem = divmod(blocks[0].shape[0] - 1, k)
            assert m >= 1 and rem == 0
            assert all(b.shape[0] == m * k + 1 for b in blocks)
            out.append((c, m, blocks))
            nxt = c + m
        assert nxt == values[0].shape[0] - 1
        return out

    @pytest.mark.parametrize("level", [0, 1, 3])
    def test_rows_bitwise_with_a_ragged_last_block(self, monkeypatch, level):
        # blocks of 4 base cells over 13: three whole blocks and a block of 1
        monkeypatch.setattr(paths, "_BLOCK_CELLS", 4 * 2**level)
        rng = np.random.default_rng(level)
        pts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 13))])
        scalar = rng.standard_normal(14)
        # base point 4 ends block 0 and starts block 1; the whole refinement
        # gives it as 0 (v_5 - v_4) + v_4, which is +0.0
        scalar[4:6] = -0.0, 1.0
        vector = rng.standard_normal((14, 3))
        walk = self._walk(level, pts, scalar, vector)
        assert [m for _, m, _ in walk] == [4, 4, 4, 1]
        k = 2**level
        for v, j in ((pts, 0), (scalar, 1), (vector, 2)):
            whole = dyadic_interp(v, level)
            for c, m, blocks in walk:
                assert blocks[j].tobytes() == whole[c * k : (c + m) * k + 1].tobytes()

    def test_a_cell_finer_than_a_block_is_its_own_block(self, monkeypatch):
        monkeypatch.setattr(paths, "_BLOCK_CELLS", 8)
        v = np.cumsum(np.random.default_rng(3).standard_normal((6, 2)), axis=0)
        walk = self._walk(5, v)
        assert [m for _, m, _ in walk] == [1] * 5
        whole = dyadic_interp(v, 5)
        for c, _, (block,) in walk:
            assert block.tobytes() == whole[c * 32 : (c + 1) * 32 + 1].tobytes()

    def test_small_refinements_fit_one_block(self):
        v = np.linspace(0.0, 1.0, 65)
        ((c, (block,)),) = dyadic_blocks(10, v)
        assert c == 0 and block.tobytes() == dyadic_interp(v, 10).tobytes()


class TestPVariation:
    def test_constant_path_zero(self):
        p = path_on_unit_grid(np.full(7, 3.2))
        for q in (1.0, 2.0, 3.5):
            assert p_variation(p, q) == 0.0

    def test_monotone_total_variation(self):
        p = path_on_unit_grid([0.0, 1.0, 3.0])
        assert p_variation(p, 1.0) == pytest.approx(3.0)

    def test_zigzag_p2(self):
        # enumerating the 4 sub-partitions of [0,1,0,1]: the full one wins with 3
        p = path_on_unit_grid([0.0, 1.0, 0.0, 1.0])
        assert p_variation(p, 2.0) == pytest.approx(np.sqrt(3.0))
        assert p_variation_brute_force(p, 2.0) == pytest.approx(np.sqrt(3.0))

    def test_invalid_exponent(self):
        p = path_on_unit_grid([0.0, 1.0])
        with pytest.raises(ValueError, match="invalid exponent"):
            p_variation(p, 0.5)

    def test_single_point_interval(self):
        p = path_on_unit_grid(np.arange(5.0))
        assert p_variation_suffixes(p.values[None, 1:2], 2.0, (0,))[0, 0] == 0.0
        assert holder_norm(p, 0.5, (0.25, 0.25)) == 0.0

    def test_dp_matches_brute_force_random(self):
        # acceptance criterion 12 at reduced size; the full run lives in test_acceptance
        rng = np.random.default_rng(7)
        for _ in range(40):
            vals = rng.standard_normal(10)
            p = path_on_unit_grid(vals)
            for q in (1.5, 2.0, 3.0):
                assert p_variation(p, q) == pytest.approx(
                    p_variation_brute_force(p, q), abs=1e-12
                )

    def test_monotonicity_in_p(self):
        rng = np.random.default_rng(3)
        p = path_on_unit_grid(rng.standard_normal(20))
        qs = [1.0, 1.5, 2.0, 3.0, 5.0]
        vals = [p_variation(p, q) for q in qs]
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))

    def test_holder_variation_bridge(self):
        # ||g||_{p-var} <= |t-s|^{1/p} ||g||_{(1/p)-Hol} on grids
        rng = np.random.default_rng(5)
        p = path_on_unit_grid(np.cumsum(rng.standard_normal(16)) * 0.1)
        for q in (2.0, 3.0):
            lhs = p_variation(p, q)
            rhs = 1.0 ** (1.0 / q) * holder_norm(p, 1.0 / q)
            assert lhs <= rhs + 1e-12


def forward_dp(values, p):
    # the forward recursion V(j) = max_{i<j} V(i) + |g_j - g_i|^p, path by path
    v = np.asarray(values, dtype=float)
    out = []
    for row in v:
        best = np.zeros(row.shape[0])
        for j in range(1, row.shape[0]):
            best[j] = np.max(best[:j] + np.abs(row[j] - row[:j]) ** p)
        out.append(best[-1] ** (1.0 / p))
    return np.array(out)


def brute_suffix(values, p, s):
    """Brute-force p-variation of values[s:]; a one-point suffix has none."""
    return p_variation_brute_force(path_on_unit_grid(values[s:]), p) if s < len(values) - 1 else 0.0


class TestSuffixDp:
    @pytest.mark.parametrize("shape", [(5, 30)])
    def test_columns_match_slices(self, shape):
        v = np.cumsum(np.random.default_rng(11).standard_normal(shape), axis=1)
        for p in (1.0, 2.5):
            suffixes = p_variation_suffixes(v, p, range(shape[1]))
            assert suffixes.shape == shape[:2]
            np.testing.assert_array_equal(suffixes[:, -1], 0.0)
            for j in range(shape[1]):
                whole = p_variation_suffixes(v[:, j:], p, (0,))[:, 0]
                np.testing.assert_array_equal(suffixes[:, j], whole)
                np.testing.assert_allclose(
                    suffixes[:, j], forward_dp(v[:, j:], p), rtol=1e-13, atol=0
                )

    @pytest.mark.parametrize("dim", [1])
    def test_matches_brute_force(self, dim):
        rng = np.random.default_rng(12)
        for n in range(2, 13):
            vals = rng.standard_normal((n, dim) if dim > 1 else n)
            for p in (1.0, 2.0, 3.5):
                got = p_variation_suffixes(vals[None], p, range(n))[0]
                want = [brute_suffix(vals, p, j) for j in range(n)]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_vector_paths_rejected(self):
        # the programme and the brute force take scalar paths only
        with pytest.raises(ValueError, match=r"scalar paths \(k, n\), got shape \(4, 10, 2\)"):
            p_variation_suffixes(np.zeros((4, 10, 2)), 2.0, (0,))
        with pytest.raises(ValueError, match=r"got shape \(10, 2\)"):
            p_variation_brute_force(path_on_unit_grid(np.zeros((10, 2))), 2.0)


def suffix_oracles(vals, p, starts):
    # forward DP on each suffix, and brute force where the grid allows it
    got = p_variation_suffixes(vals, p, starts)
    want = np.stack([forward_dp(vals[:, s:], p) for s in starts], axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    if 2 <= vals.shape[1] <= 12:
        for row, path in zip(got, vals):
            brute = [brute_suffix(path, p, s) for s in starts]
            np.testing.assert_allclose(row, brute, rtol=1e-12, atol=1e-12)
    return got


class TestTurningPointDp:
    # the scalar DP runs on turning points only; each case below has
    # partitions that need a point the turning-point test must not drop

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_plateaus_and_repeated_values(self, p):
        vals = np.array([
            [0.0, 1.0, 1.0, 0.0, 0.0, 2.0, 2.0, 2.0, -1.0, -1.0],
            [1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0],
            [5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0],
        ])
        got = suffix_oracles(vals, p, range(10))
        # [0, 1, 1, 0]: the plateau ends are needed, 1 + 1
        assert p_variation_suffixes(vals[:1, :4], p, (0,))[0, 0] == pytest.approx(2.0 ** (1 / p))
        np.testing.assert_array_equal(got[3], 0.0)

    @pytest.mark.parametrize("p", [1.0, 2.5])
    def test_strictly_monotone(self, p):
        up = np.cumsum(np.random.default_rng(40).uniform(0.1, 1.0, (3, 11)), axis=1)
        vals = np.concatenate([up, -up])
        got = suffix_oracles(vals, p, range(11))
        # one increment from the start to the end is optimal for p >= 1
        want = np.abs(vals[:, -1:] - vals)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_one_and_two_points(self, p):
        one = p_variation_suffixes(np.array([[4.0], [-1.0]]), p, (0,))
        np.testing.assert_array_equal(one, 0.0)
        two = suffix_oracles(np.array([[0.0, 3.0], [1.0, 1.0], [2.0, -0.5]]), p, (0, 1))
        np.testing.assert_array_equal(two, [[3.0, 0.0], [0.0, 0.0], [2.5, 0.0]])

    def test_total_variation_p1(self):
        rng = np.random.default_rng(41)
        vals = np.round(np.cumsum(rng.standard_normal((6, 12)), axis=1), 1)
        got = suffix_oracles(vals, 1.0, range(12))
        want = [np.abs(np.diff(vals[:, s:], axis=1)).sum(axis=1) for s in range(12)]
        np.testing.assert_allclose(got, np.stack(want, axis=1), rtol=1e-12, atol=1e-12)

    def test_unsorted_and_duplicate_starts(self):
        vals = np.cumsum(np.random.default_rng(42).standard_normal((5, 40)), axis=1)
        starts = [17, 3, 39, 3, 0, 17, 25]
        got = suffix_oracles(vals, 2.5, starts)
        full = p_variation_suffixes(vals, 2.5, range(40))
        np.testing.assert_array_equal(got, full[:, starts])

    def test_nan_inside_a_monotone_run(self):
        vals = np.array([[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]])
        vals[0, 2] = np.nan
        got = p_variation_suffixes(vals, 2.0, range(6))
        assert np.all(np.isnan(got[0, :3]))
        np.testing.assert_array_equal(got[0, 3:], [2.0, 1.0, 0.0])
        np.testing.assert_array_equal(got[1], [5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
        # a one-point suffix has no increment, even at a NaN
        vals[1, -1] = np.nan
        got = p_variation_suffixes(vals, 2.0, range(6))
        assert np.all(np.isnan(got[1, :-1])) and got[1, -1] == 0.0

    def test_starts_out_of_range(self):
        with pytest.raises(ValueError, match="starts"):
            p_variation_suffixes(np.zeros((2, 5)), 2.0, (5,))
        with pytest.raises(ValueError, match="starts"):
            p_variation_suffixes(np.zeros((2, 5)), 2.0, (-1,))

    @pytest.mark.parametrize("p", [np.nan, np.inf, 0.5, -np.inf])
    def test_invalid_exponent_everywhere(self, p):
        vals = np.array([[0.0, 2.0, 0.5, 3.0]])
        path = path_on_unit_grid(vals[0])
        for call in (
            lambda: p_variation_suffixes(vals, p, (0,)),
            lambda: p_variation(path, p),
            lambda: p_variation_brute_force(path, p),
        ):
            with pytest.raises(ValueError, match="invalid exponent"):
                call()


def dense_bitwise(vals, p, starts):
    # the alternating programme against the dense one, bit for bit
    got = p_variation_suffixes(vals, p, starts)
    np.testing.assert_array_equal(got, p_variation_suffixes_dense(vals, p, starts))
    return got


class TestAlternatingDp:
    """The scalar programme's max over every second alternating extremum
    against the dense programme over every turning point (oracles), which
    it must reproduce bit for bit: the max runs over a subset of the same
    terms that holds the optimum."""

    @pytest.mark.parametrize("p", [1.0, 2.5])
    def test_random_walks_at_diagnostics_size(self, p):
        v = np.cumsum(np.random.default_rng(50).standard_normal((4000, 129)), axis=1)
        dense_bitwise(v, p, (0, 32, 64, 96))
        dense_bitwise(v[:100], p, range(129))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_plateaus_and_repeated_values(self, p):
        vals = np.array([
            [0.0, 1.0, 1.0, 0.0, 0.0, 2.0, 2.0, 2.0, -1.0, -1.0],
            [1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0],
            [5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0],
        ])
        dense_bitwise(vals, p, range(10))

    @pytest.mark.parametrize("p", [1.0, 2.5])
    def test_starts_inside_plateaus(self, p):
        # plateaus inside a rise, at a maximum, at a minimum and at the end;
        # every start, so most fall inside one
        vals = np.array([
            [0.0, 1.0, 2.0, 2.0, 2.0, 3.0, 1.0, 1.0, 1.0, 0.0, 4.0, 4.0],
            [3.0, 3.0, 3.0, 1.0, 1.0, 2.0, 2.0, 5.0, 5.0, 5.0, -2.0, -2.0],
            [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0],
        ])
        got = dense_bitwise(vals, p, range(12))
        # from inside the last plateau nothing moves
        np.testing.assert_array_equal(got[:2, -2:], 0.0)
        ints = np.cumsum(np.random.default_rng(51).integers(-1, 2, (500, 30)), axis=1)
        dense_bitwise(ints.astype(float), p, range(30))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("p", [1.0, 2.5])
    def test_non_finite_values(self, bad, p):
        # [0, 1, 3, 2, 0, 1, 4, 5, 6, 2]: turning points at 2, 4 and 8,
        # runs through 1, 3, 5-7, and the two ends; then every position of
        # random walks, one non-finite value at a time and two in a row
        row = np.array([0.0, 1.0, 3.0, 2.0, 0.0, 1.0, 4.0, 5.0, 6.0, 2.0])
        walks = np.cumsum(np.random.default_rng(52).standard_normal((20, 10)), axis=1)
        with np.errstate(invalid="ignore"):
            for pos in range(10):
                vals = np.concatenate([row[None], walks])
                vals[:, pos] = bad
                got = dense_bitwise(vals, p, range(10))
                if np.isnan(bad):
                    # every suffix with an increment at the NaN
                    assert np.all(np.isnan(got[:, : min(pos + 1, 9)]))
                    assert np.all(np.isfinite(got[:, pos + 1 :]))
                vals[:, (pos + 1) % 10] = bad
                dense_bitwise(vals, p, range(10))

    def test_p1_plateau_inside_a_rise_takes_the_direct_increment(self):
        # at p = 1 a plateau inside a monotone run ties in exact arithmetic
        # with the direct increment; the dense programme keeps the plateau
        # and rounds (0.3 - 0.2) + (0.9 - 0.3) one ulp above 0.9 - 0.2, the
        # alternating one drops it and returns the direct increment
        vals = np.array([[0.2, 0.3, 0.3, 0.9]])
        got = p_variation_suffixes(vals, 1.0, (0,))[0, 0]
        dense = p_variation_suffixes_dense(vals, 1.0, (0,))[0, 0]
        assert got == 0.9 - 0.2 and dense == np.nextafter(got, 1.0)


class TestLocate:
    """locate against np.searchsorted (oracles), bit for bit."""

    @staticmethod
    def assert_reference(axis, c):
        want = locate_searchsorted(axis, c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, frac = locate(axis, c)
        np.testing.assert_array_equal(lo, want[0])
        np.testing.assert_array_equal(frac, want[1])

    @pytest.mark.parametrize("a, b, n", [(-2.0, 2.0, 129), (0.0, 0.5, 257), (-4.0, 4.0, 65),
                                         (0.0, 1.0, 2), (0.1, 0.7, 3), (1e3, 1e3 + 1e-6, 33)])
    def test_uniform_axes(self, a, b, n):
        axis = np.linspace(a, b, n)
        width = b - a
        rng = np.random.default_rng(n)
        c = np.concatenate([
            axis, np.nextafter(axis, np.inf), np.nextafter(axis, -np.inf),
            rng.uniform(a - width, b + width, 10_000),
            [a - width, b + width, -1e300, 1e300],
        ])
        self.assert_reference(axis, c)

    def test_non_uniform_axes(self):
        rng = np.random.default_rng(60)
        for axis in (np.sort(rng.uniform(-1.0, 1.0, 50)), np.geomspace(1e-3, 1e3, 40),
                     np.array([0.0, 1e-9, 1.0, 1.0 + 1e-12, 5.0]), np.append(np.linspace(-2, 2, 9), 7.0)):
            c = np.concatenate([axis, np.nextafter(axis, np.inf), np.nextafter(axis, -np.inf),
                                rng.uniform(axis[0] - 1.0, axis[-1] + 1.0, 5_000)])
            self.assert_reference(axis, c)

    def test_non_finite_coordinates(self):
        # the same (lo, frac) as the search, with no RuntimeWarning from
        # casting a NaN guess to an index
        for axis in (np.linspace(-2.0, 2.0, 129), np.geomspace(1.0, 10.0, 7)):
            c = np.array([np.nan, np.inf, -np.inf, axis[3], np.nan, 0.5 * (axis[0] + axis[1])])
            self.assert_reference(axis, c)

    def test_uniform_axis_never_searches(self, monkeypatch):
        rng = np.random.default_rng(61)
        axes = [np.linspace(-2.0, 2.0, 129), np.linspace(0.0, 0.5, 513)]
        cases = [(ax, np.concatenate([ax, np.nextafter(ax, np.inf), np.nextafter(ax, -np.inf),
                                      rng.uniform(-3.0, 3.0, 10_000)])) for ax in axes]
        wants = [locate_searchsorted(ax, c) for ax, c in cases]

        def boom(*args, **kwargs):
            raise AssertionError("np.searchsorted reached")

        monkeypatch.setattr(np, "searchsorted", boom)
        for (ax, c), want in zip(cases, wants):
            lo, frac = locate(ax, c)
            np.testing.assert_array_equal(lo, want[0])
            np.testing.assert_array_equal(frac, want[1])
        with pytest.raises(AssertionError, match="reached"):
            locate(np.geomspace(1.0, 1e3, 10), np.array([500.0]))


class TestHolderUniform:
    def test_linear_path(self):
        g = TimeGrid.uniform(1.0, 8)
        c = -2.5
        p = SamplePath(g, c * g.points)
        assert holder_norm(p, 1.0) == pytest.approx(abs(c))

    def test_constant(self):
        p = path_on_unit_grid(np.full(5, 1.1))
        assert holder_norm(p, 0.5) == 0.0

    def test_sqrt_path_gamma_half(self):
        g = TimeGrid.uniform(1.0, 4)
        p = SamplePath(g, np.sqrt(g.points))
        # brute force over all grid pairs: attained at pairs (0, t)
        assert holder_norm(p, 0.5) == pytest.approx(1.0)

    def test_invalid_gamma(self):
        p = path_on_unit_grid([0.0, 1.0])
        for g in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                holder_norm(p, g)

    def test_uniform_norm(self):
        p = path_on_unit_grid([-2.0, 1.0])
        assert uniform_norm(p) == 2.0

    def test_uniform_norm_sine(self):
        g = TimeGrid.uniform(1.0, 1024)
        p = SamplePath(g, np.sin(2 * np.pi * g.points))
        assert abs(uniform_norm(p) - 1.0) < 1e-4


class TestControls:
    def test_constant_path_zero_control(self):
        w = pvar_control(path_on_unit_grid(np.zeros(6)), 2.0)
        assert w(0.0, 1.0) == 0.0

    def test_identity_path_gives_length(self):
        g = TimeGrid.uniform(1.0, 10)
        w = pvar_control(SamplePath(g, g.points), 1.0)
        assert w(0.2, 0.7) == pytest.approx(0.5)

    def test_pvar_control_superadditive(self):
        rng = np.random.default_rng(11)
        p = path_on_unit_grid(np.cumsum(rng.standard_normal(12)))
        for q in (1.0, 2.0, 2.5):
            w = pvar_control(p, q)
            assert superadditivity_defect(w, p.grid) <= 1e-10

    def test_product_control_superadditive(self):
        # closure under products with exponents summing to >= 1
        rng = np.random.default_rng(13)
        g = TimeGrid.uniform(1.0, 10)
        w1 = pvar_control(SamplePath(g, np.cumsum(rng.standard_normal(11))), 2.0)
        w2 = pvar_control(SamplePath(g, np.cumsum(rng.standard_normal(11))), 3.0)
        assert superadditivity_defect(lambda s, t: w1(s, t) ** 0.4 * w2(s, t) ** 0.7, g) <= 1e-10

    def test_length_control(self):
        assert superadditivity_defect(lambda s, t: t - s, TimeGrid.uniform(1.0, 7)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.lists(st.floats(-5, 5), min_size=3, max_size=9),
        # few distinct values: plateaus, repeated extrema and ties
        st.lists(st.integers(-2, 2).map(float), min_size=3, max_size=12),
    ),
    st.floats(1.0, 4.0),
)
def test_dp_equals_enumeration_property(values, p):
    path = path_on_unit_grid(values)
    assert p_variation(path, p) == pytest.approx(
        p_variation_brute_force(path, p), rel=1e-10, abs=1e-12
    )
    starts = range(len(values))
    np.testing.assert_allclose(
        p_variation_suffixes(path.values[None], p, starts),
        p_variation_suffixes_dense(path.values[None], p, starts), rtol=1e-13, atol=0,
    )


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=4, max_size=10), st.floats(1.0, 3.0))
def test_pvar_control_superadditivity_property(values, p):
    path = path_on_unit_grid(values)
    assert superadditivity_defect(pvar_control(path, p), path.grid, max_triples=300) <= 1e-9
