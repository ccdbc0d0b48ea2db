"""StencilExpr (general tap expression) tests."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StencilDefinitionError
from repro.stencils.expr import OutputSpec, StencilExpr, Tap, symmetric_expr
from repro.stencils.spec import default_coefficients


def simple_expr() -> StencilExpr:
    taps = (
        Tap(grid=0, offset=(0, 0, 0), coeff=0.5),
        Tap(grid=0, offset=(1, 0, 0), coeff=0.25),
        Tap(grid=0, offset=(0, 0, -2), coeff=0.25),
    )
    return StencilExpr(name="t", n_grids=1, outputs=(OutputSpec("o", taps),))


class TestTapValidation:
    def test_requires_exactly_one_coefficient_kind(self):
        with pytest.raises(StencilDefinitionError):
            Tap(grid=0, offset=(0, 0, 0))
        with pytest.raises(StencilDefinitionError):
            Tap(grid=0, offset=(0, 0, 0), coeff=1.0, coeff_grid=1)

    def test_rejects_negative_grid(self):
        with pytest.raises(StencilDefinitionError):
            Tap(grid=-1, offset=(0, 0, 0), coeff=1.0)

    def test_rejects_bad_offset(self):
        with pytest.raises(StencilDefinitionError):
            Tap(grid=0, offset=(0, 0), coeff=1.0)  # type: ignore[arg-type]


class TestExprValidation:
    def test_tap_grid_out_of_range(self):
        taps = (Tap(grid=1, offset=(0, 0, 0), coeff=1.0),)
        with pytest.raises(StencilDefinitionError):
            StencilExpr(name="x", n_grids=1, outputs=(OutputSpec("o", taps),))

    def test_coeff_grid_out_of_range(self):
        taps = (Tap(grid=0, offset=(0, 0, 0), coeff_grid=3),)
        with pytest.raises(StencilDefinitionError):
            StencilExpr(name="x", n_grids=1, outputs=(OutputSpec("o", taps),))

    def test_needs_outputs(self):
        with pytest.raises(StencilDefinitionError):
            StencilExpr(name="x", n_grids=1, outputs=())

    def test_output_needs_taps(self):
        with pytest.raises(StencilDefinitionError):
            OutputSpec("o", ())


class TestGeometry:
    def test_halo_extent_per_axis(self):
        expr = simple_expr()
        assert expr.halo_extent(0) == (1, 0, 2)

    def test_radius(self):
        assert simple_expr().radius() == 2

    def test_z_extent_back_and_forward(self):
        expr = simple_expr()
        assert expr.z_extent(0) == (2, 0)

    def test_stenciled_vs_coefficient_grids(self):
        taps = (
            Tap(grid=0, offset=(1, 0, 0), coeff_grid=1),
            Tap(grid=2, offset=(0, 0, 0), coeff=1.0),
        )
        expr = StencilExpr(name="x", n_grids=3, outputs=(OutputSpec("o", taps),))
        assert expr.stenciled_grids() == [0]
        assert set(expr.coefficient_grids()) == {1, 2}

    def test_mem_refs_dedups_repeated_taps(self):
        taps = (
            Tap(grid=0, offset=(0, 0, 0), coeff=1.0),
            Tap(grid=0, offset=(0, 0, 0), coeff=2.0),
        )
        expr = StencilExpr(name="x", n_grids=1, outputs=(OutputSpec("o", taps),))
        # one distinct read + one write
        assert expr.mem_refs_per_point() == 2


class TestSymmetricLowering:
    @given(radius=st.integers(1, 6))
    def test_tap_count(self, radius):
        expr = symmetric_expr(2 * radius, default_coefficients(radius))
        assert len(expr.all_taps()) == 6 * radius + 1

    @given(radius=st.integers(1, 6))
    def test_extent_matches(self, radius):
        expr = symmetric_expr(2 * radius, default_coefficients(radius))
        assert expr.halo_extent(0) == (radius, radius, radius)
        assert expr.radius() == radius

    @given(radius=st.integers(1, 6))
    def test_mem_refs_match_closed_form(self, radius):
        expr = symmetric_expr(2 * radius, default_coefficients(radius))
        assert expr.mem_refs_per_point() == 6 * radius + 2


def _scan_halo(expr: StencilExpr, grid: int) -> tuple[int, int, int]:
    """Reference: max |offset| per axis, rescanning every tap."""
    ext = [0, 0, 0]
    for tap in expr.all_taps():
        if tap.grid == grid:
            for axis in range(3):
                ext[axis] = max(ext[axis], abs(tap.offset[axis]))
    return (ext[0], ext[1], ext[2])


def _scan_z(expr: StencilExpr, grid: int) -> tuple[int, int]:
    """Reference: (max backward, max forward) z reach, rescanning."""
    back = fwd = 0
    for tap in expr.all_taps():
        if tap.grid == grid:
            back = max(back, -tap.offset[2])
            fwd = max(fwd, tap.offset[2])
    return (back, fwd)


@st.composite
def exprs(draw) -> StencilExpr:
    """Random expressions; grids past ``tapped`` are declared, never read."""
    tapped = draw(st.integers(1, 3))
    n_grids = tapped + draw(st.integers(0, 2))
    offsets = st.tuples(*(st.integers(-4, 4),) * 3)

    def tap(grid: int, offset: tuple[int, int, int], by_grid: bool) -> Tap:
        if by_grid:
            return Tap(grid=grid, offset=offset, coeff_grid=n_grids - 1)
        return Tap(grid=grid, offset=offset, coeff=0.5)

    taps = st.builds(tap, st.integers(0, tapped - 1), offsets, st.booleans())
    outputs = draw(st.lists(st.lists(taps, min_size=1, max_size=6),
                            min_size=1, max_size=3))
    return StencilExpr(
        name="rand",
        n_grids=n_grids,
        outputs=tuple(OutputSpec(f"o{i}", tuple(t)) for i, t in enumerate(outputs)),
    )


class TestCachedGeometry:
    """The per-expression geometry is computed once and must equal a
    fresh scan of the taps on every grid, tapped or not."""

    @given(expr=exprs())
    def test_cached_geometry_matches_fresh_scan(self, expr):
        for _ in range(2):  # first call fills the cache, second reads it
            for g in range(expr.n_grids):
                assert expr.halo_extent(g) == _scan_halo(expr, g)
                assert expr.z_extent(g) == _scan_z(expr, g)
            assert expr.radius() == max(
                max(_scan_halo(expr, g)) for g in range(expr.n_grids)
            )

    def test_untapped_grid_has_no_extent(self):
        taps = (Tap(grid=0, offset=(2, -1, 3), coeff=1.0),)
        expr = StencilExpr(name="x", n_grids=2, outputs=(OutputSpec("o", taps),))
        assert expr.halo_extent(1) == (0, 0, 0)
        assert expr.z_extent(1) == (0, 0)
        assert expr.halo_extent(0) == (2, 1, 3)
        assert expr.z_extent(0) == (0, 3)
        assert expr.radius() == 3

    @given(expr=exprs())
    def test_equality_hash_and_pickle_ignore_the_cache(self, expr):
        twin = copy.deepcopy(expr)
        cold = pickle.dumps(expr)
        expr.radius()  # fill the cache on one side only
        assert expr == twin
        assert hash(expr) == hash(twin)
        assert pickle.dumps(expr) == cold == pickle.dumps(twin)
        clone = pickle.loads(pickle.dumps(expr))
        assert clone == expr
        assert "_geometry" not in vars(clone)
        assert clone.radius() == expr.radius()
