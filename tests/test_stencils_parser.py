"""Stencil-DSL parser tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StencilDefinitionError
from repro.stencils.expr import symmetric_expr
from repro.stencils.parser import parse_stencil
from repro.stencils.reference import apply_expr
from repro.stencils.spec import default_coefficients


class TestBasics:
    def test_seven_point(self):
        expr, inputs = parse_stencil(
            "out[i,j,k] = 0.4 * u[i,j,k] + 0.1 * u[i-1,j,k] + 0.1 * u[i+1,j,k]"
            " + 0.1 * u[i,j-1,k] + 0.1 * u[i,j+1,k]"
            " + 0.1 * u[i,j,k-1] + 0.1 * u[i,j,k+1]"
        )
        assert inputs == ["u"]
        assert expr.n_grids == 1
        assert len(expr.outputs[0].taps) == 7
        assert expr.radius() == 1

    def test_coefficient_before_or_after(self):
        a, _ = parse_stencil("o[i,j,k] = 2.0 * u[i,j,k]")
        b, _ = parse_stencil("o[i,j,k] = u[i,j,k] * 2.0")
        assert a.outputs[0].taps[0].coeff == b.outputs[0].taps[0].coeff == 2.0

    def test_negative_terms(self):
        expr, _ = parse_stencil("o[i,j,k] = u[i+1,j,k] - 2.0 * u[i,j,k] + u[i-1,j,k]")
        coeffs = sorted(t.coeff for t in expr.outputs[0].taps)
        assert coeffs == [-2.0, 1.0, 1.0]

    def test_leading_minus(self):
        expr, _ = parse_stencil("o[i,j,k] = -u[i,j,k]")
        assert expr.outputs[0].taps[0].coeff == -1.0

    def test_constant_folding(self):
        expr, _ = parse_stencil("o[i,j,k] = 0.5 * 0.5 * u[i,j,k]")
        assert expr.outputs[0].taps[0].coeff == pytest.approx(0.25)

    def test_scientific_notation(self):
        expr, _ = parse_stencil("o[i,j,k] = 2.5e-2 * u[i,j,k]")
        assert expr.outputs[0].taps[0].coeff == pytest.approx(0.025)

    def test_multi_offset(self):
        expr, _ = parse_stencil("o[i,j,k] = u[i-2,j+1,k-3]")
        assert expr.outputs[0].taps[0].offset == (-2, 1, -3)

    def test_coefficient_grid(self):
        expr, inputs = parse_stencil("o[i,j,k] = c[i,j,k] * u[i-1,j,k]")
        tap = expr.outputs[0].taps[0]
        assert inputs == ["c", "u"]
        assert tap.coeff_grid == 0 and tap.grid == 1
        assert tap.offset == (-1, 0, 0)

    def test_multiple_outputs(self):
        expr, inputs = parse_stencil(
            "gx[i,j,k] = 0.5 * f[i+1,j,k] - 0.5 * f[i-1,j,k]\n"
            "gy[i,j,k] = 0.5 * f[i,j+1,k] - 0.5 * f[i,j-1,k]"
        )
        assert inputs == ["f"]
        assert [o.name for o in expr.outputs] == ["gx", "gy"]

    def test_semicolon_separator(self):
        expr, _ = parse_stencil("a[i,j,k] = u[i,j,k]; b[i,j,k] = u[i,j,k]")
        assert len(expr.outputs) == 2


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",                                   # empty
            "o[i,j,k] = ",                        # no rhs
            "o[i,j,k] = 3.0",                     # pure constant
            "o[i,j,k] = u[i,j]",                  # 2D index
            "o[i,j,k] = u[j,i,k]",                # wrong index order
            "o[i+1,j,k] = u[i,j,k]",              # shifted output
            "o[i,j,k] = u[i-1.5,j,k]",            # fractional offset
            "o[i,j,k] = a[i-1,j,k] * b[i+1,j,k]", # no centre factor
            "o[i,j,k] = a[i,j,k] * b[i,j,k] * c[i,j,k]",  # 3 grids
            "o[i,j,k] = 2.0 * c[i,j,k] * u[i-1,j,k]",     # scaled coeff grid
            "o[i,j,k] = o[i-1,j,k]",              # in-place
            "o[i,j,k] = u[i,j,k]; o[i,j,k] = u[i,j,k]",   # double assign
            "o[i,j,k] u[i,j,k]",                  # no '='
            "o[i,j,k] = u[i,j,k] u[i,j,k]",       # missing operator
            "o[i,j,k] = $",                       # bad char
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(StencilDefinitionError):
            parse_stencil(bad)


class TestSemantics:
    def test_parsed_laplacian_matches_builtin(self, rng):
        from repro.stencils.applications import laplacian

        expr, _ = parse_stencil(
            "lap[i,j,k] = u[i-1,j,k] + u[i+1,j,k] + u[i,j-1,k] + u[i,j+1,k]"
            " + u[i,j,k-1] + u[i,j,k+1] - 6.0 * u[i,j,k]"
        )
        g = rng.random((8, 8, 8))
        got = apply_expr(expr, [g])[0]
        want = apply_expr(laplacian(), [g])[0]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_parsed_runs_in_kernels(self, rng):
        from repro.kernels.config import BlockConfig
        from repro.kernels.multigrid import MultiGridKernel

        expr, _ = parse_stencil(
            "o[i,j,k] = 0.5 * u[i,j,k] + 0.25 * u[i-1,j,k] + 0.25 * u[i,j,k+1]"
        )
        plan = MultiGridKernel(expr, BlockConfig(16, 4), "sp", method="inplane")
        g = rng.random((8, 10, 16)).astype(np.float32)
        got = plan.execute(g)
        want = apply_expr(expr, [g])
        plan.validate_against(want, got)

    @settings(max_examples=15, deadline=None)
    @given(radius=st.integers(1, 3), seed=st.integers(0, 500))
    def test_roundtrip_symmetric(self, radius, seed):
        """Render an Eqn (1) stencil as DSL text, reparse, evaluate: must
        match the direct symmetric evaluation."""
        rng = np.random.default_rng(seed)
        coeffs = default_coefficients(radius)
        terms = [f"{coeffs[0]!r} * u[i,j,k]"]
        for m in range(1, radius + 1):
            c = repr(coeffs[m])
            terms += [
                f"{c} * u[i-{m},j,k]", f"{c} * u[i+{m},j,k]",
                f"{c} * u[i,j-{m},k]", f"{c} * u[i,j+{m},k]",
                f"{c} * u[i,j,k-{m}]", f"{c} * u[i,j,k+{m}]",
            ]
        expr, _ = parse_stencil("out[i,j,k] = " + " + ".join(terms))
        ref_expr = symmetric_expr(2 * radius, coeffs)
        g = rng.random((2 * radius + 3,) * 3)
        got = apply_expr(expr, [g])[0]
        want = apply_expr(ref_expr, [g])[0]
        np.testing.assert_allclose(got, want, rtol=1e-10)


class TestMultiLine:
    def test_continuation_lines(self):
        expr, inputs = parse_stencil(
            """
            o[i,j,k] = 0.5 * u[i,j,k]
                     + 0.25 * u[i-1,j,k]
                     + 0.25 * u[i+1,j,k]
            """
        )
        assert inputs == ["u"]
        assert len(expr.outputs[0].taps) == 3

    def test_multiple_multiline_outputs(self):
        expr, _ = parse_stencil(
            """
            a[i,j,k] = u[i,j,k]
                     + u[i-1,j,k]
            b[i,j,k] = u[i,j,k]
                     - u[i+1,j,k]
            """
        )
        assert [o.name for o in expr.outputs] == ["a", "b"]
        assert all(len(o.taps) == 2 for o in expr.outputs)
