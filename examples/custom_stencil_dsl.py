#!/usr/bin/env python3
"""Custom stencils through the textual DSL, end to end.

Defines a variable-coefficient anisotropic diffusion stencil the way a
Patus/Physis user would — as text — then runs the whole pipeline on it:
parse, verify numerics, tune both schedules on a simulated GPU, place the
winner on the roofline, and (because the in-plane method is ultimately a
CUDA technique) note where the generated-code path picks up for the
symmetric family.
"""


import repro
from repro.harness.runner import FULL_SPACE, THREAD_ONLY_SPACE
from repro.kernels.multigrid import MultiGridKernel
from repro.metrics.roofline import roofline
from repro.stencils.reference import apply_expr
from repro.tuning.exhaustive import exhaustive_tune
from repro.workloads import random_grid

GRID = (512, 512, 256)

#: Anisotropic diffusion with a spatially varying conductivity volume kx,
#: stronger along x than y/z, plus a sink term.
SOURCE = """
t_next[i,j,k] = 0.55 * t[i,j,k]
              + kx[i,j,k] * t[i-1,j,k] + kx[i,j,k] * t[i+1,j,k]
              + 0.05 * t[i,j-1,k] + 0.05 * t[i,j+1,k]
              + 0.05 * t[i,j,k-1] + 0.05 * t[i,j,k+1]
              - 0.01 * s[i,j,k]
"""


def plans():
    """The kernel plans this example runs, for the lint regression test."""
    expr, _ = repro.parse_stencil(SOURCE, name="aniso_diffusion")
    return [
        (MultiGridKernel(expr, repro.BlockConfig(16, 4), "sp",
                         method=method), GRID)
        for method in ("forward", "inplane")
    ] + [
        (repro.make_kernel("inplane_fullslice", repro.symmetric(2),
                           (32, 4, 1, 4)), GRID),
    ]


def main() -> None:
    expr, inputs = repro.parse_stencil(SOURCE, name="aniso_diffusion")
    print(f"parsed {expr.name!r}: inputs {inputs}, "
          f"{len(expr.all_taps())} taps, radius {expr.radius()}, "
          f"{expr.mem_refs_per_point()} refs/pt")

    # Verify against the direct reference on random data.
    grids = [
        random_grid((12, 16, 20), seed=1),          # t
        random_grid((12, 16, 20), seed=2) * 0.1,    # kx
        random_grid((12, 16, 20), seed=3),          # s
    ]
    kern = MultiGridKernel(expr, repro.BlockConfig(16, 4), "sp", method="inplane")
    kern.validate_against(apply_expr(expr, grids), kern.execute(*grids))
    print("numerics verified against the direct reference")

    # Tune both schedules on the simulated GTX580.
    dev = repro.get_device("gtx580")
    fwd = exhaustive_tune(
        lambda cfg: MultiGridKernel(expr, cfg, "sp", method="forward"),
        dev, GRID, THREAD_ONLY_SPACE,
    )
    inp = exhaustive_tune(
        lambda cfg: MultiGridKernel(expr, cfg, "sp", method="inplane"),
        dev, GRID, FULL_SPACE,
    )
    print(f"forward baseline : {fwd.best_mpoints:9.0f} MPt/s at {fwd.best_config.label()}")
    print(f"in-plane tuned   : {inp.best_mpoints:9.0f} MPt/s at {inp.best_config.label()}")
    print(f"speedup          : {inp.best_mpoints / fwd.best_mpoints:.2f}x")

    # Where does the winner sit on the roofline?
    best = MultiGridKernel(expr, inp.best_config, "sp", method="inplane")
    print("roofline:", roofline(best, dev, GRID).summary())

    # The CUDA path exists for the symmetric family — show the handoff.
    from repro.codegen import generate_kernel
    cuda = generate_kernel(
        repro.make_kernel("inplane_fullslice", repro.symmetric(2), (32, 4, 1, 4))
    )
    print(f"\n(for symmetric kernels, `repro codegen` emits real CUDA — "
          f"e.g. {cuda.name}: {cuda.line_count()} lines)")


if __name__ == "__main__":
    main()
