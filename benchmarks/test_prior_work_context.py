"""Section V-B — comparison with previous work.

The paper contextualizes its results against Nguyen et al. (3.5-D
blocking), Datta et al., Patus (Christen), Physis and Holewinski by
converting to GFlop/s and extrapolating by bandwidth ratios.  We regenerate
the same conversions from our tuned simulator results and assert the
qualitative claims: the tuned in-plane kernels land above the
bandwidth-extrapolated prior-work numbers the paper quotes.
"""


from repro.gpusim.device import get_device
from repro.harness.runner import tune_family
from repro.metrics.efficiency import mpoints_to_gflops
from repro.stencils.spec import symmetric

from conftest import fresh


#: Prior-work results the paper quotes in section V-B.
PRIOR = {
    # (work, metric): value
    "nguyen_gtx285_sp_mpoints": 9234.0,
    "nguyen_gtx285_dp_mpoints": 4600.0,
    "christen_c2050_sp_gflops": 30.0,
    "physis_m2050_sp_gflops": 67.0,
    "holewinski_gtx580_dp_gflops": 28.7,
}


def _bw_scale(src: str, dst: str) -> float:
    return (
        get_device(dst).pin_bandwidth_gbs / get_device(src).pin_bandwidth_gbs
    )


def test_prior_work_context(benchmark, save_render):
    def run():
        rows = []
        sp = tune_family("inplane_fullslice", 2, "gtx580")
        dp = tune_family("inplane_fullslice", 2, "gtx580", dtype="dp")
        c2070_sp = tune_family("inplane_fullslice", 2, "c2070")
        flops = symmetric(2).flops_inplane

        rows.append(("ours gtx580 SP o2 MPt/s", sp.best_mpoints))
        rows.append(("ours gtx580 DP o2 MPt/s", dp.best_mpoints))
        rows.append(
            ("ours c2070 SP o2 GFlop/s", mpoints_to_gflops(c2070_sp.best_mpoints, flops))
        )
        rows.append(
            ("ours gtx580 DP o2 GFlop/s", mpoints_to_gflops(dp.best_mpoints, flops))
        )
        return rows

    rows = benchmark.pedantic(fresh(run), rounds=1, iterations=1, warmup_rounds=0)

    class R:  # minimal render shim reusing save_render
        def render(self):
            lines = ["Section V-B: prior-work context"]
            lines += [f"  {k}: {v:.1f}" for k, v in rows]
            lines += [f"  paper-quoted {k}: {v}" for k, v in PRIOR.items()]
            return "\n".join(lines)

    save_render(R(), "prior_work.txt")
    vals = dict(rows)

    # Nguyen's GTX285 SP result extrapolated to GTX580 by bandwidth:
    # the paper claims ~39% advantage; we assert ours is at least above
    # the extrapolation.
    nguyen_sp = PRIOR["nguyen_gtx285_sp_mpoints"] * _bw_scale("gtx285", "gtx580")
    assert vals["ours gtx580 SP o2 MPt/s"] > nguyen_sp

    nguyen_dp = PRIOR["nguyen_gtx285_dp_mpoints"] * _bw_scale("gtx285", "gtx580")
    assert vals["ours gtx580 DP o2 MPt/s"] > nguyen_dp

    # Christen's Patus Laplacian: ~30 GFlop/s on C2050; paper reports ~96
    # on the C2070-class card; ours must land far above 30.
    assert vals["ours c2070 SP o2 GFlop/s"] > PRIOR["christen_c2050_sp_gflops"] * 2

    # Holewinski's 7-point DP on GTX580: 28.7 GFlop/s; paper ~65.
    assert vals["ours gtx580 DP o2 GFlop/s"] > PRIOR["holewinski_gtx580_dp_gflops"]
