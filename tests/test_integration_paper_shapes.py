"""Integration tests asserting the paper's qualitative results.

These run on the full 100-core 16 nm chip (and the 198-core 11 nm chip
where the paper does) and check the *shapes* the paper reports — who
wins, in which direction, by roughly what factor.  The exact measured
values are recorded in EXPERIMENTS.md by the benchmark harness.
"""

import numpy as np
import pytest

from repro.apps.parsec import PARSEC, PARSEC_ORDER
from repro.core.constraints import PowerBudgetConstraint, TemperatureConstraint
from repro.core.dark_silicon import (
    best_homogeneous_configuration,
    compare_tdp_vs_temperature,
    estimate_dark_silicon,
)
from repro.core.tsp import ThermalSafePower
from repro.experiments import fig09_dsrem
from repro.mapping.contiguous import ContiguousPlacer
from repro.mapping.dsrem import ds_rem
from repro.mapping.patterns import NeighbourhoodSpreadPlacer
from repro.mapping.tdpmap import tdp_map
from repro.power.budget import (
    PAPER_TDP_OPTIMISTIC,
    PAPER_TDP_PESSIMISTIC,
    tdp_all_cores_at_threshold,
)
from repro.units import GIGA


class TestSection31_TdpValues:
    """The two TDPs land near the paper's 220 W / 185 W."""

    def test_optimistic_tdp_band(self, chip16):
        tdp = tdp_all_cores_at_threshold(chip16.solver, 100)
        assert 190 <= tdp <= 240

    def test_pessimistic_tdp_band(self, chip16):
        sw = PARSEC["swaptions"].core_power(chip16.node, 8, 3.6 * GIGA)
        assert 170 <= 50 * sw <= 200


class TestFigure5_DarkSiliconUnderTdp:
    """Figure 5's two panels."""

    @pytest.fixture(scope="class")
    def spread(self):
        return NeighbourhoodSpreadPlacer()

    def test_hungry_apps_leave_a_third_dark_at_optimistic_tdp(self, chip16, spread):
        r = estimate_dark_silicon(
            chip16, PARSEC["swaptions"], 3.6 * GIGA,
            PowerBudgetConstraint(PAPER_TDP_OPTIMISTIC), placer=spread,
        )
        assert 0.30 <= r.dark_fraction <= 0.50  # paper: up to ~37 %

    def test_deeper_dark_silicon_at_pessimistic_tdp(self, chip16, spread):
        opt = estimate_dark_silicon(
            chip16, PARSEC["swaptions"], 3.6 * GIGA,
            PowerBudgetConstraint(PAPER_TDP_OPTIMISTIC), placer=spread,
        )
        pess = estimate_dark_silicon(
            chip16, PARSEC["swaptions"], 3.6 * GIGA,
            PowerBudgetConstraint(PAPER_TDP_PESSIMISTIC), placer=spread,
        )
        assert pess.dark_fraction > opt.dark_fraction
        assert 0.40 <= pess.dark_fraction <= 0.60  # paper: up to ~46 %

    def test_optimistic_tdp_violates_t_dtm_for_hungry_apps(self, chip16, spread):
        """Observation 1 (first half): 220 W can exceed 80 degC."""
        violations = 0
        for name in ("x264", "ferret", "swaptions"):
            r = estimate_dark_silicon(
                chip16, PARSEC[name], 3.6 * GIGA,
                PowerBudgetConstraint(PAPER_TDP_OPTIMISTIC), placer=spread,
            )
            if r.peak_temperature > chip16.t_dtm:
                violations += 1
        assert violations >= 2

    def test_pessimistic_tdp_never_violates(self, chip16, spread):
        """Observation 1 (second half): 185 W stays thermally safe."""
        for name in PARSEC_ORDER:
            r = estimate_dark_silicon(
                chip16, PARSEC[name], 3.6 * GIGA,
                PowerBudgetConstraint(PAPER_TDP_PESSIMISTIC), placer=spread,
            )
            assert r.peak_temperature <= chip16.t_dtm + 0.5, name

    def test_lower_vf_reduces_dark_silicon(self, chip16, spread):
        """Observation 2: scaling v/f down shrinks dark silicon."""
        lo = estimate_dark_silicon(
            chip16, PARSEC["swaptions"], 2.8 * GIGA,
            PowerBudgetConstraint(PAPER_TDP_PESSIMISTIC), placer=spread,
        )
        hi = estimate_dark_silicon(
            chip16, PARSEC["swaptions"], 3.6 * GIGA,
            PowerBudgetConstraint(PAPER_TDP_PESSIMISTIC), placer=spread,
        )
        assert lo.dark_fraction < hi.dark_fraction


class TestFigure6_TemperatureConstraint:
    def test_temperature_never_worse_than_tdp(self, chip16):
        """Temperature-as-constraint admits at least as many cores."""
        placer = NeighbourhoodSpreadPlacer()
        for name in PARSEC_ORDER:
            under_tdp, under_temp = compare_tdp_vs_temperature(
                chip16, PARSEC[name], 3.6 * GIGA, PAPER_TDP_PESSIMISTIC,
                placer=placer,
            )
            assert under_temp.dark_fraction <= under_tdp.dark_fraction + 1e-9, name

    def test_some_apps_gain_active_cores(self, chip16):
        placer = NeighbourhoodSpreadPlacer()
        gains = 0
        for name in PARSEC_ORDER:
            under_tdp, under_temp = compare_tdp_vs_temperature(
                chip16, PARSEC[name], 3.6 * GIGA, PAPER_TDP_PESSIMISTIC,
                placer=placer,
            )
            if under_temp.active_cores > under_tdp.active_cores:
                gains += 1
        assert gains >= 2


class TestFigure7_Dvfs:
    def test_dvfs_never_loses(self, chip16):
        cap = chip16.n_cores // 8
        for name in PARSEC_ORDER:
            s1 = estimate_dark_silicon(
                chip16, PARSEC[name], chip16.node.f_max,
                PowerBudgetConstraint(PAPER_TDP_PESSIMISTIC), threads=8,
            )
            s2 = best_homogeneous_configuration(
                chip16, PARSEC[name], PAPER_TDP_PESSIMISTIC, max_instances=cap
            )
            assert s2.gips >= s1.gips - 1e-9, name

    def test_peak_gain_matches_paper_band(self, chip16):
        """Paper: gains up to ~32 % at 16 nm."""
        cap = chip16.n_cores // 8
        gains = []
        for name in PARSEC_ORDER:
            s1 = estimate_dark_silicon(
                chip16, PARSEC[name], chip16.node.f_max,
                PowerBudgetConstraint(PAPER_TDP_PESSIMISTIC), threads=8,
            )
            s2 = best_homogeneous_configuration(
                chip16, PARSEC[name], PAPER_TDP_PESSIMISTIC, max_instances=cap
            )
            gains.append(s2.gips / s1.gips - 1.0)
        assert 0.2 <= max(gains) <= 0.6


class TestFigure8_Patterning:
    def test_patterning_activates_more_cores(self, chip16):
        """DaSim's claim: a good pattern runs more cores within T_DTM."""
        app = PARSEC["x264"]
        contiguous = estimate_dark_silicon(
            chip16, app, 3.6 * GIGA, TemperatureConstraint(),
            placer=ContiguousPlacer(),
        )
        patterned = estimate_dark_silicon(
            chip16, app, 3.6 * GIGA, TemperatureConstraint(),
            placer=NeighbourhoodSpreadPlacer(),
        )
        assert patterned.active_cores > contiguous.active_cores
        assert patterned.peak_temperature <= chip16.t_dtm + 1e-6

    def test_same_workload_contiguous_violates(self, chip16):
        """Figure 8(a): the packed mapping of the patterned workload
        exceeds T_DTM."""
        from repro.apps.workload import Workload
        from repro.core.estimator import map_workload

        app = PARSEC["x264"]
        patterned = estimate_dark_silicon(
            chip16, app, 3.6 * GIGA, TemperatureConstraint(),
            placer=NeighbourhoodSpreadPlacer(),
        )
        n = len(patterned.placed)
        forced = map_workload(
            chip16,
            Workload.replicate(app, n, 8, 3.6 * GIGA),
            PowerBudgetConstraint(1e9),  # effectively unconstrained
            placer=ContiguousPlacer(),
        )
        assert forced.peak_temperature > chip16.t_dtm


class TestFigure9_DsRem:
    def test_dsrem_roughly_doubles_tdpmap(self, chip16):
        """Paper: '2x speedup using DsRem'."""
        apps = [PARSEC["x264"], PARSEC["canneal"]]
        base = tdp_map(chip16, apps, PAPER_TDP_PESSIMISTIC)
        improved = ds_rem(chip16, apps, PAPER_TDP_PESSIMISTIC)
        speedup = improved.gips / base.gips
        assert 1.5 <= speedup <= 3.0

    def test_dsrem_thermally_safe(self, chip16):
        improved = ds_rem(chip16, [PARSEC["swaptions"]], PAPER_TDP_PESSIMISTIC)
        assert improved.peak_temperature <= chip16.t_dtm + 1e-6


class TestFigure9_AllWorkloads:
    """Fig. 9 over all ten default workloads (single apps and mixes)."""

    @pytest.fixture(scope="class")
    def fig9(self, chip16):
        return fig09_dsrem.run(chip=chip16)

    def test_dsrem_beats_tdpmap_everywhere(self, fig9):
        assert len(fig9.entries) == 10
        for entry in fig9.entries:
            assert entry.speedup > 1.0, entry.workload

    def test_dsrem_never_exceeds_t_dtm(self, fig9):
        for entry in fig9.entries:
            assert entry.dsrem_peak <= 80.0 + 1e-6, entry.workload

    def test_average_speedup_roughly_doubles(self, fig9):
        """Paper headline: ~2x average speed-up."""
        assert 1.5 <= fig9.average_speedup <= 3.0

    def test_dsrem_lights_silicon_tdpmap_leaves_dark(self, fig9):
        for entry in fig9.entries:
            assert entry.dsrem_dark <= entry.tdpmap_dark + 1e-9, entry.workload


class TestFigure10_Tsp:
    def test_performance_rises_across_nodes_despite_more_dark(self):
        from repro.experiments.fig10_tsp import run

        result = run()
        avg16 = result.node("16nm").average_gips
        avg11 = result.node("11nm").average_gips
        avg8 = result.node("8nm").average_gips
        assert avg16 < avg11 < avg8

    def test_11_to_8nm_gain_band(self):
        """Paper: ~60 % average increment from 11 nm to 8 nm."""
        from repro.experiments.fig10_tsp import run

        result = run()
        gain = result.node("8nm").average_gips / result.node("11nm").average_gips - 1
        assert 0.3 <= gain <= 1.2


class TestTspInternalConsistency:
    def test_tsp_100_total_equals_optimistic_tdp(self, chip16):
        tsp = ThermalSafePower(chip16)
        tdp = tdp_all_cores_at_threshold(chip16.solver, 100, tolerance=1e-5)
        assert tsp.total_budget(100) == pytest.approx(tdp, rel=1e-3)

    def test_tsp_mapping_specific_beats_worst_case(self, chip16):
        tsp = ThermalSafePower(chip16)
        checkerboard = [i for i in range(100) if (i // 10 + i % 10) % 2 == 0]
        assert tsp.for_mapping(checkerboard) > tsp.worst_case(len(checkerboard))
