"""Placed workloads and transient boosting/constant runs."""

import numpy as np
import pytest

from repro.apps.parsec import PARSEC
from repro.apps.workload import ApplicationInstance, Workload
from repro.boosting.constant import best_constant_frequency, constant_steady
from repro.boosting.controller import BoostingController
from repro.boosting.simulation import (
    PlacedWorkload,
    place_workload,
    run_boosting,
    run_constant,
)
from repro.errors import ConfigurationError, InfeasibleError, MappingError
from repro.power.vf_curve import VFCurve
from repro.units import GIGA


@pytest.fixture(scope="module")
def placed(small_chip):
    w = Workload.replicate(PARSEC["x264"], 2, 4, 3.0 * GIGA)
    return place_workload(small_chip, w)


class TestPlacedWorkload:
    def test_counts(self, placed):
        assert placed.n_instances == 2
        assert placed.active_cores == 8

    def test_base_powers_match_eq1(self, small_chip, placed):
        f = 3.0 * GIGA
        base = placed.base_powers(f)
        app = PARSEC["x264"]
        model = app.power_model(small_chip.node)
        v = model.voltage_for(f)
        expected = model.dynamic_power(f, alpha=app.utilisation(4), vdd=v) + model.pind
        for c in placed.occupied:
            assert base[c] == pytest.approx(expected)

    def test_dark_cores_draw_nothing(self, placed):
        total = placed.total_powers(3.0 * GIGA, np.full(16, 60.0))
        for c in range(16):
            if c not in placed.occupied:
                assert total[c] == 0.0

    def test_leakage_grows_with_temperature(self, placed):
        cold = placed.leakage_powers(3.0 * GIGA, np.full(16, 50.0))
        hot = placed.leakage_powers(3.0 * GIGA, np.full(16, 80.0))
        assert hot.sum() > cold.sum()

    def test_total_matches_app_model_at_uniform_temperature(self, small_chip, placed):
        f, t = 3.0 * GIGA, 72.0
        total = placed.total_powers(f, np.full(16, t))
        expected = PARSEC["x264"].core_power(small_chip.node, 4, f, temperature=t)
        for c in placed.occupied:
            assert total[c] == pytest.approx(expected)

    def test_performance_linear_in_frequency(self, placed):
        assert placed.performance(2.0 * GIGA) == pytest.approx(
            2.0 * placed.performance(1.0 * GIGA)
        )

    def test_zero_frequency_zero_power(self, placed):
        assert placed.base_powers(0.0).sum() == 0.0

    def test_overlapping_placements_rejected(self, small_chip):
        inst = ApplicationInstance(PARSEC["x264"], 2, 1e9)
        with pytest.raises(ConfigurationError, match="overlap"):
            PlacedWorkload(small_chip, [(inst, (0, 1)), (inst, (1, 2))])

    def test_wrong_core_count_rejected(self, small_chip):
        inst = ApplicationInstance(PARSEC["x264"], 2, 1e9)
        with pytest.raises(ConfigurationError, match="needs 2"):
            PlacedWorkload(small_chip, [(inst, (0, 1, 2))])

    def test_empty_workload_allowed(self, small_chip):
        empty = PlacedWorkload(small_chip, [])
        assert empty.performance(1e9) == 0.0
        assert empty.base_powers(1e9).sum() == 0.0


class TestPlaceWorkload:
    def test_capacity_error(self, small_chip):
        w = Workload.replicate(PARSEC["x264"], 5, 4, 1e9)  # 20 > 16 cores
        with pytest.raises(MappingError, match="capacity"):
            place_workload(small_chip, w)


class TestConstantSteady:
    def test_leakage_consistent(self, small_chip, placed):
        result = constant_steady(placed, 3.0 * GIGA)
        # Consistency: re-evaluating powers at the returned temperature
        # reproduces the returned total power.
        assert result.total_power > placed.base_powers(3.0 * GIGA).sum()
        assert result.peak_temperature > small_chip.ambient

    def test_gips(self, placed):
        result = constant_steady(placed, 3.0 * GIGA)
        assert result.gips == pytest.approx(placed.performance(3.0 * GIGA) / 1e9)


class TestBestConstantFrequency:
    def test_safe_and_maximal(self, small_chip, placed):
        result = best_constant_frequency(placed)
        assert result.peak_temperature <= small_chip.t_dtm + 1e-6
        ladder = small_chip.node.frequency_ladder()
        higher = [f for f in ladder if f > result.frequency]
        if higher:
            hotter = constant_steady(placed, higher[0])
            assert hotter.peak_temperature > small_chip.t_dtm

    def test_custom_ladder(self, placed):
        result = best_constant_frequency(placed, frequencies=[1.0 * GIGA])
        assert result.frequency == pytest.approx(1.0 * GIGA)

    def test_infeasible_raises(self, small_chip):
        w = Workload.replicate(PARSEC["swaptions"], 4, 4, 1e9)
        hot = place_workload(small_chip, w)
        with pytest.raises(InfeasibleError):
            best_constant_frequency(hot, threshold=46.0)


class TestTransients:
    def test_constant_run_holds_frequency(self, placed):
        r = run_constant(placed, 2.0 * GIGA, duration=0.05, record_interval=0.01)
        assert np.allclose(r.frequencies, 2.0 * GIGA)

    def test_constant_gips_steady(self, placed):
        r = run_constant(placed, 2.0 * GIGA, duration=0.05, record_interval=0.01)
        assert np.allclose(r.gips, r.gips[0])

    def test_boosting_reaches_threshold_and_oscillates(self, small_chip, placed):
        const = best_constant_frequency(placed)
        curve = VFCurve.for_node(small_chip.node)
        ctrl = BoostingController(
            f_min=small_chip.node.f_min,
            f_max=curve.f_limit,
            step=small_chip.node.dvfs_step,
            threshold=small_chip.t_dtm,
            initial_frequency=const.frequency,
        )
        r = run_boosting(
            placed, ctrl, duration=3.0, warm_start_frequency=const.frequency
        )
        # Boosting exceeds the constant-safe average performance and
        # brushes the threshold.
        assert r.average_gips > const.gips
        assert r.max_temperature == pytest.approx(small_chip.t_dtm, abs=1.5)

    def test_power_cap_respected(self, small_chip, placed):
        const = best_constant_frequency(placed)
        curve = VFCurve.for_node(small_chip.node)
        cap = const.total_power * 1.1
        ctrl = BoostingController(
            f_min=small_chip.node.f_min,
            f_max=curve.f_limit,
            step=small_chip.node.dvfs_step,
            threshold=small_chip.t_dtm,
            initial_frequency=const.frequency,
        )
        r = run_boosting(
            placed,
            ctrl,
            duration=1.0,
            warm_start_frequency=const.frequency,
            power_cap=cap,
        )
        assert r.max_power <= cap * 1.02

    def test_aggregates_independent_of_recording(self, placed):
        coarse = run_constant(placed, 2.0 * GIGA, duration=0.2, record_interval=0.2)
        fine = run_constant(placed, 2.0 * GIGA, duration=0.2, record_interval=0.01)
        assert coarse.average_gips == pytest.approx(fine.average_gips)
        assert coarse.average_power == pytest.approx(fine.average_power)

    def test_energy_is_power_times_time(self, placed):
        r = run_constant(placed, 2.0 * GIGA, duration=0.5, record_interval=0.1)
        assert r.energy == pytest.approx(r.average_power * 0.5)

    def test_invalid_duration_rejected(self, placed):
        with pytest.raises(ConfigurationError, match="duration"):
            run_constant(placed, 2.0 * GIGA, duration=0.0)

    # Regression: the loop used round(duration / dt) steps (at least one)
    # yet charged energy for the unrounded duration: 0.0015 s and
    # 0.0025 s (round-half-to-even) both ran 2 steps, 0.0004 s a full one.
    @pytest.mark.parametrize("duration", [0.0015, 0.0025, 0.0004])
    def test_non_whole_step_duration_rejected(self, placed, duration):
        with pytest.raises(ConfigurationError, match="duration"):
            run_constant(placed, 2.0 * GIGA, duration=duration)

    @pytest.mark.parametrize("duration", [0.0015, 0.0025, 0.0004])
    def test_boosting_non_whole_step_duration_rejected(
        self, small_chip, placed, duration
    ):
        ctrl = BoostingController(
            f_min=small_chip.node.f_min,
            f_max=small_chip.node.f_max,
            step=small_chip.node.dvfs_step,
            threshold=small_chip.t_dtm,
        )
        with pytest.raises(ConfigurationError, match="duration"):
            run_boosting(placed, ctrl, duration=duration, power_cap=50.0)

    def test_record_interval_below_dt_rejected(self, placed):
        with pytest.raises(ConfigurationError, match="record_interval"):
            run_constant(
                placed, 2.0 * GIGA, duration=0.01, record_interval=0.0005
            )

    def test_whole_step_duration_runs_every_step(self, placed):
        r = run_constant(placed, 2.0 * GIGA, duration=0.003, record_interval=0.001)
        assert np.allclose(r.times, [0.001, 0.002, 0.003])
        assert r.energy == pytest.approx(r.average_power * 0.003)


class TestPowerMemoAliasing:
    """Memoized frequency levels are read-only; callers get fresh arrays."""

    F = 3.0 * GIGA

    def test_returned_arrays_are_fresh_and_writable(self, placed):
        temps = np.full(16, 70.0)
        for get in (
            lambda: placed.base_powers(self.F),
            lambda: placed.leakage_powers(self.F, temps),
            lambda: placed.total_powers(self.F, temps),
        ):
            first, second = get(), get()
            assert first.flags.writeable
            assert first is not second
            assert not np.shares_memory(first, second)

    def test_mutating_a_result_does_not_change_the_next(self, placed):
        temps = np.full(16, 70.0)
        base = placed.base_powers(self.F)
        total = placed.total_powers(self.F, temps)
        leak = placed.leakage_powers(self.F, temps)
        for array in (
            placed.base_powers(self.F),
            placed.total_powers(self.F, temps),
            placed.leakage_powers(self.F, temps),
        ):
            array[:] = -1.0
        assert np.array_equal(placed.base_powers(self.F), base)
        assert np.array_equal(placed.total_powers(self.F, temps), total)
        assert np.array_equal(placed.leakage_powers(self.F, temps), leak)

    def test_mutating_a_result_does_not_change_a_run(self, small_chip):
        w = Workload.replicate(PARSEC["x264"], 2, 4, 3.0 * GIGA)
        clean = run_constant(
            place_workload(small_chip, w), self.F, duration=0.02,
            record_interval=0.001,
        )
        dirty_placed = place_workload(small_chip, w)
        dirty_placed.base_powers(self.F)[:] = 1e6  # memoizes, then mutates
        dirty_placed.total_powers(self.F, np.full(16, 70.0))[:] = 1e6
        dirty = run_constant(
            dirty_placed, self.F, duration=0.02, record_interval=0.001
        )
        assert np.array_equal(dirty.total_powers, clean.total_powers)
        assert np.array_equal(dirty.peak_temperatures, clean.peak_temperatures)

    def test_temperature_factors_reproduce_total(self, placed):
        temps = np.linspace(50.0, 80.0, 16)
        factors = placed.temperature_factors(temps)
        assert np.array_equal(
            placed.total_powers(self.F, temps, temperature_factors=factors),
            placed.total_powers(self.F, temps),
        )
        assert np.array_equal(
            placed.total_powers(self.F, temps),
            placed.base_powers(self.F) + placed.leakage_powers(self.F, temps),
        )

    def test_empty_workload_draws_nothing(self, small_chip):
        empty = PlacedWorkload(small_chip, [])
        temps = np.full(16, 70.0)
        factors = empty.temperature_factors(temps)
        assert not empty.total_powers(1e9, temps, temperature_factors=factors).any()
