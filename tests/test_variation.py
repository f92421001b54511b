"""Process variation: maps, varied power, variability-aware placement."""

import random

import numpy as np
import pytest

from repro.apps.parsec import PARSEC
from repro.apps.workload import ApplicationInstance, Workload
from repro.core.constraints import PowerBudgetConstraint, TemperatureConstraint
from repro.core.estimator import map_workload
from repro.errors import ConfigurationError
from repro.experiments.common import get_chip
from repro.mapping.base import Placer
from repro.variation import (
    VariationAwarePlacer,
    VariationMap,
    mapping_power_with_variation,
    varied_power_evaluator,
)
from repro.units import GIGA


@pytest.fixture(scope="module")
def vmap(small_chip):
    return VariationMap.generate(small_chip, sigma=0.3, seed=42)


class TestVariationMap:
    def test_deterministic(self, small_chip):
        a = VariationMap.generate(small_chip, sigma=0.3, seed=42)
        b = VariationMap.generate(small_chip, sigma=0.3, seed=42)
        assert np.array_equal(a.leakage_multipliers, b.leakage_multipliers)

    def test_different_seeds_differ(self, small_chip):
        a = VariationMap.generate(small_chip, sigma=0.3, seed=1)
        b = VariationMap.generate(small_chip, sigma=0.3, seed=2)
        assert not np.array_equal(a.leakage_multipliers, b.leakage_multipliers)

    def test_all_positive(self, vmap):
        assert np.all(vmap.leakage_multipliers > 0)

    def test_median_centred(self, vmap):
        log = np.log(vmap.leakage_multipliers)
        assert log.mean() == pytest.approx(0.0, abs=1e-12)

    def test_zero_sigma_is_uniform(self, small_chip):
        m = VariationMap.generate(small_chip, sigma=0.0, seed=1)
        assert np.allclose(m.leakage_multipliers, 1.0)
        assert m.spread == pytest.approx(1.0)

    def test_correlation_smooths(self, small_chip):
        rough = VariationMap.generate(
            small_chip, sigma=0.4, seed=3, correlation_passes=0
        )
        smooth = VariationMap.generate(
            small_chip, sigma=0.4, seed=3, correlation_passes=3
        )
        assert np.std(np.log(smooth.leakage_multipliers)) < np.std(
            np.log(rough.leakage_multipliers)
        )

    def test_spread_grows_with_sigma(self, small_chip):
        narrow = VariationMap.generate(small_chip, sigma=0.1, seed=5)
        wide = VariationMap.generate(small_chip, sigma=0.5, seed=5)
        assert wide.spread > narrow.spread

    def test_multiplier_lookup(self, vmap):
        assert vmap.multiplier(0) == pytest.approx(vmap.leakage_multipliers[0])

    def test_out_of_range_lookup(self, vmap):
        with pytest.raises(ConfigurationError, match="out of range"):
            vmap.multiplier(99)

    def test_negative_sigma_rejected(self, small_chip):
        with pytest.raises(ConfigurationError, match="sigma"):
            VariationMap.generate(small_chip, sigma=-0.1)

    def test_non_positive_multipliers_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            VariationMap(leakage_multipliers=np.array([1.0, 0.0]))


class TestVariedPower:
    def test_leaky_core_costs_more(self, small_chip):
        mults = np.ones(16)
        mults[3] = 2.0
        vmap = VariationMap(leakage_multipliers=mults)
        ev = varied_power_evaluator(small_chip, vmap)
        inst = ApplicationInstance(PARSEC["x264"], 2, 3.0 * GIGA)
        powers = ev(inst, [2, 3], 80.0)
        assert powers[1] > powers[0]

    def test_unit_map_matches_nominal(self, small_chip):
        vmap = VariationMap(leakage_multipliers=np.ones(16))
        ev = varied_power_evaluator(small_chip, vmap)
        inst = ApplicationInstance(PARSEC["x264"], 2, 3.0 * GIGA)
        powers = ev(inst, [0, 1], 80.0)
        nominal = inst.core_power(small_chip.node, temperature=80.0)
        assert np.allclose(powers, nominal)

    def test_size_mismatch_rejected(self, small_chip):
        vmap = VariationMap(leakage_multipliers=np.ones(4))
        with pytest.raises(ConfigurationError, match="covers"):
            varied_power_evaluator(small_chip, vmap)

    def test_estimator_integration(self, small_chip, vmap):
        """Mapping with the evaluator accumulates varied powers."""
        ev = varied_power_evaluator(small_chip, vmap)
        w = Workload.replicate(PARSEC["x264"], 2, 4, 3.0 * GIGA)
        result = map_workload(
            small_chip, w, PowerBudgetConstraint(100.0), power_evaluator=ev
        )
        recomputed = mapping_power_with_variation(result, vmap, temperature=80.0)
        assert np.allclose(result.core_powers, recomputed)

    def test_mapping_power_with_variation_shape(self, small_chip, vmap):
        w = Workload.replicate(PARSEC["dedup"], 1, 4, 2.0 * GIGA)
        result = map_workload(small_chip, w, PowerBudgetConstraint(100.0))
        powers = mapping_power_with_variation(result, vmap)
        assert powers.shape == (16,)
        assert powers.sum() > 0


class TestVariationAwarePlacer:
    def test_prefers_low_leakage_cores(self, small_chip):
        mults = np.ones(16)
        mults[[5, 6, 9, 10]] = 5.0  # very leaky centre
        vmap = VariationMap(leakage_multipliers=mults)
        placer = VariationAwarePlacer(vmap, leakage_weight=5.0)
        cores = placer.place(small_chip, 4, set())
        assert not {5, 6, 9, 10}.intersection(cores)

    def test_contract(self, small_chip, vmap):
        placer = VariationAwarePlacer(vmap)
        cores = placer.place(small_chip, 6, {0, 1})
        assert len(set(cores)) == 6
        assert not {0, 1}.intersection(cores)

    def test_capacity_exhaustion(self, small_chip, vmap):
        placer = VariationAwarePlacer(vmap)
        assert placer.place(small_chip, 5, set(range(13))) is None

    def test_negative_weight_rejected(self, vmap):
        with pytest.raises(ConfigurationError, match="leakage_weight"):
            VariationAwarePlacer(vmap, leakage_weight=-1.0)

    def test_saves_power_vs_oblivious(self, small_chip):
        """With a strongly varied die, the aware placer runs the same
        workload at lower total power than the variation-oblivious
        spread placer (it avoids the leaky cores)."""
        from repro.mapping.patterns import ThermalSpreadPlacer

        saved = 0.0
        for seed in (11, 12, 13):
            vmap = VariationMap.generate(small_chip, sigma=0.6, seed=seed)
            ev = varied_power_evaluator(small_chip, vmap)
            w = Workload.replicate(PARSEC["swaptions"], 2, 4, 3.6 * GIGA)
            oblivious = map_workload(
                small_chip, w, PowerBudgetConstraint(1e9),
                placer=ThermalSpreadPlacer(), power_evaluator=ev,
            )
            aware = map_workload(
                small_chip, w, PowerBudgetConstraint(1e9),
                placer=VariationAwarePlacer(vmap, leakage_weight=3.0),
                power_evaluator=ev,
            )
            assert aware.active_cores == oblivious.active_cores
            saved += oblivious.total_power - aware.total_power
        assert saved > 0.0


def _set_sum_score(influence, mults, weight, taken, c):
    """The scalar variation-aware score: a generator sum over a set."""
    return (
        sum(influence[c, k] for k in taken)
        + influence[c, c]
        + weight * mults[c] * influence[c, c]
    )


def _set_sum_place(chip, vmap, weight, n_cores, occupied):
    """The scalar VariationAwarePlacer.place, scoring with set sums."""
    free = Placer.free_cores(chip, occupied)
    if len(free) < n_cores:
        return None
    influence = chip.thermal.influence_matrix()
    mults = vmap.leakage_multipliers
    taken = set(occupied)
    chosen = []
    candidates = set(free)
    for _ in range(n_cores):
        best = min(
            sorted(candidates),
            key=lambda c: _set_sum_score(influence, mults, weight, taken, c),
        )
        chosen.append(best)
        candidates.remove(best)
        taken.add(best)
    return chosen


class TestVariationAwareOracle:
    """The cumsum scorer picks what the set-sum scorer picked, or a core
    whose set-sum score ties the set-sum choice within 1e-12 K."""

    @pytest.fixture(params=["small", "16nm", "8nm"])
    def chip(self, request, small_chip, chip16):
        return {
            "small": small_chip,
            "16nm": chip16,
            "8nm": get_chip("8nm"),
        }[request.param]

    def test_seeded_random_occupancy(self, chip):
        rng = random.Random(f"variation-aware:{chip.n_cores}")
        influence = chip.thermal.influence_matrix()
        for trial in range(12):
            vmap = VariationMap.generate(chip, sigma=0.3, seed=trial)
            weight = rng.choice((0.0, 0.5, 2.0, 5.0))
            placer = VariationAwarePlacer(vmap, leakage_weight=weight)
            occupied = set(rng.sample(range(chip.n_cores), rng.randrange(chip.n_cores)))
            n = rng.randint(1, min(8, chip.n_cores - len(occupied)))
            new = placer.place(chip, n, occupied)
            old = _set_sum_place(chip, vmap, weight, n, occupied)
            if new == old:
                continue
            taken = set(occupied)
            for pick in new:
                scores = {
                    c: _set_sum_score(
                        influence, vmap.leakage_multipliers, weight, taken, c
                    )
                    for c in Placer.free_cores(chip, taken)
                }
                assert scores[pick] <= min(scores.values()) + 1e-12
                taken.add(pick)

    def test_empty_occupancy(self, chip):
        vmap = VariationMap.generate(chip, sigma=0.3, seed=7)
        placer = VariationAwarePlacer(vmap)
        assert placer.place(chip, 8, set()) == _set_sum_place(
            chip, vmap, 2.0, 8, set()
        )

    def test_returns_python_ints(self, small_chip, vmap):
        cores = VariationAwarePlacer(vmap).place(small_chip, 3, {5})
        assert all(type(c) is int for c in cores)
