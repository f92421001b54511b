"""White-box tests of the DsRem heuristic's three phases."""

import numpy as np
import pytest

from repro.apps.parsec import PARSEC
from repro.errors import ConfigurationError
from repro.mapping.dsrem import DsRemConfig, _Table, ds_rem
from repro.units import GIGA

COARSE = DsRemConfig(frequencies=[2.0 * GIGA, 2.8 * GIGA, 3.6 * GIGA])


class TestBudgetPhase:
    def test_seed_respects_tdp_before_exploit(self, small_chip):
        """With exploitation disabled (tiny margin makes it a no-op is
        not possible; instead use a huge margin so the exploit phase
        never fires) the final power stays at or below the TDP seed."""
        cfg = DsRemConfig(
            frequencies=[2.0 * GIGA, 2.8 * GIGA, 3.6 * GIGA],
            exploit_margin=1000.0,  # exploit never engages
        )
        tdp = 15.0
        result = ds_rem(small_chip, [PARSEC["x264"]], tdp=tdp, config=cfg)
        assert result.total_power <= tdp + 1e-6

    def test_density_greedy_prefers_efficient_configs(self, small_chip):
        """Under a tight budget the chosen configs are not all at max
        frequency (max-f has the worst GIPS/W density)."""
        cfg = DsRemConfig(
            frequencies=[2.0 * GIGA, 2.8 * GIGA, 3.6 * GIGA],
            exploit_margin=1000.0,
        )
        result = ds_rem(small_chip, [PARSEC["swaptions"]], tdp=10.0, config=cfg)
        freqs = {p.instance.frequency for p in result.placed}
        assert freqs  # something was placed
        assert min(freqs) < 3.6 * GIGA


class TestRepairPhase:
    def test_violating_seed_is_repaired(self, small_chip):
        """A TDP far above the thermal capacity seeds a violating
        mapping; the repair phase must bring it under T_DTM."""
        result = ds_rem(
            small_chip, [PARSEC["swaptions"]], tdp=500.0, config=COARSE
        )
        assert result.peak_temperature <= small_chip.t_dtm + 1e-6

    @pytest.mark.parametrize(
        "max_steps, peak", [(0, "115.76"), (10, "107.08")]
    )
    def test_exhausted_repair_raises(self, chip16, max_steps, peak):
        """Out of steps above T_DTM is an error, not a hot mapping."""
        apps = [PARSEC["x264"], PARSEC["swaptions"]]
        frequencies = [chip16.node.f_max]
        with pytest.raises(
            ConfigurationError,
            match=rf"T_DTM 80.0 degC within max_steps={max_steps}: peak {peak} degC",
        ):
            ds_rem(
                chip16, apps, tdp=1000.0,
                config=DsRemConfig(frequencies=frequencies, max_steps=max_steps),
            )
        safe = ds_rem(
            chip16, apps, tdp=1000.0, config=DsRemConfig(frequencies=frequencies)
        )
        assert safe.peak_temperature <= chip16.t_dtm + 1e-6


class TestExploitPhase:
    def test_grows_beyond_a_starved_seed(self, small_chip):
        starved = ds_rem(small_chip, [PARSEC["x264"]], tdp=2.0, config=COARSE)
        assert starved.total_power > 2.0
        assert starved.peak_temperature <= small_chip.t_dtm + 1e-6

    def test_margin_limits_exploitation(self, small_chip):
        eager = ds_rem(
            small_chip, [PARSEC["x264"]], tdp=10.0,
            config=DsRemConfig(
                frequencies=COARSE.frequencies, exploit_margin=0.25
            ),
        )
        shy = ds_rem(
            small_chip, [PARSEC["x264"]], tdp=10.0,
            config=DsRemConfig(
                frequencies=COARSE.frequencies, exploit_margin=15.0
            ),
        )
        assert shy.peak_temperature <= eager.peak_temperature + 1e-9
        assert shy.gips <= eager.gips + 1e-9


class TestEndToEnd:
    def test_result_internally_consistent(self, small_chip):
        result = ds_rem(
            small_chip, [PARSEC["x264"], PARSEC["canneal"]], tdp=25.0,
            config=COARSE,
        )
        cores = [c for p in result.placed for c in p.cores]
        assert len(cores) == len(set(cores))
        assert result.active_cores == len(cores)
        assert result.total_power == pytest.approx(result.core_powers.sum())
        assert result.rejected == ()

    def test_custom_thread_options(self, small_chip):
        cfg = DsRemConfig(
            threads_options=[4], frequencies=[2.8 * GIGA, 3.6 * GIGA]
        )
        result = ds_rem(small_chip, [PARSEC["dedup"]], tdp=20.0, config=cfg)
        assert all(p.instance.threads == 4 for p in result.placed)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "cfg",
        [
            DsRemConfig(frequencies=[]),
            DsRemConfig(frequencies=[0.0, 2.0 * GIGA]),
            DsRemConfig(frequencies=[2.0 * GIGA, -1.0]),
            DsRemConfig(threads_options=[0, 2]),
            DsRemConfig(frequencies=COARSE.frequencies, max_steps=-1),
            DsRemConfig(frequencies=COARSE.frequencies, exploit_margin=-0.5),
        ],
        ids=[
            "empty-frequencies",
            "gated-frequency",
            "negative-frequency",
            "zero-threads",
            "negative-max-steps",
            "negative-margin",
        ],
    )
    def test_invalid_config_rejected(self, small_chip, cfg):
        with pytest.raises(ConfigurationError):
            ds_rem(small_chip, [PARSEC["x264"]], tdp=20.0, config=cfg)

    def test_duplicate_frequencies_are_deduplicated(self, small_chip):
        apps = [PARSEC["x264"], PARSEC["canneal"]]
        plain = ds_rem(small_chip, apps, tdp=25.0, config=COARSE)
        doubled = ds_rem(
            small_chip, apps, tdp=25.0,
            config=DsRemConfig(
                frequencies=list(COARSE.frequencies) * 2 + [2.8 * GIGA]
            ),
        )
        assert [
            (p.instance, p.cores, p.core_power) for p in doubled.placed
        ] == [(p.instance, p.cores, p.core_power) for p in plain.placed]
        assert doubled.peak_temperature == plain.peak_temperature


class TestTable:
    @pytest.mark.parametrize("chip_name", ["small_chip", "chip16"])
    def test_cells_equal_scalar_model(self, request, chip_name):
        chip = request.getfixturevalue(chip_name)
        apps = [PARSEC[name] for name in sorted(PARSEC)]
        frequencies = chip.node.frequency_ladder()
        table = _Table(chip, apps, frequencies, None)
        assert len(table.keys) == sum(a.max_threads for a in apps) * len(frequencies)
        for a, app in enumerate(apps):
            for n in range(1, app.max_threads + 1):
                for k, f in enumerate(frequencies):
                    expected = app.core_power(chip.node, n, f, temperature=chip.t_dtm)
                    assert table.core_power[a, n, k] == expected
                    assert table.performance[a, n, k] == app.instance_performance(n, f)

    def test_candidates_in_app_threads_frequency_order(self, small_chip):
        apps = [PARSEC["dedup"], PARSEC["x264"]]
        table = _Table(small_chip, apps, COARSE.frequencies, [4, 2, 9])
        expected = [
            (a, n, k) for a in range(2) for n in (4, 2) for k in range(3)
        ]
        assert table.keys == expected
        assert np.isnan(table.core_power[:, 3]).all()
        for i, (a, n, k) in enumerate(expected):
            assert table.instance_power[i] == n * table.core_power[a, n, k]
