"""Per-call cost budget of DsRem, from the obs counters.

Over the seven seed-1 mixes of the ``dsrem_mix`` benchmark workload
(16 nm, 185 W), each ``ds_rem`` call must make exactly the steady-state
solves it made before the event-driven budget phase (one per peak or
hottest-core query of the repair and exploit phases; the budget phase
makes none), and apply exactly the upgrade steps the masked-argmax
oracle applies.  A regression that adds a solve per step, or a budget
phase that takes a different number of steps, fails here on any host.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.apps.parsec import app_by_name
from repro.mapping.dsrem import DsRemConfig, _State, _Table, ds_rem
from repro.mapping.patterns import ThermalSpreadPlacer
from tests.test_mapping_dsrem_oracle import (
    BENCH_TDP,
    oracle_density_greedy,
    oracle_upgrade_pass,
)

#: mix -> steady solves (= solver right-hand-side columns) per call.
SOLVES = {
    ("dedup", "canneal", "blackscholes", "x264"): 39,
    ("swaptions", "bodytrack", "ferret", "canneal"): 39,
    ("x264", "bodytrack", "dedup"): 39,
    ("ferret",): 31,
    ("swaptions", "blackscholes", "dedup"): 39,
    ("canneal", "ferret", "blackscholes", "bodytrack"): 39,
    ("x264", "swaptions"): 39,
}


@pytest.fixture()
def counters():
    """Enable the global registry; yield a reader of its counters."""
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    yield lambda: dict(obs.snapshot()["counters"])
    obs.reset()
    if not was_enabled:
        obs.disable()


def _oracle_steps(chip, apps):
    table = _Table(chip, apps, chip.node.frequency_ladder(), None)
    state = _State(chip, ThermalSpreadPlacer(), table)
    remaining_power = oracle_density_greedy(state, BENCH_TDP, {})
    return oracle_upgrade_pass(state, remaining_power, DsRemConfig().max_steps, {})


@pytest.mark.parametrize("mix", sorted(SOLVES), ids="+".join)
def test_dsrem_call_cost_budget(chip16, counters, mix):
    apps = [app_by_name(n) for n in mix]
    chip16.thermal.influence_matrix()  # built once per chip, not per call
    obs.reset()
    ds_rem(chip16, apps, BENCH_TDP)
    c = counters()
    assert c["thermal.steady.solves"] == SOLVES[mix]
    assert c["solver.cost.rhs_columns"] == SOLVES[mix]
    assert c["mapping.dsrem.upgrade_steps"] == _oracle_steps(chip16, apps)
