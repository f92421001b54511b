"""Per-step cost budget of the boosting loop, from the obs counters.

Each control period must make one Eq. (1) power evaluation (plus one per
power-cap back-off), one step solve and no refactorisation, so a
regression that brings back a second evaluation or a second solve per
step fails here and not only in the benchmark.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.apps.parsec import PARSEC
from repro.apps.workload import Workload
from repro.boosting.controller import BoostingController
from repro.boosting.simulation import place_workload, run_boosting
from repro.units import GIGA

STEPS = 50
DT = 1e-3
START = 3.0 * GIGA


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


def _capped_run(chip):
    """One capped 50-step run; the registry is reset after its set-up."""
    placed = place_workload(
        chip, Workload.replicate(PARSEC["x264"], 2, 4, START)
    )
    # Binding cap: the controller boosts above START, the cap pulls it back.
    cap = float(placed.total_powers(START, np.full(chip.n_cores, chip.t_dtm)).sum())
    controller = BoostingController(
        f_min=chip.node.f_min,
        f_max=chip.node.f_max,
        step=chip.node.dvfs_step,
        threshold=chip.t_dtm,
        initial_frequency=START,
    )
    obs.reset()
    return run_boosting(
        placed,
        controller,
        duration=STEPS * DT,
        dt=DT,
        record_interval=STEPS * DT,
        warm_start_frequency=START,
        power_cap=cap,
    )


def test_one_evaluation_and_one_solve_per_step(small_chip, counters):
    _capped_run(small_chip)
    c = counters()
    assert c["thermal.transient.steps"] == STEPS
    assert c["thermal.transient.simulations"] == 1
    # Every step's solve plus the warm start's steady solve.
    assert c["solver.cost.rhs_columns"] == STEPS + 1
    assert c["boosting.cap_backoffs"] > 0
    # One evaluation per step and per back-off, plus the warm start.
    assert c["boosting.power_evals"] <= STEPS + c["boosting.cap_backoffs"] + 1


def test_second_run_reuses_step_factorization(small_chip, counters):
    _capped_run(small_chip)
    _capped_run(small_chip)
    c = counters()
    assert c.get("solver.cost.factorizations", 0) == 0
    assert c.get("thermal.transient.lu_factorisations", 0) == 0
    assert c["solver.cost.rhs_columns"] == STEPS + 1


def test_boosting_run_spans_and_histogram(small_chip, counters):
    _capped_run(small_chip)
    snap = obs.snapshot()
    assert snap["spans"]["boosting.transient"]["count"] == 1
    assert snap["histograms"]["thermal.transient.steps_per_sim"]["sum"] == STEPS
