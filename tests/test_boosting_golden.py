"""Golden equivalence of the boosting transients: exact trajectories.

``tests/data/boosting_golden.json`` holds, per run, the sha256 of every
trace array of the :class:`~repro.boosting.simulation.BoostingRunResult`
(``times``, ``frequencies``, ``gips``, ``peak_temperatures``,
``total_powers``; hashed as ``.tobytes()``) plus its exact aggregates,
and for one :meth:`TransientSimulator.simulate` trajectory the sha256 of
its times, core temperatures and core powers.  The file was recorded
from the per-step loop that evaluated Eq. (1) twice per control period,
so any change of a controller decision or of a single float bit shows.

Cases:

* the seed-1 cases of the ``boost_transient`` benchmark workload
  (Figure 13 on the 11 nm chip: best constant level, then capped
  boosting for 1 s from its steady state at a 500 W cap);
* Figure 11 at its quick defaults (16 nm, 12 x264 instances, 2 s,
  0.5 s trace): the constant run and the capped boosting run;
* an uncapped boosting run, a boosting run from ambient and a run with
  a binding cap (1.1 x the constant level's power, 10 ms trace) on
  ``small_chip``;
* one per-instance boosting run on ``small_chip``;
* one closed-loop ``TransientSimulator.simulate`` trajectory.

Regenerate (only after a deliberate model change) with::

    PYTHONPATH=src python -m tests.test_boosting_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps.parsec import app_by_name
from repro.apps.workload import ApplicationInstance, Workload
from repro.boosting.constant import best_constant_frequency
from repro.boosting.controller import BoostingController
from repro.boosting.simulation import (
    place_workload,
    run_boosting,
    run_constant,
    run_per_instance_boosting,
)
from repro.chip import Chip
from repro.mapping.patterns import NeighbourhoodSpreadPlacer
from repro.power.vf_curve import VFCurve
from repro.tech.library import NODE_11NM, NODE_16NM
from repro.thermal.transient import TransientSimulator
from repro.units import GIGA

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "boosting_golden.json"

TRACES = ("times", "frequencies", "gips", "peak_temperatures", "total_powers")
AGGREGATES = (
    "average_gips",
    "average_power",
    "max_power",
    "max_temperature",
    "energy",
)

#: The distinct (app, instances) cases of the seed-1 ``boost_transient``
#: pass, in first-seen order.
BENCH_CASES: tuple[tuple[str, int], ...] = (
    ("x264", 12),
    ("bodytrack", 12),
    ("canneal", 12),
    ("ferret", 24),
    ("dedup", 24),
    ("swaptions", 12),
    ("blackscholes", 24),
    ("blackscholes", 12),
    ("x264", 24),
    ("dedup", 12),
    ("ferret", 12),
)
BENCH_CAP = 500.0
BENCH_DURATION = 1.0


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def summarise(result) -> dict:
    """Trace digests and exact aggregates of one boosting run."""
    out = {name: _digest(getattr(result, name)) for name in TRACES}
    out.update({name: getattr(result, name) for name in AGGREGATES})
    return out


def _controller(chip: Chip, start: float) -> BoostingController:
    return BoostingController(
        f_min=chip.node.f_min,
        f_max=VFCurve.for_node(chip.node).f_limit,
        step=chip.node.dvfs_step,
        threshold=chip.t_dtm,
        initial_frequency=start,
    )


def _spread(chip: Chip, app: str, instances: int, threads: int = 8):
    workload = Workload.replicate(
        app_by_name(app), instances, threads, chip.node.f_max
    )
    return place_workload(chip, workload, placer=NeighbourhoodSpreadPlacer())


def _run_bench(chip11: Chip, app: str, instances: int) -> dict:
    placed = _spread(chip11, app, instances)
    const = best_constant_frequency(placed)
    boost = run_boosting(
        placed,
        _controller(chip11, const.frequency),
        duration=BENCH_DURATION,
        record_interval=BENCH_DURATION,
        warm_start_frequency=const.frequency,
        power_cap=BENCH_CAP,
    )
    return {"constant_frequency": const.frequency, "boosting": summarise(boost)}


def _run_fig11(chip16: Chip) -> dict:
    placed = _spread(chip16, "x264", 12)
    const = best_constant_frequency(placed)
    constant = run_constant(
        placed, const.frequency, duration=2.0, record_interval=0.5
    )
    boost = run_boosting(
        placed,
        _controller(chip16, const.frequency),
        duration=2.0,
        record_interval=0.5,
        warm_start_frequency=const.frequency,
        power_cap=500.0,
    )
    return {"constant": summarise(constant), "boosting": summarise(boost)}


def _small_placed(chip: Chip):
    w = Workload.replicate(app_by_name("x264"), 2, 4, 3.0 * GIGA)
    return place_workload(chip, w)


def _run_small(small: Chip, name: str) -> dict:
    placed = _small_placed(small)
    const = best_constant_frequency(placed)
    if name == "uncapped":
        result = run_boosting(
            placed,
            _controller(small, const.frequency),
            duration=0.5,
            record_interval=0.05,
            warm_start_frequency=const.frequency,
        )
    elif name == "from-ambient":
        result = run_boosting(
            placed,
            _controller(small, small.node.f_min),
            duration=0.3,
            record_interval=0.01,
            power_cap=const.total_power,
        )
    elif name == "binding-cap":
        result = run_boosting(
            placed,
            _controller(small, const.frequency),
            duration=0.5,
            record_interval=0.01,
            warm_start_frequency=const.frequency,
            power_cap=1.1 * const.total_power,
        )
    elif name == "constant-cold":
        result = run_constant(
            placed, 2.0 * GIGA, duration=0.2, record_interval=0.01,
            warm_start=False,
        )
    else:
        raise KeyError(name)
    return summarise(result)


SMALL_CASES = ("binding-cap", "constant-cold", "from-ambient", "uncapped")


def _run_per_instance(small: Chip) -> dict:
    w = Workload()
    w.add(ApplicationInstance(app_by_name("x264"), 4, 3.0 * GIGA))
    w.add(ApplicationInstance(app_by_name("canneal"), 4, 2.0 * GIGA))
    placed = place_workload(small, w)
    start = 2.0 * GIGA
    result = run_per_instance_boosting(
        placed,
        [_controller(small, start) for _ in range(2)],
        duration=0.5,
        record_interval=0.05,
        warm_start_frequencies=[start, start],
        power_cap=20.0,
    )
    return summarise(result)


def _run_simulate(small: Chip) -> dict:
    sim = TransientSimulator(small.thermal, dt=1e-3)
    n = small.n_cores
    base = np.linspace(0.5, 2.0, n)

    def schedule(t, temps):
        # A thermostat: cores above 60 degC throttle to a quarter power.
        return np.where(temps > 60.0, 0.25 * base, base) * (1.0 + t)

    result = sim.simulate(schedule, duration=0.4, record_interval=0.002)
    return {
        "times": _digest(result.times),
        "core_temperatures": _digest(result.core_temperatures),
        "core_powers": _digest(result.core_powers),
    }


def _bench_key(case: tuple[str, int]) -> str:
    return f"{case[0]}-{case[1]}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", BENCH_CASES, ids=_bench_key)
def test_bench_case_matches_golden(chip11, golden, case):
    assert _run_bench(chip11, *case) == golden["bench_11nm"][_bench_key(case)]


def test_fig11_quick_matches_golden(chip16, golden):
    assert _run_fig11(chip16) == golden["fig11_quick"]


@pytest.mark.parametrize("name", SMALL_CASES)
def test_small_chip_run_matches_golden(small_chip, golden, name):
    assert _run_small(small_chip, name) == golden["small_chip"][name]


def test_per_instance_run_matches_golden(small_chip, golden):
    assert _run_per_instance(small_chip) == golden["per_instance"]


def test_simulate_trajectory_matches_golden(small_chip, golden):
    assert _run_simulate(small_chip) == golden["simulate"]


def test_golden_covers_every_case(golden):
    assert set(golden["bench_11nm"]) == {_bench_key(c) for c in BENCH_CASES}
    assert set(golden["small_chip"]) == set(SMALL_CASES)


def _record() -> dict:
    chip11 = Chip.for_node(NODE_11NM)
    chip16 = Chip.for_node(NODE_16NM)
    small = Chip.grid_chip(NODE_16NM, 4, 4)
    return {
        "bench_11nm": {
            _bench_key(c): _run_bench(chip11, *c) for c in BENCH_CASES
        },
        "fig11_quick": _run_fig11(chip16),
        "small_chip": {n: _run_small(small, n) for n in SMALL_CASES},
        "per_instance": _run_per_instance(small),
        "simulate": _run_simulate(small),
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
