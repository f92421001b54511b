"""Golden equivalence of the online runtime: exact event-loop outcomes.

``tests/data/runtime_golden.json`` holds, per run, the sha256 of the
canonical payload of its :class:`~repro.runtime.simulator.RuntimeResult`
(every completion record with its job, start, finish, threads,
frequency and cores, plus makespan, energy, peak temperature and busy
core-seconds) and the exact makespan.  The file was recorded from the
event loop that re-ran every admission attempt and every peak query on
each event, so any change of a placement, an admission decision, an
event time or a single float bit shows.

Cases:

* the eight seed-1 streams of the ``runtime_stream`` benchmark workload
  (all seven apps, 200 jobs, 0.1 s mean interarrival, 8 nm chip) under
  both policies;
* the registered ``runtime`` experiment at its defaults and in quick
  mode (16 nm chip);
* a backlogged ``small_chip`` stream under each policy;
* the same stream with a :class:`ThermalSpreadPlacer` (TSP policy) and
  with a :class:`CheckerboardPlacer` (TDP-FIFO);
* a fixed-frequency :class:`TdpFifoPolicy`.

Regenerate (only after a deliberate model change) with::

    PYTHONPATH=src python -m tests.test_runtime_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.parsec import app_by_name
from repro.chip import Chip
from repro.core.tsp import ThermalSafePower
from repro.experiments import registry
from repro.experiments.common import get_chip
from repro.io import encode_value
from repro.mapping.patterns import CheckerboardPlacer, ThermalSpreadPlacer
from repro.runtime import (
    OnlineSimulator,
    TdpFifoPolicy,
    TspAdaptivePolicy,
    deterministic_job_stream,
)
from repro.tech.library import NODE_16NM
from repro.units import GIGA

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "runtime_golden.json"

#: Stream seeds of the seed-1 ``runtime_stream`` pass, in op order.
BENCH_STREAMS = (
    1843471136,
    2087767092,
    573570293,
    2092701099,
    1291230768,
    1730894514,
    1858076015,
    535426437,
)
BENCH_APPS = (
    "x264",
    "blackscholes",
    "bodytrack",
    "ferret",
    "canneal",
    "dedup",
    "swaptions",
)

SMALL_CASES = (
    "tdp-fifo",
    "tsp-adaptive",
    "thermal-spread",
    "checkerboard",
    "fixed-frequency",
)


def summarise(result) -> dict:
    """Payload digest and exact makespan of one runtime result."""
    text = json.dumps(encode_value(result), sort_keys=True)
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "makespan": result.makespan,
    }


def _comparison(result) -> dict:
    return {"tdp": summarise(result.tdp), "tsp": summarise(result.tsp)}


def _run_bench(chip8: Chip, stream_seed: int) -> dict:
    result = registry.get("runtime").runner(
        chip=chip8,
        app_names=list(BENCH_APPS),
        n_jobs=200,
        mean_interarrival=0.1,
        work=400e9,
        tdp=185.0,
        seed=stream_seed,
    )
    return _comparison(result)


def _run_experiment(quick: bool) -> dict:
    spec = registry.get("runtime")
    return _comparison(spec.runner(**spec.resolve({}, quick=quick)))


def _small_stream():
    apps = [app_by_name(n) for n in ("x264", "canneal", "swaptions", "ferret")]
    return deterministic_job_stream(
        apps, n_jobs=40, mean_interarrival=0.05, work=60e9, seed=11
    )


def _tsp_policy(small: Chip) -> TspAdaptivePolicy:
    # Two threads and a 10 K margin: the stream defers on placement and
    # on thermal verification alike.
    return TspAdaptivePolicy(
        ThermalSafePower(small), threads=2, safety_margin=10.0
    )


def _run_small(small: Chip, name: str) -> dict:
    if name == "tdp-fifo":
        sim = OnlineSimulator(small, TdpFifoPolicy(tdp=30.0, threads=4))
    elif name == "tsp-adaptive":
        sim = OnlineSimulator(small, _tsp_policy(small))
    elif name == "thermal-spread":
        sim = OnlineSimulator(
            small, _tsp_policy(small), placer=ThermalSpreadPlacer()
        )
    elif name == "checkerboard":
        sim = OnlineSimulator(
            small,
            TdpFifoPolicy(tdp=30.0, threads=4),
            placer=CheckerboardPlacer(),
        )
    elif name == "fixed-frequency":
        sim = OnlineSimulator(
            small, TdpFifoPolicy(tdp=20.0, threads=4, frequency=2.0 * GIGA)
        )
    else:
        raise KeyError(name)
    return summarise(sim.run(_small_stream()))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def chip8() -> Chip:
    return get_chip("8nm")


@pytest.mark.parametrize("stream_seed", BENCH_STREAMS)
def test_bench_stream_matches_golden(chip8, golden, stream_seed):
    assert _run_bench(chip8, stream_seed) == golden["bench_8nm"][str(stream_seed)]


@pytest.mark.parametrize("quick", [False, True], ids=["default", "quick"])
def test_runtime_experiment_matches_golden(golden, quick):
    key = "quick" if quick else "default"
    assert _run_experiment(quick) == golden["experiment"][key]


@pytest.mark.parametrize("name", SMALL_CASES)
def test_small_chip_run_matches_golden(small_chip, golden, name):
    assert _run_small(small_chip, name) == golden["small_chip"][name]


def test_golden_covers_every_case(golden):
    assert set(golden["bench_8nm"]) == {str(s) for s in BENCH_STREAMS}
    assert set(golden["experiment"]) == {"default", "quick"}
    assert set(golden["small_chip"]) == set(SMALL_CASES)


def _record() -> dict:
    chip8 = get_chip("8nm")
    small = Chip.grid_chip(NODE_16NM, 4, 4)
    return {
        "bench_8nm": {str(s): _run_bench(chip8, s) for s in BENCH_STREAMS},
        "experiment": {
            "default": _run_experiment(False),
            "quick": _run_experiment(True),
        },
        "small_chip": {n: _run_small(small, n) for n in SMALL_CASES},
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
