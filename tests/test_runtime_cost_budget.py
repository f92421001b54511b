"""Per-run cost budget of the online event loop, from the obs counters.

The loop re-evaluates only on a chip-state change: a deferred head job
is retried only after a completion (an arrival only appends to the
queue), and the chip's peak is queried only after an admission or a
completion.  So per run:

* evaluated deferrals <= completions + 1 (each deferral blocks the loop
  until the next completion);
* peak queries <= admissions + completions, and no peak query repeats
  the power vector of the query just before it.

A regression that re-tries the blocked head on every arrival, or
re-queries an unchanged chip on every interval, fails here.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.apps.parsec import app_by_name
from repro.core.tsp import ThermalSafePower
from repro.experiments.common import get_chip
from repro.runtime import (
    OnlineSimulator,
    TdpFifoPolicy,
    TspAdaptivePolicy,
    deterministic_job_stream,
)

APPS = ("x264", "canneal", "swaptions", "ferret")


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


#: name -> (threads, jobs, mean interarrival s, TDP W).  Both streams
#: are backlogged: the head job is deferred over and over while
#: arrivals keep coming.
CASES = {
    "small": (4, 40, 0.05, 30.0),
    "16nm": (8, 60, 0.02, 185.0),
}


@pytest.mark.parametrize("policy", ["tdp-fifo", "tsp-adaptive"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_event_loop_cost_budget(small_chip, counters, monkeypatch, case, policy):
    threads, n_jobs, interarrival, tdp = CASES[case]
    chip = small_chip if case == "small" else get_chip(case)
    if policy == "tdp-fifo":
        admission = TdpFifoPolicy(tdp=tdp, threads=threads)
    else:
        admission = TspAdaptivePolicy(ThermalSafePower(chip), threads=threads)
    jobs = deterministic_job_stream(
        [app_by_name(n) for n in APPS],
        n_jobs=n_jobs,
        mean_interarrival=interarrival,
        work=60e9,
        seed=11,
    )
    queried: list[bytes] = []
    peak_temperature = chip.engine.peak_temperature

    def recording_peak(core_powers):
        queried.append(core_powers.tobytes())
        return peak_temperature(core_powers)

    monkeypatch.setattr(chip.engine, "peak_temperature", recording_peak)
    obs.reset()
    result = OnlineSimulator(chip, admission).run(jobs)
    c = counters()

    completions = c["runtime.completions"]
    admissions = c["runtime.admissions"]
    assert completions == admissions == len(result.records) == n_jobs
    deferrals = c.get("runtime.placement_deferrals", 0) + c.get(
        "runtime.policy_deferrals", 0
    )
    # The stream is backlogged: the budgets below are not vacuous.
    assert deferrals > 0
    assert deferrals <= completions + 1
    peak_queries = (
        c.get("perf.batched.cache_hits", 0)
        + c.get("perf.batched.cache_misses", 0)
        + c.get("perf.batched.uncached_peaks", 0)
    )
    assert 0 < peak_queries == len(queried) <= admissions + completions
    repeats = sum(a == b for a, b in zip(queried, queried[1:]))
    assert repeats == 0
