"""The event-driven DsRem budget phase against the masked-argmax oracle.

:func:`oracle_density_greedy` and :func:`oracle_upgrade_pass` are the
budget phase as it was before the event-driven rewrite: the density
greedy takes one masked ``argmax`` over every table entry per added
instance, and the upgrade pass one masked ``argmax`` of gain per extra
watt per step.  The production pointer walk and upgrade heap must make
exactly their decisions (same instances, cores and per-core powers, the
same leftover power after the greedy and the same step count) on

* seeded random tables built to stress the shortcuts: small-integer
  powers and performances give tied densities and tied upgrade scores,
  non-monotone rows give ``gain <= 0`` steps and steps with negative
  extra power (which must bring parked upgrades back), and a range of
  TDPs runs the budget out early or leaves it unspent;
* upgrade passes started from random placed states, and seeded cases
  shaped so that a step returning power brings a parked upgrade back
  within budget (random tables almost never do);
* ``max_steps`` of 0, 1, a mid value and the default;
* the real 16 nm tables of the ``dsrem_mix`` benchmark mixes.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.parsec import app_by_name
from repro.mapping.base import Placer
from repro.mapping.dsrem import (
    DsRemConfig,
    _density_greedy,
    _next_step,
    _State,
    _Table,
    _upgrade_pass,
)
from repro.mapping.patterns import ThermalSpreadPlacer

#: The seed-1 mixes of the ``dsrem_mix`` benchmark workload.
BENCH_MIXES = (
    ("dedup", "canneal", "blackscholes", "x264"),
    ("swaptions", "bodytrack", "ferret", "canneal"),
    ("x264", "bodytrack", "dedup"),
    ("ferret",),
    ("swaptions", "blackscholes", "dedup"),
    ("canneal", "ferret", "blackscholes", "bodytrack"),
    ("x264", "swaptions"),
)
BENCH_TDP = 185.0

MAX_STEPS = (0, 1, 7, DsRemConfig().max_steps)
N_TABLES = 60


def oracle_density_greedy(state, tdp, events):
    """Masked-argmax density greedy; returns the power left.

    ``events`` counts tied densities among the fitting entries and
    stops with free cores left (the TDP ran out).
    """
    table = state.table
    remaining_power = tdp
    free_cores = state.chip.n_cores
    density = table.instance_performance / table.instance_power
    while True:
        fits = (table.threads <= free_cores) & (table.instance_power <= remaining_power)
        if not fits.any():
            if (table.threads <= free_cores).any():
                _note(events, "tdp_exhausted")
            break
        masked = np.where(fits, density, -np.inf)
        i = int(np.argmax(masked))
        if np.count_nonzero(masked == masked[i]) > 1:
            _note(events, "density_tie")
        if not state.add(table.keys[i]):
            break
        remaining_power -= state.power[-1] * len(state.cores[-1])
        free_cores -= len(state.cores[-1])
    return remaining_power


def oracle_upgrade_pass(state, remaining_power, max_steps, events):
    """Masked-argmax upgrade pass; returns the number of steps applied.

    ``events`` counts the cases the heap must get right: tied scores,
    upgrades over budget, eligible steps with ``gain <= 0``, steps with
    negative extra power, and an upgrade chosen after it was over
    budget at an earlier step ("readmitted").
    """
    table = state.table
    steps = 0
    if not state.keys:
        return steps
    apps, threads, freqs = np.array(state.keys).T.copy()
    extra, gain = _next_step(table, apps, threads, freqs)
    top = len(table.frequencies) - 1
    was_over_budget = np.zeros(len(freqs), dtype=bool)
    for _ in range(max_steps):
        eligible = (freqs < top) & (gain > 0)
        admissible = eligible & (extra <= remaining_power)
        if not admissible.any():
            break
        score = np.where(admissible, gain / np.maximum(extra, 1e-9), -np.inf)
        i = int(np.argmax(score))
        if np.count_nonzero(score == score[i]) > 1:
            _note(events, "score_tie")
        if was_over_budget[i]:
            _note(events, "readmitted")
        if (eligible & ~admissible).any():
            _note(events, "over_budget")
        was_over_budget |= eligible & ~admissible
        was_over_budget[i] = False
        if ((freqs < top) & (gain <= 0)).any():
            _note(events, "nonpositive_gain")
        if extra[i] < 0:
            _note(events, "negative_extra")
        remaining_power -= float(extra[i])
        freqs[i] += 1
        state.replace(i, int(freqs[i]))
        steps += 1
        extra[i], gain[i] = _next_step(table, apps[i], threads[i], freqs[i])
    return steps


def _note(events, name):
    events[name] = events.get(name, 0) + 1


class _FirstFreePlacer(Placer):
    """Takes the lowest free core indices; needs no thermal model."""

    def place(self, chip, n_cores, occupied):
        free = [c for c in range(chip.n_cores) if c not in occupied]
        return free[:n_cores] if len(free) >= n_cores else None


class _ArrayApp:
    """An application whose power and performance tables are given."""

    def __init__(self, core_power, performance, frequencies):
        self.max_threads = core_power.shape[0] - 1
        self._power = core_power
        self._performance = performance
        self._level = {f: k for k, f in enumerate(frequencies)}

    def core_power_table(self, node, options, frequencies, temperature):
        return self._power[options]

    def instance_performance(self, n, f):
        return float(self._performance[n, self._level[f]])


def _random_table(seed):
    """A seeded random chip, configuration table and TDPs."""
    rng = np.random.default_rng(seed)
    n_freqs = int(rng.integers(1, 7))
    frequencies = [1.0e9 + 0.25e9 * k for k in range(n_freqs)]
    apps = []
    for _ in range(int(rng.integers(1, 4))):
        shape = (int(rng.integers(1, 7)) + 1, n_freqs)
        if rng.random() < 0.4:
            # Small integers: tied densities and scores.  Performance
            # mostly rises (some steps gain <= 0); power is random, so
            # a step can return more power than the one before cost.
            power = rng.integers(1, 5, size=shape).astype(float)
            perf = 6.0 + np.cumsum(rng.integers(-1, 3, size=shape), axis=1)
        else:
            # Rising rows, power convex so that density falls with the
            # level.  A power spike at one inner level makes the step
            # after it return power, once upgrades have climbed there.
            power = 1.0 + np.cumsum(rng.uniform(0.0, 1.0, size=shape), axis=1) ** 2
            perf = 3.0 + np.cumsum(rng.uniform(0.1, 2.0, size=shape), axis=1)
            if n_freqs > 2:
                power[:, int(rng.integers(1, n_freqs - 1))] += rng.uniform(1.0, 4.0)
        apps.append(_ArrayApp(power, perf, frequencies))
    threads_options = None
    if rng.random() < 0.3:
        threads_options = [int(n) for n in rng.permutation(np.arange(1, 8))[:3]]
    chip = SimpleNamespace(node=None, t_dtm=80.0, n_cores=int(rng.integers(4, 40)))
    table = _Table(chip, apps, frequencies, threads_options)
    # From budgets the greedy exhausts on a few instances to ones that
    # leave power for most upgrades.
    full = float(np.nanmax(table.core_power, initial=1.0)) * chip.n_cores
    tdps = sorted(float(t) for t in rng.uniform(0.05, 1.0, size=4) * full)
    return chip, table, tdps


def _compare(chip, placer, table, tdp, max_steps, events):
    """Run oracle and production side by side; return the step count."""
    slow = _State(chip, placer, table)
    fast = _State(chip, placer, table)
    slow_left = oracle_density_greedy(slow, tdp, events)
    fast_left = _density_greedy(fast, tdp)
    assert (fast.keys, fast.cores, fast.power) == (slow.keys, slow.cores, slow.power)
    assert fast_left == slow_left
    return _compare_upgrades(slow, fast, slow_left, max_steps, events)


def _compare_upgrades(slow, fast, remaining_power, max_steps, events):
    slow_steps = oracle_upgrade_pass(slow, remaining_power, max_steps, events)
    fast_steps = _upgrade_pass(fast, remaining_power, max_steps)
    assert fast_steps == slow_steps
    assert (fast.keys, fast.cores, fast.power) == (slow.keys, slow.cores, slow.power)
    return fast_steps


def _random_start(chip, table, rng):
    """Two equal states seeded with random instances at random levels.

    The greedy never starts an instance below a level with more
    performance for less power; these starts do, so the pass begins
    with steps that return power.
    """
    states = [_State(chip, _FirstFreePlacer(), table) for _ in range(2)]
    for j in rng.integers(0, len(table.keys), size=int(rng.integers(1, 6))):
        for state in states:
            state.add(table.keys[j])
    return states


def _random_budget(state, rng):
    """A budget just under one placed instance's next-step extra power."""
    if not state.keys:
        return 0.0
    a, n, k = state.keys[int(rng.integers(len(state.keys)))]
    return float(rng.uniform(0.5, 1.0)) * abs(state.table.extra_of[a][n][k])


@pytest.mark.parametrize("max_steps", MAX_STEPS)
def test_random_tables_match_oracle(max_steps):
    events: dict[str, int] = {}
    steps = []
    for seed in range(N_TABLES):
        chip, table, tdps = _random_table(seed)
        for tdp in tdps:
            steps.append(
                _compare(chip, _FirstFreePlacer(), table, tdp, max_steps, events)
            )
        if table.keys:
            rng = np.random.default_rng([seed, max_steps])
            slow, fast = _random_start(chip, table, rng)
            budget = _random_budget(slow, rng)
            steps.append(_compare_upgrades(slow, fast, budget, max_steps, events))
    if max_steps <= 7:
        assert max(steps) == max_steps  # the bound cuts some passes short
    assert events.get("density_tie", 0) > 0
    assert events.get("tdp_exhausted", 0) > 0
    if max_steps > 1:
        # The sweep reached every case the heap shortcuts must handle.
        for name in (
            "score_tie",
            "over_budget",
            "nonpositive_gain",
            "negative_extra",
            "readmitted",
        ):
            assert events.get(name, 0) > 0, name


@pytest.mark.parametrize("mix", BENCH_MIXES, ids="+".join)
def test_bench_mix_tables_match_oracle(chip16, mix):
    table = _Table(
        chip16, [app_by_name(n) for n in mix], chip16.node.frequency_ladder(), None
    )
    steps = _compare(
        chip16, ThermalSpreadPlacer(), table, BENCH_TDP, MAX_STEPS[-1], {}
    )
    assert steps > 0


def _readmission_case(seed):
    """A seeded table, start and budget where a step that returns power
    readmits a parked upgrade.

    Instance A's power rises by ``e1`` from level 0, then falls by
    ``r > e1``; instance B's first step costs ``e_b > e1`` with a better
    score than A's first step.  With a budget ``R`` in
    ``[max(e1, e_b - (r - e1)), e_b)`` B is parked, A takes both its
    steps, and B then fits.  Random tables almost never hit that window.
    """
    rng = np.random.default_rng(seed)
    frequencies = [1.0e9, 2.0e9, 3.0e9]
    e1 = rng.uniform(0.5, 2.0)
    r = e1 + rng.uniform(0.5, 2.0)
    e_b = e1 + rng.uniform(0.1, 0.9) * (r - e1)
    g1 = rng.uniform(0.5, 2.0)
    g_b = g1 * e_b / e1 * rng.uniform(1.1, 2.0)
    p_a = r + rng.uniform(0.5, 2.0)
    p_b = rng.uniform(0.5, 2.0)
    rows = {
        "a": ([p_a, p_a + e1, p_a + e1 - r], [5.0, 5.0 + g1, 6.0 + g1]),
        "b": ([p_b, p_b + e_b, p_b + e_b + 1.0], [5.0, 5.0 + g_b, 6.0 + g_b]),
    }
    order = ["a", "b"] if rng.random() < 0.5 else ["b", "a"]
    apps = [
        _ArrayApp(
            np.array([[np.nan] * 3, rows[name][0]]),
            np.array([[np.nan] * 3, rows[name][1]]),
            frequencies,
        )
        for name in order
    ]
    chip = SimpleNamespace(node=None, t_dtm=80.0, n_cores=4)
    table = _Table(chip, apps, frequencies, None)
    states = [_State(chip, _FirstFreePlacer(), table) for _ in range(2)]
    for state in states:
        for a in range(2):
            assert state.add((a, 1, 0))
    budget = rng.uniform(max(e1, e_b - (r - e1)), e_b)
    return states, budget


@pytest.mark.parametrize("seed", range(10))
def test_power_returning_step_readmits_parked_upgrade(seed):
    (slow, fast), budget = _readmission_case(seed)
    events: dict[str, int] = {}
    assert _compare_upgrades(slow, fast, budget, MAX_STEPS[-1], events) >= 3
    assert events["negative_extra"] > 0
    assert events["readmitted"] > 0
