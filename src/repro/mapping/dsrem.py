"""DsRem — joint thread-count / v-f selection with thermal repair.

DsRem (Khdr et al., DAC 2015, summarised in the paper's Section 4)
"jointly determines the number of active cores for each application and
their v/f levels, such that the overall performance is maximized.  [It]
first computes the optimal settings of applications under TDP, then it
heuristically modifies them, either to avoid potential thermal violations
or to exploit any available thermal headroom."

This module implements that three-phase heuristic:

1. **Budget phase** — greedy knapsack under TDP: repeatedly add the
   instance configuration (application from the mix, thread count,
   frequency) with the best performance-per-watt density that still fits
   the remaining power and cores, then upgrade frequencies with leftover
   power.  High-TLP applications naturally end up with many threads at
   moderate v/f; high-ILP applications with few threads at high v/f.
2. **Repair phase** — while the steady-state peak temperature exceeds
   T_DTM, step down the v/f of the instance heating the hottest core
   (removing it when already at the lowest level).
3. **Exploit phase** — while thermal headroom remains, try frequency
   upgrades (largest GIPS gain first) and additional instances that keep
   the peak temperature below T_DTM.

Placement uses a dark-silicon-patterning placer by default, since DsRem
builds on the DaSim insight that spreading active cores buys headroom.

The heuristic is table-driven.  Each call first evaluates one
``(app, threads, frequency index)`` table of per-core power at T_DTM and
instance performance, through the scalar Eq. (1) model with one model
build per application, so every entry is bit-identical to
:meth:`AppProfile.core_power`, plus the ``(extra power, gain)`` of
stepping each entry one level up.  The budget phase is event-driven
over that table: the density greedy is one pointer walk down the
entries sorted by density (an entry that stops fitting never fits
again, as power and cores are only spent), and the upgrade pass a heap
of the placed instances keyed by gain per extra watt, where only the
stepped instance is re-pushed.  The repair and exploit phases step
frequencies by table index.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.apps.profile import AppProfile
from repro.apps.workload import ApplicationInstance
from repro.chip import Chip
from repro.core.estimator import MappingResult, PlacedInstance
from repro.errors import ConfigurationError
from repro.mapping.base import Placer
from repro.mapping.patterns import ThermalSpreadPlacer
from repro.units import Hz, Watts


@dataclass(frozen=True)
class DsRemConfig:
    """Tuning knobs of the DsRem heuristic.

    Attributes:
        threads_options: candidate per-instance thread counts, each
            >= 1 (default 1..max_threads; larger entries are skipped
            per app).
        frequencies: candidate v/f levels, each > 0 (default: node
            ladder); duplicates are dropped and the levels sorted.
        exploit_margin: headroom (K, >= 0) below T_DTM at which the
            exploit phase stops trying upgrades.
        max_steps: safety bound (>= 0) on upgrade/repair/exploit
            iterations; a repair phase that runs out of it above
            T_DTM raises.

    :func:`ds_rem` raises :class:`ConfigurationError` on a violation.
    """

    threads_options: Optional[Sequence[int]] = None
    frequencies: Optional[Sequence[float]] = None
    exploit_margin: float = 0.25
    max_steps: int = 2000


class _Table:
    """Every configuration DsRem may choose, evaluated once per call.

    ``core_power[a, n, k]`` is the Eq. (1) per-core power at T_DTM (W)
    and ``performance[a, n, k]`` the instance throughput (IPS) of app
    ``apps[a]`` running ``n`` threads at ``frequencies[k]``; NaN marks
    thread counts that are not options.  ``keys`` lists the candidate
    ``(a, n, k)`` in app -> threads -> frequency order, so a first
    maximum over the flat arrays breaks ties as the scalar greedy walk
    did.  Each value comes from the scalar power model (one model build
    per app), so every entry is bit-identical to a direct
    ``AppProfile.core_power`` call.

    ``power_of[a][n][k]``, ``extra_of[a][n][k]`` and ``gain_of[a][n][k]``
    are nested-list copies of ``core_power`` and of :func:`_next_step`
    over the whole grid, for the phases' scalar reads (a list index is
    far cheaper than a NumPy scalar).
    """

    def __init__(
        self,
        chip: Chip,
        apps: Sequence[AppProfile],
        frequencies: Sequence[Hz],
        threads_options: Optional[Sequence[int]],
    ) -> None:
        self.apps = tuple(apps)
        self.frequencies = tuple(frequencies)
        shape = (len(apps), max(app.max_threads for app in apps) + 1, len(frequencies))
        self.core_power = np.full(shape, np.nan)
        self.performance = np.full(shape, np.nan)
        self.keys: list[tuple[int, int, int]] = []
        for a, app in enumerate(apps):
            if threads_options is None:
                options = list(range(1, app.max_threads + 1))
            else:
                options = [n for n in threads_options if n <= app.max_threads]
            if not options:
                continue
            self.core_power[a, options] = app.core_power_table(
                chip.node, options, frequencies, temperature=chip.t_dtm
            )
            self.performance[a, options] = [
                [app.instance_performance(n, f) for f in frequencies]
                for n in options
            ]
            self.keys += [(a, n, k) for n in options for k in range(len(frequencies))]
        key = tuple(np.array(self.keys, dtype=int).reshape(-1, 3).T)
        self.threads = key[1]
        self.instance_power = self.threads * self.core_power[key]
        self.instance_performance = self.performance[key]
        extra, gain = _next_step(self, *np.indices(shape))
        self.power_of = self.core_power.tolist()
        self.extra_of = extra.tolist()
        self.gain_of = gain.tolist()


class _State:
    """Mutable mapping state shared by the three phases.

    Instance ``i`` is the table configuration ``keys[i]`` (app, threads,
    frequency index) on ``cores[i]``, drawing ``power[i]`` W per core.
    """

    def __init__(self, chip: Chip, placer: Placer, table: _Table) -> None:
        self.chip = chip
        self.placer = placer
        self.table = table
        self.keys: list[tuple[int, int, int]] = []
        self.cores: list[tuple[int, ...]] = []
        self.power: list[Watts] = []

    @property
    def occupied(self) -> set[int]:
        return {c for cores in self.cores for c in cores}

    def core_powers(self) -> np.ndarray:
        powers = np.zeros(self.chip.n_cores)
        if self.cores:
            # Instances hold disjoint core sets: assignment, not a sum.
            powers[np.concatenate(self.cores)] = np.repeat(
                self.power, [len(c) for c in self.cores]
            )
        return powers

    def peak_temperature(self) -> float:
        return self.chip.solver.peak_temperature(self.core_powers())

    def add(self, key: tuple[int, int, int]) -> bool:
        cores = self.placer.place(self.chip, key[1], self.occupied)
        if cores is None:
            return False
        a, n, k = key
        self.keys.append(key)
        self.cores.append(tuple(cores))
        self.power.append(self.table.power_of[a][n][k])
        return True

    def replace(self, index: int, freq_index: int) -> None:
        a, n, _ = self.keys[index]
        self.keys[index] = (a, n, freq_index)
        self.power[index] = self.table.power_of[a][n][freq_index]

    def remove(self, index: int) -> None:
        del self.keys[index], self.cores[index], self.power[index]

    def hottest_instance(self) -> Optional[int]:
        """Index of the placed instance containing the hottest core."""
        if not self.keys:
            return None
        temps = self.chip.solver.temperatures(self.core_powers())
        hottest_core = int(np.argmax(temps))
        for i, cores in enumerate(self.cores):
            if hottest_core in cores:
                return i
        # The hottest core is dark (heated by neighbours): blame the
        # instance with the highest per-core power instead.
        return max(range(len(self.power)), key=self.power.__getitem__)

    def result(self) -> MappingResult:
        table = self.table
        placed = tuple(
            PlacedInstance(
                instance=ApplicationInstance(
                    app=table.apps[a], threads=n, frequency=table.frequencies[k]
                ),
                cores=cores,
                core_power=power,
            )
            for (a, n, k), cores, power in zip(self.keys, self.cores, self.power)
        )
        powers = self.core_powers()
        return MappingResult(
            chip=self.chip,
            placed=placed,
            rejected=(),
            core_powers=powers,
            peak_temperature=self.chip.solver.peak_temperature(powers),
        )


def ds_rem(
    chip: Chip,
    apps: Sequence[AppProfile],
    tdp: Watts,
    placer: Optional[Placer] = None,
    config: Optional[DsRemConfig] = None,
) -> MappingResult:
    """Run DsRem for an application mix on ``chip``.

    Args:
        chip: the target chip.
        apps: the application mix (each may receive any number of
            instances, including zero).
        tdp: the TDP used by the budget phase, W.
        placer: position policy; defaults to the thermal spread placer.
        config: heuristic tuning knobs.

    Returns:
        The final thermally-safe :class:`MappingResult`.

    Raises:
        ConfigurationError: on an empty mix, a non-positive TDP, an
            invalid :class:`DsRemConfig`, or when the repair phase does
            not reach T_DTM within ``max_steps``.
    """
    if not apps:
        raise ConfigurationError("need at least one application in the mix")
    if tdp <= 0:
        raise ConfigurationError(f"tdp must be positive, got {tdp}")
    cfg = config or DsRemConfig()
    frequencies = _validate_config(chip, cfg)
    table = _Table(chip, apps, frequencies, cfg.threads_options)
    obs.incr("mapping.dsrem.table_cells", len(table.keys))
    state = _State(chip, placer or ThermalSpreadPlacer(), table)

    with obs.span("mapping.dsrem.budget"):
        steps = _budget_phase(state, tdp, cfg)
    obs.incr("mapping.dsrem.upgrade_steps", steps)
    with obs.span("mapping.dsrem.repair"):
        _repair_phase(state, cfg)
    with obs.span("mapping.dsrem.exploit"):
        _exploit_phase(state, cfg)
    return state.result()


def _validate_config(chip: Chip, cfg: DsRemConfig) -> list[Hz]:
    """Check ``cfg``; return its v/f levels, ascending and deduplicated.

    Raises:
        ConfigurationError: on an invalid configuration.
    """
    if cfg.threads_options is not None and any(n < 1 for n in cfg.threads_options):
        raise ConfigurationError(
            f"threads_options must all be >= 1, got {list(cfg.threads_options)}"
        )
    if cfg.max_steps < 0:
        raise ConfigurationError(f"max_steps must be non-negative, got {cfg.max_steps}")
    if cfg.exploit_margin < 0:
        raise ConfigurationError(
            f"exploit_margin must be non-negative, got {cfg.exploit_margin}"
        )
    frequencies = (
        cfg.frequencies if cfg.frequencies is not None else chip.node.frequency_ladder()
    )
    if not frequencies:
        raise ConfigurationError("frequencies must not be empty")
    if not all(f > 0 for f in frequencies):
        raise ConfigurationError(
            f"frequencies must all be positive, got {list(frequencies)}"
        )
    return sorted(set(frequencies))


# -- phase 1: greedy knapsack under TDP -------------------------------


def _budget_phase(state: _State, tdp: Watts, cfg: DsRemConfig) -> int:
    """Spend ``tdp`` on instances, then on frequency upgrades.

    Returns the number of upgrade steps applied.
    """
    remaining_power = _density_greedy(state, tdp)
    return _upgrade_pass(state, remaining_power, cfg.max_steps)


def _density_greedy(state: _State, tdp: Watts) -> Watts:
    """Add the densest configuration that fits until none does.

    Density is performance per watt; ties go to the lowest table index,
    as with a first ``argmax``.  Every add spends cores and power, so an
    entry that does not fit now never fits again: one walk down the
    entries in density order suffices, re-adding an entry while it
    still fits.  Stops early if the placer fails.  Returns the power
    left.
    """
    table = state.table
    remaining_power = tdp
    free_cores = state.chip.n_cores
    threads = table.threads.tolist()
    power = table.instance_power.tolist()
    density = table.instance_performance / table.instance_power
    for j in np.argsort(-density, kind="stable").tolist():
        while threads[j] <= free_cores and power[j] <= remaining_power:
            if not state.add(table.keys[j]):
                return remaining_power
            remaining_power -= state.power[-1] * len(state.cores[-1])
            free_cores -= len(state.cores[-1])
    return remaining_power


def _upgrade_pass(state: _State, remaining_power: Watts, max_steps: int) -> int:
    """Spend leftover power on one-level frequency upgrades.

    Each step applies the admissible upgrade (below the top level,
    positive gain, extra power within the remaining budget) with the
    largest gain per extra watt, ties to the lowest instance index.
    The heap holds the placed instances whose next step is below the top
    with positive gain, keyed ``(-score, index)``; only the stepped
    instance's next step changes, so only it is re-pushed.  A head whose
    extra power exceeds the budget is parked: it stays inadmissible
    while steps only spend power, and goes back on the heap once a step
    with negative extra power returns some.  Returns the number of steps
    applied (at most ``max_steps``).
    """
    table = state.table
    top = len(table.frequencies) - 1

    def entry(i: int) -> Optional[tuple[float, int]]:
        a, n, k = state.keys[i]
        gain = table.gain_of[a][n][k]
        if k < top and gain > 0:
            return -(gain / max(table.extra_of[a][n][k], 1e-9)), i
        return None

    heap = [e for e in map(entry, range(len(state.keys))) if e is not None]
    heapq.heapify(heap)
    parked: list[tuple[float, int]] = []
    steps = 0
    while steps < max_steps and heap:
        head = heapq.heappop(heap)
        i = head[1]
        a, n, k = state.keys[i]
        extra = table.extra_of[a][n][k]
        if extra > remaining_power:
            parked.append(head)
            continue
        remaining_power -= extra
        state.replace(i, k + 1)
        steps += 1
        if extra < 0 and parked:
            heap += parked
            heapq.heapify(heap)
            parked = []
        stepped = entry(i)
        if stepped is not None:
            heapq.heappush(heap, stepped)
    return steps


def _next_step(
    table: _Table, apps: np.ndarray, threads: np.ndarray, freqs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Extra instance power (W) and performance gain (IPS) of stepping
    each ``(app, threads, frequency index)`` one level up.

    Both are 0 at the top level and NaN where ``threads`` is not an
    option.
    """
    up = np.minimum(freqs + 1, len(table.frequencies) - 1)
    power = table.core_power
    extra = threads * power[apps, threads, up] - power[apps, threads, freqs] * threads
    gain = table.performance[apps, threads, up] - table.performance[apps, threads, freqs]
    return extra, gain


# -- phase 2: thermal repair ------------------------------------------


def _repair_phase(state: _State, cfg: DsRemConfig) -> None:
    chip = state.chip
    for _ in range(cfg.max_steps):
        if state.peak_temperature() <= chip.t_dtm + 1e-6:
            return
        index = state.hottest_instance()
        if index is None:
            return
        freq_index = state.keys[index][2]
        if freq_index > 0:
            state.replace(index, freq_index - 1)
        else:
            state.remove(index)
    # Out of steps: still hot means no safe mapping was found.
    peak = state.peak_temperature()
    if peak > chip.t_dtm + 1e-6:
        raise ConfigurationError(
            f"DsRem repair did not reach T_DTM {chip.t_dtm} degC within "
            f"max_steps={cfg.max_steps}: peak {peak:.2f} degC"
        )


# -- phase 3: exploit headroom ----------------------------------------


def _exploit_phase(state: _State, cfg: DsRemConfig) -> None:
    chip = state.chip
    for _ in range(cfg.max_steps):
        peak = state.peak_temperature()
        if peak > chip.t_dtm - cfg.exploit_margin:
            return
        if not _try_upgrade(state) and not _try_add(state):
            return


def _try_upgrade(state: _State) -> bool:
    """Apply the best admissible one-step frequency upgrade, if any."""
    chip = state.chip
    table = state.table
    top = len(table.frequencies) - 1
    candidates = [
        (table.gain_of[a][n][k], i, k + 1)
        for i, (a, n, k) in enumerate(state.keys)
        if k < top
    ]
    for _, i, k_next in sorted(candidates, reverse=True):
        state.replace(i, k_next)
        if state.peak_temperature() <= chip.t_dtm + 1e-6:
            return True
        state.replace(i, k_next - 1)
    return False


def _try_add(state: _State) -> bool:
    """Add the best-performing instance that stays thermally safe."""
    chip = state.chip
    table = state.table
    free = chip.n_cores - len(state.occupied)
    if free == 0:
        return False
    fits = np.flatnonzero(table.threads <= free)
    order = fits[np.argsort(-table.instance_performance[fits], kind="stable")]
    for i in order:
        if not state.add(table.keys[i]):
            continue
        if state.peak_temperature() <= chip.t_dtm + 1e-6:
            return True
        state.remove(len(state.keys) - 1)
    return False
