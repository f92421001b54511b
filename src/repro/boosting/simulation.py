"""Transient boosting/constant-frequency experiments (Figures 11-13).

A :class:`PlacedWorkload` pins a workload's instances to cores and
pre-extracts per-core power coefficients so the per-millisecond transient
loop is pure vector arithmetic:

* dynamic + independent power from the commanded frequency,
* leakage from the commanded voltage and each core's *current*
  temperature (the full Eq. (1) temperature feedback).

Everything that depends on the frequency alone — the dynamic +
independent power vector and the leakage voltage scale — is memoized per
exact frequency, so an Eq. (1) evaluation in the loop is one ``exp`` over
the core temperatures plus two vector operations.

:func:`run_boosting` couples the transient thermal solver with the
closed-loop :class:`repro.boosting.controller.BoostingController`;
:func:`run_constant` runs the same workload at one fixed frequency.  Each
control period of either makes one Eq. (1) evaluation (plus one per
power-cap back-off), reads the core temperatures once — the array the
step returns — and advances the thermal state with one
:meth:`~repro.thermal.transient.TransientSimulator.step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro import obs
from repro.apps.workload import ApplicationInstance, Workload
from repro.boosting.controller import BoostingController
from repro.chip import Chip
from repro.errors import ConfigurationError, MappingError
from repro.mapping.base import Placer
from repro.mapping.contiguous import ContiguousPlacer
from repro.thermal.transient import TransientSimulator
from repro.units import gips as to_gips, is_gated

#: Bound on the memoized frequency levels of one placed workload.  A
#: transient run visits a handful of DVFS levels; the bound only keeps a
#: caller sweeping arbitrary frequencies from growing the memo forever.
_MAX_LEVELS = 256

#: A control policy: ``(peak, core_temperatures) -> (frequency, powers)``,
#: the chip frequency and the per-core power vector to apply next step.
FrequencyPolicy = Callable[[float, np.ndarray], tuple[float, np.ndarray]]


class PlacedWorkload:
    """A workload pinned to cores, with vectorised power evaluation.

    Args:
        chip: the chip the instances are placed on.
        placements: ``(instance, core_indices)`` pairs; core sets must be
            disjoint and each match its instance's thread count.
    """

    def __init__(
        self,
        chip: Chip,
        placements: Sequence[tuple[ApplicationInstance, Sequence[int]]],
    ) -> None:
        self.chip = chip
        self.placements = [(inst, tuple(cores)) for inst, cores in placements]
        seen: set[int] = set()
        for inst, cores in self.placements:
            if len(cores) != inst.cores:
                raise ConfigurationError(
                    f"instance of {inst.app.name} needs {inst.cores} cores, "
                    f"got {len(cores)}"
                )
            if seen.intersection(cores):
                raise ConfigurationError("placements overlap")
            seen.update(cores)
        if seen and (min(seen) < 0 or max(seen) >= chip.n_cores):
            raise ConfigurationError("core index out of range")

        n = chip.n_cores
        # Per-core coefficient vectors (zero on dark cores).
        self._dyn_coeff = np.zeros(n)  # alpha * Ceff (dynamic = coeff*V^2*f)
        self._pind = np.zeros(n)
        self._i0 = np.zeros(n)
        self._active = np.zeros(n, dtype=bool)
        # IPS per Hz of chip frequency: sum over instances of S(n)*IPC.
        self._perf_per_hz = 0.0
        leak_shape = None
        for inst, cores in self.placements:
            model = inst.app.power_model(chip.node)
            alpha = inst.utilisation
            for c in cores:
                self._dyn_coeff[c] = alpha * model.ceff
                self._pind[c] = model.pind
                self._i0[c] = model.leakage.i0
                self._active[c] = True
            self._perf_per_hz += inst.app.speedup(inst.threads) * inst.app.ipc
            leak_shape = model.leakage
        self._curve = None
        if self.placements:
            self._curve = self.placements[0][0].app.power_model(chip.node).curve
        self._leak_shape = leak_shape
        # exact frequency -> (read-only base power vector, leakage scale)
        self._levels: dict[float, tuple[np.ndarray, float]] = {}

    @property
    def n_instances(self) -> int:
        """Number of placed instances."""
        return len(self.placements)

    @property
    def active_cores(self) -> int:
        """Number of cores running a thread."""
        return int(self._active.sum())

    @property
    def occupied(self) -> set[int]:
        """Indices of active cores."""
        return {int(i) for i in np.flatnonzero(self._active)}

    def performance(self, frequency: float) -> float:
        """Aggregate throughput (instructions/s) at chip frequency ``frequency``."""
        return self._perf_per_hz * frequency

    def _level(self, frequency: float) -> Optional[tuple[np.ndarray, float]]:
        """The frequency-only Eq. (1) terms at ``frequency``, memoized.

        Returns:
            ``None`` when no core draws power (gated frequency or empty
            workload); otherwise the read-only per-core dynamic +
            independent power vector and the leakage voltage scale
            ``v (v / vref) exp(kv (v - vref))``.
        """
        if is_gated(frequency) or not self.placements:
            return None
        level = self._levels.get(frequency)
        if level is None:
            v = self._curve.voltage(frequency)
            base = self._dyn_coeff * (v * v * frequency)
            base[self._active] += self._pind[self._active]
            base.flags.writeable = False
            shape = self._leak_shape
            scale = v * (v / shape.vref) * np.exp(shape.kv * (v - shape.vref))
            if len(self._levels) >= _MAX_LEVELS:
                self._levels.clear()
            level = self._levels[frequency] = (base, scale)
        return level

    def temperature_factors(self, core_temperatures: np.ndarray) -> np.ndarray:
        """Per-core leakage temperature term ``exp(kt (T - tref))``.

        Zero for an empty workload, which has no leakage model (and no
        leaking core).
        """
        shape = self._leak_shape
        if shape is None:
            return np.zeros(self.chip.n_cores)
        return np.exp(shape.kt * (core_temperatures - shape.tref))

    def base_powers(self, frequency: float) -> np.ndarray:
        """Per-core dynamic + independent power at ``frequency``, W."""
        level = self._level(frequency)
        if level is None:
            return np.zeros(self.chip.n_cores)
        return level[0].copy()

    def leakage_powers(
        self, frequency: float, core_temperatures: np.ndarray
    ) -> np.ndarray:
        """Per-core leakage power at ``frequency`` and given temperatures, W."""
        level = self._level(frequency)
        if level is None:
            return np.zeros(self.chip.n_cores)
        return self._i0 * (level[1] * self.temperature_factors(core_temperatures))

    def total_powers(
        self,
        frequency: float,
        core_temperatures: np.ndarray,
        *,
        temperature_factors: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Full Eq. (1) per-core power vector, W.

        Args:
            frequency: chip frequency, Hz.
            core_temperatures: per-core temperatures, degC.
            temperature_factors: ``temperature_factors(core_temperatures)``
                when already computed, so evaluations at several
                frequencies but the same temperatures (the power-cap
                back-off) share one ``exp``.
        """
        obs.incr("boosting.power_evals")
        level = self._level(frequency)
        if level is None:
            return np.zeros(self.chip.n_cores)
        base, scale = level
        if temperature_factors is None:
            temperature_factors = self.temperature_factors(core_temperatures)
        return base + self._i0 * (scale * temperature_factors)

    # -- per-instance frequency evaluation -----------------------------
    #
    # The chip-wide methods above model the paper's boosting setting (one
    # frequency for all active cores).  The methods below generalise to
    # one frequency per instance, which is what DsRem-style mappings and
    # per-instance boosting produce.

    def _check_frequencies(self, frequencies: Sequence[float]) -> list[float]:
        if len(frequencies) != len(self.placements):
            raise ConfigurationError(
                f"expected {len(self.placements)} per-instance frequencies, "
                f"got {len(frequencies)}"
            )
        return list(frequencies)

    def instance_performance(self, frequencies: Sequence[float]) -> float:
        """Aggregate throughput (instructions/s), one frequency per instance."""
        fs = self._check_frequencies(frequencies)
        return sum(
            inst.app.speedup(inst.threads) * inst.app.ipc * f
            for (inst, _), f in zip(self.placements, fs)
        )

    def instance_base_powers(self, frequencies: Sequence[float]) -> np.ndarray:
        """Per-core dynamic + independent power, one frequency per instance."""
        fs = self._check_frequencies(frequencies)
        powers = np.zeros(self.chip.n_cores)
        for (inst, cores), f in zip(self.placements, fs):
            if is_gated(f):
                continue
            v = self._curve.voltage(f)
            for c in cores:
                powers[c] = self._dyn_coeff[c] * v * v * f + self._pind[c]
        return powers

    def instance_leakage_powers(
        self, frequencies: Sequence[float], core_temperatures: np.ndarray
    ) -> np.ndarray:
        """Per-core leakage power, one frequency per instance."""
        fs = self._check_frequencies(frequencies)
        powers = np.zeros(self.chip.n_cores)
        shape = self._leak_shape
        for (inst, cores), f in zip(self.placements, fs):
            if is_gated(f):
                continue
            v = self._curve.voltage(f)
            v_term = (
                v
                * (v / shape.vref)
                * np.exp(shape.kv * (v - shape.vref))
            )
            idx = list(cores)
            powers[idx] = (
                self._i0[idx]
                * v_term
                * np.exp(shape.kt * (core_temperatures[idx] - shape.tref))
            )
        return powers

    def instance_total_powers(
        self, frequencies: Sequence[float], core_temperatures: np.ndarray
    ) -> np.ndarray:
        """Full Eq. (1) per-core powers, one frequency per instance."""
        return self.instance_base_powers(frequencies) + self.instance_leakage_powers(
            frequencies, core_temperatures
        )

    @classmethod
    def from_mapping(cls, result) -> tuple["PlacedWorkload", list[float]]:
        """Adopt a :class:`repro.core.estimator.MappingResult`'s placement.

        Returns:
            The placed workload plus the mapping's per-instance
            frequencies (feed them to the ``instance_*`` methods to
            transiently validate a steady-state mapping, e.g. a DsRem
            result).
        """
        placements = [(p.instance, p.cores) for p in result.placed]
        placed = cls(result.chip, placements)
        return placed, [p.instance.frequency for p in result.placed]


def place_workload(
    chip: Chip, workload: Workload, placer: Optional[Placer] = None
) -> PlacedWorkload:
    """Pin every instance of ``workload`` to cores (capacity-only check).

    Raises:
        MappingError: if the chip lacks capacity for the whole workload.
    """
    placer = placer or ContiguousPlacer()
    occupied: set[int] = set()
    placements: list[tuple[ApplicationInstance, Sequence[int]]] = []
    for instance in workload:
        cores = placer.place(chip, instance.cores, occupied)
        if cores is None:
            raise MappingError(
                f"chip capacity exhausted after {len(placements)} of "
                f"{len(workload)} instances"
            )
        occupied.update(cores)
        placements.append((instance, cores))
    return PlacedWorkload(chip, placements)


@dataclass(frozen=True)
class BoostingRunResult:
    """Trace and aggregates of one transient run.

    Trace arrays are sampled every ``record_interval``; aggregate scalars
    are computed over *every* integration step, so they do not depend on
    the recording rate.
    """

    times: np.ndarray
    frequencies: np.ndarray
    gips: np.ndarray
    peak_temperatures: np.ndarray
    total_powers: np.ndarray
    average_gips: float
    average_power: float
    max_power: float
    max_temperature: float
    energy: float


@dataclass(frozen=True)
class ConstantRunResult:
    """Steady operation at one fixed frequency.

    Attributes:
        frequency: the fixed chip frequency, Hz.
        gips: aggregate throughput, GIPS.
        total_power: leakage-consistent steady-state chip power, W.
        peak_temperature: steady-state hottest core, degC.
    """

    frequency: float
    gips: float
    total_power: float
    peak_temperature: float


def run_boosting(
    placed: PlacedWorkload,
    controller: BoostingController,
    duration: float,
    dt: float = 1e-3,
    record_interval: float = 0.1,
    warm_start_frequency: Optional[float] = None,
    power_cap: Optional[float] = None,
) -> BoostingRunResult:
    """Simulate closed-loop boosting for ``duration`` seconds.

    The controller is consulted every integration step (``dt`` is the
    control period, 1 ms in the paper).

    Args:
        placed: the pinned workload.
        controller: the boosting controller (its current frequency is the
            starting point).
        duration: simulated seconds.
        dt: integration step == control period, s.
        record_interval: trace sampling interval, s.
        warm_start_frequency: if given, the thermal state starts from the
            leakage-free steady state of running at this frequency
            (avoids simulating a long heat-up from ambient).
        power_cap: electrical power constraint, W (the paper's Section 6
            uses 500 W): whenever the commanded frequency would exceed
            it, the frequency is stepped back down before being applied.
    """
    sim = TransientSimulator(placed.chip.thermal, dt=dt)
    if warm_start_frequency is not None:
        temps0 = np.full(placed.chip.n_cores, placed.chip.t_dtm)
        sim.warm_start(placed.total_powers(warm_start_frequency, temps0))

    if power_cap is None:

        def policy(peak: float, temps: np.ndarray) -> tuple[float, np.ndarray]:
            f = controller.update(peak)
            return f, placed.total_powers(f, temps)

    else:

        def policy(peak: float, temps: np.ndarray) -> tuple[float, np.ndarray]:
            # Step down until the cap holds; the vector evaluated at the
            # final frequency is the one applied.
            f = controller.update(peak)
            factors = placed.temperature_factors(temps)
            p = placed.total_powers(f, temps, temperature_factors=factors)
            while f > controller.f_min and p.sum() > power_cap:
                obs.incr("boosting.cap_backoffs")
                f = max(f - controller.step, controller.f_min)
                p = placed.total_powers(f, temps, temperature_factors=factors)
            controller.reset(f)
            return f, p

    return _run_transient(placed, sim, duration, record_interval, policy)


def run_constant(
    placed: PlacedWorkload,
    frequency: float,
    duration: float,
    dt: float = 1e-3,
    record_interval: float = 0.1,
    warm_start: bool = True,
) -> BoostingRunResult:
    """Simulate constant-frequency operation for ``duration`` seconds."""
    sim = TransientSimulator(placed.chip.thermal, dt=dt)
    if warm_start:
        temps0 = np.full(placed.chip.n_cores, placed.chip.t_dtm)
        sim.warm_start(placed.total_powers(frequency, temps0))
    return _run_transient(
        placed,
        sim,
        duration,
        record_interval,
        lambda peak, temps: (frequency, placed.total_powers(frequency, temps)),
    )


def run_per_instance_boosting(
    placed: PlacedWorkload,
    controllers: Sequence[BoostingController],
    duration: float,
    dt: float = 1e-3,
    record_interval: float = 0.1,
    warm_start_frequencies: Optional[Sequence[float]] = None,
    power_cap: Optional[float] = None,
) -> BoostingRunResult:
    """Closed-loop boosting with one controller per instance.

    The paper's controller is chip-wide; per-instance control is the
    natural finer granularity (each instance reacts to *its own* hottest
    core), letting instances placed in cool die regions boost further
    while hot ones back off.  The electrical ``power_cap`` is enforced by
    stepping down the currently fastest instance until the cap holds.

    Args:
        placed: the pinned workload.
        controllers: one controller per instance, in placement order.
        duration: simulated seconds.
        dt: integration step == control period, s.
        record_interval: trace sampling interval, s.
        warm_start_frequencies: start the thermal state from the steady
            state of these per-instance frequencies.
        power_cap: electrical power constraint, W.

    Returns:
        A :class:`BoostingRunResult`; the ``frequencies`` trace records
        the per-step mean of the instance frequencies.
    """
    if len(controllers) != placed.n_instances:
        raise ConfigurationError(
            f"need {placed.n_instances} controllers, got {len(controllers)}"
        )
    sim = TransientSimulator(placed.chip.thermal, dt=dt)
    n_steps, every = sim.start_run(duration, record_interval)
    if warm_start_frequencies is not None:
        temps0 = np.full(placed.chip.n_cores, placed.chip.t_dtm)
        sim.warm_start(placed.instance_total_powers(warm_start_frequencies, temps0))

    core_lists = [list(cores) for _, cores in placed.placements]

    times, freqs, gips_trace, peaks, powers = [], [], [], [], []
    perf_sum = power_sum = max_power = 0.0
    max_temp = -np.inf

    for k in range(n_steps):
        temps = sim.core_temperatures
        fs = [
            ctrl.update(float(temps[cores].max()) if cores else 0.0)
            for ctrl, cores in zip(controllers, core_lists)
        ]
        if power_cap is not None:
            p = placed.instance_total_powers(fs, temps)
            while p.sum() > power_cap:
                fastest = max(range(len(fs)), key=lambda i: fs[i])
                ctrl = controllers[fastest]
                if fs[fastest] <= ctrl.f_min:
                    break
                fs[fastest] = max(ctrl.f_min, fs[fastest] - ctrl.step)
                ctrl.reset(fs[fastest])
                p = placed.instance_total_powers(fs, temps)
        p = placed.instance_total_powers(fs, temps)
        total_p = float(p.sum())
        sim.step(p)

        perf = placed.instance_performance(fs)
        perf_sum += perf
        power_sum += total_p
        max_power = max(max_power, total_p)
        max_temp = max(max_temp, sim.peak_temperature)

        if (k + 1) % every == 0 or k == n_steps - 1:
            times.append((k + 1) * dt)
            freqs.append(float(np.mean(fs)) if fs else 0.0)
            gips_trace.append(to_gips(perf))
            peaks.append(sim.peak_temperature)
            powers.append(total_p)

    avg_power = power_sum / n_steps
    return BoostingRunResult(
        times=np.array(times),
        frequencies=np.array(freqs),
        gips=np.array(gips_trace),
        peak_temperatures=np.array(peaks),
        total_powers=np.array(powers),
        average_gips=to_gips(perf_sum / n_steps),
        average_power=avg_power,
        max_power=max_power,
        max_temperature=float(max_temp),
        energy=avg_power * duration,
    )


def _run_transient(
    placed: PlacedWorkload,
    sim: TransientSimulator,
    duration: float,
    record_interval: float,
    policy: FrequencyPolicy,
) -> BoostingRunResult:
    n_steps, every = sim.start_run(duration, record_interval)

    times: list[float] = []
    freqs: list[float] = []
    gips_trace: list[float] = []
    peaks: list[float] = []
    powers: list[float] = []

    perf_sum = 0.0
    power_sum = 0.0
    max_power = 0.0
    max_temp = -np.inf

    # One core-temperature read per control period: the array the step
    # returns feeds the next period's controller, leakage and records.
    temps = sim.core_temperatures
    peak = float(np.max(temps))
    with obs.span("boosting.transient"):
        for k in range(n_steps):
            f, p = policy(peak, temps)
            total_p = float(p.sum())
            temps = sim.step(p)
            peak = float(np.max(temps))

            perf = placed.performance(f)
            perf_sum += perf
            power_sum += total_p
            max_power = max(max_power, total_p)
            max_temp = max(max_temp, peak)

            if (k + 1) % every == 0 or k == n_steps - 1:
                times.append((k + 1) * sim.dt)
                freqs.append(f)
                gips_trace.append(to_gips(perf))
                peaks.append(peak)
                powers.append(total_p)

    avg_power = power_sum / n_steps
    return BoostingRunResult(
        times=np.array(times),
        frequencies=np.array(freqs),
        gips=np.array(gips_trace),
        peak_temperatures=np.array(peaks),
        total_powers=np.array(powers),
        average_gips=to_gips(perf_sum / n_steps),
        average_power=avg_power,
        max_power=max_power,
        max_temperature=float(max_temp),
        energy=avg_power * duration,
    )
