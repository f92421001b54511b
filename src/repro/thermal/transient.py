"""Transient thermal simulation (backward Euler).

The boosting experiments (Figures 11-13) need temperature *trajectories*:
Turbo-Boost-style control reacts every millisecond to the instantaneous
peak temperature.  The RC system ``C dT/dt = P - A dT`` is stiff (the
silicon blocks' time constants are sub-millisecond while the sink's is
tens of seconds), so the integrator is the unconditionally stable
backward-Euler scheme:

    (C/dt + A) dT_{k+1} = (C/dt) dT_k + P_k

The left-hand matrix is constant for a fixed step, so it is factorised
once — by the model's shared solver backend, cached per ``dt`` on the
:class:`~repro.thermal.model.ThermalModel` so every simulator with the
same step reuses it — and each step is a pair of triangular solves.
The step's right-hand side is built in place, ``(C/dt) dT_k`` plus the
core powers at the core nodes, so no zero-filled full-network power
vector is allocated per step.

Every run — :meth:`TransientSimulator.simulate` and the boosting loops
of :mod:`repro.boosting.simulation` — is validated and counted by
:meth:`TransientSimulator.start_run`: its duration must be a whole
number of steps, never silently rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.thermal.model import ThermalModel
from repro.units import Seconds

#: Relative tolerance of the whole-number-of-steps duration check.
_STEP_RTOL = 1e-9


@dataclass(frozen=True)
class TransientResult:
    """Recorded trajectory of a transient simulation.

    Attributes:
        times: sample instants, in s.
        core_temperatures: array of shape (len(times), n_cores), degC.
        core_powers: array of shape (len(times), n_cores), W — the power
            vector in effect during the step *ending* at each instant.
    """

    times: np.ndarray
    core_temperatures: np.ndarray
    core_powers: np.ndarray

    @property
    def peak_temperatures(self) -> np.ndarray:
        """Per-instant maximum core temperature, degC."""
        return self.core_temperatures.max(axis=1)

    @property
    def total_powers(self) -> np.ndarray:
        """Per-instant total chip power, W."""
        return self.core_powers.sum(axis=1)


class TransientSimulator:
    """Backward-Euler integrator bound to one :class:`ThermalModel`.

    Args:
        model: the thermal model.
        dt: integration step, in s (the paper's control period, 1 ms,
            is the natural choice).
    """

    def __init__(self, model: ThermalModel, dt: Seconds = 1e-3) -> None:
        if dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        self._model = model
        self._dt = dt
        self._c_over_dt = model.capacitances / dt
        self._factorization = model.step_factorization(dt)
        self._state = np.zeros(model.n_nodes)  # temperature above ambient

    @property
    def model(self) -> ThermalModel:
        """The underlying thermal model."""
        return self._model

    @property
    def dt(self) -> Seconds:
        """Integration step, s."""
        return self._dt

    @property
    def core_temperatures(self) -> np.ndarray:
        """Current core temperatures, degC."""
        return self._model.ambient + self._state[self._model.core_indices]

    @property
    def peak_temperature(self) -> float:
        """Current hottest-core temperature, degC."""
        return float(np.max(self.core_temperatures))

    def reset(self, core_temperatures: Optional[Sequence[float]] = None) -> None:
        """Reset the state to ambient.

        The full network state cannot be reconstructed from core
        temperatures alone (the package nodes are unobserved), so this
        method only supports the ambient reset.

        Args:
            core_temperatures: must be ``None``; to begin from the steady
                state of a known power vector use :meth:`warm_start`.

        Raises:
            ConfigurationError: if ``core_temperatures`` is given.
        """
        if core_temperatures is not None:
            raise ConfigurationError(
                "reset() only supports returning to ambient; use "
                "warm_start(core_powers) to begin from a steady state"
            )
        self._state = np.zeros(self._model.n_nodes)

    def warm_start(self, core_powers: Sequence[float]) -> None:
        """Set the state to the steady state of ``core_powers``."""
        full = self._model.expand_core_powers(core_powers)
        self._state = self._model.steady_state(full) - self._model.ambient

    def step(self, core_powers: Sequence[float]) -> np.ndarray:
        """Advance one ``dt`` with the given per-core powers (W).

        Returns:
            The core temperatures (degC) after the step.
        """
        obs.incr("thermal.transient.steps")
        p = self._model.core_power_vector(core_powers)
        rhs = self._c_over_dt * self._state
        # Exact: a non-core entry would only have 0.0 added.
        rhs[self._model.core_indices] += p
        self._state = self._factorization.solve(rhs)
        return self.core_temperatures

    def start_run(
        self, duration: Seconds, record_interval: Optional[Seconds] = None
    ) -> tuple[int, int]:
        """Validate and count one run of ``duration`` seconds.

        Args:
            duration: simulated time, s; must be a whole number of steps
                (within float tolerance) — silently rounding would
                simulate a different duration than requested.
            record_interval: spacing of recorded samples, s; ``None``
                records every step.

        Returns:
            ``(n_steps, every)``: the step count and the recording
            stride, in steps.

        Raises:
            ConfigurationError: on a non-positive duration, a duration
                shorter than one step or not an integer multiple of
                ``dt``, or a ``record_interval`` below ``dt``.
        """
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        n_steps = int(round(duration / self._dt))
        if n_steps < 1:
            raise ConfigurationError(
                f"duration {duration} s is shorter than one step ({self._dt} s)"
            )
        if abs(n_steps * self._dt - duration) > _STEP_RTOL * max(duration, self._dt):
            raise ConfigurationError(
                f"duration {duration} s is not a whole number of {self._dt} s "
                f"steps (nearest is {n_steps} steps = {n_steps * self._dt} s); "
                f"pass an integer multiple of dt"
            )
        every = 1
        if record_interval is not None:
            if record_interval < self._dt:
                raise ConfigurationError(
                    f"record_interval ({record_interval} s) must be >= dt "
                    f"({self._dt} s)"
                )
            every = max(1, int(round(record_interval / self._dt)))
        obs.incr("thermal.transient.simulations")
        obs.histogram("thermal.transient.steps_per_sim", n_steps)
        return n_steps, every

    def simulate(
        self,
        power_schedule: Callable[[float, np.ndarray], Sequence[float]],
        duration: Seconds,
        record_interval: Optional[Seconds] = None,
    ) -> TransientResult:
        """Run ``duration`` seconds under a closed-loop power schedule.

        Args:
            power_schedule: called before every step as
                ``schedule(t, core_temperatures)`` and must return the
                per-core power vector (W) to apply during [t, t + dt).
            duration: simulated time, s; must be a whole number of steps
                (within float tolerance) — silently rounding would
                simulate a different duration than requested.
            record_interval: spacing of recorded samples, s; defaults to
                every step.

        Returns:
            A :class:`TransientResult` with the recorded trajectory.

        Raises:
            ConfigurationError: as :meth:`start_run`.
        """
        n_steps, every = self.start_run(duration, record_interval)
        times: list[float] = []
        temps: list[np.ndarray] = []
        powers: list[np.ndarray] = []
        for k in range(n_steps):
            t = k * self._dt
            p = np.asarray(
                power_schedule(t, self.core_temperatures), dtype=float
            )
            core_t = self.step(p)
            if (k + 1) % every == 0 or k == n_steps - 1:
                times.append(t + self._dt)
                temps.append(core_t.copy())
                # Copy on record: np.asarray does not copy when the
                # schedule reuses one ndarray buffer, and every recorded
                # row would alias the final vector.
                powers.append(p.copy())
        return TransientResult(
            times=np.array(times),
            core_temperatures=np.array(temps),
            core_powers=np.array(powers),
        )
