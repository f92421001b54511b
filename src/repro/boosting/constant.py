"""Constant-frequency selection: the thermally-safe alternative to boosting.

The paper's constant-frequency scheme runs all active cores at the highest
*available* DVFS level whose steady state respects the critical
temperature — which is why Figure 11 shows it sitting "a few degrees below
the critical temperature": the next discrete step up would violate it.

The steady state is computed with the temperature-dependent leakage fixed
point, so the safety check accounts for the leakage the chosen operating
temperature itself induces.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.boosting.simulation import ConstantRunResult, PlacedWorkload
from repro.errors import ConvergenceError, InfeasibleError
from repro.units import gips as to_gips


def constant_steady(
    placed: PlacedWorkload, frequency: float
) -> ConstantRunResult:
    """Leakage-consistent steady state at one fixed frequency.

    Raises:
        ConvergenceError: if the operating point is past thermal runaway.
    """
    chip = placed.chip
    base = placed.base_powers(frequency)
    temps, powers = chip.solver.solve_with_leakage(
        base, lambda t: placed.leakage_powers(frequency, t)
    )
    return ConstantRunResult(
        frequency=frequency,
        gips=to_gips(placed.performance(frequency)),
        total_power=float(np.sum(powers)),
        peak_temperature=float(np.max(temps)),
    )


def best_constant_frequency(
    placed: PlacedWorkload,
    frequencies: Optional[Sequence[float]] = None,
    threshold: Optional[float] = None,
) -> ConstantRunResult:
    """Highest DVFS level whose steady state stays below the threshold.

    Args:
        placed: the pinned workload.
        frequencies: candidate ladder; defaults to the node's DVFS ladder.
        threshold: temperature limit, degC; defaults to the chip's T_DTM.

    Returns:
        The :class:`ConstantRunResult` of the chosen level.

    Raises:
        InfeasibleError: if even the lowest level violates the threshold.
    """
    chip = placed.chip
    ladder = sorted(
        frequencies if frequencies is not None else chip.node.frequency_ladder()
    )
    limit = chip.t_dtm if threshold is None else threshold
    with obs.span("boosting.constant"):
        for frequency in reversed(ladder):
            try:
                result = constant_steady(placed, frequency)
            except ConvergenceError:
                continue  # thermal runaway at this level; step down
            if result.peak_temperature <= limit + 1e-6:
                return result
    raise InfeasibleError(
        f"no ladder frequency keeps the workload below {limit} degC"
    )
