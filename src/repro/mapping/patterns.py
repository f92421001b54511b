"""Dark-silicon patterning placers (DaSim-style, paper Section 4 / Figure 8).

The DaSim insight is that *where* the dark cores sit matters: interleaving
dark cores between active ones lowers the peak temperature at identical
v/f and thread counts, which in turn lets more cores be switched on before
the DTM threshold is hit.  Three patterning strategies are provided, from
cheapest to most informed:

* :class:`CheckerboardPlacer` — fixed parity interleave on the grid;
* :class:`NeighbourhoodSpreadPlacer` — greedy minimisation of occupied
  grid neighbours;
* :class:`ThermalSpreadPlacer` — greedy minimisation of the *thermal
  influence* received from occupied cores, using the RC model's influence
  matrix (the most faithful "compute a good pattern" policy).
"""

from __future__ import annotations

import bisect
from typing import AbstractSet, Optional, Sequence

import numpy as np

from repro.chip import Chip
from repro.errors import ConfigurationError
from repro.mapping.base import Placer


class CheckerboardPlacer(Placer):
    """Fill one grid parity class first, then the other.

    While any core of the preferred parity is free the placer uses it, so
    up to half the chip runs with every active core fully surrounded by
    dark neighbours — the canonical dark-silicon pattern.
    """

    def __init__(self, parity: int = 0) -> None:
        if parity not in (0, 1):
            raise ConfigurationError(f"parity must be 0 or 1, got {parity}")
        self._parity = parity

    def place(
        self, chip: Chip, n_cores: int, occupied: AbstractSet[int]
    ) -> Optional[Sequence[int]]:
        if chip.grid is None:
            raise ConfigurationError("CheckerboardPlacer needs a grid chip")
        free = self.free_cores(chip, occupied)
        if len(free) < n_cores:
            return None

        def parity(core: int) -> int:
            row, col = chip.grid_coordinates(core)
            return (row + col) % 2

        preferred = [c for c in free if parity(c) == self._parity]
        others = [c for c in free if parity(c) != self._parity]
        return (preferred + others)[:n_cores]


class NeighbourhoodSpreadPlacer(Placer):
    """Greedy placement minimising occupied 4-neighbourhoods.

    Each core is chosen to have the fewest already-active grid neighbours
    (counting cores chosen earlier for the same instance), breaking ties
    toward the lowest index for determinism.

    The neighbour counts come from four shifted adds on the
    ``(rows, cols)`` occupancy grid, and each pick bumps only its own
    (at most four) neighbours: O(rows * cols) per call.  The counts are
    small integers held exactly in floats, so every argmin and its
    lowest-index tie-break match a dense adjacency-matrix product.
    """

    def place(
        self, chip: Chip, n_cores: int, occupied: AbstractSet[int]
    ) -> Optional[Sequence[int]]:
        if chip.grid is None:
            raise ConfigurationError(
                "NeighbourhoodSpreadPlacer needs a grid chip"
            )
        rows, cols = chip.grid
        n = rows * cols
        taken = np.zeros(n, dtype=bool)
        if occupied:
            taken[list(occupied)] = True
        if n - len(occupied) < n_cores:
            return None
        grid = taken.reshape(rows, cols)
        counts = np.zeros((rows, cols))
        counts[1:, :] += grid[:-1, :]
        counts[:-1, :] += grid[1:, :]
        counts[:, 1:] += grid[:, :-1]
        counts[:, :-1] += grid[:, 1:]
        # +inf on unavailable cores so argmin (lowest index wins ties)
        # only ever selects free ones; +inf absorbs the increments.
        scores = counts.ravel()
        scores[taken] = np.inf
        chosen: list[int] = []
        for _ in range(n_cores):
            best = int(scores.argmin())
            chosen.append(best)
            scores[best] = np.inf
            row, col = divmod(best, cols)
            if row > 0:
                scores[best - cols] += 1.0
            if row < rows - 1:
                scores[best + cols] += 1.0
            if col > 0:
                scores[best - 1] += 1.0
            if col < cols - 1:
                scores[best + 1] += 1.0
        return chosen


class ThermalSpreadPlacer(Placer):
    """Greedy placement minimising received thermal influence.

    Core ``j``'s score is ``sum_k B[j, k] + B[j, j]`` over the occupied
    set, where ``B`` is the chip's steady-state influence matrix: the
    temperature rise core ``j`` would suffer if every occupied core
    dissipated one watt.  Minimising it directly targets the
    peak-temperature objective the DaSim patterning pursues.  Works on
    any chip (no grid needed).

    Every free core is scored at once.  The sum is an explicit
    sequential (left-fold) sum over ascending ``k`` (the last column of
    a ``cumsum``), and ties go to the lowest core index.  Pinning the
    order keeps placements independent of set iteration order and of
    the interpreter's ``sum()``, which Python 3.12 made compensated for
    floats.
    """

    def place(
        self, chip: Chip, n_cores: int, occupied: AbstractSet[int]
    ) -> Optional[Sequence[int]]:
        free = self.free_cores(chip, occupied)
        if len(free) < n_cores:
            return None
        influence = chip.thermal.influence_matrix()
        taken = sorted(occupied)
        chosen: list[int] = []
        for _ in range(n_cores):
            candidates = np.array(free)
            scores = influence[candidates, candidates]
            if taken:
                gathered = influence.take(candidates, 0).take(taken, 1)
                received = np.cumsum(gathered, axis=1)
                scores = received[:, -1] + scores
            chosen.append(free.pop(int(np.argmin(scores))))
            bisect.insort(taken, chosen[-1])
        return chosen
