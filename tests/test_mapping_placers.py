"""Placement policies (contiguous + dark-silicon patterning)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chip import Chip
from repro.errors import ConfigurationError
from repro.experiments.common import get_chip
from repro.mapping.base import Placer
from repro.mapping.contiguous import ContiguousPlacer
from repro.mapping.patterns import (
    CheckerboardPlacer,
    NeighbourhoodSpreadPlacer,
    ThermalSpreadPlacer,
)
from repro.tech.library import NODE_16NM

ALL_PLACERS = [
    ContiguousPlacer(),
    CheckerboardPlacer(),
    NeighbourhoodSpreadPlacer(),
    ThermalSpreadPlacer(),
]


class TestContract:
    """Properties every placer must satisfy."""

    @pytest.mark.parametrize("placer", ALL_PLACERS, ids=lambda p: type(p).__name__)
    def test_returns_requested_count(self, small_chip, placer):
        cores = placer.place(small_chip, 5, occupied=set())
        assert len(cores) == 5

    @pytest.mark.parametrize("placer", ALL_PLACERS, ids=lambda p: type(p).__name__)
    def test_no_duplicates(self, small_chip, placer):
        cores = placer.place(small_chip, 8, occupied=set())
        assert len(set(cores)) == 8

    @pytest.mark.parametrize("placer", ALL_PLACERS, ids=lambda p: type(p).__name__)
    def test_avoids_occupied(self, small_chip, placer):
        occupied = {0, 1, 2, 3, 4, 5}
        cores = placer.place(small_chip, 6, occupied=occupied)
        assert not occupied.intersection(cores)

    @pytest.mark.parametrize("placer", ALL_PLACERS, ids=lambda p: type(p).__name__)
    def test_none_when_capacity_exhausted(self, small_chip, placer):
        assert placer.place(small_chip, 5, occupied=set(range(13))) is None

    @pytest.mark.parametrize("placer", ALL_PLACERS, ids=lambda p: type(p).__name__)
    def test_exact_fit(self, small_chip, placer):
        cores = placer.place(small_chip, 16, occupied=set())
        assert sorted(cores) == list(range(16))

    @pytest.mark.parametrize("placer", ALL_PLACERS, ids=lambda p: type(p).__name__)
    @given(occupied=st.sets(st.integers(min_value=0, max_value=15), max_size=12))
    @settings(max_examples=20, deadline=None)
    def test_valid_indices_any_occupancy(self, small_chip, placer, occupied):
        n = min(3, 16 - len(occupied))
        if n == 0:
            return
        cores = placer.place(small_chip, n, occupied=occupied)
        assert cores is not None
        assert all(0 <= c < 16 for c in cores)
        assert not occupied.intersection(cores)


class TestContiguous:
    def test_row_major_first_fit(self, small_chip):
        placer = ContiguousPlacer()
        assert list(placer.place(small_chip, 4, set())) == [0, 1, 2, 3]

    def test_skips_occupied_holes(self, small_chip):
        placer = ContiguousPlacer()
        assert list(placer.place(small_chip, 3, {0, 2})) == [1, 3, 4]


class TestCheckerboard:
    def test_prefers_even_parity(self, small_chip):
        placer = CheckerboardPlacer()
        cores = placer.place(small_chip, 8, set())
        coords = [small_chip.grid_coordinates(c) for c in cores]
        assert all((r + c) % 2 == 0 for r, c in coords)

    def test_odd_parity_option(self, small_chip):
        placer = CheckerboardPlacer(parity=1)
        cores = placer.place(small_chip, 8, set())
        coords = [small_chip.grid_coordinates(c) for c in cores]
        assert all((r + c) % 2 == 1 for r, c in coords)

    def test_overflows_into_other_parity(self, small_chip):
        placer = CheckerboardPlacer()
        cores = placer.place(small_chip, 12, set())
        assert len(cores) == 12

    def test_invalid_parity_rejected(self):
        with pytest.raises(ConfigurationError, match="parity"):
            CheckerboardPlacer(parity=2)


class TestNeighbourhoodSpread:
    def test_first_choice_is_corner(self, small_chip):
        placer = NeighbourhoodSpreadPlacer()
        cores = placer.place(small_chip, 1, set())
        assert cores[0] == 0  # fewest neighbours, lowest index

    def test_second_choice_not_adjacent_to_first(self, small_chip):
        placer = NeighbourhoodSpreadPlacer()
        cores = placer.place(small_chip, 2, set())
        r0, c0 = small_chip.grid_coordinates(cores[0])
        r1, c1 = small_chip.grid_coordinates(cores[1])
        assert abs(r0 - r1) + abs(c0 - c1) > 1


def _dense_matrix_place(chip, n_cores, occupied):
    """The dense NeighbourhoodSpreadPlacer: an n x n adjacency matvec."""
    rows, cols = chip.grid
    n = rows * cols
    adjacency = np.zeros((n, n))
    for core in range(n):
        row, col = divmod(core, cols)
        for r, c in ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1)):
            if 0 <= r < rows and 0 <= c < cols:
                adjacency[core, r * cols + c] = 1.0
    taken = np.zeros(n)
    if occupied:
        taken[list(occupied)] = 1.0
    if n - len(occupied) < n_cores:
        return None
    scores = adjacency @ taken
    scores[taken == 1.0] = np.inf  # repro-lint: disable=DS102 - exact 0/1 indicator
    chosen = []
    for _ in range(n_cores):
        best = int(scores.argmin())
        chosen.append(best)
        scores[best] = np.inf
        scores += adjacency[:, best]
    return chosen


class TestNeighbourhoodSpreadOracle:
    """The grid placer chooses exactly what the dense-matrix one chose."""

    @pytest.fixture(params=["1x1", "1x7", "7x1", "5x5", "4x9", "8nm"])
    def chip(self, request):
        if request.param == "8nm":
            return get_chip("8nm")  # the paper's 19 x 19 grid
        rows, cols = map(int, request.param.split("x"))
        return Chip.grid_chip(NODE_16NM, rows, cols)

    def test_seeded_random_occupancy(self, chip):
        rows, cols = chip.grid
        n = rows * cols
        rng = random.Random(f"neighbourhood-spread:{rows}x{cols}")
        placer = NeighbourhoodSpreadPlacer()
        for _ in range(40):
            occupied = set(rng.sample(range(n), rng.randrange(n)))
            k = rng.randint(0, n - len(occupied))
            assert placer.place(chip, k, occupied) == _dense_matrix_place(
                chip, k, occupied
            )

    def test_empty_occupancy_fills_chip(self, chip):
        n = chip.grid[0] * chip.grid[1]
        assert NeighbourhoodSpreadPlacer().place(chip, n, set()) == (
            _dense_matrix_place(chip, n, set())
        )

    def test_full_chip_returns_none(self, chip):
        full = set(range(chip.grid[0] * chip.grid[1]))
        assert NeighbourhoodSpreadPlacer().place(chip, 1, full) is None
        assert _dense_matrix_place(chip, 1, full) is None

    def test_returns_python_ints(self, small_chip):
        cores = NeighbourhoodSpreadPlacer().place(small_chip, 3, {5})
        assert all(type(c) is int for c in cores)


class TestThermalSpread:
    def test_spreads_produce_cooler_chip_than_contiguous(self, small_chip):
        n = 8
        per_core = 3.0
        for placer, expect_cooler in ((ContiguousPlacer(), False), (ThermalSpreadPlacer(), True)):
            cores = placer.place(small_chip, n, set())
            powers = np.zeros(16)
            powers[list(cores)] = per_core
            peak = small_chip.solver.peak_temperature(powers)
            if expect_cooler:
                assert peak < contiguous_peak
            else:
                contiguous_peak = peak


def _generator_sum_place(chip, n_cores, occupied):
    """The scalar ThermalSpreadPlacer: per-candidate generator sums."""
    free = Placer.free_cores(chip, occupied)
    if len(free) < n_cores:
        return None
    influence = chip.thermal.influence_matrix()
    taken = set(occupied)
    chosen = []
    candidates = set(free)
    for _ in range(n_cores):
        best = min(
            sorted(candidates),
            key=lambda c: sum(influence[c, k] for k in taken) + influence[c, c],
        )
        chosen.append(best)
        candidates.remove(best)
        taken.add(best)
    return chosen


class TestThermalSpreadOracle:
    """The vectorised placer chooses exactly what the scalar one chose."""

    @pytest.fixture(params=["small", "16nm", "8nm"])
    def chip(self, request, small_chip, chip16):
        return {
            "small": small_chip,
            "16nm": chip16,
            "8nm": get_chip("8nm"),
        }[request.param]

    def test_seeded_random_occupancy(self, chip):
        rng = random.Random(f"thermal-spread:{chip.n_cores}")
        placer = ThermalSpreadPlacer()
        for _ in range(12):
            occupied = set(rng.sample(range(chip.n_cores), rng.randrange(chip.n_cores)))
            n = rng.randint(1, min(8, chip.n_cores - len(occupied)))
            assert placer.place(chip, n, occupied) == _generator_sum_place(
                chip, n, occupied
            )

    def test_empty_occupancy(self, chip):
        assert ThermalSpreadPlacer().place(chip, 8, set()) == _generator_sum_place(
            chip, 8, set()
        )

    def test_full_chip_returns_none(self, chip):
        full = set(range(chip.n_cores))
        assert ThermalSpreadPlacer().place(chip, 1, full) is None
        assert _generator_sum_place(chip, 1, full) is None

    def test_returns_python_ints(self, small_chip):
        cores = ThermalSpreadPlacer().place(small_chip, 3, {5})
        assert all(type(c) is int for c in cores)


class TestFreeCores:
    def test_helper(self, small_chip):
        assert Placer.free_cores(small_chip, {0, 15}) == list(range(1, 15))
