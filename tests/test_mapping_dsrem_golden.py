"""Golden equivalence of DsRem: exact payloads recorded from the scalar code.

``tests/data/dsrem_golden.json`` holds, per case, the sha256 of the full
mapping payload (every placed instance's app, threads, frequency, cores
and per-core power, the per-core power vector and the peak temperature)
plus the peak temperature and GIPS.  It was recorded from the scalar
DsRem implementation, before the table-driven rewrite, so any change of
decisions or of a single float bit shows here.

Cases: every Figure 9 default mix and the seven seed-1 mixes of the
``dsrem_mix`` benchmark workload on the paper's 16 nm chip at 185 W, and
the coarse-ladder, duplicate/unsorted-ladder and custom thread-option
configurations of the phase tests on ``small_chip``.

Regenerate (only after a deliberate model change) with::

    PYTHONPATH=src python -m tests.test_mapping_dsrem_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.parsec import app_by_name
from repro.chip import Chip
from repro.experiments.fig09_dsrem import DEFAULT_WORKLOADS
from repro.mapping.dsrem import DsRemConfig, ds_rem
from repro.tech.library import NODE_16NM
from repro.units import GIGA

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "dsrem_golden.json"

FULL_TDP = 185.0

#: The seed-1 mixes of the ``dsrem_mix`` benchmark workload.
BENCH_MIXES: tuple[tuple[str, ...], ...] = (
    ("dedup", "canneal", "blackscholes", "x264"),
    ("swaptions", "bodytrack", "ferret", "canneal"),
    ("x264", "bodytrack", "dedup"),
    ("ferret",),
    ("swaptions", "blackscholes", "dedup"),
    ("canneal", "ferret", "blackscholes", "bodytrack"),
    ("x264", "swaptions"),
)

_COARSE = (2.0 * GIGA, 2.8 * GIGA, 3.6 * GIGA)

#: name -> (mix, tdp, DsRemConfig keyword arguments) on ``small_chip``.
SMALL_CASES: dict[str, tuple[tuple[str, ...], float, dict]] = {
    "x264-tdp15-nomargin": (
        ("x264",), 15.0, {"frequencies": _COARSE, "exploit_margin": 1000.0}
    ),
    "swaptions-tdp10-nomargin": (
        ("swaptions",), 10.0, {"frequencies": _COARSE, "exploit_margin": 1000.0}
    ),
    "swaptions-tdp500-coarse": (("swaptions",), 500.0, {"frequencies": _COARSE}),
    "x264-tdp2-coarse": (("x264",), 2.0, {"frequencies": _COARSE}),
    "x264-tdp10-margin15": (
        ("x264",), 10.0, {"frequencies": _COARSE, "exploit_margin": 15.0}
    ),
    "x264-canneal-tdp25-coarse": (("x264", "canneal"), 25.0, {"frequencies": _COARSE}),
    "dedup-tdp20-threads4": (
        ("dedup",), 20.0,
        {"threads_options": (4,), "frequencies": (2.8 * GIGA, 3.6 * GIGA)},
    ),
    "x264-canneal-tdp25-dup-unsorted": (
        ("x264", "canneal"), 25.0,
        {"frequencies": (3.6 * GIGA, 2.0 * GIGA, 2.8 * GIGA, 2.0 * GIGA, 3.6 * GIGA)},
    ),
    "canneal-swaptions-tdp30-ladder": (("canneal", "swaptions"), 30.0, {}),
}


def _full_mixes() -> list[tuple[str, ...]]:
    mixes = list(DEFAULT_WORKLOADS)
    mixes += [m for m in BENCH_MIXES if m not in mixes]
    return mixes


def mapping_payload(result) -> dict:
    """Every decision and float of a DsRem mapping, JSON-ready."""
    return {
        "placed": [
            [
                p.instance.app.name,
                p.instance.threads,
                p.instance.frequency,
                list(p.cores),
                p.core_power,
            ]
            for p in result.placed
        ],
        "core_powers": result.core_powers.tolist(),
        "peak_temperature": result.peak_temperature,
    }


def summarise(result) -> dict:
    text = json.dumps(mapping_payload(result), sort_keys=True)
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "dsrem_peak": result.peak_temperature,
        "dsrem_gips": result.gips,
    }


def _run_full(chip: Chip, mix: tuple[str, ...]):
    return ds_rem(chip, [app_by_name(n) for n in mix], FULL_TDP)


def _run_small(chip: Chip, name: str):
    mix, tdp, kwargs = SMALL_CASES[name]
    return ds_rem(chip, [app_by_name(n) for n in mix], tdp, config=DsRemConfig(**kwargs))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("mix", _full_mixes(), ids="+".join)
def test_full_chip_mix_matches_golden(chip16, golden, mix):
    assert summarise(_run_full(chip16, mix)) == golden["full_16nm"]["+".join(mix)]


@pytest.mark.parametrize("name", sorted(SMALL_CASES))
def test_small_chip_config_matches_golden(small_chip, golden, name):
    assert summarise(_run_small(small_chip, name)) == golden["small_chip"][name]


def test_golden_covers_every_case(golden):
    assert set(golden["full_16nm"]) == {"+".join(m) for m in _full_mixes()}
    assert set(golden["small_chip"]) == set(SMALL_CASES)


def _record() -> dict:
    chip16 = Chip.for_node(NODE_16NM)
    small = Chip.grid_chip(NODE_16NM, 4, 4)
    return {
        "full_16nm": {
            "+".join(m): summarise(_run_full(chip16, m)) for m in _full_mixes()
        },
        "small_chip": {n: summarise(_run_small(small, n)) for n in sorted(SMALL_CASES)},
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
