"""The benchmark's workloads: seeded input generators, ops and checks.

A workload turns a seed into a fixed list of op inputs (plain JSON
values).  One *pass* runs every op of that list once through a public
experiment runner of the ``repro`` package; ``run.py``
repeats passes for the run length.  Each op's result is checked against
the model invariants the tier-1 shape tests rely on and, at the default
seed, against the committed reference outputs in ``reference/``.

Why each workload exists (which layer it exercises, which it bypasses)
is recorded next to its definition below and in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.apps.parsec import app_by_name
from repro.experiments import registry
from repro.experiments.common import get_chip
from repro.mapping.tdpmap import tdp_map

#: Seed whose per-op outputs are committed under ``reference/``.
DEFAULT_SEED = 1

#: Relative tolerance of the reference comparison.  Tight enough to
#: catch any model change, loose enough for summation-order drift.
REFERENCE_RTOL = 1e-9

#: Slack on the model's own limits (T_DTM, TDP, power cap); the program
#: compares against the same limits with 1e-6 / 1e-9 slack.
LIMIT_SLACK = 1e-6

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: The seven PARSEC applications, spelled out here so the generators do
#: not depend on the program's own app ordering.
APPS = (
    "x264",
    "blackscholes",
    "bodytrack",
    "ferret",
    "canneal",
    "dedup",
    "swaptions",
)

# -- dsrem_mix ---------------------------------------------------------

DSREM_NODE = "16nm"
DSREM_TDP = 185.0
#: Mix sizes of one pass; they sum to 3 x 7, so every app appears in
#: exactly three mixes of a pass and passes of different seeds carry
#: comparable work.
DSREM_MIX_SIZES = (1, 2, 3, 3, 4, 4, 4)
DSREM_APP_REPEATS = 3

# -- boost_transient ---------------------------------------------------

BOOST_NODE = "11nm"
BOOST_POWER_CAP = 500.0
BOOST_INSTANCES = (12, 24)
#: Simulated seconds per case: 1000 backward-Euler steps at dt = 1 ms.
BOOST_DURATION = 1.0
#: Rounds per pass; each round runs every app once.
BOOST_ROUNDS = 2

# -- runtime_stream ----------------------------------------------------

RUNTIME_NODE = "8nm"
RUNTIME_STREAMS = 8
RUNTIME_JOBS = 200
#: Mean interarrival, s.  At 0.1 s both policies queue jobs (nonzero
#: mean waiting time), so admission runs against a backlog.
RUNTIME_INTERARRIVAL = 0.1
RUNTIME_WORK = 400e9
RUNTIME_TDP = 185.0


def _dsrem_inputs(rng: random.Random) -> list[dict]:
    sizes = list(DSREM_MIX_SIZES)
    rng.shuffle(sizes)
    while True:
        pool = [
            app
            for _ in range(DSREM_APP_REPEATS)
            for app in rng.sample(APPS, len(APPS))
        ]
        mixes, start = [], 0
        for size in sizes:
            mixes.append(pool[start:start + size])
            start += size
        if all(len(set(m)) == len(m) for m in mixes):
            return [{"mix": m} for m in mixes]


def _boost_inputs(rng: random.Random) -> list[dict]:
    return [
        {"app": app, "instances": rng.choice(BOOST_INSTANCES)}
        for _ in range(BOOST_ROUNDS)
        for app in rng.sample(APPS, len(APPS))
    ]


def _runtime_inputs(rng: random.Random) -> list[dict]:
    return [
        {"stream_seed": rng.randrange(2**31)} for _ in range(RUNTIME_STREAMS)
    ]


def _run_dsrem(chips: dict, op: dict):
    return registry.get("fig9").runner(
        chip=chips[DSREM_NODE], workloads=[op["mix"]], tdp=DSREM_TDP
    )


def _run_boost(chips: dict, op: dict):
    return registry.get("fig13").runner(
        chip=chips[BOOST_NODE],
        app_names=[op["app"]],
        instance_counts=[op["instances"]],
        duration=BOOST_DURATION,
        power_cap=BOOST_POWER_CAP,
    )


def _run_runtime(chips: dict, op: dict):
    return registry.get("runtime").runner(
        chip=chips[RUNTIME_NODE],
        app_names=list(APPS),
        n_jobs=RUNTIME_JOBS,
        mean_interarrival=RUNTIME_INTERARRIVAL,
        work=RUNTIME_WORK,
        tdp=RUNTIME_TDP,
        seed=op["stream_seed"],
    )


def _check_dsrem(chips: dict, op: dict, result) -> list[str]:
    chip = chips[DSREM_NODE]
    (entry,) = result.entries
    errors = []
    if entry.dsrem_peak > chip.t_dtm + LIMIT_SLACK:
        errors.append(
            f"DsRem peak {entry.dsrem_peak:.6f} degC above T_DTM {chip.t_dtm}"
        )
    # The fig9 payload carries no TDPmap power; recompute the mapping
    # (outside the timed region) to check it against the budget.
    base = tdp_map(chip, [app_by_name(n) for n in op["mix"]], DSREM_TDP)
    if base.total_power > DSREM_TDP + LIMIT_SLACK:
        errors.append(f"TDPmap power {base.total_power:.6f} W above TDP")
    if not (entry.tdpmap_gips > 0 and entry.dsrem_gips > 0):
        errors.append("non-positive GIPS")
    return errors


def _check_boost(chips: dict, op: dict, result) -> list[str]:
    (case,) = result.cases
    errors = []
    if case.boosting_peak_power > BOOST_POWER_CAP + LIMIT_SLACK:
        errors.append(
            f"boosting peak power {case.boosting_peak_power:.6f} W above cap"
        )
    if not (case.boosting_gips > 0 and case.constant_gips > 0):
        errors.append("non-positive GIPS")
    return errors


def _check_runtime(chips: dict, op: dict, result) -> list[str]:
    errors = []
    for name, run in (("tdp-fifo", result.tdp), ("tsp-adaptive", result.tsp)):
        done = sorted(r.job.job_id for r in run.records)
        if done != list(range(RUNTIME_JOBS)):
            errors.append(
                f"{name}: {len(done)} of {RUNTIME_JOBS} jobs completed"
            )
        if any(r.start < r.job.arrival or r.finish < r.start for r in run.records):
            errors.append(f"{name}: a job starts before arrival or ends before start")
    return errors


def _summary_dsrem(result) -> dict:
    (e,) = result.entries
    return {
        "tdpmap_gips": e.tdpmap_gips,
        "dsrem_gips": e.dsrem_gips,
        "tdpmap_dark": e.tdpmap_dark,
        "dsrem_dark": e.dsrem_dark,
        "dsrem_peak": e.dsrem_peak,
    }


def _summary_boost(result) -> dict:
    (c,) = result.cases
    return {
        "constant_frequency": c.constant_frequency,
        "constant_gips": c.constant_gips,
        "constant_power": c.constant_power,
        "boosting_gips": c.boosting_gips,
        "boosting_peak_power": c.boosting_peak_power,
    }


def _summary_runtime(result) -> dict:
    out = {}
    for name, run in (("tdp", result.tdp), ("tsp", result.tsp)):
        out.update(
            {
                f"{name}_makespan": run.makespan,
                f"{name}_energy": run.energy,
                f"{name}_max_peak": run.max_peak_temperature,
                f"{name}_core_seconds": run.core_seconds,
                f"{name}_mean_response": run.mean_response_time,
            }
        )
    return out


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name ``--workload`` selects.
        why: the reason it is in the benchmark (also in BENCHMARK.json).
        nodes: technology nodes whose chips the set-up builds cold.
        inputs: seeded generator of one pass's op inputs.
        run_op: runs one op through a public experiment runner.
        check: invariant violations of one op's result (empty when ok).
        summary: the numbers compared against the reference outputs.
    """

    name: str
    why: str
    nodes: tuple[str, ...]
    inputs: Callable[[random.Random], list[dict]]
    run_op: Callable[[dict, dict], Any]
    check: Callable[[dict, dict, Any], list[str]]
    summary: Callable[[Any], dict]

    def generate(self, seed: int) -> list[dict]:
        """The op inputs of one pass; the same seed gives the same list."""
        return self.inputs(random.Random(f"{self.name}:{seed}"))

    def build_chips(self) -> dict:
        """Cold chips: RC build, factorisation and influence matrix."""
        get_chip.cache_clear()
        chips = {}
        for node in self.nodes:
            chip = get_chip(node)
            chip.thermal.factorization()
            chip.engine  # builds the influence matrix
            chips[node] = chip
        return chips


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Most host time goes to scalar AppProfile.core_power ->
        # CorePowerModel.at_node re-evaluation (tens of thousands of
        # calls per mix, few distinct arguments) plus full
        # SteadyStateSolver solves; no transient steps and no peak-cache
        # hits.  An array power model or a single steady-state path shows
        # here; a transient change must show no change.
        Workload(
            name="dsrem_mix",
            why=(
                "fig9 TDPmap+DsRem on seeded 1-4 app PARSEC mixes (16 nm): "
                "scalar power-model calls and full steady solves, no "
                "transients, no peak cache"
            ),
            nodes=(DSREM_NODE,),
            inputs=_dsrem_inputs,
            run_op=_run_dsrem,
            check=_check_dsrem,
            summary=_summary_dsrem,
        ),
        # Time goes to backward-Euler TransientSimulator.step solves and
        # to the vectorised Eq. (1) PlacedWorkload.total_powers, whose
        # leakage tracks temperature every step; core_power is never
        # called.  Lockstep transients show here, and a power memo built
        # for DsRem can only cost time here.
        Workload(
            name="boost_transient",
            why=(
                "fig13 boosting vs constant on seeded (app, 12|24 instances) "
                "cases (11 nm, 500 W cap): transient steps and vectorised "
                "power, no scalar power model"
            ),
            nodes=(BOOST_NODE,),
            inputs=_boost_inputs,
            run_op=_run_boost,
            check=_check_boost,
            summary=_summary_boost,
        ),
        # The only workload on the BatchedSteadyState influence matvec and
        # its quantized peak LRU (hit rate ~0.5, 0 elsewhere); it also
        # covers TSP safe_frequency, the placers and the event loop on the
        # largest influence matrix (361 cores).
        Workload(
            name="runtime_stream",
            why=(
                "runtime TDP-FIFO vs TSP-adaptive on seeded Poisson streams of "
                "all 7 apps (8 nm, backlogged): influence matvec, peak LRU, "
                "TSP and event loop"
            ),
            nodes=(RUNTIME_NODE,),
            inputs=_runtime_inputs,
            run_op=_run_runtime,
            check=_check_runtime,
            summary=_summary_runtime,
        ),
    )
}


def payload_digest(result) -> str:
    """sha256 of the result's canonical payload, for exact comparison."""
    text = json.dumps(result.to_payload(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> list[dict]:
    """Per-op reference summaries of the default seed."""
    return json.loads(reference_path(workload).read_text())["ops"]


def compare_to_reference(summary: dict, reference: dict) -> list[str]:
    """Mismatches of one op's summary against its reference entry."""
    errors = []
    for key, want in reference["summary"].items():
        got = summary.get(key)
        if got is None or not math.isclose(
            got, want, rel_tol=REFERENCE_RTOL, abs_tol=0.0
        ):
            errors.append(f"{key} = {got!r}, reference {want!r}")
    return errors
