"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dsrem_mix --seed 1 --seconds 30 --trace 0

The run generates the workload's op list from ``--seed``, then repeats
*passes* until ``--seconds`` have elapsed.  Every pass builds its chips
cold (the ``get_chip`` cache is cleared) and runs every op once, so all
passes see identical inputs and identical program state.  Each op is
timed, checked and digested; an op that raises counts as failed and the
run goes on.  Times are reported in reference seconds: host seconds
scaled by the host speed a calibration kernel measures in the same pass
(``hostspeed.py``).

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: spans recorded by wrapping the program's layer
functions from the outside (see ``tracer.py``) plus the program's own
``obs`` counters, which are enabled in traced passes only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(host, provenance, per-op times and digests) goes to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``; the
spans of the last traced pass go next to it as ``.npz``.
"""

from __future__ import annotations

import time

#: Reference point of ``setup_s``: taken before anything else runs.
_T0 = time.perf_counter()

import os  # noqa: E402

#: BLAS/OpenMP threads, fixed before numpy is imported.  One thread is
#: within any nproc and keeps runs on a shared host steady.
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import hostspeed  # noqa: E402  (after the thread variables: imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Child processes that each time one more cold set-up for ``setup_s``.
SETUP_PROBES = 2

#: Calibration-kernel runs at the start of each pass.  More follow every
#: op (at least one, about KERNEL_SHARE of the op's time), so each pass
#: gets its own scale and a host-speed phase change within a run is seen.
PASS_CALIBRATIONS = 5
KERNEL_SHARE = 0.03

#: Counters of the program's ``obs`` registry reported by traced runs.
OBS_COUNTERS = (
    "solver.cost.factorizations",
    "solver.cost.rhs_columns",
    "thermal.steady.solves",
    "thermal.transient.steps",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=RESULTS, help="directory of result records"
    )
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's first-pass outputs as the default seed's "
        "reference (only when every invariant check passes)",
    )
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help=argparse.SUPPRESS,  # one cold set-up; print host s and scale
    )
    args = parser.parse_args(argv)
    if not args.setup_probe and (args.seed is None or args.seconds is None):
        parser.error("--seed and --seconds are required")
    return args


# -- host and provenance -------------------------------------------------


def git_commit(root: Path):
    """HEAD commit read from ``.git`` without running git; None outside a
    repository (the benchmark also runs in plain source checkouts)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_fingerprint(src: Path) -> str:
    """sha256 over the program's Python sources (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_record(chips: dict) -> dict:
    import numpy
    import scipy

    try:
        from repro.thermal.backends import default_backend_name

        default_backend = default_backend_name()
    except ImportError:
        default_backend = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "thermal_backend_default": default_backend,
        "thermal_backend_used": {
            node: getattr(chip.thermal, "backend_name", None)
            for node, chip in chips.items()
        },
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


# -- passes ----------------------------------------------------------------


class OpState:
    """Per-op bookkeeping across the passes of one run."""

    def __init__(self, op: dict, reference) -> None:
        self.input = op
        self.reference = reference
        self.times: list[float] = []  # host seconds, one per pass
        self.ref_times: list[float] = []  # reference seconds (hostspeed)
        self.digest = None
        self.errors: list[str] = []
        self.summary = None
        self.checked = False


def check_op(workload, chips: dict, state: OpState, result) -> None:
    """First-pass checks: model invariants, then the reference outputs."""
    from workloads import compare_to_reference

    state.checked = True
    state.summary = workload.summary(result)
    state.errors.extend(workload.check(chips, state.input, result))
    ref = state.reference
    if ref is not None:
        if ref["input"] != state.input:
            state.errors.append("reference entry is for another input")
        else:
            state.errors.extend(compare_to_reference(state.summary, ref))


def run_pass(workload, chips: dict, states: list[OpState], tracer=None):
    """Run every op once, calibrating the host speed around the ops.

    Returns (op host seconds, failed-op count, the pass's host-to-
    reference scale); each state also gets the op's reference time.
    """
    from tracer import SETUP_OP
    from workloads import payload_digest

    kernel = hostspeed.calibrate(PASS_CALIBRATIONS)
    times, failed = [], 0
    for i, state in enumerate(states):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = workload.run_op(chips, state.input)
            error = None
        except Exception as exc:  # an op that raises fails; the run goes on
            result = None
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = SETUP_OP
        kernel += hostspeed.calibrate(
            max(1, int(KERNEL_SHARE * elapsed / hostspeed.REFERENCE_KERNEL_S))
        )
        times.append(elapsed)
        state.times.append(elapsed)
        if error is not None:
            if error not in state.errors:
                state.errors.append(error)
            failed += 1
            continue
        digest = payload_digest(result)
        if not state.checked:
            state.digest = digest
            try:
                check_op(workload, chips, state, result)
            except Exception as exc:
                state.errors.append(f"check raised {type(exc).__name__}: {exc}")
        elif digest != state.digest:
            state.errors.append("payload differs between passes")
        if state.errors:
            failed += 1
    scale = hostspeed.scale(kernel)
    for state, elapsed in zip(states, times):
        state.ref_times.append(elapsed * scale)
    return times, failed, scale


def setup_probes(workload: str) -> list[tuple[float, float]]:
    """(host seconds, scale) of cold set-ups in fresh processes.

    A package is imported cold only once per process, so the repeated
    set-up samples come from short child processes, run one at a time.
    """
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, scale = proc.stdout.strip().splitlines()[-1].split()
        out.append((float(seconds), float(scale)))
    return out


def measure(workload, states, seconds: float) -> dict:
    """Untraced passes for ``seconds``: the end-to-end samples."""
    from repro import obs

    obs.disable()
    builds, walls, scales, attempted, failed = [], [], [], 0, 0
    chips = {}
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        chips = workload.build_chips()
        builds.append(time.perf_counter() - t0)
        times, n_failed, scale = run_pass(workload, chips, states)
        walls.append(sum(times))
        scales.append(scale)
        attempted += len(times)
        failed += n_failed
        if time.perf_counter() - start >= seconds:
            break
    return {
        "builds": builds,
        "walls": walls,
        "scales": scales,
        "attempted": attempted,
        "failed": failed,
        "chips": chips,
    }


def measure_traced(workload, states, seconds: float, spans_path: Path) -> dict:
    """Alternating untraced/traced passes: the per-layer samples."""
    import numpy as np
    from repro import obs
    from tracer import Tracer

    tracer = Tracer()
    plain_walls, traced_walls, layers = [], [], []
    attempted, failed = 0, 0
    chips = {}
    start = time.perf_counter()
    n = 0
    while True:
        traced = n % 2 == 1
        gc.collect()
        if traced:
            tracer.start_pass()
            tracer.install()
        try:
            chips = workload.build_chips()
            if traced:
                obs.reset()
                obs.enable()
                before = obs.snapshot()
            times, n_failed, scale = run_pass(
                workload, chips, states, tracer if traced else None
            )
            if traced:
                counters = obs.diff(before)["counters"]
        finally:
            if traced:
                obs.disable()
                tracer.uninstall()
        attempted += len(times)
        failed += n_failed
        wall = sum(times) * scale
        if traced:
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer, counters, wall, scale))
        else:
            plain_walls.append(wall)
        n += 1
        if n >= 2 and time.perf_counter() - start >= seconds:
            break
    np.savez_compressed(spans_path, names=np.array(tracer.names), **tracer.spans())
    metrics = {
        key: median([layer[key] for layer in layers]) for key in layers[0]
    }
    metrics["trace.overhead_frac"] = median(traced_walls) / median(plain_walls) - 1
    return {
        "metrics": metrics,
        "missing": tracer.missing,
        "plain_walls": plain_walls,
        "traced_walls": traced_walls,
        "attempted": attempted,
        "failed": failed,
        "chips": chips,
    }


def layer_metrics(tracer, counters: dict, wall: float, scale: float) -> dict:
    """One traced pass's per-layer metrics (names as in BENCHMARK.json).

    ``wall`` is the pass's op time in reference seconds and ``scale``
    the pass's host-to-reference factor.
    """
    agg = tracer.aggregate()
    out = {}
    for name in tracer.names:
        out[f"{name}.calls"] = agg[f"{name}.calls"]
        out[f"{name}.self_s"] = agg[f"{name}.self_s"] * scale
    out["apps.core_power.distinct_frac"] = agg["apps.core_power.distinct_frac"]
    out["runtime.admit_frac"] = agg["runtime.admit.ok_frac"]
    hits = counters.get("perf.batched.cache_hits", 0)
    misses = counters.get("perf.batched.cache_misses", 0)
    out["perf.cache_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    for name in OBS_COUNTERS:
        out[name] = counters.get(name, 0)
    ops_self = scale * sum(agg[f"{name}.ops_self_s"] for name in tracer.names)
    out["trace.coverage_frac"] = ops_self / wall if wall else 0.0
    return out


# -- output ------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def select_metrics(spec: dict, trace: int, values: dict) -> dict:
    """The metrics BENCHMARK.json declares for this mode, with units."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads as wl  # imports repro and loads the experiment registry

    if args.workload not in wl.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"known: {', '.join(wl.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = wl.WORKLOADS[args.workload]
    import_s = time.perf_counter() - _T0
    if args.setup_probe:
        workload.build_chips()
        setup = time.perf_counter() - _T0
        print(setup, hostspeed.scale(hostspeed.calibrate(PASS_CALIBRATIONS)))
        return 0
    spec = load_spec()

    reference = None
    if args.seed == wl.DEFAULT_SEED and not args.write_reference:
        reference = wl.load_reference(workload.name)
    ops = workload.generate(args.seed)
    states = [
        OpState(op, reference[i] if reference is not None else None)
        for i, op in enumerate(ops)
    ]

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run = measure_traced(
            workload, states, args.seconds, args.out / f"{stem}-spans.npz"
        )
        values = run["metrics"]
        samples = {
            "untraced_wall_s": run["plain_walls"],
            "traced_wall_s": run["traced_walls"],
            "trace_missing_targets": run["missing"],
        }
    else:
        run = measure(workload, states, args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups = [(import_s + run["builds"][0], run["scales"][0])]
        setups += setup_probes(workload.name)
        # Each op's median over passes discounts single slow passes.
        op_ref = [median(s.ref_times) for s in states]
        op_host = [median(s.times) for s in states]
        values = {
            "setup_s": median(t * scale for t, scale in setups),
            "wall_s": sum(op_ref),
            "op_p50_ms": 1e3 * median(op_ref),
            "peak_rss_mib": peak_rss_mib,
        }
        host = {
            "setup_s": median(t for t, _ in setups),
            "wall_s": sum(op_host),
            "op_p50_ms": 1e3 * median(op_host),
        }
        samples = {
            "host_seconds": host,
            "setup_host_s_and_scale": setups,
            "build_host_s": run["builds"],
            "pass_wall_host_s": run["walls"],
            "pass_scale": run["scales"],
        }
    attempted, failed = run["attempted"], run["failed"]
    if args.write_reference:
        write_reference(wl, workload, args.seed, states)

    metrics = select_metrics(spec, args.trace, values)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "ops_per_pass": len(states),
        "passes": attempted // len(states),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "all_values": values,
        "samples": samples,
        "host": host_record(run["chips"]),
        "provenance": {
            "seed": args.seed,
            "commit": git_commit(ROOT),
            "source_fingerprint": source_fingerprint(SRC),
        },
        "ops": [
            {
                "input": s.input,
                "digest": s.digest,
                "reference_digest": s.reference["digest"] if s.reference else None,
                "op_host_ms": [1e3 * t for t in s.times],
                "op_ref_ms": [1e3 * t for t in s.ref_times],
                "errors": s.errors,
                "summary": s.summary,
            }
            for s in states
        ],
    }
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for s in states:
        for error in s.errors:
            print(f"FAILED op {s.input}: {error}", file=sys.stderr)
    print(
        f"{workload.name} seed={args.seed} trace={args.trace}: "
        f"{record['passes']} passes x {len(states)} ops, "
        f"{attempted} ops attempted, {failed} failed "
        f"(failed_frac {record['failed_frac']:.3f})"
    )
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def write_reference(wl, workload, seed: int, states: list[OpState]) -> None:
    """Store the first-pass summaries as the default seed's reference."""
    if seed != wl.DEFAULT_SEED:
        raise SystemExit(f"--write-reference needs --seed {wl.DEFAULT_SEED}")
    if any(s.errors or s.summary is None for s in states):
        raise SystemExit("not writing a reference: some op failed its checks")
    doc = {
        "workload": workload.name,
        "seed": seed,
        "rtol": wl.REFERENCE_RTOL,
        "ops": [
            {"input": s.input, "digest": s.digest, "summary": s.summary}
            for s in states
        ],
    }
    path = wl.reference_path(workload.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
