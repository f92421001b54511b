"""The rendered performance report: ``darksilicon report``.

Turns the raw observability artefacts nobody reads — ``BENCH_TRACK.json``
(the appended bench trajectory), ``benchmarks/bench_baseline.json`` (the
committed gate) and the store's ``runs.jsonl`` provenance ledger — into
one markdown dashboard under ``reports/``:

* **Bench trends** — one table per tracked bench: every trajectory
  entry's wall clock with its delta against the committed baseline, so
  "the number changed" becomes "this bench regressed on this entry";
* **Hottest spans** — the latest entry's span aggregates merged across
  benches, ranked by total time;
* **Histogram percentiles** — p50/p90/p99 for every histogram the
  latest entry recorded, estimated from the log2 buckets
  (:func:`repro.obs.exporters.hist_percentile`);
* **Store activity** — hit rate and failure count out of the run
  ledger;
* **Recent runs** — the ledger's newest lines: which experiment ran,
  served or executed, how long, under which code fingerprint.

Rendering is deterministic for fixed inputs (``generated=None`` omits
the timestamp line), which is what the golden-file test pins down.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.obs.exporters import hist_percentile
from repro.obs.manifest import RunManifest, read_manifests

#: Default report location, relative to the working directory.
DEFAULT_REPORT_PATH = Path("reports") / "performance.md"


def load_track(path: Union[str, Path]) -> list[dict]:
    """The bench trajectory (``[]`` when the file does not exist)."""
    path = Path(path)
    if not path.is_file():
        return []
    return json.loads(path.read_text())


def load_baseline(path: Union[str, Path]) -> dict:
    """The committed baseline (``{}`` when the file does not exist)."""
    path = Path(path)
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def _delta_cell(wall_s: float, base_s: Optional[float]) -> str:
    if not base_s:
        return "n/a"
    return f"{(wall_s / base_s - 1.0) * 100:+.1f}%"


def _bench_names(track: Sequence[dict]) -> list[str]:
    names: list[str] = []
    for entry in track:
        for name in entry.get("benches", {}):
            if name not in names:
                names.append(name)
    return names


def _trend_section(track: Sequence[dict], baseline: dict) -> list[str]:
    lines = ["## Bench trends", ""]
    if not track:
        lines += ["No bench-track entries yet — run `make bench-track`.", ""]
        return lines
    for bench in _bench_names(track):
        base_s = baseline.get(bench, {}).get("wall_s")
        lines.append(f"### {bench}")
        lines.append("")
        if base_s:
            lines.append(f"Baseline: {base_s:.4f} s (20% regression gate).")
            lines.append("")
        lines.append("| entry | timestamp | wall_s | vs baseline |")
        lines.append("|---|---|---|---|")
        for i, entry in enumerate(track, start=1):
            bench_data = entry.get("benches", {}).get(bench)
            if bench_data is None:
                continue
            wall = bench_data["wall_s"]
            lines.append(
                f"| {i} | {entry.get('timestamp', '?')} | {wall:.4f} "
                f"| {_delta_cell(wall, base_s)} |"
            )
        lines.append("")
    return lines


def _spans_section(track: Sequence[dict], top: int) -> list[str]:
    lines = [f"## Hottest spans (latest entry, top {top})", ""]
    if not track:
        lines += ["No data.", ""]
        return lines
    merged: dict[str, list[float]] = {}
    for bench_data in track[-1].get("benches", {}).values():
        for path, agg in bench_data.get("obs", {}).get("spans", {}).items():
            bucket = merged.setdefault(path, [0, 0.0])
            bucket[0] += agg["count"]
            bucket[1] += agg["total_s"]
    if not merged:
        lines += ["No span data in the latest entry.", ""]
        return lines
    ranked = sorted(merged.items(), key=lambda kv: -kv[1][1])[:top]
    lines.append("| span | count | total_s |")
    lines.append("|---|---|---|")
    for path, (count, total_s) in ranked:
        lines.append(f"| `{path}` | {count} | {total_s:.4f} |")
    lines.append("")
    return lines


def _percentiles_section(track: Sequence[dict]) -> list[str]:
    lines = ["## Histogram percentiles (latest entry)", ""]
    rows: list[str] = []
    if track:
        for bench, bench_data in sorted(
            track[-1].get("benches", {}).items()
        ):
            for name, agg in sorted(
                bench_data.get("obs", {}).get("histograms", {}).items()
            ):
                cells = []
                for q in (0.5, 0.9, 0.99):
                    value = hist_percentile(agg, q)
                    cells.append("—" if value is None else f"{value:.4g}")
                rows.append(
                    f"| {bench} | `{name}` | {agg.get('count', 0)} "
                    f"| {cells[0]} | {cells[1]} | {cells[2]} |"
                )
    if not rows:
        lines += ["No histogram data in the latest entry.", ""]
        return lines
    lines.append("| bench | histogram | count | p50 | p90 | p99 |")
    lines.append("|---|---|---|---|---|---|")
    lines += rows
    lines.append("")
    return lines


def _store_section(manifests: Sequence[RunManifest]) -> list[str]:
    lines = ["## Store activity", ""]
    if not manifests:
        lines += [
            "No run ledger found — run with `--store DIR` to record "
            "provenance.",
            "",
        ]
        return lines
    ok = [m for m in manifests if m.error is None]
    hits = sum(m.cached for m in ok)
    executed = len(ok) - hits
    failed = len(manifests) - len(ok)
    rate = hits / len(ok) if ok else 0.0
    lines += [
        f"- runs recorded: **{len(manifests)}** "
        f"({hits} served from store, {executed} executed, {failed} failed)",
        f"- store hit rate: **{rate:.1%}**",
        "",
    ]
    return lines


def _ledger_section(
    manifests: Sequence[RunManifest], recent: int
) -> list[str]:
    lines = [f"## Recent runs (last {recent})", ""]
    if not manifests:
        lines += ["No runs recorded.", ""]
        return lines
    lines.append(
        "| timestamp | experiment | status | wall_s | fingerprint | trace |"
    )
    lines.append("|---|---|---|---|---|---|")
    for m in list(manifests)[-recent:]:
        if m.error is not None:
            status = "FAILED"
        elif m.cached:
            status = "cached"
        else:
            status = "executed"
        trace = f"`{m.trace_path}`" if m.trace_path else "—"
        lines.append(
            f"| {m.timestamp} | {m.experiment} | {status} "
            f"| {m.wall_s:.3f} | `{m.fingerprint}` | {trace} |"
        )
    lines.append("")
    return lines


def render_report(
    track: Sequence[dict],
    baseline: dict,
    manifests: Sequence[RunManifest],
    top: int = 5,
    recent: int = 10,
    generated: Optional[str] = None,
) -> str:
    """The full markdown dashboard as one string.

    Args:
        track: bench trajectory entries (see :func:`load_track`).
        baseline: committed per-bench baseline.
        manifests: the run ledger (see
            :func:`repro.obs.manifest.read_manifests`).
        top: hottest spans shown.
        recent: ledger lines shown.
        generated: timestamp line content; ``None`` omits the line,
            keeping the output a pure function of the inputs (what the
            golden-file test relies on).
    """
    lines = ["# Performance report", ""]
    if generated is not None:
        lines += [f"_Generated: {generated}_", ""]
    lines += _trend_section(track, baseline)
    lines += _spans_section(track, top)
    lines += _percentiles_section(track)
    lines += _store_section(manifests)
    lines += _ledger_section(manifests, recent)
    return "\n".join(lines).rstrip() + "\n"


def generate(
    track_path: Union[str, Path],
    baseline_path: Union[str, Path],
    store_root: Optional[Union[str, Path]] = None,
    out_path: Union[str, Path] = DEFAULT_REPORT_PATH,
    top: int = 5,
    recent: int = 10,
) -> Path:
    """Load every input, render, and write the report; returns its path."""
    manifests = read_manifests(store_root) if store_root else []
    text = render_report(
        load_track(track_path),
        load_baseline(baseline_path),
        manifests,
        top=top,
        recent=recent,
        generated=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    return out
