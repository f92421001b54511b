"""Snapshot exporters: JSON/CSV files, percentiles, Prometheus, JSONL, HTTP.

A snapshot (see :meth:`repro.obs.registry.Registry.snapshot`) is already
a JSON-serialisable dict.  The *post-hoc* exporters write a finished
run's snapshot to files:

* :func:`to_json` adds deterministic formatting and optional file output;
* :func:`to_csv` flattens the five aggregate kinds into one
  ``kind,name,count,total_s,value`` table so spreadsheet tooling can
  consume a run without JSON wrangling (histogram rows put the sample
  *sum* in the ``total_s`` column; the bucket breakdown only exists in
  the JSON form);
* :func:`hist_percentile` estimates quantiles from the registry's log2
  histogram buckets, and :func:`annotate_percentiles` stamps p50/p90/p99
  onto every histogram of a snapshot — used by ``darksilicon report``
  tables and the budget watchdog's ``p95_le`` predicate.

The *live* exporters are what the continuous-telemetry layer plugs into:

* :func:`to_prometheus` renders any registry snapshot in the Prometheus
  text exposition format (version 0.0.4) — counters and gauges value-
  exact, timers/spans as summaries, and the registry's log2 histograms
  mapped onto cumulative ``le`` buckets;
* :class:`JsonlSink` appends one JSON line per record to a file, fsync-
  free but line-atomic, the sink a :class:`~repro.obs.sampler.
  SnapshotSampler` streams interval samples into and ``darksilicon obs
  tail`` pretty-prints from;
* :func:`start_metrics_server` hosts ``GET /metrics`` (Prometheus) and
  ``GET /snapshot.json`` on a stdlib :class:`http.server.
  ThreadingHTTPServer` daemon thread, so a long-lived process (a sweep,
  the future ``darksilicon serve``) can be scraped while it works.
  :mod:`http.server` (which drags in ``ssl`` and ``email``) is imported
  only when a server starts, not with the package.

Name mapping: Prometheus names allow ``[a-zA-Z0-9_:]`` only, so dotted
registry names are flattened with underscores under one namespace —
``perf.batched.cache_hits`` becomes ``repro_perf_batched_cache_hits``
(counters additionally get the conventional ``_total`` suffix).  The
mapping loses the dot/dash structure but never aliases two registry
names onto each other in practice; the round-trip test pins value
exactness.

Histogram mapping: registry bucket ``"e"`` holds samples in
``(2**(e-1), 2**e]`` and ``"le0"`` holds non-positive samples, so the
upper bounds ``2**e`` (and ``0`` for the underflow bucket) are *exact*
Prometheus ``le`` bounds: cumulative counts are monotone and the
``+Inf`` bucket equals the sample count by construction.
"""

from __future__ import annotations

import csv
import io
import json
import re
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

from repro.obs.registry import _HIST_UNDERFLOW

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer


# -- JSON / CSV / percentiles -------------------------------------------


def to_json(snapshot: dict, path: Optional[Union[str, Path]] = None) -> str:
    """Serialise a snapshot to JSON (sorted keys, 2-space indent).

    Args:
        snapshot: a registry snapshot.
        path: when given, the JSON is also written to this file.

    Returns:
        The JSON text.
    """
    text = json.dumps(snapshot, indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def to_csv(snapshot: dict, path: Optional[Union[str, Path]] = None) -> str:
    """Flatten a snapshot into CSV rows.

    Counters and gauges emit ``(kind, value)`` rows; timers and spans
    emit ``(count, total_s)`` rows; histograms emit ``(count, sum)``
    rows (sum in the ``total_s`` column).  Rows are sorted by
    (kind, name) so the output is diff-stable across runs.

    Returns:
        The CSV text (also written to ``path`` when given).
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["kind", "name", "count", "total_s", "value"])
    rows = []
    for name, value in snapshot.get("counters", {}).items():
        rows.append(["counter", name, "", "", value])
    for name, value in snapshot.get("gauges", {}).items():
        rows.append(["gauge", name, "", "", value])
    for kind in ("timers", "spans"):
        for name, agg in snapshot.get(kind, {}).items():
            rows.append([kind[:-1], name, agg["count"], agg["total_s"], ""])
    for name, agg in snapshot.get("histograms", {}).items():
        rows.append(["histogram", name, agg["count"], agg["sum"], ""])
    rows.sort(key=lambda r: (r[0], r[1]))
    writer.writerows(rows)
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def hist_percentile(agg: dict, q: float) -> Optional[float]:
    """Estimate the ``q``-quantile of a log2-bucket histogram aggregate.

    The estimator assumes a uniform distribution *within* the bucket
    containing the target rank, interpolating linearly between the
    bucket's bounds — with both bounds clamped to the aggregate's
    recorded ``min``/``max``.  The clamp makes degenerate cases exact
    rather than approximate: a histogram whose samples all share one
    bucket interpolates across ``[min, max]`` directly, and a
    constant-valued histogram returns that constant for every ``q``
    (the exactness contract ``tests/test_obs_exporters.py`` pins).

    Args:
        agg: histogram aggregate (``count``/``sum``/``min``/``max``/
            ``buckets``) as found in a snapshot.
        q: quantile in ``[0, 1]``.

    Returns:
        The estimate, or ``None`` for an empty histogram.
    """
    count = agg.get("count", 0)
    if not count:
        return None
    if not 0.0 <= q <= 1.0:
        from repro.errors import ConfigurationError

        raise ConfigurationError(f"quantile must be in [0, 1], got {q!r}")
    lo_all, hi_all = agg["min"], agg["max"]

    def bounds(key: str) -> tuple[float, float]:
        if key == _HIST_UNDERFLOW:
            return (min(lo_all, 0.0), 0.0)
        exponent = int(key)
        return (2.0 ** (exponent - 1), 2.0 ** exponent)

    ordered = sorted(
        ((bounds(key), n) for key, n in agg.get("buckets", {}).items()),
        key=lambda item: item[0][1],
    )
    rank = q * count  # continuous rank in [0, count]
    cumulative = 0
    for (lo, hi), n in ordered:
        if rank <= cumulative + n or (lo, hi) == ordered[-1][0]:
            lo = max(lo, lo_all)
            hi = min(hi, hi_all)
            frac = (rank - cumulative) / n
            frac = min(max(frac, 0.0), 1.0)
            value = lo + (hi - lo) * frac
            return min(max(value, lo_all), hi_all)
        cumulative += n
    raise AssertionError("unreachable: ranks are covered by buckets")


def annotate_percentiles(
    snapshot: dict, qs: Sequence[float] = (0.5, 0.9, 0.99)
) -> dict:
    """Stamp quantile estimates onto every histogram of a snapshot.

    Returns a copy of ``snapshot`` whose histogram aggregates carry an
    extra ``"p<NN>"`` key per requested quantile (``0.5`` → ``"p50"``,
    ``0.99`` → ``"p99"``); the input is not mutated.  Non-histogram
    kinds are passed through unchanged.
    """
    out = dict(snapshot)
    out["histograms"] = {
        name: {
            **agg,
            **{
                f"p{round(q * 100):d}": hist_percentile(agg, q)
                for q in qs
            },
        }
        for name, agg in snapshot.get("histograms", {}).items()
    }
    return out


# -- Prometheus text exposition -----------------------------------------

#: Default metric-name namespace prefixed to every exported series.
NAMESPACE = "repro"

_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str, namespace: str = NAMESPACE) -> str:
    """Flatten a dotted registry name into a Prometheus metric name."""
    flat = _SANITIZE_RE.sub("_", name)
    return f"{namespace}_{flat}" if namespace else flat


def _fmt(value: float) -> str:
    """Format a sample value: integers without a trailing ``.0``."""
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def bucket_upper_bound(key: str) -> float:
    """The inclusive upper bound of one registry log2 bucket key."""
    if key == _HIST_UNDERFLOW:
        return 0.0
    return float(2.0 ** int(key))


def _histogram_lines(name: str, agg: dict, out: list[str]) -> None:
    """Append one histogram's exposition lines (cumulative buckets)."""
    bounds = sorted(
        (bucket_upper_bound(key), count)
        for key, count in agg.get("buckets", {}).items()
    )
    cumulative = 0
    for bound, count in bounds:
        cumulative += count
        out.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
    out.append(f'{name}_bucket{{le="+Inf"}} {agg["count"]}')
    out.append(f"{name}_sum {_fmt(agg['sum'])}")
    out.append(f"{name}_count {agg['count']}")


def to_prometheus(snapshot: dict, namespace: str = NAMESPACE) -> str:
    """Render a registry snapshot as Prometheus text exposition.

    Counters map to ``<ns>_<name>_total`` counters, gauges map
    value-exact to gauges, timers and spans map to summaries
    (``_count`` / ``_sum`` in seconds), histograms map to cumulative
    ``le`` buckets (see the module docstring for bound semantics).
    Series are emitted in sorted-name order, so the output is
    deterministic for a fixed snapshot.
    """
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = sanitize_metric_name(name, namespace) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = sanitize_metric_name(name, namespace)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(value)}")
    for kind in ("timers", "spans"):
        suffix = "_seconds" if kind == "timers" else "_span_seconds"
        for name, agg in sorted(snapshot.get(kind, {}).items()):
            metric = sanitize_metric_name(name, namespace) + suffix
            lines.append(f"# TYPE {metric} summary")
            lines.append(f"{metric}_count {agg['count']}")
            lines.append(f"{metric}_sum {_fmt(agg['total_s'])}")
    for name, agg in sorted(snapshot.get("histograms", {}).items()):
        metric = sanitize_metric_name(name, namespace)
        lines.append(f"# TYPE {metric} histogram")
        _histogram_lines(metric, agg, lines)
    return "\n".join(lines) + "\n" if lines else ""


def parse_prometheus(text: str) -> dict[str, dict[str, float]]:
    """Parse a text exposition back into ``{metric: {labels: value}}``.

    A deliberately small parser for round-trip tests and the smoke
    target — it understands exactly what :func:`to_prometheus` emits
    (no escapes, one ``le`` label at most).  The inner key is the raw
    label block (``""`` for unlabelled series).
    """
    series: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if "{" in name_part:
            metric, _, labels = name_part.partition("{")
            labels = "{" + labels
        else:
            metric, labels = name_part, ""
        series.setdefault(metric, {})[labels] = float(value_part)
    return series


# -- JSONL streaming ---------------------------------------------------


class JsonlSink:
    """Append-only JSON-lines sink for telemetry records.

    Each :meth:`write` serialises one record compactly onto its own
    line and flushes, so a concurrently tailing reader (``darksilicon
    obs tail --follow``) sees whole lines only.  Usable as a context
    manager; writes after :meth:`close` raise.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self._path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._written = 0

    @property
    def path(self) -> Path:
        """Where the lines land."""
        return self._path

    @property
    def written(self) -> int:
        """Records written through this sink instance."""
        return self._written

    def write(self, record: dict) -> None:
        """Append one record as a single JSON line (thread-safe)."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()
            self._written += 1

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_jsonl(path: Union[str, Path]) -> Iterator[dict]:
    """Yield records from a JSONL file, skipping unparseable lines.

    Mirrors the run-ledger reader's tolerance: one torn line (a crash
    mid-write, a concurrent append) must not take the stream down.
    """
    path = Path(path)
    if not path.is_file():
        return
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


# -- HTTP hosting ------------------------------------------------------


def start_metrics_server(
    snapshot_fn: Callable[[], dict],
    host: str = "127.0.0.1",
    port: int = 0,
    namespace: str = NAMESPACE,
) -> "ThreadingHTTPServer":
    """Host ``snapshot_fn``'s output over HTTP on a daemon thread.

    Args:
        snapshot_fn: zero-argument callable returning the snapshot to
            serve (called per request — serve live state by passing
            ``registry.snapshot`` or a sampler's safe-snapshot hook).
        host: bind address (loopback by default).
        port: bind port; 0 picks a free one — read it back from
            ``server.server_address[1]``.
        namespace: Prometheus metric-name namespace.

    Returns:
        The running server; call ``server.shutdown()`` then
        ``server.server_close()`` to stop it.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _MetricsHandler(BaseHTTPRequestHandler):
        """Serves ``/metrics`` (Prometheus) and ``/snapshot.json``."""

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0]
            if path in ("/metrics", "/"):
                body = to_prometheus(snapshot_fn(), namespace).encode()
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            elif path == "/snapshot.json":
                body = json.dumps(snapshot_fn(), indent=2, sort_keys=True).encode()
                content_type = "application/json"
            else:
                self.send_error(404, "unknown path (try /metrics)")
                return
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            """Scrape logging is noise; the registry counts requests."""

    server = ThreadingHTTPServer((host, port), _MetricsHandler)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, name="repro-obs-metrics", daemon=True
    )
    thread.start()
    return server
