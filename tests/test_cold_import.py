"""Import-time contract: package import leaves the heavy stacks unloaded.

``scipy.optimize`` (only ``fit_power_model`` needs ``nnls``),
``http.server`` (only ``start_metrics_server``) and the process-pool
stack (only a parallel ``SweepRunner``) are imported at their call
sites, so a fresh ``import repro.experiments`` or ``import repro.cli``
does not pay for them.  Each check runs in a fresh interpreter, since
this test process has long since imported everything; the lazy paths
are then exercised from that same cold start.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules the package must not load at import time.
LAZY = ("scipy.optimize", "http.server", "concurrent.futures.process")

#: sha256 of the ``fig3 --quick`` payload, recorded before ``nnls``
#: moved into ``fit_power_model`` (numpy 2.4.6, scipy 1.17.1).
FIG3_QUICK_DIGEST = "450a976e76da58b667de32cd65c98a33b1b6ca1aba2aa96be29ff68c8134bd80"


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded_after(code: str) -> list[str]:
    return run_fresh(
        code
        + f"""
import json, sys
print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))
"""
    )


@pytest.mark.parametrize("module", ["repro.experiments", "repro.cli"])
def test_package_import_leaves_heavy_stacks_unloaded(module):
    assert loaded_after(f"import {module}\n") == []


def test_fig3_fit_after_cold_import():
    out = run_fresh(
        """
        import hashlib, json, sys
        from repro.experiments import registry

        spec = registry.get("fig3")
        result = spec.run(spec.resolve(quick=True))
        text = json.dumps(result.to_payload(), sort_keys=True)
        print(json.dumps({
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "loaded": "scipy.optimize" in sys.modules,
        }))
        """
    )
    assert out == {"digest": FIG3_QUICK_DIGEST, "loaded": True}


def test_metrics_server_after_cold_import():
    out = run_fresh(
        """
        import json, urllib.request
        from repro.obs import Registry, start_metrics_server
        from repro.obs.exporters import parse_prometheus

        registry = Registry(enabled=True)
        registry.incr("perf.batched.cache_hits", 12)
        server = start_metrics_server(registry.snapshot)
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/metrics"
            with urllib.request.urlopen(url) as resp:
                body = resp.read().decode()
        finally:
            server.shutdown()
            server.server_close()
        print(json.dumps(parse_prometheus(body)))
        """
    )
    assert out == {"repro_perf_batched_cache_hits_total": {"": 12.0}}


def test_parallel_sweep_after_cold_import():
    out = run_fresh(
        """
        import json, operator, sys
        import numpy as np
        from repro.perf.sweep import SweepRunner

        cells = list(range(-5, 6))
        serial, parallel = SweepRunner(), SweepRunner(max_workers=2)
        assert "concurrent.futures.process" not in sys.modules
        print(json.dumps({
            "map": [
                serial.map(cells, operator.neg),
                parallel.map(cells, operator.neg),
            ],
            "map_batched": [
                [int(v) for v in serial.map_batched(cells, np.square)],
                [int(v) for v in parallel.map_batched(cells, np.square)],
            ],
            "loaded": "concurrent.futures.process" in sys.modules,
        }))
        """
    )
    assert out["loaded"]
    serial, parallel = out["map"]
    assert serial == parallel == [-c for c in range(-5, 6)]
    serial, parallel = out["map_batched"]
    assert serial == parallel == [c * c for c in range(-5, 6)]
