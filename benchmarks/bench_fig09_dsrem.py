"""Figure 9: DsRem vs TDPmap.

The paper-shape assertions over the default workloads (speed-up > 1 and
thermal safety per workload, average speed-up in [1.5, 3.0], no more
dark silicon than TDPmap) run in tier-1, in
``tests/test_integration_paper_shapes.py::TestFigure9_AllWorkloads``.
"""

from benchmarks._util import emit
from repro.experiments import fig09_dsrem


def test_fig09_dsrem(benchmark):
    result = benchmark.pedantic(fig09_dsrem.run, rounds=1, iterations=1)
    emit("Figure 9: TDPmap vs DsRem", result)
