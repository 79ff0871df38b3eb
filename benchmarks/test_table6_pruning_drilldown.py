"""Table 6: pruning-power drill-down on reduced TPC-H (paper page 10).

Paper shape: each property family (A, C, M, D, T) added on top of bare
CP improves solve time by orders of magnitude; the full ladder closes
instances bare CP cannot touch.  We additionally report the implied
ordered-pair count, the quantity that actually shrinks the space, and
each rung's DFS node counts.  The quick sizes (10, 13, 16) are where
the rungs' node counts differ; at 6-10 every rung proves in
milliseconds.
"""

from __future__ import annotations

from repro.experiments import table6
from repro.experiments.harness import quick_mode


def test_table6_pruning_drilldown(benchmark, archive):
    sizes = [10, 13, 16] if quick_mode() else None
    table = benchmark.pedantic(
        table6.run, kwargs={"sizes": sizes}, rounds=1, iterations=1
    )
    archive("table6_pruning_drilldown", table)
    labels = [row[0] for row in table.rows]
    assert labels == ["CP", "+A", "+AC", "+ACM", "+ACMD", "+ACMDT"]
    implied = [row[-1] for row in table.rows]
    # The constraint ladder only ever grows.
    assert implied == sorted(implied)
    assert implied[-1] > implied[0]
