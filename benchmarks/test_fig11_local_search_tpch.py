"""Figure 11: local-search anytime curves on TPC-H (paper page 11).

Paper shape over the 60-second window: TS-BSwap and VNS lead, LNS lags
behind (fixed neighborhood), CP barely improves on the greedy start.
Budgets are scaled to a few seconds; the claim is the method ordering
at the final time point, not absolute objective values.
"""

from __future__ import annotations

import re

from repro.experiments import fig11
from repro.experiments.harness import quick_mode


def test_fig11_local_search_tpch(benchmark, archive):
    time_limit = 4.0 if quick_mode() else 60.0
    table = benchmark.pedantic(
        fig11.run,
        kwargs={"time_limit": time_limit, "n_runs": 2},
        rounds=1,
        iterations=1,
    )
    archive("fig11_local_search_tpch", table)
    final = {
        row[0]: row[-1]
        for row in table.rows
        if isinstance(row[-1], float)
    }
    # Every local-search method must at least match the CP curve (which
    # sits at the shared greedy start on this budget).
    if "CP" in final:
        for method in ("VNS", "TS-BSWAP"):
            if method in final:
                assert final[method] <= final["CP"] + 0.5
    # VNS must be competitive with the best method at the final point.
    best = min(final.values())
    assert final["VNS"] <= best * 1.05 + 0.5
    # The tabu solvers score TPC-H's swap scans on the numpy kernel:
    # the harness must report their statistics, including the scans.
    stats_notes = [note for note in table.notes if note.startswith("engine[ts-")]
    assert stats_notes, table.notes
    for note in stats_notes:
        match = re.search(r"(\d+) numpy batch scans", note)
        assert match, note
        assert int(match.group(1)) > 0, note
