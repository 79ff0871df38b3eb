"""Table 5: exact-search comparison on reduced TPC-H (paper page 10).

Paper shape: bare MIP and CP blow up factorially with |I| (DF beyond 13
indexes); the Section-5 constraints (MIP+/CP+) recover orders of
magnitude; VNS finds the optimum in under a minute everywhere.  Budgets
here are seconds instead of the paper's 12-hour cap.  CP and CP+ run the
exact DFS, which proves every quick cell in milliseconds; the table's
nodes[...] notes carry the gap between them.
"""

from __future__ import annotations

from repro.experiments import table5
from repro.experiments.harness import quick_mode


def test_table5_exact_search(benchmark, archive):
    grid = (
        [(6, "low"), (8, "low"), (10, "low"), (8, "mid")]
        if quick_mode()
        else None
    )
    table = benchmark.pedantic(
        table5.run,
        kwargs={"grid": grid},
        rounds=1,
        iterations=1,
    )
    archive("table5_exact_search", table)
    by_method = {row[0]: row[1:] for row in table.rows}
    # CP+ must prove at least as many cells optimal as bare CP.  A proof
    # is a cell with neither "DF" (no order) nor "*" (no proof).
    def solved(cells):
        return sum(
            1 for cell in cells if "DF" not in str(cell) and "*" not in str(cell)
        )

    assert solved(by_method["CP+"]) >= solved(by_method["CP"])
    assert solved(by_method["MIP+"]) >= solved(by_method["MIP"])
    # VNS always reports a solution.
    assert all("DF" not in str(cell) for cell in by_method["VNS"])
