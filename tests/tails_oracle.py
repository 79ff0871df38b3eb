"""Reference tail analysis: every tail set scored before any comparison.

This is ``repro.analysis.tails`` before the forced-last search learned
to stop early.  For each tail length it enumerates every feasible order
of every tail set that passes the successor closure, then takes each
set's champion (the first order whose objective beats the incumbent by
more than 1e-12) and pins an index last only when every champion ends
with it.  A length whose pattern count exceeds ``max_patterns`` is given
up before anything is scored.  The module's early-exit search must
return the same count and add the same precedences with the same
reasons; ``tests/analysis/test_tails_oracle.py`` (a property and an
``analyze()`` sweep) and the ``tails_early_exit`` row of
``BENCH_pipeline.json`` compare the two.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Set
from unittest import mock

from repro.analysis import fixpoint
from repro.analysis.constraints import ConstraintSet
from repro.analysis.fixpoint import AnalysisReport
from repro.analysis.tails import (
    DEFAULT_MAX_PATTERNS,
    TailPattern,
    _order_feasible,
    _tail_objective,
)
from repro.core.engine import EvalEngine
from repro.core.instance import ProblemInstance
from repro.errors import InfeasibleError

__all__ = [
    "oracle_patterns",
    "oracle_apply_tails",
    "oracle_analyze",
    "report_state",
]


def oracle_patterns(
    instance: ProblemInstance,
    constraints: ConstraintSet,
    active: Set[int],
    length: int,
    max_patterns: int = DEFAULT_MAX_PATTERNS,
    engine: Optional[EvalEngine] = None,
) -> Optional[List[TailPattern]]:
    """Every feasible ordered tail of ``length``, or ``None`` when the
    count of orders (infeasible ones included) exceeds ``max_patterns``."""
    if length > len(active):
        return []
    if engine is None:
        engine = EvalEngine(instance)
    candidates = [
        t
        for t in sorted(active)
        if len(constraints.successors(t) & active) < length
    ]
    orders_per_combo = math.factorial(length)
    combos = []
    for combo in itertools.combinations(candidates, length):
        member_set = set(combo)
        if any(
            not (constraints.successors(t) & active) <= member_set
            for t in combo
        ):
            continue
        combos.append(combo)
        if len(combos) * orders_per_combo > max_patterns:
            return None
    active_mask = EvalEngine.mask_of(active)
    patterns: List[TailPattern] = []
    for combo in combos:
        preceding = active_mask & ~EvalEngine.mask_of(combo)
        for perm in itertools.permutations(combo):
            if not _order_feasible(constraints, active, perm):
                continue
            objective = _tail_objective(engine, preceding, perm)
            patterns.append(TailPattern(tuple(perm), objective))
    return patterns


def _champions(patterns: List[TailPattern]) -> Dict[frozenset, TailPattern]:
    best: Dict[frozenset, TailPattern] = {}
    for pattern in patterns:
        key = pattern.tail_set
        incumbent = best.get(key)
        if incumbent is None or pattern.objective < incumbent.objective - 1e-12:
            best[key] = pattern
    return best


def _forced_last(
    instance: ProblemInstance,
    constraints: ConstraintSet,
    active: Set[int],
    max_patterns: int,
    max_length: int,
    engine: EvalEngine,
) -> Optional[int]:
    for length in range(2, max_length + 1):
        if length > len(active) - 1:
            break
        patterns = oracle_patterns(
            instance, constraints, active, length, max_patterns, engine
        )
        if patterns is None:
            break
        if not patterns:
            continue
        champions = _champions(patterns)
        last_elements = {pattern.order[-1] for pattern in champions.values()}
        if len(last_elements) == 1:
            return next(iter(last_elements))
    return None


def oracle_apply_tails(
    instance: ProblemInstance,
    constraints: ConstraintSet,
    max_patterns: int = DEFAULT_MAX_PATTERNS,
    max_length: int = 4,
    engine: Optional[EvalEngine] = None,
) -> int:
    """Pin forced-last indexes round by round; the count added."""
    if engine is None:
        engine = EvalEngine(instance)
    added = 0
    active = set(range(instance.n_indexes))
    while len(active) >= 3:
        forced = _forced_last(
            instance, constraints, active, max_patterns, max_length, engine
        )
        if forced is None:
            break
        for other in sorted(active - {forced}):
            try:
                if constraints.add_precedence(other, forced, reason="tail"):
                    added += 1
            except InfeasibleError:
                return added
        active.discard(forced)
    return added


def oracle_analyze(instance: ProblemInstance, **kwargs) -> AnalysisReport:
    """``analyze()`` with its tails pass run by :func:`oracle_apply_tails`."""
    with mock.patch.object(fixpoint, "apply_tails", oracle_apply_tails):
        return fixpoint.analyze(instance, **kwargs)


def report_state(report: AnalysisReport) -> tuple:
    """What an ``analyze()`` report decides: the constraint set, the
    constraints added per property and the iterations."""
    constraints = report.constraints
    return (
        [constraints.predecessor_mask(i) for i in range(constraints.n)],
        constraints.precedence_edges,
        constraints.consecutive_pairs,
        report.added_by_property,
        report.iterations,
    )
