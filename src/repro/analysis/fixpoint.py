"""Iterate-and-recurse pre-analysis driver (Section 5.6).

Each pruning property can unlock the others: fixing a tail index turns
interior indexes into backward-disjoint ones, new precedences tighten
dominance checks, and so on.  :func:`analyze` therefore cycles through
the enabled passes until a fixed point — every pass has run since the
last one that added a constraint — and returns the accumulated
:class:`ConstraintSet`.

The ``properties`` string selects which passes run, using the paper's
Table-6 drill-down letters:

* ``A`` — alliances,
* ``C`` — colonized indexes,
* ``M`` — min/max domination,
* ``D`` — disjoint indexes and clusters,
* ``T`` — tail indexes.

``"ACMDT"`` (the default) is the full pre-analysis; ``""`` disables all
pruning (the bare-CP baseline of Table 6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.alliances import apply_alliances
from repro.analysis.colonized import apply_colonized
from repro.analysis.constraints import ConstraintSet
from repro.analysis.dominated import apply_dominated
from repro.analysis.disjoint import apply_disjoint
from repro.analysis.tails import apply_tails
from repro.core.engine import EvalEngine
from repro.core.instance import ProblemInstance
from repro.errors import ValidationError

__all__ = ["AnalysisReport", "analyze", "PROPERTY_ORDER"]

PROPERTY_ORDER = "ACMDT"


@dataclass
class AnalysisReport:
    """Outcome of the pre-analysis.

    Attributes:
        constraints: The accumulated constraint set (also contains the
            instance's hard precedence rules).
        added_by_property: Constraints contributed per property letter.
        iterations: Rounds started; a round runs the enabled passes in
            paper order, and the last one stops at the fixed point.
        elapsed: Wall-clock seconds spent.
    """

    constraints: ConstraintSet
    added_by_property: Dict[str, int] = field(default_factory=dict)
    iterations: int = 0
    elapsed: float = 0.0

    @property
    def total_added(self) -> int:
        """Total constraints added by the analysis passes."""
        return sum(self.added_by_property.values())

    def describe(self) -> str:
        """One-line summary for experiment logs."""
        parts = ", ".join(
            f"{letter}:{count}"
            for letter, count in sorted(self.added_by_property.items())
        )
        return (
            f"analysis({parts}) iterations={self.iterations} "
            f"implied_pairs={self.constraints.implied_pair_count()} "
            f"elapsed={self.elapsed:.3f}s"
        )


def analyze(
    instance: ProblemInstance,
    properties: str = PROPERTY_ORDER,
    time_budget: Optional[float] = 60.0,
    max_tail_patterns: int = 20000,
) -> AnalysisReport:
    """Run the enabled pruning analyses to a fixed point.

    Args:
        instance: The problem to analyze.
        properties: Subset of ``"ACMDT"`` selecting the passes; order in
            the string is ignored (passes always run in paper order).
        time_budget: Soft wall-clock cap in seconds; the loop stops after
            the pass that exceeds it ("we only used additional
            constraints we could deduce within one minute", §8.1).
            ``None`` disables the cap.
        max_tail_patterns: Enumeration threshold for the tail analysis.

    Returns:
        An :class:`AnalysisReport` whose constraint set includes the
        instance's hard precedence rules plus everything deduced.
    """
    unknown = set(properties.upper()) - set(PROPERTY_ORDER)
    if unknown:
        raise ValidationError(
            f"unknown property letters {sorted(unknown)}; "
            f"expected subset of {PROPERTY_ORDER!r}"
        )
    enabled = set(properties.upper())
    constraints = ConstraintSet(instance.n_indexes)
    for rule in instance.precedences:
        constraints.add_precedence(rule.before, rule.after, reason=rule.reason)
    report = AnalysisReport(constraints=constraints)
    start = time.perf_counter()
    # One built-set memo serves every tail pass of this call.
    engine = EvalEngine(instance)
    passes = {
        "A": lambda: apply_alliances(instance, constraints),
        "C": lambda: apply_colonized(instance, constraints),
        "M": lambda: apply_dominated(instance, constraints),
        "D": lambda: apply_disjoint(instance, constraints),
        "T": lambda: apply_tails(
            instance, constraints, max_patterns=max_tail_patterns, engine=engine
        ),
    }
    letters = [letter for letter in PROPERTY_ORDER if letter in enabled]
    # A pass is a function of the constraint set alone, so once every
    # enabled pass has run since the last one that added a constraint,
    # none can add more.  ``quiet`` counts the passes run since then.
    quiet = 0
    while True:
        report.iterations += 1
        for letter in letters:
            added = passes[letter]()
            report.added_by_property[letter] = (
                report.added_by_property.get(letter, 0) + added
            )
            quiet = 0 if added else quiet + 1
            if time_budget is not None and (
                time.perf_counter() - start > time_budget
            ):
                report.elapsed = time.perf_counter() - start
                return report
            if quiet == len(letters):
                break
        if quiet == len(letters):
            break
    report.elapsed = time.perf_counter() - start
    return report
