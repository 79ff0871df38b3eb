"""The early-exit tail analysis against the full enumeration.

``repro.analysis.tails`` leaves a tail length at the first two champions
that end in different indexes; ``tests/tails_oracle.py`` scores every
tail set first.  Both must pin the same indexes: the same count, the
same precedences offered in the same order with the same reasons, the
same patterns for ``enumerate_tail_patterns``, and the same
``analyze()`` report on every reduced TPC-H cell and on full TPC-H and
TPC-DS.  A guard holds the early exit to a few runtime lookups where
the full enumeration makes thousands, and another checks that tail sets
with no active successor are counted, not listed.
"""

from __future__ import annotations

import pytest
import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.constraints import ConstraintSet
from repro.analysis.fixpoint import analyze
from repro.analysis.tails import (
    _tail_sets,
    apply_tails,
    enumerate_tail_patterns,
)
from repro.core.engine import EvalEngine
from repro.errors import InfeasibleError
from repro.experiments.instances import (
    reduced_tpch,
    tpch_instance,
    tpcds_instance,
)

from tests.conftest import small_synthetic
from tests.tails_oracle import (
    oracle_analyze,
    oracle_apply_tails,
    oracle_patterns,
    report_state,
)


class _Recording(ConstraintSet):
    """A constraint set that logs every precedence offered to it."""

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.log = []

    def add_precedence(self, before, after, reason=""):
        try:
            added = super().add_precedence(before, after, reason)
        except InfeasibleError:
            self.log.append((before, after, reason, "contradiction"))
            raise
        self.log.append((before, after, reason, added))
        return added


def _seed_ops(n, laggard, rng):
    """Random precedences and consecutive pairs.  With ``laggard``, most
    indexes are also seeded before one index, as ``laggard_instance``'s
    seeds in ``test_tails.py`` are, so forced-last deductions fire."""
    ops = []
    if laggard:
        last = rng.randrange(n)
        ops += [
            ("precedence", other, last)
            for other in range(n)
            if other != last and rng.random() < 0.75
        ]
    for _ in range(rng.randint(0, 3)):
        ops.append(("precedence", *rng.sample(range(n), 2)))
    for _ in range(rng.randint(0, 2)):
        ops.append(("consecutive", *rng.sample(range(n), 2)))
    return ops


def _seeded(n, ops):
    constraints = _Recording(n)
    for kind, first, second in ops:
        try:
            if kind == "precedence":
                constraints.add_precedence(first, second, reason="seed")
            else:
                constraints.add_consecutive(first, second, reason="seed")
        except InfeasibleError:
            continue
    constraints.log.clear()
    return constraints


def _patterns(patterns):
    if patterns is None:
        return None
    return [(p.order, p.objective.hex()) for p in patterns]


class TestOracleIdentity:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=4, max_value=9),
        st.booleans(),
        st.booleans(),
        st.one_of(
            st.integers(min_value=5, max_value=200),
            st.integers(min_value=5, max_value=20_000),
        ),
        st.randoms(use_true_random=False),
    )
    def test_apply_tails_matches_oracle(
        self, seed, n, interactions, laggard, max_patterns, rng
    ):
        instance = small_synthetic(
            seed, n, build_interaction_rate=1.0 if interactions else 0.0
        )
        ops = _seed_ops(n, laggard, rng)
        ours, theirs = _seeded(n, ops), _seeded(n, ops)
        assert apply_tails(
            instance, ours, max_patterns=max_patterns
        ) == oracle_apply_tails(instance, theirs, max_patterns=max_patterns)
        assert ours.log == theirs.log
        assert ours.precedence_edges == theirs.precedence_edges
        active = set(range(n))
        for length in range(2, 5):
            assert _patterns(
                enumerate_tail_patterns(
                    instance, ours, active, length, max_patterns
                )
            ) == _patterns(
                oracle_patterns(instance, theirs, active, length, max_patterns)
            )


#: Every reduced TPC-H cell from 4 to 22, low and mid, and full TPC-H
#: and TPC-DS.
SWEEP = {
    **{
        f"{n}-{density}": (lambda n=n, d=density: reduced_tpch(n, d))
        for density in ("low", "mid")
        for n in range(4, 23)
    },
    "tpch": tpch_instance,
    "tpcds": tpcds_instance,
}


@pytest.mark.parametrize("cell", sorted(SWEEP))
def test_analyze_matches_oracle(cell):
    instance = SWEEP[cell]()
    assert report_state(analyze(instance, time_budget=None)) == report_state(
        oracle_analyze(instance, time_budget=None)
    )


#: instance -> ceiling on ``runtime_of`` lookups (hits plus misses) of
#: one ``apply_tails`` on a bare constraint set.  The full enumeration
#: makes 1,984, 38,364, 74,100 and 6,916.
LOOKUP_CEILINGS = {
    "tpch": (tpch_instance, 8),
    "tpcds": (tpcds_instance, 8),
    "13-mid": (lambda: reduced_tpch(13, "mid"), 368),
    "14-mid": (lambda: reduced_tpch(14, "mid"), 44),
}


@pytest.mark.parametrize("cell", sorted(LOOKUP_CEILINGS))
def test_tails_stop_once_the_answer_is_known(cell):
    make, ceiling = LOOKUP_CEILINGS[cell]
    instance = make()
    engine = EvalEngine(instance)
    constraints = ConstraintSet(instance.n_indexes)
    assert apply_tails(instance, constraints, engine=engine) == 0
    assert engine.stats.memo_hits + engine.stats.memo_misses <= ceiling


def test_unconstrained_tail_sets_are_counted_not_listed():
    # No candidate has a successor inside ``active``, so the threshold
    # is a binomial count and the sets come lazily, in combinations
    # order; one active successor brings the listing back.
    active = set(range(40))
    constraints = ConstraintSet(40)
    sets = _tail_sets(constraints, active, 2, 20000)
    assert not isinstance(sets, list)
    assert list(sets) == list(itertools.combinations(range(40), 2))
    assert _tail_sets(constraints, active, 3, 40 * 39 * 38 - 1) is None
    constraints.add_precedence(0, 1)
    sets = _tail_sets(constraints, active, 2, 20000)
    assert isinstance(sets, list)
    assert sets == [
        combo for combo in itertools.combinations(range(40), 2)
        if combo[0] != 0 or combo[1] == 1
    ]
