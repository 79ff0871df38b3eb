"""Property tests: propagators must preserve the solution set.

A propagator is *sound* when pruning a value never removes a complete
feasible assignment.  For small n we can enumerate every assignment in
the original domains, filter by the constraint's semantics, and check
the same set survives propagation (or a Conflict is raised only when
the set is empty).
"""

from __future__ import annotations

import itertools
from typing import List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers.cp.domains import Conflict, DomainStore
from repro.solvers.cp.propagators import (
    AllDifferent,
    Consecutive,
    Precedence,
    PropagationEngine,
)


def enumerate_solutions(
    domains: List[List[int]], feasible
) -> Set[Tuple[int, ...]]:
    """All assignments within ``domains`` passing ``feasible``."""
    return {
        assignment
        for assignment in itertools.product(*domains)
        if feasible(assignment)
    }


def store_from_domains(domains: List[List[int]]) -> DomainStore:
    store = DomainStore(len(domains))
    for var, values in enumerate(domains):
        mask = 0
        for value in values:
            mask |= 1 << value
        store.set_mask(var, mask)
    return store


@st.composite
def random_domains(draw, n_min: int = 2, n_max: int = 5):
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    domains = []
    for _ in range(n):
        values = draw(
            st.sets(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=n,
            )
        )
        domains.append(sorted(values))
    return domains


def alldifferent_feasible(assignment) -> bool:
    return len(set(assignment)) == len(assignment)


SOUNDNESS_SETTINGS = settings(max_examples=120, deadline=None)


class TestAllDifferentSoundness:
    @SOUNDNESS_SETTINGS
    @given(random_domains())
    def test_propagation_preserves_solutions(self, domains):
        before = enumerate_solutions(domains, alldifferent_feasible)
        store = store_from_domains(domains)
        engine = PropagationEngine([AllDifferent(range(len(domains)))])
        try:
            engine.propagate(store)
        except Conflict:
            assert before == set(), "conflict raised but solutions existed"
            return
        after_domains = [
            store.domain_values(var) for var in range(len(domains))
        ]
        after = enumerate_solutions(after_domains, alldifferent_feasible)
        assert after == before


class TestPrecedenceSoundness:
    @SOUNDNESS_SETTINGS
    @given(random_domains(n_min=3, n_max=5), st.data())
    def test_propagation_preserves_solutions(self, domains, data):
        n = len(domains)
        before_var = data.draw(st.integers(min_value=0, max_value=n - 1))
        after_var = data.draw(
            st.integers(min_value=0, max_value=n - 1).filter(
                lambda v: v != before_var
            )
        )

        def feasible(assignment):
            return (
                alldifferent_feasible(assignment)
                and assignment[before_var] < assignment[after_var]
            )

        before = enumerate_solutions(domains, feasible)
        store = store_from_domains(domains)
        engine = PropagationEngine(
            [
                AllDifferent(range(n)),
                Precedence([(before_var, after_var)]),
            ]
        )
        try:
            engine.propagate(store)
        except Conflict:
            assert before == set()
            return
        after_domains = [store.domain_values(v) for v in range(n)]
        after = enumerate_solutions(after_domains, feasible)
        assert after == before


class TestConsecutiveSoundness:
    @SOUNDNESS_SETTINGS
    @given(random_domains(n_min=3, n_max=5), st.data())
    def test_propagation_preserves_solutions(self, domains, data):
        n = len(domains)
        first = data.draw(st.integers(min_value=0, max_value=n - 1))
        second = data.draw(
            st.integers(min_value=0, max_value=n - 1).filter(
                lambda v: v != first
            )
        )

        def feasible(assignment):
            return (
                alldifferent_feasible(assignment)
                and assignment[second] == assignment[first] + 1
            )

        before = enumerate_solutions(domains, feasible)
        store = store_from_domains(domains)
        engine = PropagationEngine(
            [AllDifferent(range(n)), Consecutive([(first, second)])]
        )
        try:
            engine.propagate(store)
        except Conflict:
            assert before == set()
            return
        after_domains = [store.domain_values(v) for v in range(n)]
        after = enumerate_solutions(after_domains, feasible)
        assert after == before
