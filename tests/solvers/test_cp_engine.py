"""Unit tests for the CP engine: domain store and propagators."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.solvers.cp.domains import Conflict, DomainStore
from repro.solvers.cp.propagators import (
    AllDifferent,
    Consecutive,
    Precedence,
    PropagationEngine,
)


class TestDomainStore:
    def test_initial_domains_full(self):
        store = DomainStore(4)
        for var in range(4):
            assert store.domain_values(var) == [0, 1, 2, 3]
            assert store.size(var) == 4
            assert not store.is_assigned(var)

    def test_n_must_be_positive(self):
        with pytest.raises(ValidationError):
            DomainStore(0)

    def test_assign(self):
        store = DomainStore(3)
        store.assign(1, 2)
        assert store.is_assigned(1)
        assert store.value(1) == 2
        assert store.domain_values(1) == [2]

    def test_remove(self):
        store = DomainStore(3)
        store.remove(0, 1)
        assert store.domain_values(0) == [0, 2]
        assert store.has(0, 0)
        assert not store.has(0, 1)

    def test_remove_to_empty_raises_conflict(self):
        store = DomainStore(2)
        store.remove(0, 0)
        with pytest.raises(Conflict):
            store.remove(0, 1)

    def test_set_mask_reports_change(self):
        store = DomainStore(3)
        assert store.set_mask(0, 0b011) is True
        assert store.set_mask(0, 0b111) is False  # no narrowing

    def test_min_max_value(self):
        store = DomainStore(4)
        store.set_mask(2, 0b0110)
        assert store.min_value(2) == 1
        assert store.max_value(2) == 2

    def test_backtracking_restores_domains(self):
        store = DomainStore(3)
        store.push_level()
        store.assign(0, 1)
        store.remove(1, 2)
        assert store.size(0) == 1
        store.pop_level()
        assert store.domain_values(0) == [0, 1, 2]
        assert store.domain_values(1) == [0, 1, 2]

    def test_nested_levels(self):
        store = DomainStore(3)
        store.push_level()
        store.assign(0, 0)
        store.push_level()
        store.assign(1, 1)
        store.pop_level()
        assert store.is_assigned(0)
        assert not store.is_assigned(1)
        store.pop_level()
        assert not store.is_assigned(0)

    def test_all_assigned_and_assignment(self):
        store = DomainStore(2)
        assert not store.all_assigned()
        store.assign(0, 1)
        store.assign(1, 0)
        assert store.all_assigned()
        assert store.assignment() == [1, 0]

    def test_union_mask(self):
        store = DomainStore(3)
        store.assign(0, 0)
        store.assign(1, 2)
        assert store.union_mask([0, 1]) == 0b101


class TestAllDifferent:
    def test_assigned_value_removed_from_others(self):
        store = DomainStore(3)
        store.assign(0, 1)
        AllDifferent(range(3)).propagate(store)
        assert not store.has(1, 1)
        assert not store.has(2, 1)

    def test_pigeonhole_conflict(self):
        store = DomainStore(3)
        # Three variables squeezed into two values.
        for var in range(3):
            store.set_mask(var, 0b011)
        engine = PropagationEngine([AllDifferent(range(3))])
        with pytest.raises(Conflict):
            engine.propagate(store)

    def test_without_hall_weaker(self):
        store = DomainStore(3)
        store.set_mask(0, 0b011)
        store.set_mask(1, 0b011)
        AllDifferent(range(3)).propagate(store)
        # {0, 1} is a Hall set, but alldifferent does no Hall-interval
        # reasoning: forward checking alone leaves var 2 unpruned.
        assert store.size(2) == 3

    def test_propagation_chains(self):
        store = DomainStore(3)
        engine = PropagationEngine([AllDifferent(range(3))])
        store.assign(0, 0)
        store.set_mask(1, 0b011)
        engine.propagate(store)
        # 1 forced to value 1, 2 forced to value 2.
        assert store.value(1) == 1
        assert store.value(2) == 2


class TestPrecedence:
    def test_bounds_tightened(self):
        store = DomainStore(3)
        Precedence([(0, 1)]).propagate(store)
        assert store.min_value(1) >= 1  # after cannot take position 0
        assert store.max_value(0) <= 1  # before cannot take the last slot

    def test_chain_propagates(self):
        store = DomainStore(3)
        engine = PropagationEngine([Precedence([(0, 1), (1, 2)])])
        engine.propagate(store)
        assert store.value(0) == 0
        assert store.value(1) == 1
        assert store.value(2) == 2

    def test_conflicting_assignment_detected(self):
        store = DomainStore(2)
        store.assign(0, 1)
        store.assign(1, 0)
        engine = PropagationEngine([Precedence([(0, 1)])])
        with pytest.raises(Conflict):
            engine.propagate(store)


class TestConsecutive:
    def test_channeling_both_directions(self):
        store = DomainStore(4)
        store.assign(0, 1)
        engine = PropagationEngine([Consecutive([(0, 1)])])
        engine.propagate(store)
        assert store.value(1) == 2

    def test_second_constrains_first(self):
        store = DomainStore(4)
        store.assign(1, 3)
        engine = PropagationEngine([Consecutive([(0, 1)])])
        engine.propagate(store)
        assert store.value(0) == 2

    def test_domains_shift_aligned(self):
        store = DomainStore(4)
        store.set_mask(0, 0b0011)  # first in {0, 1}
        engine = PropagationEngine([Consecutive([(0, 1)])])
        engine.propagate(store)
        assert set(store.domain_values(1)) <= {1, 2}

    def test_impossible_pair_conflicts(self):
        store = DomainStore(2)
        store.assign(0, 1)  # first at the last position: no slot for second
        engine = PropagationEngine([Consecutive([(0, 1)])])
        with pytest.raises(Conflict):
            engine.propagate(store)


class TestEngineFixpoint:
    def test_combined_model_reaches_fixpoint(self):
        store = DomainStore(4)
        engine = PropagationEngine(
            [
                AllDifferent(range(4)),
                Precedence([(0, 1)]),
                Consecutive([(2, 3)]),
            ]
        )
        store.assign(0, 0)
        engine.propagate(store)
        # 0 at position 0 forces 1, 2, 3 into {1, 2, 3}; the consecutive
        # pair (2, 3) then fits only (1,2) or (2,3).
        assert not store.has(1, 0)
        assert set(store.domain_values(2)) <= {1, 2}
