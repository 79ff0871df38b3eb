"""Constraint propagators for the CP model (Section 6.1).

Three propagators cover the model's combinatorial structure:

* :class:`AllDifferent` — the ``alldifferent(T)`` constraint, by
  forward checking and a pigeonhole check (the "single computationally
  efficient constraint" the paper contrasts with MIP's ``|I|^2``
  inequalities),
* :class:`Precedence` — ``T_a < T_b`` edges from hard rules and from the
  Section-5 pre-analysis,
* :class:`Consecutive` — alliance gluing ``T_b = T_a + 1``.

Propagators are run to a fixed point by :class:`PropagationEngine` after
every branching decision.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.solvers.cp.domains import Conflict, DomainStore

__all__ = ["Propagator", "AllDifferent", "Precedence", "Consecutive", "PropagationEngine"]


class Propagator:
    """Base class: ``propagate`` returns True when it changed a domain."""

    def propagate(self, store: DomainStore) -> bool:
        raise NotImplementedError


class AllDifferent(Propagator):
    """All position variables take pairwise distinct values."""

    def __init__(self, variables: Sequence[int]) -> None:
        self.variables = list(variables)

    def propagate(self, store: DomainStore) -> bool:
        changed = False
        # Assigned-value elimination (forward checking) in one pass: the
        # union of singleton domains is removed from every non-singleton.
        assigned_mask = 0
        for var in self.variables:
            mask = store.domain_mask(var)
            if mask & (mask - 1) == 0:  # singleton
                if assigned_mask & mask:
                    raise Conflict(
                        "alldifferent: two variables share a value"
                    )
                assigned_mask |= mask
        if assigned_mask:
            keep = ~assigned_mask
            for var in self.variables:
                mask = store.domain_mask(var)
                if mask & (mask - 1) and mask & assigned_mask:
                    if store.set_mask(var, keep):
                        changed = True
        # Pigeonhole over the full value set.
        union = store.union_mask(self.variables)
        if bin(union).count("1") < len(self.variables):
            raise Conflict("alldifferent: fewer values than variables")
        return changed


class Precedence(Propagator):
    """Bounds propagation for a set of ``T_a < T_b`` edges."""

    def __init__(self, edges: Sequence[Tuple[int, int]]) -> None:
        self.edges = list(edges)

    def propagate(self, store: DomainStore) -> bool:
        changed = False
        for before, after in self.edges:
            lo = store.min_value(before)
            hi = store.max_value(after)
            # after must exceed the smallest feasible value of before.
            low_mask = ~((1 << (lo + 1)) - 1)
            if store.set_mask(after, low_mask):
                changed = True
            # before must stay below the largest feasible value of after.
            hi = store.max_value(after)
            high_mask = (1 << hi) - 1
            if store.set_mask(before, high_mask):
                changed = True
        return changed


class Consecutive(Propagator):
    """Channeling for alliance pairs: ``T_b = T_a + 1``."""

    def __init__(self, pairs: Sequence[Tuple[int, int]]) -> None:
        self.pairs = list(pairs)

    def propagate(self, store: DomainStore) -> bool:
        changed = False
        full = (1 << store.n) - 1
        for first, second in self.pairs:
            shifted_up = (store.domain_mask(first) << 1) & full
            if store.set_mask(second, shifted_up):
                changed = True
            shifted_down = store.domain_mask(second) >> 1
            if store.set_mask(first, shifted_down):
                changed = True
        return changed


class PropagationEngine:
    """Runs all propagators to a common fixed point."""

    def __init__(self, propagators: Sequence[Propagator]) -> None:
        self.propagators = list(propagators)

    def propagate(self, store: DomainStore) -> None:
        """Propagate until no propagator changes any domain.

        Raises:
            Conflict: When any propagator wipes out a domain.
        """
        changed = True
        while changed:
            changed = False
            for propagator in self.propagators:
                if propagator.propagate(store):
                    changed = True
