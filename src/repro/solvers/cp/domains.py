"""Finite-domain store with trail-based backtracking.

Variables are the position variables ``T[i]`` of the CP model
(Section 6.1); values are 0-based deployment positions.  Domains are
Python-int bitmasks, which makes removal, intersection, and the
``alldifferent`` value unions cheap at the problem sizes this library
targets (|I| up to a few hundred).

State is restored on backtrack through a trail of ``(var, old_mask)``
entries delimited by levels, the classic CP solver design.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.errors import ReproError, ValidationError

__all__ = ["Conflict", "DomainStore"]


class Conflict(ReproError):
    """A domain became empty: the current search branch is infeasible."""


class DomainStore:
    """Bitmask domains for ``n`` variables over values ``0..n-1``."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValidationError(f"DomainStore needs n >= 1, got {n}")
        self.n = n
        full = (1 << n) - 1
        self._domains: List[int] = [full] * n
        self._trail: List[Tuple[int, int]] = []
        self._marks: List[int] = []

    # ------------------------------------------------------------------
    # Trail management
    # ------------------------------------------------------------------
    def push_level(self) -> None:
        """Open a new backtracking level."""
        self._marks.append(len(self._trail))

    def pop_level(self) -> None:
        """Undo every change since the matching :meth:`push_level`."""
        mark = self._marks.pop()
        while len(self._trail) > mark:
            var, old_mask = self._trail.pop()
            self._domains[var] = old_mask

    # ------------------------------------------------------------------
    # Domain access
    # ------------------------------------------------------------------
    def domain_mask(self, var: int) -> int:
        """Raw bitmask of the variable's domain."""
        return self._domains[var]

    def domain_values(self, var: int) -> List[int]:
        """Domain values in increasing order."""
        mask = self._domains[var]
        values = []
        while mask:
            low = mask & -mask
            values.append(low.bit_length() - 1)
            mask ^= low
        return values

    def size(self, var: int) -> int:
        """Number of values remaining for ``var``."""
        return bin(self._domains[var]).count("1")

    def has(self, var: int, value: int) -> bool:
        """True when ``value`` is still in the domain of ``var``."""
        return bool(self._domains[var] & (1 << value))

    def is_assigned(self, var: int) -> bool:
        """True when the domain of ``var`` is a singleton."""
        mask = self._domains[var]
        return mask != 0 and mask & (mask - 1) == 0

    def value(self, var: int) -> int:
        """The assigned value of ``var`` (requires a singleton domain)."""
        mask = self._domains[var]
        if mask == 0 or mask & (mask - 1):
            raise ValidationError(f"variable {var} is not assigned")
        return mask.bit_length() - 1

    def min_value(self, var: int) -> int:
        """Smallest value in the domain."""
        mask = self._domains[var]
        if mask == 0:
            raise Conflict(f"variable {var} has an empty domain")
        return (mask & -mask).bit_length() - 1

    def max_value(self, var: int) -> int:
        """Largest value in the domain."""
        mask = self._domains[var]
        if mask == 0:
            raise Conflict(f"variable {var} has an empty domain")
        return mask.bit_length() - 1

    # ------------------------------------------------------------------
    # Domain mutation (all trailed)
    # ------------------------------------------------------------------
    def set_mask(self, var: int, new_mask: int) -> bool:
        """Intersect the domain of ``var`` down to ``new_mask``.

        Returns ``True`` when the domain changed.

        Raises:
            Conflict: If the domain would become empty.
        """
        old = self._domains[var]
        updated = old & new_mask
        if updated == old:
            return False
        if updated == 0:
            raise Conflict(f"variable {var}: domain wiped out")
        self._trail.append((var, old))
        self._domains[var] = updated
        return True

    def remove(self, var: int, value: int) -> bool:
        """Remove a single value; returns ``True`` if it was present."""
        return self.set_mask(var, ~(1 << value))

    def assign(self, var: int, value: int) -> bool:
        """Reduce ``var`` to the singleton ``{value}``."""
        if not self.has(var, value):
            raise Conflict(f"variable {var}: value {value} not in domain")
        return self.set_mask(var, 1 << value)

    # ------------------------------------------------------------------
    def all_assigned(self) -> bool:
        """True when every variable has a singleton domain."""
        return all(self.is_assigned(v) for v in range(self.n))

    def assignment(self) -> List[int]:
        """Values of all variables (requires all assigned)."""
        return [self.value(v) for v in range(self.n)]

    def union_mask(self, variables: Iterable[int]) -> int:
        """Union of the domains of ``variables``."""
        out = 0
        for var in variables:
            out |= self._domains[var]
        return out
