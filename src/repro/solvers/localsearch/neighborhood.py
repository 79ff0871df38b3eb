"""Start orders and move helpers shared by the local-search solvers."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.constraints import ConstraintSet
from repro.core.instance import ProblemInstance
from repro.solvers.base import Budget, repair_order
from repro.solvers.greedy import greedy_order

__all__ = [
    "start_order",
    "swap_feasible",
    "apply_swap",
    "relocate_feasible",
    "apply_relocate",
    "batch_swap_descent",
]


def start_order(
    instance: ProblemInstance,
    constraints: Optional[ConstraintSet],
    initial_order: Optional[Sequence[int]],
) -> List[int]:
    """The order a local search starts from.

    The caller's warm start, or else the greedy order; repaired when it
    breaks ``constraints``, because the move checks and the relaxations
    assume a feasible current order.
    """
    if initial_order is None:
        order = greedy_order(instance, constraints)
    else:
        order = list(initial_order)
    if constraints is not None and not constraints.check_order(order):
        order = repair_order(order, constraints)
    return order


def swap_feasible(
    order: Sequence[int],
    pos_a: int,
    pos_b: int,
    constraints: Optional[ConstraintSet],
) -> bool:
    """Check whether swapping two positions keeps the order feasible.

    Swapping elements ``x = order[pos_a]`` and ``y = order[pos_b]``
    (``pos_a < pos_b``) violates a precedence exactly when ``x`` must
    precede, or ``y`` must succeed, any element in the closed window
    ``[pos_a, pos_b]``.  Consecutive (alliance) pairs must additionally
    stay adjacent; since the swap only changes the positions of ``x``
    and ``y``, only pairs with a member at or adjacent to ``pos_a`` /
    ``pos_b`` can change adjacency, so only those few positions are
    inspected — no swapped copy or full position map is built.  Pairs
    entirely away from both slots are assumed adjacent already, i.e.
    ``order`` itself is expected to satisfy the consecutive pairs (the
    local-search solvers only probe moves from feasible orders).
    """
    if constraints is None:
        return True
    if pos_a > pos_b:
        pos_a, pos_b = pos_b, pos_a
    if pos_a == pos_b:
        return True
    x = order[pos_a]
    y = order[pos_b]
    for position in range(pos_a + 1, pos_b + 1):
        if constraints.is_before(x, order[position]):
            return False
    for position in range(pos_a, pos_b):
        if constraints.is_before(order[position], y):
            return False
    pairs = constraints.consecutive_pairs
    if pairs:
        n = len(order)
        # Base positions whose occupants can see an adjacency change.
        window = {}
        for position in (
            pos_a - 1, pos_a, pos_a + 1, pos_b - 1, pos_b, pos_b + 1
        ):
            if 0 <= position < n:
                window[order[position]] = position

        def new_position(position: int) -> int:
            if position == pos_a:
                return pos_b
            if position == pos_b:
                return pos_a
            return position

        window_positions = set(window.values())
        for first, second in pairs:
            pf = window.get(first)
            ps = window.get(second)
            if pf is None and ps is None:
                continue  # both members far from the swap: unchanged
            if pf is not None and ps is not None:
                if new_position(ps) != new_position(pf) + 1:
                    return False
                continue
            # One member in the window, its partner elsewhere; the
            # partner keeps its (unknown) position.  The pair survives
            # only if the required partner slot is outside the window —
            # then the pair's adjacency is exactly what it was before.
            if pf is not None:
                required = new_position(pf) + 1
            else:
                required = new_position(ps) - 1
            if required < 0 or required >= n or required in window_positions:
                return False
    return True


def apply_swap(order: Sequence[int], pos_a: int, pos_b: int) -> List[int]:
    """Return a copy of ``order`` with two positions exchanged."""
    swapped = list(order)
    swapped[pos_a], swapped[pos_b] = swapped[pos_b], swapped[pos_a]
    return swapped


def apply_relocate(order: Sequence[int], src: int, dst: int) -> List[int]:
    """Return a copy of ``order`` with ``order[src]`` moved to ``dst``."""
    moved = list(order)
    moved.insert(dst, moved.pop(src))
    return moved


def relocate_feasible(
    order: Sequence[int],
    src: int,
    dst: int,
    constraints: Optional[ConstraintSet],
) -> bool:
    """Check whether relocating ``order[src]`` to ``dst`` stays feasible.

    Relocation shifts every element between ``src`` and ``dst``, so
    unlike :func:`swap_feasible` there is no cheap local window for the
    consecutive pairs — the relocated order is checked directly.
    """
    if constraints is None or src == dst:
        return True
    return constraints.check_order(apply_relocate(order, src, dst))


def batch_swap_descent(
    engine,
    order: List[int],
    constraints: Optional[ConstraintSet],
    budget: Budget,
    current: float,
    on_pass: Callable[[List[int], float], None],
) -> Tuple[List[int], float]:
    """Best-improvement swap descent driven by the batch neighborhood API.

    Repeatedly scores the *entire* swap neighborhood with
    ``engine.eval_all_swaps`` (one kernel call per pass instead of
    O(n^2) delta evaluations), applies the best improving feasible
    swap, and stops at a local minimum or budget exhaustion.  Each pass
    that lowers the objective calls ``on_pass(order, objective)``.
    Returns the (possibly unchanged) improved order and its objective.
    The engine's delta base is left on the returned order.
    """
    n = len(order)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    current = engine.set_base(order)
    while not budget.exhausted:
        objectives, feasible = engine.eval_all_swaps(constraints)
        # The first feasible pair (row-major) of least objective.
        masked = np.where(upper & feasible, objectives, np.inf)
        best = int(np.argmin(masked))
        budget.tick(n * (n - 1) // 2)
        if not masked.flat[best] < current - 1e-12:
            break
        order = apply_swap(order, *divmod(best, n))
        current = engine.set_base(order)
        on_pass(order, current)
    return order, current
