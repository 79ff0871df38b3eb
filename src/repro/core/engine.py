"""Unified incremental evaluation engine shared by every solver.

Historically each solver family paid for objective evaluation its own
way: :class:`~repro.core.objective.ObjectiveEvaluator` replays the full
order, :class:`~repro.core.objective.PrefixCachedEvaluator` replays
from the nearest checkpoint to the *end* of the order, and the exact
searches (A*, exhaustive branch-and-bound, CP) each re-derived runtime
states and carried one of two duplicated suffix bounds.

:class:`EvalEngine` is the single backend that replaces all of that.
Every deployment step it computes goes through one primitive,
:meth:`DeployState.deploy`, and on top of it the engine provides three
capabilities:

1. **True delta evaluation** for local-search moves.  Bound to a base
   order via :meth:`set_base`, the engine evaluates a swap / insert /
   relocate by replaying only the *divergence window* of the move.  A
   permutation move leaves the deployed *set* at every position past
   the window identical to the base, and both the runtime ``R`` and the
   best build-interaction saving depend only on that set — so every
   suffix step contributes exactly what it contributed in the base
   order and the engine early-exits by adding the precomputed base
   suffix area.  :class:`~repro.core.objective.PrefixCachedEvaluator`
   replays the whole tail instead; the per-move saving is the entire
   suffix after the window.

2. A **memo layer** keyed on frozen built-sets (bitmask-encoded): the
   weighted total runtime of a built-set is cached across lookups, so
   subset-lattice searches (A*, subset DP) and bound evaluations stop
   recomputing identical states.  A miss is a delta over the previous
   miss: it keeps each query's best speed-up, rescans only the queries
   served by the indexes that changed, and sums the per-query terms in
   ``ProblemInstance.total_runtime``'s order, so its value is
   bit-identical.  :class:`TranspositionTable` lets branch-and-bound
   searches prune permutation prefixes that reach an already-seen
   built-set at an equal-or-worse objective.

3. A single **bound provider**: :meth:`suffix_bound` is the density
   relaxation that previously lived in ``solvers.base.SuffixBound``
   (with the weaker ``R_final * sum minC`` floor that previously lived
   in ``ObjectiveEvaluator.lower_bound_suffix`` folded in as a floor).
   All tree searches consume this one bound.

Every capability records its work in :class:`EngineStats` so the
experiment harness can report replayed steps and cache hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.instance import ProblemInstance
from repro.errors import ValidationError

__all__ = [
    "DeployState",
    "DeployTables",
    "EngineStats",
    "EvalEngine",
    "PrefixCursor",
    "TranspositionTable",
]

#: A move whose cursor re-alignment distance exceeds this is a "far
#: jump": random-pattern moves pay more for re-aligning the shared
#: cursor than for the window itself.  After a couple of far jumps on
#: the same base the engine snapshots the base trajectory once and
#: serves far windows directly from the snapshot, no re-alignment.
_SNAPSHOT_STRIDE = 16

#: Far jumps tolerated on one base before the snapshot table is built.
_SNAPSHOT_AFTER = 2

BuiltSet = Union[int, Iterable[int]]


@dataclass
class EngineStats:
    """Work counters for one :class:`EvalEngine`.

    Attributes:
        full_evals: Complete-order evaluations (full replay).
        delta_evals: Move evaluations answered through the base-order
            delta path.
        prefix_evals: Partial-order evaluations (``evaluate_prefix``).
        replayed_steps: Deployment steps actually replayed by the delta
            path (cursor re-alignment plus divergence windows).
        prefix_steps: Steps replayed for ``set_base`` re-alignment, kept
            out of ``replayed_steps`` so that counter measures move
            evaluation alone.
        memo_hits: Built-set runtime memo hits.
        memo_misses: Built-set runtime memo misses.
        tt_states: Distinct built-sets recorded by transposition tables.
        tt_prunes: Search nodes the transposition table cuts: a child
            whose built-set was reached before at an equal-or-better
            prefix objective, or (the full DFS only) whose prefix
            objective plus the set's learned suffix bound reaches the
            incumbent.
        batch_evals: Whole-neighborhood scans answered through
            ``eval_all_swaps`` (either kernel).
        batch_moves: Moves scored inside numpy batch scans (the scalar
            kernel's moves count as ``delta_evals`` instead).
        batch_numpy: Batch scans executed by the numpy kernel.
    """

    full_evals: int = 0
    delta_evals: int = 0
    prefix_evals: int = 0
    replayed_steps: int = 0
    prefix_steps: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    tt_states: int = 0
    tt_prunes: int = 0
    batch_evals: int = 0
    batch_moves: int = 0
    batch_numpy: int = 0

    @property
    def evaluations(self) -> int:
        """Total objective evaluations of any kind."""
        return (
            self.full_evals
            + self.delta_evals
            + self.prefix_evals
            + self.batch_moves
        )

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for experiment notes and logs."""
        return dict(vars(self))

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.as_dict():
            setattr(self, name, 0)


class DeployTables:
    """The flattened instance arrays a deployment step reads.

    One copy per :class:`EvalEngine`, shared by the engine and every
    :class:`DeployState` made from it.  A state holds these tables, not
    its engine, so the states an engine keeps (its base cursor, its
    snapshots) form no reference cycle with it, and an engine is freed,
    memos and all, as soon as the last solver or search drops it.
    """

    __slots__ = (
        "n",
        "n_queries",
        "plan_query",
        "plan_speedup",
        "plan_size",
        "plans_of_index",
        "helpers",
        "ctime",
        "qweight",
        "base_runtime",
    )

    def __init__(self, instance: ProblemInstance) -> None:
        self.n = instance.n_indexes
        self.n_queries = instance.n_queries
        self.plan_query = [p.query_id for p in instance.plans]
        self.plan_speedup = [p.speedup for p in instance.plans]
        self.plan_size = [len(p.indexes) for p in instance.plans]
        self.plans_of_index = [
            list(instance.plans_containing(i)) for i in range(self.n)
        ]
        self.helpers = [list(instance.build_helpers(i)) for i in range(self.n)]
        self.ctime = [ix.create_cost for ix in instance.indexes]
        self.qweight = [q.weight for q in instance.queries]
        self.base_runtime = instance.total_base_runtime


class DeployState:
    """Deployment state after some prefix of indexes: the one replay step.

    Holds the per-plan missing-member counters, each query's best
    completed speed-up, the built flags, the weighted runtime ``R`` and
    the objective area so far.  :meth:`deploy` is the single place a
    deployment step (Section 4.1: best build-helper saving, add
    ``R * C``, retire the plans the index completes) is computed; every
    replay in the engine, the exhaustive DFS, the batch kernel's base
    trajectory and the checkpoint baseline goes through it.  The DFS
    scores a child before deploying it as ``objective + runtime *
    EvalEngine.build_cost_in(index, mask)``, the same floats this step
    computes.  A state reads its engine's :class:`DeployTables`.
    """

    __slots__ = ("tables", "missing", "qbest", "built", "runtime", "objective")

    def __init__(self, engine: "EvalEngine") -> None:
        tables = engine.tables
        self.tables = tables
        self.missing = tables.plan_size[:]
        self.qbest = [0.0] * tables.n_queries
        self.built = bytearray(tables.n)
        self.runtime = tables.base_runtime
        self.objective = 0.0

    def copy(self) -> "DeployState":
        """An independent plain state equal to this one (a trial move's
        scratch; a cursor's stack and undo records are not copied)."""
        other = DeployState.__new__(DeployState)
        other.tables = self.tables
        other.missing = self.missing[:]
        other.qbest = self.qbest[:]
        other.built = bytearray(self.built)
        other.runtime = self.runtime
        other.objective = self.objective
        return other

    def deploy(
        self, window: Iterable[int], undo: Optional[List[tuple]] = None
    ) -> float:
        """Deploy every index of ``window`` in turn; returns the objective.

        With an ``undo`` list, appends one record per step: the exact
        objective and runtime before it, and the ``(plan_id, previous
        best)`` of every plan that raised its query's best speed-up, so
        :meth:`PrefixCursor.pop` restores the floats bit for bit.
        """
        tables = self.tables
        helpers = tables.helpers
        ctime = tables.ctime
        plans_of_index = tables.plans_of_index
        plan_query = tables.plan_query
        plan_speedup = tables.plan_speedup
        qweight = tables.qweight
        missing = self.missing
        qbest = self.qbest
        built = self.built
        runtime = self.runtime
        objective = self.objective
        record = undo is not None
        for index_id in window:
            best_saving = 0.0
            for helper, saving in helpers[index_id]:
                if built[helper] and saving > best_saving:
                    best_saving = saving
            if record:
                raised = []
                undo.append((objective, runtime, raised))
            objective += runtime * (ctime[index_id] - best_saving)
            built[index_id] = 1
            for plan_id in plans_of_index[index_id]:
                missing[plan_id] -= 1
                if missing[plan_id] == 0:
                    query_id = plan_query[plan_id]
                    speedup = plan_speedup[plan_id]
                    if speedup > qbest[query_id]:
                        runtime -= (speedup - qbest[query_id]) * qweight[
                            query_id
                        ]
                        if record:
                            raised.append((plan_id, qbest[query_id]))
                        qbest[query_id] = speedup
        self.runtime = runtime
        self.objective = objective
        return objective


class PrefixCursor(DeployState):
    """A :class:`DeployState` over a stack of indexes, with exact undo.

    Successive prefixes that share a common stem cost only the
    difference — the mechanics behind the engine's delta evaluation,
    the exhaustive DFS and its LNS/VNS relaxations.  A pop restores
    the exact prior floats (no subtract-back drift), which the
    transposition tables' dominance checks rely on.
    """

    __slots__ = ("_stack", "_undo")

    def __init__(self, engine: "EvalEngine") -> None:
        super().__init__(engine)
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    @property
    def depth(self) -> int:
        """Number of deployed indexes on the cursor."""
        return len(self._stack)

    @property
    def stack(self) -> Tuple[int, ...]:
        """The deployed prefix, in order."""
        return tuple(self._stack)

    def push(self, index_id: int) -> None:
        """Deploy ``index_id`` on top of the current prefix."""
        self.deploy((index_id,), self._undo)
        self._stack.append(index_id)

    def pop(self) -> int:
        """Un-deploy the most recent index; returns its id."""
        index_id = self._stack.pop()
        objective, runtime, raised = self._undo.pop()
        tables = self.tables
        plan_query = tables.plan_query
        qbest = self.qbest
        for plan_id, previous in reversed(raised):
            qbest[plan_query[plan_id]] = previous
        missing = self.missing
        for plan_id in tables.plans_of_index[index_id]:
            missing[plan_id] += 1
        self.built[index_id] = 0
        self.runtime = runtime
        self.objective = objective
        return index_id

    def seek(self, sequence: Sequence[int], depth: int) -> int:
        """Move to ``sequence[:depth]``; returns the pushes done.

        The cursor must already hold a prefix of ``sequence``; the
        missing steps are deployed in one window.
        """
        stack = self._stack
        while len(stack) > depth:
            self.pop()
        if len(stack) == depth:
            return 0
        window = sequence[len(stack) : depth]
        self.deploy(window, self._undo)
        stack.extend(window)
        return len(window)

    def align(self, prefix: Sequence[int]) -> int:
        """Make the cursor state equal ``prefix``; returns pushes done."""
        stack = self._stack
        common = 0
        limit = min(len(prefix), len(stack))
        while common < limit and stack[common] == prefix[common]:
            common += 1
        while len(stack) > common:
            self.pop()
        return self.seek(prefix, len(prefix))

    def prefix_objectives(self) -> List[float]:
        """Objective after each of the first ``k`` steps, ``k = 0..depth``."""
        return [record[0] for record in self._undo] + [self.objective]

    def prefix_runtimes(self) -> List[float]:
        """Runtime after each of the first ``k`` steps, ``k = 0..depth``."""
        return [record[1] for record in self._undo] + [self.runtime]


class TranspositionTable:
    """Per built-set: the best prefix objective seen, and a learned bound.

    The suffix cost of a deployment depends only on the built *set*
    (both the runtime and every build-interaction saving are functions
    of the set), so a permutation-prefix that reaches a set already
    reached at an equal-or-better objective cannot lead anywhere new,
    and a lower bound on the cost of completing a set, once learned,
    holds for every prefix that reaches it.  One table is valid for one
    search (constraints restrict which prefixes are feasible, so tables
    must not be shared across solves with different constraint sets).
    """

    def __init__(self, stats: Optional[EngineStats] = None) -> None:
        # mask -> [best prefix objective, learned suffix lower bound]
        self._entries: Dict[int, List[float]] = {}
        self._stats = stats

    def __len__(self) -> int:
        return len(self._entries)

    def cut(
        self, mask: int, objective: float, cutoff: float = math.inf
    ) -> Optional[float]:
        """Check a prefix reaching ``mask`` at ``objective``.

        The prefix is cut when the set was reached before at an
        equal-or-better objective, or when ``objective`` plus the set's
        learned bound is at least ``cutoff``; then the learned bound
        (0.0 until :meth:`learn` raises it) is returned.  Otherwise
        ``objective`` is recorded as the set's best and None returned.
        """
        entry = self._entries.get(mask)
        if entry is None:
            if self._stats is not None:
                self._stats.tt_states += 1
            self._entries[mask] = [objective, 0.0]
            return None
        if objective >= entry[0] - 1e-15 or objective + entry[1] >= cutoff:
            if self._stats is not None:
                self._stats.tt_prunes += 1
            return entry[1]
        entry[0] = objective
        return None

    def learn(self, mask: int, bound: float) -> float:
        """Raise the learned bound of a recorded ``mask`` to at least
        ``bound``; returns the learned bound."""
        entry = self._entries[mask]
        if bound > entry[1]:
            entry[1] = bound
        return entry[1]


class EvalEngine:
    """One evaluation backend shared by every solver over one instance.

    ``kernel`` selects how whole-neighborhood scans are computed:
    ``"scalar"`` (loop of delta evaluations), ``"numpy"`` (the
    vectorized kernels in :mod:`repro.core.batch`), or ``"auto"`` (the
    default: numpy from ``batch.NUMPY_MIN_N`` indexes up, scalar
    below).  Single-move methods (``eval_swap`` etc.) always use the
    scalar delta path.
    """

    def __init__(
        self, instance: ProblemInstance, kernel: Optional[str] = None
    ) -> None:
        self.instance = instance
        self.n = instance.n_indexes
        self.kernel = kernel
        # Flattened instance arrays — the one copy every consumer shares.
        self.tables = tables = DeployTables(instance)
        self.plan_query = tables.plan_query
        self.plan_speedup = tables.plan_speedup
        self.plans_of_index = tables.plans_of_index
        self.helpers = tables.helpers
        self.ctime = tables.ctime
        self.qweight = tables.qweight
        self.stats = EngineStats()
        # Built-set memo (bitmask -> weighted total runtime), and the
        # delta tables its misses are computed from (built on first miss).
        self._mask_runtime: Dict[int, float] = {}
        self._query_plans: Optional[List[List[Tuple[int, float]]]] = None
        # Base-order delta state.
        self._base: Optional[Tuple[int, ...]] = None
        self._base_pos: Dict[int, int] = {}
        self._base_obj_prefix: List[float] = [0.0]
        self._base_cursor = PrefixCursor(self)
        # Bound-provider data, built on first use.
        self._bound_ready = False
        # Batch-kernel state: the flattened arrays persist across bases,
        # the per-base neighborhood cache is invalidated by set_base.
        self._flat = None
        self._batch_neigh = None
        self._base_gen = 0
        self._batch_gen = -1
        # Base-trajectory snapshots for far-jump moves (lazy, per base).
        self._snapshots: Optional[List[DeployState]] = None
        self._far_jumps = 0

    # ------------------------------------------------------------------
    # Full evaluation
    # ------------------------------------------------------------------
    def check_order(self, order: Sequence[int]) -> None:
        """Raise :class:`ValidationError` unless ``order`` is a permutation."""
        if len(order) != self.n or set(order) != set(range(self.n)):
            raise ValidationError(
                f"order must be a permutation of 0..{self.n - 1}, got {order!r}"
            )

    def evaluate(self, order: Sequence[int]) -> float:
        """Objective of a complete order (full replay)."""
        self.check_order(order)
        self.stats.full_evals += 1
        return DeployState(self).deploy(order)

    def evaluate_prefix(
        self, prefix: Sequence[int]
    ) -> Tuple[float, float, float]:
        """``(objective, runtime, elapsed)`` after a partial order."""
        self.stats.prefix_evals += 1
        state = DeployState(self)
        state.deploy(prefix)
        elapsed = 0.0
        mask = 0
        for index_id in prefix:
            elapsed += self.build_cost_in(index_id, mask)
            mask |= 1 << index_id
        return state.objective, state.runtime, elapsed

    # ------------------------------------------------------------------
    # Base-order delta evaluation
    # ------------------------------------------------------------------
    @property
    def base_order(self) -> Optional[Tuple[int, ...]]:
        """The order delta moves are relative to, or ``None``."""
        return self._base

    @property
    def base_objective(self) -> float:
        """Objective of the base order (``set_base`` must have run)."""
        if self._base is None:
            raise ValidationError("set_base() has not been called")
        return self._base_obj_prefix[-1]

    def set_base(self, order: Sequence[int]) -> float:
        """Adopt ``order`` as the delta base; returns its objective.

        Re-basing onto an order that shares a prefix with the previous
        base (a local-search step) replays only the differing suffix.
        """
        self.check_order(order)
        self._base = tuple(order)
        self._base_pos = {ix: pos for pos, ix in enumerate(order)}
        cursor = self._base_cursor
        self.stats.prefix_steps += cursor.align(self._base)
        # Per-position objective prefix sums enable the suffix early-exit:
        # _base_obj_prefix[k] is the objective after the first k steps.
        self._base_obj_prefix = cursor.prefix_objectives()
        self.stats.full_evals += 1
        self._base_gen += 1
        self._snapshots = None
        self._far_jumps = 0
        return self._base_obj_prefix[-1]

    def eval_swap(self, pos_a: int, pos_b: int) -> float:
        """Objective of the base with positions ``pos_a``/``pos_b`` swapped."""
        base = self._require_base()
        self._check_position(pos_a)
        self._check_position(pos_b)
        if pos_a == pos_b:
            self.stats.delta_evals += 1
            return self.base_objective
        if pos_a > pos_b:
            pos_a, pos_b = pos_b, pos_a
        window = list(base[pos_a : pos_b + 1])
        window[0], window[-1] = window[-1], window[0]
        return self._eval_window(pos_a, pos_b, window)

    def eval_relocate(self, src: int, dst: int) -> float:
        """Objective of the base with the index at ``src`` moved to ``dst``."""
        base = self._require_base()
        self._check_position(src)
        self._check_position(dst)
        if src == dst:
            self.stats.delta_evals += 1
            return self.base_objective
        if src < dst:
            window = list(base[src + 1 : dst + 1]) + [base[src]]
            return self._eval_window(src, dst, window)
        window = [base[src]] + list(base[dst:src])
        return self._eval_window(dst, src, window)

    def eval_insert(self, index_id: int, dst: int) -> float:
        """Objective of the base with ``index_id`` re-inserted at ``dst``."""
        self._require_base()
        try:
            src = self._base_pos[index_id]
        except KeyError:
            raise ValidationError(
                f"index {index_id} is not in the base order"
            ) from None
        return self.eval_relocate(src, dst)

    def evaluate_neighbor(self, order: Sequence[int]) -> float:
        """Objective of any permutation, replaying only its true divergence.

        The divergence window ``[first, last]`` (shared prefix *and*
        suffix trimmed) is further decomposed into *balanced chunks*: at
        any position inside the window where the multiset of deployed
        indexes so far equals the base's, the deployment state is
        exactly the base state, so the base-identical stretch that
        follows contributes its precomputed base area without replay.
        A scattered neighbor (the LNS relaxation shape) then replays
        only its changed runs, not the gaps between them.
        """
        base = self._require_base()
        n = self.n
        if len(order) != n:
            raise ValidationError(f"order must have length {n}, got {len(order)}")
        first = 0
        while first < n and order[first] == base[first]:
            first += 1
        if first == n:
            self.stats.delta_evals += 1
            return self.base_objective
        last = n - 1
        while order[last] == base[last]:
            last -= 1
        window = list(order[first : last + 1])
        if sorted(window) != sorted(base[first : last + 1]):
            raise ValidationError(
                "order is not a permutation of the base order"
            )
        # Balanced-chunk decomposition of the divergence window.
        chunks: List[Tuple[int, int]] = []
        imbalance: Dict[int, int] = {}
        open_start = -1
        for k in range(first, last + 1):
            placed, expected = order[k], base[k]
            if placed == expected and not imbalance:
                continue  # base-identical gap between chunks
            if open_start < 0:
                open_start = k
            if placed != expected:
                for moved, delta in ((placed, 1), (expected, -1)):
                    count = imbalance.get(moved, 0) + delta
                    if count:
                        imbalance[moved] = count
                    else:
                        imbalance.pop(moved, None)
            if not imbalance:
                chunks.append((open_start, k))
                open_start = -1
        if len(chunks) <= 1:
            return self._eval_window(first, last, window)
        if self._snapshots is None:
            self._far_jumps += 1
            if self._far_jumps > _SNAPSHOT_AFTER:
                self._build_snapshots()
        if self._snapshots is None:
            # Not yet worth snapshotting: one contiguous replay.
            return self._eval_window(first, last, window)
        prefix = self._base_obj_prefix
        snapshots = self._snapshots
        objective = prefix[n]
        replayed = 0
        for chunk_first, chunk_last in chunks:
            chunk_window = order[chunk_first : chunk_last + 1]
            scratch = snapshots[chunk_first].copy()
            objective += scratch.deploy(chunk_window) - prefix[chunk_last + 1]
            replayed += len(chunk_window)
        self.stats.delta_evals += 1
        self.stats.replayed_steps += replayed
        return objective

    # ------------------------------------------------------------------
    # Batch neighborhood evaluation
    # ------------------------------------------------------------------
    def batch_kernel(self) -> str:
        """The kernel ``eval_all_swaps`` will actually run on this instance."""
        from repro.core import batch

        return batch.resolve_kernel(self.kernel, self.n)

    def _batch_neighborhood(self):
        from repro.core import batch

        if self._flat is None:
            self._flat = batch.FlatInstance(self.instance)
        if self._batch_neigh is None or self._batch_gen != self._base_gen:
            self._batch_neigh = batch.BatchNeighborhood(self._flat, self._base)
            self._batch_gen = self._base_gen
        return self._batch_neigh

    def eval_all_swaps(self, constraints=None):
        """Score every pairwise swap of the base order in one pass.

        Returns ``(objectives, feasible)``: an ``(n, n)`` symmetric
        matrix of swapped-order objectives (diagonal = base objective)
        and a matching boolean feasibility mask.  With the scalar
        kernel, infeasible cells are left at ``+inf`` (they are never
        scored); vector kernels score every cell and leave masking to
        the caller.  Requires :meth:`set_base`.
        """
        from repro.core import batch
        from repro.solvers.localsearch.neighborhood import swap_feasible

        base = self._require_base()
        n = self.n
        self.stats.batch_evals += 1
        feasible = batch.swap_feasibility_mask(base, constraints, swap_feasible)
        if self.batch_kernel() == "scalar":
            objectives = np.full((n, n), float("inf"))
            np.fill_diagonal(objectives, self.base_objective)
            for pos_a in range(n - 1):
                for pos_b in range(pos_a + 1, n):
                    if feasible[pos_a][pos_b]:
                        value = self.eval_swap(pos_a, pos_b)
                        objectives[pos_a][pos_b] = value
                        objectives[pos_b][pos_a] = value
            return objectives, feasible
        objectives = self._batch_neighborhood().score_swap_neighborhood()
        self.stats.batch_numpy += 1
        self.stats.batch_moves += n * (n - 1) // 2
        return objectives, feasible

    def _require_base(self) -> Tuple[int, ...]:
        if self._base is None:
            raise ValidationError("set_base() must be called before delta moves")
        return self._base

    def _check_position(self, position: int) -> None:
        if not 0 <= position < self.n:
            raise ValidationError(
                f"position must be in 0..{self.n - 1}, got {position}"
            )

    def _build_snapshots(self) -> None:
        """Record the base deployment state entering every position.

        One extra base replay plus O(n * (plans + queries)) copies, paid
        once per base and only after repeated far jumps; afterwards any
        window replay starts at its exact position with zero cursor
        re-alignment.
        """
        state = DeployState(self)
        snapshots: List[DeployState] = []
        for index_id in self._base:
            snapshots.append(state.copy())
            state.deploy((index_id,))
        self._snapshots = snapshots

    def _eval_window(self, first: int, last: int, window: List[int]) -> float:
        """Replay ``window`` over base positions ``first..last`` inclusive.

        Past ``last`` the deployed set equals the base's at the same
        position, so the suffix contributes its base area unchanged —
        the early exit that distinguishes the engine from a
        checkpoint-replay evaluator.

        The base cursor is aligned (amortized: a scan of moves sharing a
        prefix re-aligns by single steps) and the window itself replays
        on a scratch copy of its state, so a move evaluation allocates
        no undo records and never pops back.  Moves far from the cursor
        (random-pattern probes) instead start from a per-position base
        snapshot, built lazily after :data:`_SNAPSHOT_AFTER` far jumps,
        skipping the re-alignment entirely.
        """
        cursor = self._base_cursor
        far = abs(cursor.depth - first) > _SNAPSHOT_STRIDE
        if far and self._snapshots is None:
            self._far_jumps += 1
            if self._far_jumps > _SNAPSHOT_AFTER:
                self._build_snapshots()
        if far and self._snapshots is not None:
            objective = self._snapshots[first].copy().deploy(window)
            replayed = len(window)
        else:
            replayed = cursor.seek(self._base, first) + len(window)
            objective = cursor.copy().deploy(window)
        prefix = self._base_obj_prefix
        self.stats.delta_evals += 1
        self.stats.replayed_steps += replayed
        return objective + (prefix[self.n] - prefix[last + 1])

    # ------------------------------------------------------------------
    # Built-set memo layer
    # ------------------------------------------------------------------
    @staticmethod
    def mask_of(built: Iterable[int]) -> int:
        """Bitmask encoding of an iterable of index ids."""
        mask = 0
        for index_id in built:
            mask |= 1 << index_id
        return mask

    def runtime_of(self, built: BuiltSet) -> float:
        """Weighted total runtime for a built-set (memoized on bitmask).

        A miss is a delta over the previous miss: only the queries whose
        plans use an index of ``mask ^ previous`` rescan their plans,
        and the per-query terms are summed in
        :meth:`ProblemInstance.total_runtime`'s order, so the value is
        bit-identical to it.
        """
        mask = built if isinstance(built, int) else self.mask_of(built)
        cached = self._mask_runtime.get(mask)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        self.stats.memo_misses += 1
        if self._query_plans is None:
            self._init_runtime_delta()
        changed = mask ^ self._delta_mask
        touched = set()
        index_queries = self._index_queries
        while changed:
            low = changed & -changed
            touched.update(index_queries[low.bit_length() - 1])
            changed ^= low
        query_plans = self._query_plans
        query_base = self._query_base
        qweight = self.qweight
        terms = self._delta_terms
        for query_id in touched:
            best = 0.0
            for plan_mask, speedup in query_plans[query_id]:
                if not plan_mask & ~mask:
                    if speedup > best:
                        best = speedup
                    break
            terms[query_id] = (query_base[query_id] - best) * qweight[query_id]
        self._delta_mask = mask
        value = reduce(add, terms, 0.0)
        self._mask_runtime[mask] = value
        return value

    def _init_runtime_delta(self) -> None:
        """Tables for :meth:`runtime_of`'s delta, built on the first miss.

        Each query's plans as ``(member bitmask, speed-up)``, fastest
        first, so a rescan stops at the first fully built plan; the
        queries each index's plans serve; and the per-query runtime
        terms of the empty built-set.
        """
        instance = self.instance
        plan_masks = [self.mask_of(plan.indexes) for plan in instance.plans]
        self._query_plans = [
            sorted(
                (
                    (plan_masks[p], self.plan_speedup[p])
                    for p in instance.plans_of_query(q.query_id)
                ),
                key=lambda entry: -entry[1],
            )
            for q in instance.queries
        ]
        self._index_queries = [
            sorted({self.plan_query[p] for p in plans})
            for plans in self.plans_of_index
        ]
        self._query_base = [q.base_runtime for q in instance.queries]
        self._delta_terms = [
            base * weight
            for base, weight in zip(self._query_base, self.qweight)
        ]
        self._delta_mask = 0

    def build_cost_in(self, index_id: int, built: BuiltSet) -> float:
        """Build cost of ``index_id`` given a built-set (best helper applied)."""
        best_saving = 0.0
        if isinstance(built, int):
            for helper, saving in self.helpers[index_id]:
                if built >> helper & 1 and saving > best_saving:
                    best_saving = saving
        else:
            built_set = set(built)
            for helper, saving in self.helpers[index_id]:
                if helper in built_set and saving > best_saving:
                    best_saving = saving
        return self.ctime[index_id] - best_saving

    def new_transposition_table(self) -> TranspositionTable:
        """Fresh per-search transposition table wired to this engine's stats."""
        return TranspositionTable(self.stats)

    # ------------------------------------------------------------------
    # Bound provider
    # ------------------------------------------------------------------
    def _ensure_bound_data(self) -> None:
        if self._bound_ready:
            return
        instance = self.instance
        n = self.n
        self.min_cost = [instance.min_build_cost(i) for i in range(n)]
        self.final_runtime = self.runtime_of((1 << n) - 1)
        s_max = [0.0] * n
        for query in instance.queries:
            best_with: Dict[int, float] = {}
            for plan_id in instance.plans_of_query(query.query_id):
                plan = instance.plans[plan_id]
                value = plan.speedup * query.weight
                for member in plan.indexes:
                    if value > best_with.get(member, 0.0):
                        best_with[member] = value
            for member, value in best_with.items():
                s_max[member] += value
        self.s_max = s_max
        self.density_order = sorted(
            range(n),
            key=lambda i: -(s_max[i] / max(self.min_cost[i], 1e-12)),
        )
        self._bound_ready = True

    def suffix_bound(self, runtime_now: float, built: BuiltSet) -> float:
        """Admissible lower bound on the objective of any suffix.

        Relaxation: every remaining index ``i`` costs its minimum
        possible build cost ``minC(i)`` and drops the runtime by its
        maximum possible marginal speed-up ``S_max(i)``.  With fixed
        per-item costs and drops, the density-descending order
        (``S_max / minC``) minimizes the staircase area — a classic
        exchange argument — and that minimum lower-bounds the true
        suffix area of every feasible completion.  The simple bound
        ``R_final * sum minC`` is taken as a floor (the max of two
        admissible bounds is admissible).
        """
        self._ensure_bound_data()
        if not isinstance(built, int):
            built = self.mask_of(built)
        relaxed = 0.0
        runtime = runtime_now
        simple = 0.0
        min_cost = self.min_cost
        s_max = self.s_max
        final_runtime = self.final_runtime
        for index_id in self.density_order:
            if built >> index_id & 1:
                continue
            cost = min_cost[index_id]
            relaxed += runtime * cost
            simple += final_runtime * cost
            runtime -= s_max[index_id]
        return max(relaxed, simple)
