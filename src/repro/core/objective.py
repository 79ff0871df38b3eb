"""Objective evaluation for index deployment orders.

The objective (Section 4.1, equation 1) is the area under the
query-runtime-over-deployment-time curve::

    Obj(order) = sum_k  R_{k-1} * C_k

where ``R_{k-1}`` is the weighted total query runtime *before* the k-th
index finishes building and ``C_k`` is its build cost after applying the
best available build interaction.  Smaller is better: it rewards both
prompt query speed-ups (small ``R`` early) and short total deployment
time (small ``sum C_k``).

Two evaluators are provided:

* :class:`ObjectiveEvaluator` — stateless full evaluation, schedules and
  improvement curves.  This is the reference implementation every solver
  and test trusts.
* :class:`PrefixCachedEvaluator` — bound to a *base order*, it snapshots
  evaluation state at regular checkpoints so that the objective of a
  nearby order (e.g. after a swap) is computed by replaying only the
  changed suffix.  It is kept as the baseline the throughput benchmark
  measures the engine against.

The production hot path of every solver is
:class:`repro.core.engine.EvalEngine`, which additionally early-exits
once a move's divergence window closes and memoizes built-set states.
:class:`ObjectiveEvaluator` keeps its own deployment loop, independent
of the engine's, because it is the reference the parity tests pin the
engine against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.engine import DeployState, EvalEngine
from repro.core.instance import ProblemInstance
from repro.errors import ValidationError

__all__ = [
    "DeploymentStep",
    "DeploymentSchedule",
    "ObjectiveEvaluator",
    "PrefixCachedEvaluator",
    "normalized_objective",
]


@dataclass(frozen=True)
class DeploymentStep:
    """One step of a deployment schedule.

    Attributes:
        position: 1-based position in the order.
        index_id: The index deployed at this step.
        start_time: Elapsed deployment time when the build starts.
        build_cost: Actual cost ``C_k`` (after build interactions).
        saving: Build-cost saving obtained from the best helper.
        helper_id: The helper index used, or ``None``.
        runtime_before: ``R_{k-1}``, weighted total query runtime during
            this build.
        runtime_after: ``R_k``, runtime once this index is available.
    """

    position: int
    index_id: int
    start_time: float
    build_cost: float
    saving: float
    helper_id: Optional[int]
    runtime_before: float
    runtime_after: float

    @property
    def finish_time(self) -> float:
        """Elapsed deployment time when this build completes."""
        return self.start_time + self.build_cost

    @property
    def area(self) -> float:
        """This step's contribution ``R_{k-1} * C_k`` to the objective."""
        return self.runtime_before * self.build_cost


@dataclass(frozen=True)
class DeploymentSchedule:
    """A fully evaluated deployment order.

    Produced by :meth:`ObjectiveEvaluator.schedule`; used by the
    experiment harness for Figure-13-style decompositions and improvement
    curves.
    """

    order: Tuple[int, ...]
    steps: Tuple[DeploymentStep, ...]
    objective: float

    @property
    def total_deploy_time(self) -> float:
        """Total wall time to deploy every index (``sum C_k``)."""
        if not self.steps:
            return 0.0
        return self.steps[-1].finish_time

    @property
    def final_runtime(self) -> float:
        """Weighted total query runtime once everything is deployed."""
        if not self.steps:
            return 0.0
        return self.steps[-1].runtime_after

    @property
    def average_runtime_during_deployment(self) -> float:
        """Time-averaged query runtime over the deployment window.

        This is the y-axis of Figure 13 (right axis is deployment time).
        Equals ``objective / total_deploy_time``.
        """
        total = self.total_deploy_time
        if total <= 0:
            return 0.0
        return self.objective / total

    def improvement_curve(self) -> List[Tuple[float, float]]:
        """Piecewise-constant ``(elapsed_time, runtime)`` curve.

        Starts at ``(0, R_0)`` and ends at ``(total_deploy_time, R_n)``;
        the area under this staircase is exactly :attr:`objective`.
        """
        if not self.steps:
            return []
        points: List[Tuple[float, float]] = [(0.0, self.steps[0].runtime_before)]
        for step in self.steps:
            points.append((step.finish_time, step.runtime_after))
        return points

    def total_build_saving(self) -> float:
        """Total build cost saved through build interactions."""
        return sum(step.saving for step in self.steps)


class ObjectiveEvaluator:
    """Reference evaluator for deployment orders over one instance.

    A full evaluation runs in ``O(sum of plan sizes + n * interactions)``
    by maintaining a per-plan missing-index counter: when an index is
    deployed, only plans containing it are touched, and a plan whose
    counter hits zero becomes available and may improve its query's best
    speed-up.
    """

    def __init__(self, instance: ProblemInstance) -> None:
        self.instance = instance
        self._n = instance.n_indexes
        self._plan_query = [p.query_id for p in instance.plans]
        self._plan_speedup = [p.speedup for p in instance.plans]
        self._plan_size = [len(p.indexes) for p in instance.plans]
        self._plans_of_index = [
            list(instance.plans_containing(i)) for i in range(self._n)
        ]
        self._helpers = [list(instance.build_helpers(i)) for i in range(self._n)]
        self._ctime = [ix.create_cost for ix in instance.indexes]
        self._qweight = [q.weight for q in instance.queries]
        self._r0 = instance.total_base_runtime

    # ------------------------------------------------------------------
    def check_order(self, order: Sequence[int]) -> None:
        """Raise :class:`ValidationError` unless ``order`` is a permutation."""
        if len(order) != self._n or set(order) != set(range(self._n)):
            raise ValidationError(
                f"order must be a permutation of 0..{self._n - 1}, got {order!r}"
            )

    def evaluate(self, order: Sequence[int]) -> float:
        """Return the objective value of a complete deployment order."""
        self.check_order(order)
        return self._replay(order)[0]

    def evaluate_prefix(
        self, prefix: Sequence[int]
    ) -> Tuple[float, float, float]:
        """Evaluate a partial order.

        Returns ``(prefix_objective, runtime_after_prefix, elapsed_time)``
        — the ingredients exact solvers use for branch-and-bound on
        partial sequences.
        """
        return self._replay(prefix)

    def schedule(self, order: Sequence[int]) -> DeploymentSchedule:
        """Evaluate ``order`` and return the full deployment schedule."""
        self.check_order(order)
        steps: List[DeploymentStep] = []
        objective, _, _ = self._replay(order, steps)
        return DeploymentSchedule(tuple(order), tuple(steps), objective)

    def _replay(
        self,
        sequence: Sequence[int],
        steps: Optional[List[DeploymentStep]] = None,
    ) -> Tuple[float, float, float]:
        """The reference deployment loop over ``sequence``.

        Returns ``(objective, runtime, elapsed)``; with a ``steps`` list,
        also appends one :class:`DeploymentStep` per deployed index.
        """
        missing = self._plan_size[:]
        qbest = [0.0] * self.instance.n_queries
        built = bytearray(self._n)
        runtime = self._r0
        objective = 0.0
        elapsed = 0.0
        plan_query = self._plan_query
        plan_speedup = self._plan_speedup
        qweight = self._qweight
        for position, index_id in enumerate(sequence, start=1):
            best_saving = 0.0
            best_helper: Optional[int] = None
            for helper, saving in self._helpers[index_id]:
                if built[helper] and saving > best_saving:
                    best_saving = saving
                    best_helper = helper
            actual = self._ctime[index_id] - best_saving
            runtime_before = runtime
            objective += runtime * actual
            built[index_id] = 1
            for plan_id in self._plans_of_index[index_id]:
                missing[plan_id] -= 1
                if missing[plan_id] == 0:
                    query_id = plan_query[plan_id]
                    speedup = plan_speedup[plan_id]
                    if speedup > qbest[query_id]:
                        runtime -= (speedup - qbest[query_id]) * qweight[query_id]
                        qbest[query_id] = speedup
            if steps is not None:
                steps.append(
                    DeploymentStep(
                        position=position,
                        index_id=index_id,
                        start_time=elapsed,
                        build_cost=actual,
                        saving=best_saving,
                        helper_id=best_helper,
                        runtime_before=runtime_before,
                        runtime_after=runtime,
                    )
                )
            elapsed += actual
        return objective, runtime, elapsed


class PrefixCachedEvaluator:
    """Checkpoint-replay evaluator: the engine's A/B baseline.

    Bound to a *base order* via :meth:`set_base`, it stores state
    snapshots every ``checkpoint_stride`` steps.  Evaluating a candidate
    order that agrees with the base on a prefix restores the nearest
    snapshot at or before the first divergence and replays the whole
    rest of the order.  The throughput benchmark measures
    :class:`~repro.core.engine.EvalEngine`'s divergence-window early
    exit against it; both replay through the same
    :class:`~repro.core.engine.DeployState` step.
    """

    def __init__(
        self, instance: ProblemInstance, checkpoint_stride: int = 16
    ) -> None:
        if checkpoint_stride < 1:
            raise ValidationError("checkpoint_stride must be >= 1")
        self.instance = instance
        self.stride = checkpoint_stride
        self._engine = EvalEngine(instance)
        self._n = instance.n_indexes
        self._base: Optional[Tuple[int, ...]] = None
        self._snapshots: List[DeployState] = []
        self.evaluations = 0

    @property
    def base_order(self) -> Optional[Tuple[int, ...]]:
        """The order snapshots were taken against, or ``None``."""
        return self._base

    def set_base(self, order: Sequence[int]) -> float:
        """Adopt ``order`` as the base; returns its objective."""
        self._engine.check_order(order)
        self._base = tuple(order)
        # Snapshot *before* step k for k = 0, stride, 2*stride, ...
        self._snapshots = []
        state = DeployState(self._engine)
        for start in range(0, self._n, self.stride):
            self._snapshots.append(state.copy())
            state.deploy(self._base[start : start + self.stride])
        self._base_objective = state.objective
        self.evaluations += 1
        return state.objective

    def evaluate(self, order: Sequence[int]) -> float:
        """Evaluate any permutation, reusing base-prefix snapshots."""
        self.evaluations += 1
        if self._base is None:
            return self._engine.evaluate(order)
        base = self._base
        n = self._n
        if len(order) != n:
            raise ValidationError(
                f"order must have length {n}, got {len(order)}"
            )
        diverge = 0
        while diverge < n and order[diverge] == base[diverge]:
            diverge += 1
        if diverge == n:
            return self._base_objective
        snap_idx = min(diverge // self.stride, len(self._snapshots) - 1)
        state = self._snapshots[snap_idx].copy()
        return state.deploy(order[snap_idx * self.stride :])

    def evaluate_swap(self, pos_a: int, pos_b: int) -> float:
        """Objective of the base order with positions ``pos_a``/``pos_b`` swapped."""
        if self._base is None:
            raise ValidationError("set_base() must be called before evaluate_swap()")
        if pos_a == pos_b:
            return self._base_objective
        order = list(self._base)
        order[pos_a], order[pos_b] = order[pos_b], order[pos_a]
        return self.evaluate(order)


def normalized_objective(instance: ProblemInstance, objective: float) -> float:
    """Scale a raw objective to a unitless 0–100 score.

    100 corresponds to the worst-possible rectangle ``R_0 * sum ctime(i)``
    (no query ever speeds up, no build interaction exploited).  The
    paper's Table 7 reports objective values in the 40–75 range on this
    kind of scale, which makes instances of different absolute magnitude
    comparable.
    """
    worst = instance.total_base_runtime * instance.total_create_cost()
    if worst <= 0:
        return 0.0
    return 100.0 * objective / worst
