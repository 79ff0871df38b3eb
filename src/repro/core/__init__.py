"""Core data model of the index deployment ordering problem.

Public surface:

* :class:`ProblemInstance` and its value objects (:class:`IndexDef`,
  :class:`QueryDef`, :class:`PlanDef`, :class:`BuildInteraction`,
  :class:`PrecedenceRule`),
* objective evaluation (:class:`ObjectiveEvaluator`,
  :class:`PrefixCachedEvaluator`, :class:`DeploymentSchedule`),
* the shared incremental evaluation backend (:class:`EvalEngine`) and
  its one deployment-step primitive (:class:`DeployState`),
* solver results (:class:`Solution`, :class:`SolveResult`,
  :class:`SolveStatus`),
* matrix-file I/O (:func:`save_instance`, :func:`load_instance`),
* density reduction (:func:`reduce_density`) and instance linting.
"""

from repro.core.density import DENSITY_LEVELS, reduce_density
from repro.core.engine import (
    DeployState,
    EngineStats,
    EvalEngine,
    PrefixCursor,
    TranspositionTable,
)
from repro.core.instance import (
    BuildInteraction,
    IndexDef,
    PlanDef,
    PrecedenceRule,
    ProblemInstance,
    QueryDef,
)
from repro.core.objective import (
    DeploymentSchedule,
    DeploymentStep,
    ObjectiveEvaluator,
    PrefixCachedEvaluator,
    normalized_objective,
)
from repro.core.serialization import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from repro.core.solution import AnytimeTrace, Solution, SolveResult, SolveStatus
from repro.core.transforms import deploy_time_variant, reweighted_variant
from repro.core.validation import (
    check_order_feasible,
    check_precedence_feasibility,
    lint_instance,
)

__all__ = [
    "BuildInteraction",
    "IndexDef",
    "PlanDef",
    "PrecedenceRule",
    "ProblemInstance",
    "QueryDef",
    "DeploymentSchedule",
    "DeploymentStep",
    "ObjectiveEvaluator",
    "PrefixCachedEvaluator",
    "DeployState",
    "EngineStats",
    "EvalEngine",
    "PrefixCursor",
    "TranspositionTable",
    "normalized_objective",
    "deploy_time_variant",
    "reweighted_variant",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "save_instance",
    "AnytimeTrace",
    "Solution",
    "SolveResult",
    "SolveStatus",
    "check_order_feasible",
    "check_precedence_feasibility",
    "lint_instance",
    "reduce_density",
    "DENSITY_LEVELS",
]
