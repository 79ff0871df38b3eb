"""Time-indexed MIP formulation of the ordering problem (Appendix B).

The model discretizes deployment time into ``|D|`` uniform steps and
introduces the paper's variable families:

* ``B[i,j]`` — binary linear-ordering variables (index ``i`` precedes
  ``j``), with the linear-ordering-polytope transitivity cuts,
* ``A[i]`` — continuous start step of index ``i``'s build,
* ``C[i]`` — build cost of ``i`` in steps, reduced by build-interaction
  variables ``CY[i,j]``,
* ``Z[i,d]`` — availability of index ``i`` at step ``d``,
* ``Y[q,p,d]`` — plan choice per query and step (with an empty plan and
  the paper's imaginary all-indexes plan that zeroes runtime after full
  deployment).

``X[q,d]`` is substituted out: the objective charges ``Y`` directly with
``qtime - qspdup``.  The point of this module is faithfulness, not
speed — the paper's result is precisely that this formulation explodes
(1M+ variables on large instances) and its linear relaxation is weak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.analysis.constraints import ConstraintSet
from repro.core.instance import ProblemInstance
from repro.errors import ValidationError

__all__ = ["MIPModel", "build_model"]

#: Refuse to build models larger than this many variables, mirroring the
#: out-of-memory failures the paper reports for CPlex on dense instances.
DEFAULT_VARIABLE_LIMIT = 200_000


@dataclass
class MIPModel:
    """A concrete LP/MIP in matrix form.

    ``A_ub x <= b_ub``, ``A_eq x = b_eq``, minimize ``c @ x``; the
    ``integral`` mask marks the binary variables.
    """

    instance: ProblemInstance
    n_steps: int
    step_unit: float
    c: np.ndarray
    A_ub: sparse.csr_matrix
    b_ub: np.ndarray
    A_eq: sparse.csr_matrix
    b_eq: np.ndarray
    bounds: List[Tuple[float, float]]
    integral: np.ndarray
    var_names: List[str]
    b_index: Dict[Tuple[int, int], int]
    a_index: Dict[int, int]
    objective_offset: float = 0.0

    @property
    def n_variables(self) -> int:
        """Total variable count (the paper's scalability bottleneck)."""
        return len(self.c)

    def order_from_solution(self, x: np.ndarray) -> List[int]:
        """Extract a deployment order by sorting the ``A`` start times."""
        starts = [(x[self.a_index[i]], i) for i in self.a_index]
        return [i for _, i in sorted(starts)]


class _Builder:
    """Accumulates sparse rows for the model matrices."""

    def __init__(self) -> None:
        self.var_names: List[str] = []
        self.lb: List[float] = []
        self.ub: List[float] = []
        self.integral: List[bool] = []
        self.objective: List[float] = []
        self.ub_rows: List[Dict[int, float]] = []
        self.ub_rhs: List[float] = []
        self.eq_rows: List[Dict[int, float]] = []
        self.eq_rhs: List[float] = []

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = 1.0,
        integral: bool = False,
        objective: float = 0.0,
    ) -> int:
        self.var_names.append(name)
        self.lb.append(lb)
        self.ub.append(ub)
        self.integral.append(integral)
        self.objective.append(objective)
        return len(self.var_names) - 1

    def add_le(self, coefficients: Dict[int, float], rhs: float) -> None:
        self.ub_rows.append(coefficients)
        self.ub_rhs.append(rhs)

    def add_eq(self, coefficients: Dict[int, float], rhs: float) -> None:
        self.eq_rows.append(coefficients)
        self.eq_rhs.append(rhs)

    def matrices(
        self,
    ) -> Tuple[sparse.csr_matrix, np.ndarray, sparse.csr_matrix, np.ndarray]:
        n_vars = len(self.var_names)

        def to_csr(rows: List[Dict[int, float]]) -> sparse.csr_matrix:
            data, row_idx, col_idx = [], [], []
            for row_number, row in enumerate(rows):
                for col, value in row.items():
                    row_idx.append(row_number)
                    col_idx.append(col)
                    data.append(value)
            return sparse.csr_matrix(
                (data, (row_idx, col_idx)), shape=(len(rows), n_vars)
            )

        return (
            to_csr(self.ub_rows),
            np.array(self.ub_rhs, dtype=float),
            to_csr(self.eq_rows),
            np.array(self.eq_rhs, dtype=float),
        )


def build_model(
    instance: ProblemInstance,
    steps_per_index: int = 4,
    constraints: Optional[ConstraintSet] = None,
    variable_limit: int = DEFAULT_VARIABLE_LIMIT,
) -> MIPModel:
    """Build the Appendix-B MIP for ``instance``.

    Args:
        instance: The ordering problem.
        steps_per_index: Discretization granularity; the paper used 20
            steps per index, which is faithful but explodes quickly.
        constraints: Optional Section-5 pre-analysis output; precedences
            are posted as ``B`` fixings (the "MIP+" rows of Table 5).
        variable_limit: Hard cap on variable count.

    Raises:
        ValidationError: When the model would exceed ``variable_limit``
            (reported by the caller as a DID_NOT_FINISH, matching the
            paper's CPlex out-of-memory outcomes).
    """
    n = instance.n_indexes
    n_steps = max(steps_per_index * n, 2)
    total_cost = instance.total_create_cost()
    step_unit = total_cost / n_steps

    # Predicted size check before any allocation.
    plan_count = instance.n_plans + 2 * instance.n_queries
    predicted = (
        n * (n - 1) // 2  # B
        + 2 * n  # A, C
        + n * n_steps  # Z
        + plan_count * n_steps  # Y
        + len(instance.build_interactions)  # CY
    )
    if predicted > variable_limit:
        raise ValidationError(
            f"MIP model would need ~{predicted} variables "
            f"(limit {variable_limit}): the time-indexed formulation "
            f"does not scale to this instance"
        )

    b = _Builder()
    big_m = float(n_steps)

    # --- B variables: one per unordered pair, B[i,j]=1 <=> i before j (i<j).
    b_index: Dict[Tuple[int, int], int] = {}
    for i in range(n):
        for j in range(i + 1, n):
            b_index[(i, j)] = b.add_var(f"B[{i},{j}]", 0, 1, integral=True)

    def b_coeff(i: int, j: int) -> Tuple[int, float, float]:
        """Return (var, coefficient, constant) so B_ij = coeff*x + const."""
        if i < j:
            return b_index[(i, j)], 1.0, 0.0
        return b_index[(j, i)], -1.0, 1.0

    # --- A and C variables (start step, build cost in steps).
    a_index: Dict[int, int] = {}
    c_index: Dict[int, int] = {}
    for i in range(n):
        base_cost = instance.indexes[i].create_cost / step_unit
        a_index[i] = b.add_var(f"A[{i}]", 0, n_steps, integral=False)
        c_index[i] = b.add_var(
            f"C[{i}]", 0, base_cost, integral=False
        )

    # --- CY build-interaction variables, (21)-(23).
    cy_index: Dict[Tuple[int, int], int] = {}
    for bi in instance.build_interactions:
        cy_index[(bi.target, bi.helper)] = b.add_var(
            f"CY[{bi.target},{bi.helper}]", 0, 1, integral=True
        )
    for i in range(n):
        base_cost = instance.indexes[i].create_cost / step_unit
        row = {c_index[i]: 1.0}
        for bi in instance.build_interactions:
            if bi.target == i:
                row[cy_index[(i, bi.helper)]] = bi.saving / step_unit
        b.add_eq(row, base_cost)  # (23)
        helpers = [
            cy_index[(bi.target, bi.helper)]
            for bi in instance.build_interactions
            if bi.target == i
        ]
        if helpers:
            b.add_le({var: 1.0 for var in helpers}, 1.0)  # (21)
    for bi in instance.build_interactions:
        var, coeff, const = b_coeff(bi.helper, bi.target)
        # CY[i,j] <= B[j,i]  (helper j must precede target i), (22).
        b.add_le(
            {cy_index[(bi.target, bi.helper)]: 1.0, var: -coeff}, const
        )

    # --- Transitivity cuts on B, (13)-(14).
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for (x, y, z) in ((i, j, k), (i, k, j), (j, i, k)):
                    vx, cx, kx = b_coeff(x, y)
                    vy, cy_, ky = b_coeff(y, z)
                    vz, cz, kz = b_coeff(x, z)
                    # B[x,y] + B[y,z] - B[x,z] <= 1
                    row: Dict[int, float] = {}
                    for var, coeff in ((vx, cx), (vy, cy_), (vz, -cz)):
                        row[var] = row.get(var, 0.0) + coeff
                    b.add_le(row, 1.0 - kx - ky + kz)

    # --- Ordering vs. start times, (15): A_i + C_i - A_j <= (1-B_ij)*|D|.
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            var, coeff, const = b_coeff(i, j)
            b.add_le(
                {
                    a_index[i]: 1.0,
                    c_index[i]: 1.0,
                    a_index[j]: -1.0,
                    var: big_m * coeff,
                },
                big_m * (1.0 - const),
            )

    # --- Z availability variables, (20): i available at step d only if
    #     its build finished by d: A_i + C_i - d <= (1-Z_id)*|D|.
    z_index: Dict[Tuple[int, int], int] = {}
    for i in range(n):
        for d in range(n_steps):
            z_index[(i, d)] = b.add_var(f"Z[{i},{d}]", 0, 1, integral=True)
            b.add_le(
                {
                    a_index[i]: 1.0,
                    c_index[i]: 1.0,
                    z_index[(i, d)]: big_m,
                },
                big_m + float(d),
            )

    # --- Y plan-choice variables, (16)-(17), objective (12)/(19).
    full_set = frozenset(range(n))
    for query in instance.queries:
        weight = query.weight
        plan_options: List[Tuple[frozenset, float]] = [(frozenset(), 0.0)]
        for plan_id in instance.plans_of_query(query.query_id):
            plan = instance.plans[plan_id]
            plan_options.append((plan.indexes, plan.speedup))
        # Imaginary all-indexes plan zeroing the runtime after full
        # deployment, so trailing steps cost nothing.
        plan_options.append((full_set, query.base_runtime))
        for d in range(n_steps):
            row: Dict[int, float] = {}
            for option_id, (members, speedup) in enumerate(plan_options):
                cost = (query.base_runtime - speedup) * weight
                y = b.add_var(
                    f"Y[{query.query_id},{option_id},{d}]",
                    0,
                    1,
                    integral=True,
                    objective=cost,
                )
                row[y] = 1.0
                for member in members:
                    b.add_le({y: 1.0, z_index[(member, d)]: -1.0}, 0.0)  # (17)
            b.add_eq(row, 1.0)  # (16)

    # --- Pre-analysis constraints (the "+" of MIP+): fix B variables.
    if constraints is not None:
        for before, after in constraints.precedence_edges:
            var, coeff, const = b_coeff(before, after)
            # B[before, after] = 1  ->  coeff*x = 1 - const
            b.add_eq({var: coeff}, 1.0 - const)

    A_ub, b_ub, A_eq, b_eq = b.matrices()
    return MIPModel(
        instance=instance,
        n_steps=n_steps,
        step_unit=step_unit,
        c=np.array(b.objective, dtype=float),
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=list(zip(b.lb, b.ub)),
        integral=np.array(b.integral, dtype=bool),
        var_names=b.var_names,
        b_index=b_index,
        a_index=a_index,
    )
