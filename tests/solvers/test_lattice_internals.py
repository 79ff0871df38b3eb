"""Unit tests for the subset-lattice machinery shared by A* and DP."""

from __future__ import annotations

import pytest

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine
from repro.core.objective import ObjectiveEvaluator
from repro.core.solution import SolveStatus
from repro.solvers import registry
from repro.solvers.astar import AStarSolver, _Lattice, _deployment_units

from tests.conftest import brute_force_best, make_paper_example, small_synthetic


class TestDeploymentUnits:
    def test_no_constraints_singletons(self):
        assert _deployment_units(3, None) == [(0,), (1,), (2,)]

    def test_consecutive_pair_collapsed(self):
        constraints = ConstraintSet(4)
        constraints.add_consecutive(1, 3)
        units = _deployment_units(4, constraints)
        assert (1, 3) in units
        assert (0,) in units
        assert (2,) in units

    def test_chain_of_three(self):
        constraints = ConstraintSet(4)
        constraints.add_consecutive(0, 2)
        constraints.add_consecutive(2, 3)
        units = _deployment_units(4, constraints)
        assert (0, 2, 3) in units
        assert len(units) == 2

    def test_units_partition_indexes(self):
        constraints = ConstraintSet(6)
        constraints.add_consecutive(4, 1)
        units = _deployment_units(6, constraints)
        members = sorted(m for unit in units for m in unit)
        assert members == list(range(6))


class TestLattice:
    def test_runtime_cached_and_correct(self):
        instance = small_synthetic(seed=0, n=5)
        lattice = _Lattice(instance, None, EvalEngine(instance))
        full = (1 << 5) - 1
        assert lattice.runtime(0) == pytest.approx(
            instance.total_base_runtime
        )
        assert lattice.runtime(full) == pytest.approx(
            instance.total_runtime(range(5))
        )
        # Second call hits the cache (same object identity not required,
        # just correctness).
        assert lattice.runtime(full) == lattice.runtime(full)

    def test_unit_cost_matches_evaluator_step(self):
        instance = make_paper_example()
        lattice = _Lattice(instance, None, EvalEngine(instance))
        evaluator = ObjectiveEvaluator(instance)
        # Deploy index 1 first, then unit 0 from mask {1}.
        objective_0, cost_0 = lattice.unit_cost(1, 0)
        schedule = evaluator.schedule([1, 0])
        assert objective_0 == pytest.approx(schedule.steps[0].area)
        objective_1, cost_1 = lattice.unit_cost(0, 1 << 1)
        assert objective_1 == pytest.approx(schedule.steps[1].area)
        assert cost_1 == pytest.approx(schedule.steps[1].build_cost)

    def test_heuristic_admissible(self):
        instance = small_synthetic(seed=3, n=6)
        lattice = _Lattice(instance, None, EvalEngine(instance))
        _, optimum = brute_force_best(instance)
        assert lattice.heuristic(0) <= optimum + 1e-6

    def test_expandable_blocks_predecessors(self):
        instance = small_synthetic(seed=1, n=4)
        constraints = ConstraintSet(4)
        constraints.add_precedence(2, 0)
        lattice = _Lattice(instance, constraints, EvalEngine(instance))
        unit_of = {unit: i for i, unit in enumerate(lattice.units)}
        unit_0 = unit_of[(0,)]
        assert unit_0 not in lattice.expansions(0)  # 2 not built yet
        assert unit_0 in lattice.expansions(1 << 2)

    def test_expandable_rejects_already_built(self):
        instance = small_synthetic(seed=1, n=4)
        lattice = _Lattice(instance, None, EvalEngine(instance))
        assert lattice.expansions(1 << 0) == [1, 2, 3]


class TestAStarWithUnits:
    def test_astar_respects_consecutive_constraints(self):
        instance = small_synthetic(seed=5, n=6)
        constraints = ConstraintSet(6)
        constraints.add_consecutive(0, 4)
        result = AStarSolver().solve(instance, constraints=constraints)
        order = result.solution.order
        assert order.index(4) == order.index(0) + 1
        _, best = brute_force_best(instance, constraints)
        assert result.solution.objective == pytest.approx(best)


class TestInjectedEngine:
    @pytest.mark.parametrize("name", ["astar", "subset-dp"])
    def test_lattice_solvers_use_the_injected_engine(self, name):
        instance = small_synthetic(seed=2, n=6)
        solver = registry.create(name)
        solver.engine = EvalEngine(instance)
        result = solver.solve(instance)
        assert result.status is SolveStatus.OPTIMAL
        # The lattice's built-set runtimes went through this engine.
        assert solver.engine.stats.memo_misses > 0
