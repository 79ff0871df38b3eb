"""Unit tests for the solver registry (name -> factory resolution)."""

from __future__ import annotations

import pytest

from repro.errors import SolverError
from repro.solvers.base import Solver
from repro.solvers.registry import (
    SolverSpec,
    available_solvers,
    create,
    get_spec,
    register_factory,
    solver_specs,
)

EXPECTED = {
    "astar",
    "cp",
    "dp",
    "exhaustive",
    "greedy",
    "lns",
    "mip",
    "random",
    "subset-dp",
    "ts-bswap",
    "ts-fswap",
    "vns",
}


class TestDiscovery:
    def test_every_solver_registered(self):
        assert EXPECTED <= set(available_solvers())

    def test_names_sorted(self):
        names = available_solvers()
        assert list(names) == sorted(names)

    def test_create_returns_solver(self):
        for name in EXPECTED:
            solver = create(name)
            assert isinstance(solver, Solver)

    def test_create_forwards_kwargs(self):
        solver = create("vns", seed=7)
        assert solver.seed == 7
        tabu = create("ts-fswap", initial_order=[2, 0, 1])
        assert tabu.variant == "first"
        assert tabu.initial_order == [2, 0, 1]

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(SolverError, match="available:"):
            get_spec("does-not-exist")


class TestCapabilityFlags:
    def test_exact_solvers_flagged(self):
        specs = solver_specs()
        for name in ("exhaustive", "subset-dp", "astar", "cp", "mip"):
            assert specs[name].exact, name
        for name in ("greedy", "vns", "lns", "ts-bswap", "random"):
            assert not specs[name].exact, name

    def test_local_search_is_anytime_with_warm_start(self):
        specs = solver_specs()
        for name in ("vns", "lns", "ts-bswap", "ts-fswap"):
            assert specs[name].anytime, name
            assert specs[name].accepts_initial_order, name

    def test_stochastic_solvers_accept_seed(self):
        specs = solver_specs()
        for name, spec in specs.items():
            if spec.stochastic:
                assert create(name, seed=5) is not None, name


class TestRegistration:
    def test_register_factory_roundtrip(self):
        class _Dummy(Solver):
            name = "dummy"

            def solve(self, instance, constraints=None, budget=None):
                raise NotImplementedError

        spec = register_factory(
            "test-dummy", _Dummy, summary="test only", exact=False
        )
        try:
            assert isinstance(spec, SolverSpec)
            assert get_spec("test-dummy").summary == "test only"
            assert isinstance(create("test-dummy"), _Dummy)
        finally:
            from repro.solvers import registry

            registry._REGISTRY.pop("test-dummy", None)

    def test_cli_solver_table_mirrors_registry(self):
        from repro.cli import SOLVERS

        assert set(SOLVERS) == set(available_solvers())

    def test_duplicate_registration_raises(self):
        class _Dummy(Solver):
            name = "dummy"

            def solve(self, instance, constraints=None, budget=None):
                raise NotImplementedError

        register_factory("test-dup", _Dummy)
        try:
            # Silent overwrites used to mask name collisions; now they
            # fail loudly unless the caller opts in with replace=True.
            with pytest.raises(SolverError, match="already registered"):
                register_factory("test-dup", _Dummy)
            assert get_spec("test-dup").summary == ""
            replaced = register_factory(
                "test-dup", _Dummy, replace=True, summary="v2"
            )
            assert replaced.summary == "v2"
            assert get_spec("test-dup").summary == "v2"
        finally:
            from repro.solvers import registry

            registry._REGISTRY.pop("test-dup", None)
