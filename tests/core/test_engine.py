"""Unit tests for the shared incremental evaluation engine.

The engine is the production evaluation backend of every solver; these
tests pin its three capabilities (delta evaluation, built-set memo,
bound provider) against the reference :class:`ObjectiveEvaluator`.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.core.engine import EvalEngine, PrefixCursor, TranspositionTable
from repro.core.objective import ObjectiveEvaluator, PrefixCachedEvaluator
from repro.errors import ValidationError
from repro.experiments.instances import (
    reduced_tpch,
    tpcds_instance,
    tpch_instance,
)
from repro.solvers.greedy import greedy_order

from tests.conftest import make_paper_example, small_synthetic, tpcds_shaped


def checkpoint_steps(base, order, stride=16):
    """Steps a ``PrefixCachedEvaluator`` replays for ``order``: from the
    checkpoint at or before the first divergence to the end."""
    first = 0
    while first < len(base) and order[first] == base[first]:
        first += 1
    if first == len(base):
        return 0
    return len(base) - (first // stride) * stride


@pytest.fixture
def instance():
    return small_synthetic(seed=11, n=9, build_interaction_rate=1.5)


@pytest.fixture
def engine(instance):
    return EvalEngine(instance)


class TestFullEvaluation:
    def test_matches_reference(self, instance, engine):
        reference = ObjectiveEvaluator(instance)
        rng = random.Random(0)
        for _ in range(10):
            order = list(range(instance.n_indexes))
            rng.shuffle(order)
            assert engine.evaluate(order) == pytest.approx(
                reference.evaluate(order), rel=1e-12
            )

    def test_rejects_non_permutation(self, engine):
        with pytest.raises(ValidationError):
            engine.evaluate([0, 0, 1])

    def test_prefix_matches_reference(self, instance, engine):
        reference = ObjectiveEvaluator(instance)
        prefix = [3, 0, 5]
        assert engine.evaluate_prefix(prefix) == pytest.approx(
            reference.evaluate_prefix(prefix)
        )


class TestDeltaEvaluation:
    def test_swap_parity(self, instance, engine):
        reference = ObjectiveEvaluator(instance)
        n = instance.n_indexes
        base = list(range(n))
        engine.set_base(base)
        for pos_a in range(n):
            for pos_b in range(pos_a, n):
                candidate = base[:]
                candidate[pos_a], candidate[pos_b] = (
                    candidate[pos_b],
                    candidate[pos_a],
                )
                assert engine.eval_swap(pos_a, pos_b) == pytest.approx(
                    reference.evaluate(candidate), rel=1e-9
                )

    def test_relocate_and_insert_parity(self, instance, engine):
        reference = ObjectiveEvaluator(instance)
        n = instance.n_indexes
        rng = random.Random(1)
        base = list(range(n))
        rng.shuffle(base)
        engine.set_base(base)
        for src in range(n):
            for dst in range(n):
                candidate = base[:]
                moved = candidate.pop(src)
                candidate.insert(dst, moved)
                expected = reference.evaluate(candidate)
                assert engine.eval_relocate(src, dst) == pytest.approx(
                    expected, rel=1e-9
                )
                assert engine.eval_insert(base[src], dst) == pytest.approx(
                    expected, rel=1e-9
                )

    def test_relocate_parity_at_numpy_kernel_sizes(self):
        # No batch kernel scores insert moves, so the scalar path runs
        # at every size: check whole relocate rows of the search-tpcds
        # matrix (n=64) from its greedy order.
        instance = tpcds_shaped(64)
        reference = ObjectiveEvaluator(instance)
        engine = EvalEngine(instance)
        base = greedy_order(instance)
        engine.set_base(base)
        n = instance.n_indexes
        for src in random.Random(5).sample(range(n), 4):
            for dst in range(n):
                candidate = base[:]
                candidate.insert(dst, candidate.pop(src))
                expected = reference.evaluate(candidate)
                assert engine.eval_relocate(src, dst) == pytest.approx(
                    expected, rel=1e-9
                )
                assert engine.eval_insert(base[src], dst) == pytest.approx(
                    expected, rel=1e-9
                )

    def test_evaluate_neighbor_parity(self, instance, engine):
        reference = ObjectiveEvaluator(instance)
        n = instance.n_indexes
        rng = random.Random(2)
        base = list(range(n))
        engine.set_base(base)
        for _ in range(30):
            order = base[:]
            rng.shuffle(order)
            assert engine.evaluate_neighbor(order) == pytest.approx(
                reference.evaluate(order), rel=1e-9
            )

    def test_neighbor_equal_to_base(self, instance, engine):
        base = list(range(instance.n_indexes))
        objective = engine.set_base(base)
        assert engine.evaluate_neighbor(base) == objective

    def test_rebase_replays_only_suffix(self, instance, engine):
        n = instance.n_indexes
        base = list(range(n))
        engine.set_base(base)
        replayed_before = engine.stats.prefix_steps
        moved = base[:]
        moved[n - 2], moved[n - 1] = moved[n - 1], moved[n - 2]
        engine.set_base(moved)
        # Only the two changed tail positions are replayed.
        assert engine.stats.prefix_steps - replayed_before == 2

    def test_delta_requires_base(self, engine):
        with pytest.raises(ValidationError):
            engine.eval_swap(0, 1)

    def test_neighbor_rejects_foreign_permutation(self, instance, engine):
        base = list(range(instance.n_indexes))
        engine.set_base(base)
        with pytest.raises(ValidationError):
            engine.evaluate_neighbor(base[:-1])

    def test_strictly_fewer_replayed_steps_than_prefix_cache(self, instance):
        """The acceptance claim: on one move sequence the engine replays
        strictly fewer steps than PrefixCachedEvaluator would."""
        engine = EvalEngine(instance)
        cached = PrefixCachedEvaluator(instance)
        n = instance.n_indexes
        base = list(range(n))
        engine.set_base(base)
        cached.set_base(base)
        rng = random.Random(3)
        cached_steps = 0
        for _ in range(50):
            pos_a = rng.randrange(n)
            pos_b = rng.randrange(n)
            assert engine.eval_swap(pos_a, pos_b) == pytest.approx(
                cached.evaluate_swap(pos_a, pos_b), rel=1e-9
            )
            swapped = base[:]
            swapped[pos_a], swapped[pos_b] = swapped[pos_b], swapped[pos_a]
            cached_steps += checkpoint_steps(base, swapped, cached.stride)
        stats = engine.stats
        assert stats.delta_evals >= 50
        assert stats.replayed_steps < cached_steps


class TestMemoLayer:
    def test_runtime_memo_hits(self, instance, engine):
        mask = engine.mask_of([0, 2, 4])
        first = engine.runtime_of(mask)
        misses = engine.stats.memo_misses
        second = engine.runtime_of(mask)
        assert first == second == instance.total_runtime({0, 2, 4})
        assert engine.stats.memo_misses == misses
        assert engine.stats.memo_hits >= 1

    def test_runtime_accepts_iterables(self, instance, engine):
        assert engine.runtime_of({1, 3}) == engine.runtime_of(
            engine.mask_of([1, 3])
        )

    def test_build_cost_matches_instance(self, instance, engine):
        for index_id in range(instance.n_indexes):
            built = {i for i in range(instance.n_indexes) if i != index_id}
            assert engine.build_cost_in(
                index_id, engine.mask_of(built)
            ) == pytest.approx(instance.build_cost(index_id, built))

    def test_transposition_dominance(self, engine):
        table = engine.new_transposition_table()
        assert table.cut(0b101, 10.0) is None  # first arrival recorded
        assert table.cut(0b101, 10.0) == 0.0  # equal arrival pruned
        assert table.cut(0b101, 11.0) == 0.0  # worse arrival pruned
        assert table.cut(0b101, 9.0) is None  # better arrival explores
        assert table.cut(0b101, 9.5) == 0.0  # ... and updates the record
        assert engine.stats.tt_prunes == 3
        assert engine.stats.tt_states == 1
        assert len(table) == 1

    def test_learned_bound_cuts_better_prefixes(self, engine):
        table = engine.new_transposition_table()
        assert table.cut(0b11, 10.0, 100.0) is None
        assert table.learn(0b11, 50.0) == 50.0
        assert table.learn(0b11, 40.0) == 50.0  # only ever raised
        # Better than the recorded prefix, but 9 + 50 reaches the cutoff:
        # cut, reporting the learned bound.
        assert table.cut(0b11, 9.0, 59.0) == 50.0
        # Below the cutoff the better prefix is recorded and explored.
        assert table.cut(0b11, 8.0, 59.0) is None
        assert table.cut(0b11, 8.5, math.inf) == 50.0  # dominated
        assert engine.stats.tt_prunes == 2
        assert engine.stats.tt_states == 1

    def test_tables_are_independent(self, engine):
        first = engine.new_transposition_table()
        second = engine.new_transposition_table()
        assert first.cut(0b1, 1.0) is None
        assert second.cut(0b1, 2.0) is None  # separate searches


def _mask_walk(n, steps, seed):
    """Built-set masks along a random walk: mostly single-bit flips
    (an A* child, a tail step), every tenth step a random jump."""
    rng = random.Random(seed)
    mask = 0
    masks = []
    for step in range(steps):
        if step % 10 == 9:
            mask = rng.getrandbits(n)
        else:
            mask ^= 1 << rng.randrange(n)
        masks.append(mask)
    return masks


class TestRuntimeDelta:
    """A memo miss is a delta over the previous miss's per-query bests;
    its value must equal ``total_runtime`` bit for bit."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(tpch_instance, id="tpch"),
            pytest.param(tpcds_instance, id="tpcds"),
            pytest.param(lambda: reduced_tpch(14, "mid"), id="14-mid"),
        ],
    )
    def test_walk_matches_total_runtime_bit_for_bit(self, make):
        instance = make()
        n = instance.n_indexes
        engine = EvalEngine(instance)
        for mask in _mask_walk(n, 600, seed=n):
            members = {i for i in range(n) if mask >> i & 1}
            expected = instance.total_runtime(members)
            assert engine.runtime_of(mask).hex() == expected.hex(), mask
        assert engine.stats.memo_misses > 400

    def test_order_evaluation_builds_no_delta_tables(self, instance, engine):
        engine.set_base(list(range(instance.n_indexes)))
        engine.eval_swap(0, 3)
        engine.evaluate(list(reversed(range(instance.n_indexes))))
        assert engine._query_plans is None
        engine.runtime_of(0b11)
        assert engine._query_plans is not None


class TestPrefixCursor:
    def test_push_pop_roundtrip_is_exact(self, instance, engine):
        cursor = PrefixCursor(engine)
        cursor.push(0)
        objective_1 = cursor.objective
        runtime_1 = cursor.runtime
        cursor.push(1)
        cursor.push(2)
        cursor.pop()
        cursor.pop()
        # Bit-exact restore, not approximate.
        assert cursor.objective == objective_1
        assert cursor.runtime == runtime_1
        assert cursor.stack == (0,)

    def test_align_counts_pushes(self, instance, engine):
        cursor = PrefixCursor(engine)
        assert cursor.align([0, 1, 2]) == 3
        assert cursor.align([0, 1, 3]) == 1
        assert cursor.align([0, 1]) == 0
        assert cursor.depth == 2


class TestChunkedNeighbor:
    """Balanced-chunk decomposition and base snapshots in
    :meth:`EvalEngine.evaluate_neighbor` (the scattered-neighbor path
    LNS relaxations produce)."""

    @pytest.fixture
    def big_instance(self):
        return small_synthetic(seed=23, n=48, build_interaction_rate=1.5)

    @staticmethod
    def _scattered(base, rng, pairs=3, min_gap=18):
        """A permutation differing from ``base`` in a few distant spots."""
        order = base[:]
        n = len(order)
        positions = sorted(rng.sample(range(n - 1), pairs))
        for pos in positions:
            order[pos], order[pos + 1] = order[pos + 1], order[pos]
        del min_gap  # sampling over n=48 spreads pairs widely enough
        return order

    def test_scattered_neighbor_parity(self, big_instance):
        reference = ObjectiveEvaluator(big_instance)
        engine = EvalEngine(big_instance)
        rng = random.Random(7)
        base = list(range(big_instance.n_indexes))
        rng.shuffle(base)
        engine.set_base(base)
        # Enough far jumps to cross the lazy-snapshot threshold, so the
        # loop covers the contiguous fallback *and* the snapshot path.
        for _ in range(12):
            order = self._scattered(base, rng)
            assert engine.evaluate_neighbor(order) == pytest.approx(
                reference.evaluate(order), rel=1e-9
            )
        assert engine._snapshots is not None

    def test_snapshots_build_lazily(self, big_instance):
        engine = EvalEngine(big_instance)
        rng = random.Random(11)
        base = list(range(big_instance.n_indexes))
        engine.set_base(base)
        assert engine._snapshots is None
        # A single far jump does not pay the snapshot build cost...
        engine.evaluate_neighbor(self._scattered(base, rng))
        assert engine._snapshots is None
        # ...but a repeated far-jump pattern does.
        builds_at = None
        for attempt in range(2, 9):
            engine.evaluate_neighbor(self._scattered(base, rng))
            if engine._snapshots is not None:
                builds_at = attempt
                break
        assert builds_at is not None

    def test_rebase_invalidates_snapshots(self, big_instance):
        engine = EvalEngine(big_instance)
        rng = random.Random(13)
        base = list(range(big_instance.n_indexes))
        engine.set_base(base)
        for _ in range(6):
            engine.evaluate_neighbor(self._scattered(base, rng))
        assert engine._snapshots is not None
        moved = base[:]
        moved[-1], moved[-2] = moved[-2], moved[-1]
        engine.set_base(moved)
        assert engine._snapshots is None
        assert engine._far_jumps == 0

    def test_chunked_eval_still_counts_stats(self, big_instance):
        engine = EvalEngine(big_instance)
        rng = random.Random(17)
        base = list(range(big_instance.n_indexes))
        engine.set_base(base)
        cached_steps = 0
        for _ in range(8):
            order = self._scattered(base, rng)
            engine.evaluate_neighbor(order)
            cached_steps += checkpoint_steps(base, order)
        stats = engine.stats
        assert stats.delta_evals == 8
        assert 0 < stats.replayed_steps < cached_steps


class TestStats:
    def test_evaluations_aggregate(self, instance, engine):
        base = list(range(instance.n_indexes))
        engine.set_base(base)
        engine.eval_swap(0, 1)
        engine.evaluate(base)
        engine.evaluate_prefix([0])
        stats = engine.stats
        assert stats.evaluations == (
            stats.full_evals + stats.delta_evals + stats.prefix_evals
        )
        assert set(stats.as_dict()) >= {
            "delta_evals",
            "replayed_steps",
            "memo_hits",
        }

    def test_reset(self, instance, engine):
        engine.evaluate(list(range(instance.n_indexes)))
        engine.stats.reset()
        assert engine.stats.evaluations == 0

    def test_batch_counters_in_dict_and_reset(self, instance):
        engine = EvalEngine(instance, kernel="scalar")
        engine.set_base(list(range(instance.n_indexes)))
        engine.eval_all_swaps()
        stats = engine.stats
        assert stats.batch_evals == 1
        # The scalar kernel scores moves through eval_swap, so they are
        # counted as delta evals rather than vectorized batch moves.
        assert stats.batch_moves == 0
        assert set(stats.as_dict()) >= {
            "batch_evals",
            "batch_moves",
            "batch_numpy",
        }
        stats.reset()
        assert stats.batch_evals == 0
        assert stats.evaluations == 0


class TestBoundProvider:
    def test_paper_example_bound_positive(self):
        instance = make_paper_example()
        engine = EvalEngine(instance)
        assert engine.suffix_bound(instance.total_base_runtime, 0) > 0.0

    def test_bound_zero_when_done(self, instance, engine):
        full = engine.mask_of(range(instance.n_indexes))
        assert engine.suffix_bound(engine.runtime_of(full), full) == 0.0

    def test_admissible_everywhere_small(self):
        instance = small_synthetic(seed=4, n=5)
        engine = EvalEngine(instance)
        reference = ObjectiveEvaluator(instance)
        for order in itertools.permutations(range(5)):
            total = reference.evaluate(list(order))
            for split in range(5):
                prefix = list(order[:split])
                objective, runtime, _ = reference.evaluate_prefix(prefix)
                bound = engine.suffix_bound(runtime, set(prefix))
                assert objective + bound <= total + 1e-6
