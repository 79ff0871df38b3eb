"""Vectorized swap-neighborhood evaluation over flattened instance arrays.

The scalar delta path in :class:`~repro.core.engine.EvalEngine` answers
one move at a time by replaying the move's divergence window.  A tabu
scan asks for *every* pairwise swap of the base order — O(n^2) Python
calls, each replaying an O(n) window.  This module scores the whole
neighborhood with a fixed number of numpy calls per base order: no
Python loop runs over rows, queries, plan groups or indexes.

The key identity: swapping positions ``a < b`` (``x = order[a]``,
``y = order[b]``) leaves every step of the window ``(a, b)`` building
the same index as the base order, over a built-set that differs from
the base prefix only by *x missing* and *y present*.  So the swapped
objective decomposes into

* an **x-removed baseline**: the base trajectory with ``x`` deleted —
  runtime ``R-``, step costs ``costx`` and their running sum.  Only
  queries that have a plan through ``x`` can lose speed-up, so the
  baseline of every row comes from one ``(index, query)``-pair table
  of x-removed best speed-ups, and only steps where ``x`` was the best
  build helper change cost; and
* a **deviation term** from ``y`` being available early: a plan whose
  *last* member sits at position ``b`` completes as soon as its other
  members are built, which lowers the runtime of the remaining window
  steps.  Plans sharing a completion position ``b`` and a query form a
  *group*; each (group, step) incidence is a *cell* whose value
  ``weight * max(0, A - qbest)`` (``A`` = the group's running best
  speed-up) depends only on the base order.  Cells are summed once per
  base into ``(n, n)`` matrices; a row only re-scores the sparse cells
  whose value depends on ``x``: cells of groups holding an x-plan, and
  cells at (query, step) where removing ``x`` lowers the query's best
  speed-up.

Everything here is exact with respect to the scalar replay semantics —
the tests assert elementwise agreement with ``eval_swap`` — up to float
summation order.

Kernels: ``numpy`` (this module) and ``scalar`` (the engine's delta
path, looped).  ``auto`` picks numpy from :data:`NUMPY_MIN_N` indexes
up, so TPC-H (n=32) and TPC-DS (n=139) scans are vectorized, while
reduced TPC-H cells below that size stay scalar.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.engine import EvalEngine, PrefixCursor

__all__ = [
    "KERNELS",
    "NUMPY_MIN_N",
    "BatchNeighborhood",
    "FlatInstance",
    "precedence_matrix",
    "resolve_kernel",
    "swap_feasibility_mask",
]

KERNELS = ("auto", "scalar", "numpy")

#: ``auto`` switches to the numpy kernel at this instance size.  A numpy
#: scan costs about 1 ms of per-base setup whatever the size, while a
#: scalar scan grows as n^3: on reduced TPC-H the two break even near
#: n=15, and from n=20 numpy wins by about 1.5x (about 2x at 22, 5-6x
#: at TPC-H's 32; the ``crossover`` row of ``BENCH_batch.json``).
NUMPY_MIN_N = 20


def resolve_kernel(requested: Optional[str], n: int) -> str:
    """Map a requested kernel name to the one that will actually run.

    ``auto`` (also the default for ``None``) → numpy for large
    instances, scalar otherwise.
    """
    kernel = requested or "auto"
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}, expected one of {KERNELS}")
    if kernel == "auto":
        kernel = "numpy" if n >= NUMPY_MIN_N else "scalar"
    return kernel


def _ranges(lo, hi):
    """``(concatenated arange(lo[i], hi[i]), owner i of each entry)``."""
    lens = np.maximum(hi - lo, 0)
    owner = np.repeat(np.arange(len(lens)), lens)
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(lo - ends + lens, lens), owner


# ----------------------------------------------------------------------
# Instance lowering
# ----------------------------------------------------------------------
class FlatInstance:
    """A :class:`ProblemInstance` lowered to contiguous numpy arrays.

    Layout (all arrays C-contiguous; see ARCHITECTURE.md):

    * ``plan_query[p]``, ``plan_speedup[p]`` — per-plan query id and
      speedup; ``plan_rank[p]`` indexes ``speed_table`` (dense rank,
      0 = speed-up 0.0) so running maxima can be taken over integers.
    * ``plan_members[p, :]`` — member index ids, padded with ``-1``
      (width = largest plan).
    * ``poi_indptr`` / ``poi_flat`` — CSR plans-of-index incidence, and
      ``inc_index``, the index of each ``poi_flat`` entry.
    * ``pair_x`` / ``pair_q`` — every (index, query) pair where the
      query has a plan through the index, sorted; ``qx_indptr`` is its
      CSR by index and ``pair_of[x, q]`` the pair id (``-1`` if none).
    * ``xq_pair`` / ``xq_plan`` — for each pair, the plans of its query
      that do *not* contain its index (what is left of the query's
      best speed-up once the index is removed).
    * ``ctime[i]``, ``qweight[q]`` — cost vectors.
    * ``cs[t, h]`` — dense build-interaction matrix (saving on target
      ``t`` when helper ``h`` is already built; 0 when none).
    * ``itgt`` / ``ihlp`` / ``isav`` — the interaction triples, flat.
    * ``cursor`` — a :class:`PrefixCursor` on a scalar
      :class:`EvalEngine` over the same instance, which replays each
      base trajectory (re-deploying only what differs from the last).

    None of these depend on a base order; everything is built with
    vector ops except the interaction triples.
    """

    def __init__(self, instance) -> None:
        n = instance.n_indexes
        m = instance.n_queries
        plans = instance.plans
        self.instance = instance
        self.n = n
        self.n_queries = m
        self.n_plans = len(plans)
        self.plan_query = np.array(
            [p.query_id for p in plans], dtype=np.int64
        )
        self.plan_speedup = np.array(
            [p.speedup for p in plans], dtype=np.float64
        )
        values, inverse = np.unique(self.plan_speedup, return_inverse=True)
        self.speed_table = np.concatenate(([0.0], values))
        self.plan_rank = inverse + 1
        width = max((len(p.indexes) for p in plans), default=1)
        members = np.full((self.n_plans, width), -1, dtype=np.int64)
        for pid, plan in enumerate(plans):
            members[pid, : len(plan.indexes)] = sorted(plan.indexes)
        self.plan_members = members
        inc_plan, slot = np.nonzero(members >= 0)
        inc_index = members[inc_plan, slot]
        by_index = np.lexsort((inc_plan, inc_index))
        self.poi_flat = inc_plan[by_index]
        self.poi_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(inc_index, minlength=n), out=self.poi_indptr[1:])
        self.inc_index = inc_index[by_index]
        pairs = np.unique(inc_index * m + self.plan_query[inc_plan])
        self.pair_x, self.pair_q = pairs // m, pairs % m
        self.qx_indptr = np.searchsorted(self.pair_x, np.arange(n + 1))
        self.pair_of = np.full((n, m), -1, dtype=np.int64)
        self.pair_of[self.pair_x, self.pair_q] = np.arange(len(pairs))
        by_query = np.argsort(self.plan_query, kind="stable")
        q_indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.plan_query, minlength=m), out=q_indptr[1:])
        at, pair = _ranges(q_indptr[self.pair_q], q_indptr[self.pair_q + 1])
        plan = by_query[at]
        keep = ~(members[plan] == self.pair_x[pair][:, None]).any(axis=1)
        self.xq_pair, self.xq_plan = pair[keep], plan[keep]
        # xq_cell + qL[plan]: the flat position of (pair, column qL + 1)
        # in a (pairs, n + 1) table.
        self.xq_cell = self.xq_pair * (n + 1) + 1
        self.xq_rank = self.plan_rank[self.xq_plan]
        self.ctime = np.array(
            [ix.create_cost for ix in instance.indexes], dtype=np.float64
        )
        self.qweight = np.array(
            [q.weight for q in instance.queries], dtype=np.float64
        )
        self.cs = np.zeros((n, n), dtype=np.float64)
        triples = [
            (target, helper, saving)
            for target in range(n)
            for helper, saving in instance.build_helpers(target)
        ]
        for target, helper, saving in triples:
            self.cs[target, helper] = max(self.cs[target, helper], saving)
        self.itgt = np.array([t for t, _, _ in triples], dtype=np.int64)
        self.ihlp = np.array([h for _, h, _ in triples], dtype=np.int64)
        self.isav = np.array([s for _, _, s in triples], dtype=np.float64)
        self.cursor = PrefixCursor(EvalEngine(instance))


def precedence_matrix(constraints, n: int):
    """Bool matrix ``B[a, b]`` = "index a must precede index b"."""
    B = np.zeros((n, n), dtype=bool)
    if constraints is None:
        return B
    for b in range(n):
        mask = constraints.predecessor_mask(b)
        if mask:
            for a in range(n):
                if mask >> a & 1:
                    B[a, b] = True
    return B


def swap_feasibility_mask(order, constraints, scalar_check=None):
    """``(n, n)`` bool mask of precedence/consecutive-feasible swaps.

    Precedence is fully vectorized; the handful of cells whose swap
    window touches a consecutive-pair member is re-checked with the
    injected ``scalar_check`` (``neighborhood.swap_feasible``) so the
    mask matches the scalar predicate cell-for-cell.
    """
    n = len(order)
    if constraints is None:
        return np.ones((n, n), dtype=bool)
    orderv = np.asarray(order, dtype=np.int64)
    B = precedence_matrix(constraints, n)
    PB = B[orderv][:, orderv]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    # bad1[a, b] = any t in (a, b] with order[a] before order[t]
    bad1 = np.logical_or.accumulate(PB & upper, axis=1)
    # bad2[a, b] = any t in [a, b) with order[t] before order[b]
    bad2 = np.logical_or.accumulate((PB & upper)[::-1], axis=0)[::-1]
    feasible = ~(bad1 | bad2)
    feasible &= upper
    feasible |= feasible.T
    np.fill_diagonal(feasible, True)
    pairs = constraints.consecutive_pairs
    if pairs and scalar_check is not None:
        touched = set()
        pos = {int(ix): p for p, ix in enumerate(order)}
        for first, second in pairs:
            for member in (first, second):
                p = pos[member]
                touched.update(
                    q for q in (p - 1, p, p + 1) if 0 <= q < n
                )
        for a in range(n - 1):
            for b in range(a + 1, n):
                if a in touched or b in touched:
                    ok = scalar_check(order, a, b, constraints)
                    feasible[a, b] = feasible[b, a] = ok
    elif pairs:  # pragma: no cover - engine always injects the checker
        raise ValueError(
            "consecutive pairs present but no scalar checker injected"
        )
    return feasible


# ----------------------------------------------------------------------
# The numpy swap kernel
# ----------------------------------------------------------------------
class BatchNeighborhood:
    """Batch swap scoring bound to one base order of one instance.

    The constructor computes everything that depends on the base order
    alone (trajectory, groups, cells); :meth:`score_swap_neighborhood`
    adds what depends on the row's removed index ``x``, for all rows at
    once, by re-scoring two sparse cell sets: cells at a *diff entry*
    (a query and step where removing ``x`` lowers the query's best
    speed-up) and cells of groups holding an x-plan whose running best
    drops without it.  Array names: ``k`` is a step (position), ``b`` a
    group's completion position, ``q`` a query, and a ``(n, n)`` matrix
    is indexed ``[a, b]`` or ``[b, k]`` as its comment says.
    """

    def __init__(self, flat: FlatInstance, order: Sequence[int]) -> None:
        n, m = flat.n, flat.n_queries
        table = flat.speed_table
        self.flat = flat
        self.order = order = np.asarray(order, dtype=np.int64)
        self.pos = pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)

        # --- base trajectory through the deployment primitive ---------
        # The shared cursor re-deploys only the suffix after the prefix
        # this base has in common with the previous one.
        cursor = flat.cursor
        cursor.align([int(i) for i in order])
        self.P = np.array(cursor.prefix_objectives())
        self.R0 = np.array(cursor.prefix_runtimes())
        self.objective = cursor.objective

        # --- plan completion: last (qL) and second-last (q2) member ---
        mem = flat.plan_members
        mem_pos = np.where(mem >= 0, pos[mem], -1)
        self.qL = qL = mem_pos.max(axis=1)
        q2 = np.where(mem_pos == qL[:, None], -1, mem_pos).max(axis=1)
        # QB0r[q, k] = rank of query q's best speed-up entering step k,
        # and QB0 the speed-up itself.
        self.QB0r = QBr = np.zeros((m, n + 1), dtype=np.int64)
        np.maximum.at(
            QBr.reshape(-1), flat.plan_query * (n + 1) + qL + 1, flat.plan_rank
        )
        np.maximum.accumulate(QBr, axis=1, out=QBr)
        self.QB0 = QB = table[QBr]

        # --- build costs: best helper per step, and the runner-up ----
        available = np.where(
            pos[None, :] < np.arange(n)[:, None], flat.cs[order], 0.0
        )
        sx0 = available.max(axis=1)
        argh = np.where(sx0 > 0.0, available.argmax(axis=1), -1)
        self.help_steps = steps = np.flatnonzero(argh >= 0)
        self.help_rows = pos[argh[steps]]
        available[steps, argh[steps]] = 0.0
        self.sx0, self.sx2 = sx0, available.max(axis=1)
        self.cost0 = flat.ctime[order] - sx0
        # hs[i, k] = best saving for i from helpers at positions < k.
        self.hs = hs = np.zeros((n, n + 1))
        np.maximum.at(
            hs.reshape(-1), flat.itgt * (n + 1) + pos[flat.ihlp] + 1, flat.isav
        )
        np.maximum.accumulate(hs, axis=1, out=hs)

        # --- groups: plans sorted by (qL, query, q2) ------------------
        n_plans = flat.n_plans
        self.srt = srt = np.lexsort((q2, flat.plan_query, qL))
        q_s, self.b_s = flat.plan_query[srt], qL[srt]
        self.q2s = q2[srt]
        first = np.ones(n_plans, dtype=bool)
        first[1:] = (self.b_s[1:] != self.b_s[:-1]) | (q_s[1:] != q_s[:-1])
        self.gp_lo = np.flatnonzero(first)
        self.gp_hi = np.append(self.gp_lo, n_plans)[1:]
        gid_s = np.cumsum(first) - 1
        self.gid = np.empty(n_plans, dtype=np.int64)
        self.gid[srt] = gid_s
        self.grow, self.gq = self.b_s[self.gp_lo], q_s[self.gp_lo]
        self.n_groups = G = len(self.gp_lo)
        # Running best speed-up rank within each group, in q2 order;
        # plan s sets it over steps q2s[s] < k <= seg_hi[s] (up to the
        # next plan's q2, or b - 1 for the group's last plan).
        run = np.maximum.accumulate(flat.plan_rank[srt] + gid_s * len(table))
        self.run = run - gid_s * len(table)
        self.gA0 = table[self.run[self.gp_hi - 1]]
        last_plan = np.zeros(n_plans, dtype=bool)
        last_plan[self.gp_hi - 1] = True
        self.seg_hi = np.where(last_plan, self.b_s - 1, np.append(self.q2s[1:], 0))

        # --- cells: (group, step) where y = order[b] completes early --
        ck, cplan = _ranges(self.q2s + 1, self.seg_hi + 1)
        cb, cq = self.b_s[cplan], q_s[cplan]
        cA0 = table[self.run[cplan]]
        d0 = flat.qweight[cq] * np.maximum(cA0 - QB[cq, ck], 0.0)
        keys = cb * n + ck
        # M[b, k] = cost-weighted deviation, D0[b, k] the same without
        # the cost; CUMM/rowtot give each row's suffix in O(1).
        M = np.bincount(keys, weights=d0 * self.cost0[ck], minlength=n * n)
        self.D0 = np.bincount(keys, weights=d0, minlength=n * n).reshape(n, n)
        self.CUMM = np.cumsum(M.reshape(n, n), axis=1)
        self.rowtot = self.CUMM[:, -1]
        # Retire-step drop at k = b from each group completing early.
        self.gd0 = flat.qweight[self.gq] * np.maximum(
            self.gA0 - QB[self.gq, self.grow], 0.0
        )
        self.DR0 = np.bincount(self.grow, weights=self.gd0, minlength=n)
        # Cells by (query, step), best running speed-up first, as CSR;
        # qk_key finds the cells whose speed-up beats a given rank.
        qk = cq * (n + 1) + ck
        key = qk * len(table) + (len(table) - 1 - self.run[cplan])
        by_qk = np.argsort(key)
        self.qk_key = key[by_qk]
        self.qk_b, self.qk_A0, self.qk_d0 = cb[by_qk], cA0[by_qk], d0[by_qk]
        self.qk_start = np.zeros(m * (n + 1) + 1, dtype=np.int64)
        np.cumsum(np.bincount(qk, minlength=m * (n + 1)), out=self.qk_start[1:])
        self.group_at = np.full(m * (n + 1), -1, dtype=np.int64)
        self.group_at[self.gq * (n + 1) + self.grow] = np.arange(G)

        # --- interactions whose helper comes after its target ---------
        kpos, bpos = pos[flat.itgt], pos[flat.ihlp]
        ahead = bpos > kpos
        self.ikpos, self.ibpos = kpos[ahead], bpos[ahead]
        self.isav = flat.isav[ahead]
        # Compact ids of the (b, k) cells those interactions touch.
        self.patch_keys = np.unique(self.ibpos * n + self.ikpos)
        self.patch_id = np.full(n * n, -1, dtype=np.int64)
        self.patch_id[self.patch_keys] = np.arange(len(self.patch_keys))

    @property
    def base_objective(self) -> float:
        return self.objective

    # ------------------------------------------------------------------
    def score_swap_neighborhood(self):
        """Full ``(n, n)`` objective matrix for all pairwise swaps."""
        flat, n, G = self.flat, self.flat.n, self.n_groups
        order, pos, ctime, qweight = self.order, self.pos, flat.ctime, flat.qweight
        table = flat.speed_table

        # --- x-removed best speed-up ranks, one row per (index, query)
        # pair: QBX[j, k] is pair j's query entering step k once its
        # index is removed; it differs from QB0r only at diff entries.
        QBX = np.zeros((len(flat.pair_x), n + 1), dtype=np.int64)
        np.maximum.at(
            QBX.reshape(-1), flat.xq_cell + self.qL[flat.xq_plan], flat.xq_rank
        )
        np.maximum.accumulate(QBX, axis=1, out=QBX)
        dj, dk = np.nonzero(QBX[:, :n] < self.QB0r[flat.pair_q, :n])
        dr = QBX[dj, dk]
        dv = table[dr]
        da, dq = pos[flat.pair_x[dj]], flat.pair_q[dj]
        qk = dq * (n + 1) + dk
        # Rm[a, k]: runtime entering step k with order[a] removed.
        Rm = self.R0[None, :n] + np.bincount(
            da * n + dk,
            weights=qweight[dq] * (self.QB0[dq, dk] - dv),
            minlength=n * n,
        ).reshape(n, n)
        # costx[a, k] / sxv[a, k]: step cost and best helper saving.
        steps, rows = self.help_steps, self.help_rows
        costx = np.repeat(self.cost0[None, :], n, axis=0)
        costx[rows, steps] = ctime[order[steps]] - self.sx2[steps]
        sxv = np.repeat(self.sx0[None, :], n, axis=0)
        sxv[rows, steps] = self.sx2[steps]
        CC = np.zeros((n, n + 1))
        np.cumsum(Rm * costx, axis=1, out=CC[:, 1:])

        # --- cells at a diff entry, re-scored at the lowered best ------
        # (only cells whose running best beats it can change)
        cell, entry = _ranges(
            self.qk_start[qk],
            np.searchsorted(self.qk_key, qk * len(table) + len(table) - 1 - dr),
        )
        e_d = (
            qweight[dq[entry]] * np.maximum(self.qk_A0[cell] - dv[entry], 0.0)
            - self.qk_d0[cell]
        )
        a_d, b_d, k_d = da[entry], self.qk_b[cell], dk[entry]
        # ... and the group completing at that step, if any.
        gd = self.group_at[qk]
        has = gd >= 0
        ge_d = (
            qweight[dq[has]] * np.maximum(self.gA0[gd[has]] - dv[has], 0.0)
            - self.gd0[gd[has]]
        )

        # --- groups holding an x-plan, where their running best drops -
        keep = self.qL[flat.poi_flat] > pos[flat.inc_index]
        s1 = np.unique(
            pos[flat.inc_index[keep]] * G + self.gid[flat.poi_flat[keep]]
        )
        s1a, s1g = s1 // G, s1 % G
        sp, pair = _ranges(self.gp_lo[s1g], self.gp_hi[s1g])
        plan = self.srt[sp]
        has_x = (flat.plan_members[plan] == order[s1a[pair], None]).any(1)
        run = np.maximum.accumulate(
            np.where(has_x, 0, flat.plan_rank[plan]) + pair * len(table)
        )
        run -= pair * len(table)
        moved = run != self.run[sp]
        j1 = flat.pair_of[order[s1a], self.gq[s1g]]
        # Cells of each moved plan's segment, from step a + 1 on; the
        # diff-entry term already re-scored them at the lowered best, so
        # this adds only the change in the running best.
        mo, mat = pair[moved], sp[moved]
        k_g, own = _ranges(
            np.maximum(self.q2s[mat] + 1, s1a[mo] + 1), self.seg_hi[mat] + 1
        )
        mo, mat = mo[own], mat[own]
        qv = table[QBX[j1[mo], k_g]]
        e_g = qweight[self.gq[s1g[mo]]] * (
            np.maximum(table[run[moved]][own] - qv, 0.0)
            - np.maximum(table[self.run[mat]] - qv, 0.0)
        )
        a_g, b_g = s1a[mo], self.b_s[mat]
        ends = np.cumsum(self.gp_hi[s1g] - self.gp_lo[s1g]) - 1
        ch = moved[ends]
        rv = table[QBX[j1[ch], self.grow[s1g[ch]]]]
        ge_g = qweight[self.gq[s1g[ch]]] * (
            np.maximum(table[run[ends[ch]]] - rv, 0.0)
            - np.maximum(self.gA0[s1g[ch]] - rv, 0.0)
        )

        # --- deviation-window and retire-step corrections --------------
        # Each re-scored cell (row a, group row b, step k, change e)
        # moves the row's window deviation; EX keeps the cost-free
        # change at the cells a build-helper patch reads.
        npatch = len(self.patch_keys)
        corr = np.zeros(n * n)
        EX = np.zeros(n * npatch)
        for ca, cb, ck, e in ((a_g, b_g, k_g, e_g), (a_d, b_d, k_d, e_d)):
            corr += np.bincount(
                ca * n + cb,
                weights=e * costx.reshape(-1)[ca * n + ck],
                minlength=n * n,
            )
            pid = self.patch_id[cb * n + ck]
            hit = pid >= 0
            EX += np.bincount(
                ca[hit] * npatch + pid[hit], weights=e[hit], minlength=n * npatch
            )
        corr = corr.reshape(n, n)
        # Steps where x was the best helper: every cell there is costed
        # at costx instead of cost0.
        np.add.at(
            corr,
            rows,
            (costx[rows, steps] - self.cost0[steps])[:, None]
            * self.D0[:, steps].T,
        )
        DCW = (self.rowtot[:, None] - self.CUMM).T + corr  # [a, b]
        ra = np.concatenate((s1a[ch], da[has]))
        rb = np.concatenate((self.grow[s1g[ch]], dk[has]))
        DR = self.DR0[None, :] + np.bincount(
            ra * n + rb, weights=np.concatenate((ge_g, ge_d)), minlength=n * n
        ).reshape(n, n)

        # --- assemble [a, b] -------------------------------------------
        hso = self.hs[order, :n]  # hso[i, k] = hs[order[i], k]
        cost_y = ctime[order][None, :] - hso.T
        retire = ctime[order][:, None] - np.maximum(
            hso, flat.cs[order][:, order]
        )
        diag = np.arange(n)
        P = self.P
        O = (
            P[:n, None]
            + self.R0[:n, None] * cost_y
            + (CC[:, :n] - CC[diag, diag + 1][:, None])
            - DCW
            + (Rm - DR) * retire
            + P[n]
            - P[None, 1:]
        )

        # --- y is a build helper of a window step ----------------------
        # The step's deviation is D0 plus this row's corrections there.
        pa, pi = _ranges(np.zeros_like(self.ikpos), self.ikpos)
        kk, bb = self.ikpos[pi], self.ibpos[pi]
        gain = np.maximum(self.isav[pi] - sxv[pa, kk], 0.0)
        delta = self.D0[bb, kk] + EX[pa * npatch + self.patch_id[bb * n + kk]]
        O += np.bincount(
            pa * n + bb,
            weights=-gain * (Rm[pa, kk] - delta),
            minlength=n * n,
        ).reshape(n, n)

        out = np.where(np.triu(np.ones((n, n), dtype=bool), 1), O, O.T)
        np.fill_diagonal(out, self.objective)
        return out
