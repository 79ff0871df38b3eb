"""Vectorized batch neighborhood evaluation over flattened instance arrays.

The scalar delta path in :class:`~repro.core.engine.EvalEngine` answers
one move at a time by replaying the move's divergence window.  A tabu
scan asks for *every* pairwise swap of the base order — O(n^2) Python
calls, each replaying an O(n) window.  This module scores the whole
neighborhood in one pass of numpy array ops.

The key identity: swapping positions ``a < b`` (``x = order[a]``,
``y = order[b]``) leaves every step of the window ``(a, b)`` building
the same index as the base order, over a built-set that differs from
the base prefix only by *x missing* and *y present*.  So the swapped
objective decomposes into

* an **x-removed baseline**: the base trajectory with ``x`` deleted —
  runtime ``R-``, step costs ``costx`` and their running sum, computed
  once per row ``a`` with a handful of vector ops (only queries that
  have a plan through ``x``, and steps where ``x`` was the best build
  helper, can differ from the base trajectory), and
* a **deviation term** from ``y`` being available early: a plan whose
  *last* member sits at position ``b`` completes as soon as its other
  members are built, which lowers the runtime of the remaining window
  steps.  Every such (plan, step) incidence is a *cell*; cells depend
  only on the base order, so they are materialized once per base
  (value = ``weight * max(0, A - qbest0) * cost0``, where ``A`` is the
  per-(query, completion-position) running best speedup), summed into
  an ``(n, n)`` matrix whose suffix sums give each row's deviation in
  O(1) — with per-row corrections only for the sparse cells whose
  value actually depends on ``x`` (x-plans in the running max, steps
  where ``x`` supported the base qbest, steps where ``x`` was the best
  helper).

Everything here is exact with respect to the scalar replay semantics —
the property tests assert elementwise agreement with ``eval_swap`` /
``eval_relocate`` — up to float summation order.

Kernels: ``numpy`` (this module) and ``scalar`` (the engine's delta
path, looped).  ``auto`` picks numpy from :data:`NUMPY_MIN_N` indexes
up — below that the per-row vector-op overhead loses to the scalar
path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import DeployState, EvalEngine

__all__ = [
    "KERNELS",
    "NUMPY_MIN_N",
    "BatchNeighborhood",
    "FlatInstance",
    "precedence_matrix",
    "resolve_kernel",
    "swap_feasibility_mask",
    "relocate_feasibility_mask",
]

KERNELS = ("auto", "scalar", "numpy")

#: ``auto`` switches to the numpy kernel at this instance size; below
#: it a full scalar scan is already a few milliseconds and the batch
#: per-row setup does not pay for itself.
NUMPY_MIN_N = 48


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


# ----------------------------------------------------------------------
# Instance lowering
# ----------------------------------------------------------------------
class FlatInstance:
    """A :class:`ProblemInstance` lowered to contiguous numpy arrays.

    Layout (all arrays C-contiguous; see ARCHITECTURE.md):

    * ``plan_query[p]``, ``plan_speedup[p]`` — per-plan query id and
      speedup.
    * ``plan_members[p, :]`` — member index ids, padded with ``-1``
      (width = largest plan).
    * ``poi_indptr`` / ``poi_flat`` — CSR plans-of-index incidence.
    * ``ctime[i]``, ``qweight[q]`` — cost vectors.
    * ``cs[t, h]`` — dense build-interaction matrix (saving on target
      ``t`` when helper ``h`` is already built; 0 when none).
    * ``itgt`` / ``ihlp`` / ``isav`` — the interaction triples, flat.
    * ``engine`` — a scalar :class:`EvalEngine` over the same instance,
      whose :class:`DeployState` replays each base trajectory.

    The arrays are position-independent and picklable, so a future
    cross-process portfolio can share one copy per worker.
    """

    def __init__(self, instance) -> None:
        n = instance.n_indexes
        plans = instance.plans
        self.instance = instance
        self.n = n
        self.n_queries = instance.n_queries
        self.n_plans = len(plans)
        self.plan_query = np.array(
            [p.query_id for p in plans], dtype=np.int32
        )
        self.plan_speedup = np.array(
            [p.speedup for p in plans], dtype=np.float64
        )
        width = max((len(p.indexes) for p in plans), default=1)
        members = np.full((self.n_plans, width), -1, dtype=np.int32)
        for pid, plan in enumerate(plans):
            members[pid, : len(plan.indexes)] = sorted(plan.indexes)
        self.plan_members = members
        poi = [list(instance.plans_containing(i)) for i in range(n)]
        self.poi_indptr = np.zeros(n + 1, dtype=np.int64)
        self.poi_indptr[1:] = np.cumsum([len(p) for p in poi])
        self.poi_flat = np.array(
            [pid for ps in poi for pid in ps] or [], dtype=np.int32
        )
        self.ctime = np.array(
            [ix.create_cost for ix in instance.indexes], dtype=np.float64
        )
        self.qweight = np.array(
            [q.weight for q in instance.queries], dtype=np.float64
        )
        self.cs = np.zeros((n, n), dtype=np.float64)
        tgt: List[int] = []
        hlp: List[int] = []
        sav: List[float] = []
        for target in range(n):
            for helper, saving in instance.build_helpers(target):
                self.cs[target, helper] = max(self.cs[target, helper], saving)
                tgt.append(target)
                hlp.append(helper)
                sav.append(saving)
        self.itgt = np.array(tgt, dtype=np.int32)
        self.ihlp = np.array(hlp, dtype=np.int32)
        self.isav = np.array(sav, dtype=np.float64)
        # queries touched by each index (through any of its plans).
        self.queries_of_index: List[List[int]] = [
            sorted({int(self.plan_query[pid]) for pid in poi[i]})
            for i in range(n)
        ]
        self.engine = EvalEngine(instance)

    def plans_of(self, index_id: int):
        """CSR slice of plan ids containing ``index_id``."""
        return self.poi_flat[
            self.poi_indptr[index_id] : self.poi_indptr[index_id + 1]
        ]


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


def relocate_feasibility_mask(order, src, constraints, scalar_check=None):
    """Length-``n`` bool vector: is relocating ``order[src]`` to ``dst`` ok."""
    n = len(order)
    if constraints is None:
        return np.ones(n, dtype=bool)
    orderv = np.asarray(order, dtype=np.int64)
    B = precedence_matrix(constraints, n)
    x = int(order[src])
    feasible = np.ones(n, dtype=bool)
    # forward: x may not jump over a required successor
    ahead = B[x][orderv]  # x must precede order[t]
    blocked = np.logical_or.accumulate(
        np.concatenate([np.zeros(src + 1, dtype=bool), ahead[src + 1 :]])
    )
    feasible &= ~blocked
    # backward: x may not jump over a required predecessor
    behind = B[:, x][orderv]  # order[t] must precede x
    rev = np.zeros(n, dtype=bool)
    rev[:src] = behind[:src]
    blocked_back = np.logical_or.accumulate(rev[::-1])[::-1]
    feasible &= ~blocked_back
    if constraints.consecutive_pairs and scalar_check is not None:
        for dst in range(n):
            if feasible[dst]:
                feasible[dst] = scalar_check(order, src, dst, constraints)
    return feasible


# ----------------------------------------------------------------------
# Per-base precomputation
# ----------------------------------------------------------------------
class _SwapBase:
    """Everything the kernels precompute for one base order."""

    def __init__(self, flat: FlatInstance, order: Sequence[int]) -> None:
        n, m, P = flat.n, flat.n_queries, flat.n_plans
        self.flat = flat
        self.order = np.asarray(order, dtype=np.int64)
        self.pos = np.empty(n, dtype=np.int64)
        self.pos[self.order] = np.arange(n)
        pos = self.pos

        # --- base trajectory through the deployment primitive ---------
        # One undo record per step holds the objective and runtime
        # entering it and the plans that raised a query's best speed-up.
        state = DeployState(flat.engine)
        records: List[tuple] = []
        state.deploy([int(i) for i in self.order], records)
        self.P = np.array([rec[0] for rec in records] + [state.objective])
        self.R0 = np.array([rec[1] for rec in records] + [state.runtime])
        self.objective = state.objective
        # QB0[k] = per-query best speed-up entering step k; qbest only
        # rises, so a running max over the recorded raises rebuilds it.
        QB0 = np.zeros((n + 1, m))
        # per-query support-change records: (q -> [(k_active_from, plan)])
        supp_events: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
        plan_query = flat.plan_query
        plan_speedup = flat.plan_speedup
        for k, (_, _, raised) in enumerate(records):
            for pid, _previous in raised:
                q = int(plan_query[pid])
                QB0[k + 1, q] = plan_speedup[pid]
                supp_events[q].append((k + 1, pid))
        np.maximum.accumulate(QB0, axis=0, out=QB0)
        # Best build-helper saving per step (first helper id on ties).
        built_before = pos[None, :] < np.arange(n)[:, None]
        available = np.where(built_before, flat.cs[self.order], 0.0)
        sx0 = available.max(axis=1)
        argh = np.where(sx0 > 0.0, available.argmax(axis=1), -1)
        cost0 = flat.ctime[self.order] - sx0
        self.QB0, self.cost0, self.sx0, self.argh = QB0, cost0, sx0, argh
        qweight = flat.qweight

        # --- hs[i, k]: best helper saving for i among positions < k --
        hs = np.zeros((n, n + 1))
        for t, h, s in zip(flat.itgt, flat.ihlp, flat.isav):
            lo = int(pos[h]) + 1
            np.maximum(hs[t, lo:], s, out=hs[t, lo:])
        self.hs = hs

        # --- plan completion data ------------------------------------
        mem = flat.plan_members
        mem_pos = np.where(mem >= 0, pos[np.clip(mem, 0, None)], -1)
        qL = mem_pos.max(axis=1)  # completion position per plan
        masked = np.where(mem_pos == qL[:, None], -1, mem_pos)
        q2 = masked.max(axis=1)  # second-last member position (-1 if 1)
        self.plan_qL, self.plan_q2 = qL, q2

        # completion events per query (CSR, sorted by position) — used
        # to rebuild a query's x-removed qbest trajectory per row.
        qsort = np.lexsort((qL, plan_query))
        self.evq_plan = qsort.astype(np.int64)
        self.evq_pos = qL[qsort]
        self.evq_s = plan_speedup[qsort]
        self.evq_indptr = np.searchsorted(
            plan_query[qsort], np.arange(m + 1)
        )

        # --- deviation cells -----------------------------------------
        # Group plans by (row = qL, query); within a group, sort by q2
        # and emit one cell per (segment step k), value = prefix-max A.
        groups: Dict[Tuple[int, int], List[int]] = {}
        for pid in range(P):
            groups.setdefault((int(qL[pid]), int(plan_query[pid])), []).append(
                pid
            )
        ck_l: List[np.ndarray] = []
        crow_l: List[np.ndarray] = []
        cq_l: List[np.ndarray] = []
        cA_l: List[np.ndarray] = []
        ncell_so_far = 0
        # per-x overrides as contiguous cell-id ranges:
        # x -> list of (first_cell, last_cell_exclusive, A_excl_x)
        seg_over: Dict[int, List[Tuple[int, int, float]]] = {}
        grow_l: List[int] = []
        gq_l: List[int] = []
        gA_l: List[float] = []
        self.group_plans: Dict[Tuple[int, int], List[int]] = groups
        g_over: Dict[int, List[Tuple[int, float]]] = {}
        speed = plan_speedup
        pmembers = [
            frozenset(int(v) for v in mem[pid] if v >= 0) for pid in range(P)
        ]
        for (row, q), pids in groups.items():
            pids.sort(key=lambda pid: int(q2[pid]))
            gi = len(grow_l)
            grow_l.append(row)
            gq_l.append(q)
            g_max = max(float(speed[pid]) for pid in pids)
            gA_l.append(g_max)
            memset = frozenset().union(*(pmembers[pid] for pid in pids))
            for x in memset:
                excl = [
                    float(speed[pid])
                    for pid in pids
                    if x not in pmembers[pid]
                ]
                a_excl = max(excl) if excl else 0.0
                if a_excl != g_max:
                    g_over.setdefault(x, []).append((gi, a_excl))
            # segments over k in (q2_j, next boundary]
            bounds = [int(q2[pid]) for pid in pids] + [int(row)]
            pref = 0.0
            active: List[int] = []
            for j, pid in enumerate(pids):
                pref = max(pref, float(speed[pid]))
                active.append(pid)
                lo = bounds[j] + 1
                hi = min(bounds[j + 1], row - 1) if j + 1 < len(pids) else row - 1
                if lo > hi:
                    continue
                first_cell = ncell_so_far
                count = hi - lo + 1
                ck_l.append(np.arange(lo, hi + 1, dtype=np.int64))
                crow_l.append(np.full(count, row, dtype=np.int64))
                cq_l.append(np.full(count, q, dtype=np.int64))
                cA_l.append(np.full(count, pref))
                ncell_so_far += count
                # corrections: members of any active plan that attains
                # the prefix max; excluding their plans changes A.
                actset = frozenset().union(
                    *(pmembers[apid] for apid in active)
                )
                for x in actset:
                    excl = [
                        float(speed[apid])
                        for apid in active
                        if x not in pmembers[apid]
                    ]
                    a_excl = max(excl) if excl else 0.0
                    if a_excl != pref:
                        seg_over.setdefault(x, []).append(
                            (first_cell, ncell_so_far, a_excl)
                        )
        if ck_l:
            self.ck = np.concatenate(ck_l)
            self.crow = np.concatenate(crow_l)
            self.cq = np.concatenate(cq_l)
            self.cA = np.concatenate(cA_l)
        else:
            self.ck = np.zeros(0, dtype=np.int64)
            self.crow = np.zeros(0, dtype=np.int64)
            self.cq = np.zeros(0, dtype=np.int64)
            self.cA = np.zeros(0)
        self.grow = np.array(grow_l, dtype=np.int64)
        self.gq = np.array(gq_l, dtype=np.int64)
        self.gA = np.array(gA_l, dtype=np.float64)
        ncell = len(self.ck)
        if ncell:
            self.valbase = (
                qweight[self.cq]
                * np.maximum(self.cA - QB0[self.ck, self.cq], 0.0)
                * cost0[self.ck]
            )
            Mflat = np.bincount(
                self.crow * n + self.ck, weights=self.valbase, minlength=n * n
            )
            self.M = Mflat.reshape(n, n)
        else:
            self.valbase = np.zeros(0)
            self.M = np.zeros((n, n))
        self.CUMM = np.cumsum(self.M, axis=1)
        self.rowtot = self.M.sum(axis=1)
        if len(self.grow):
            self.gvalbase = qweight[self.gq] * np.maximum(
                self.gA - QB0[self.grow, self.gq], 0.0
            )
            self.DR0 = np.bincount(
                self.grow, weights=self.gvalbase, minlength=n
            )
        else:
            self.gvalbase = np.zeros(0)
            self.DR0 = np.zeros(n)

        # --- per-x correction id/value arrays ------------------------
        # (a) steps where x supported the base qbest of some query;
        # (b) cells/groups whose running max involves an x-plan;
        # (c) steps where x was the best build helper (cost0 != costx).
        empty_i = np.zeros(0, dtype=np.int64)
        cell_sort = np.lexsort((self.ck, self.cq)) if ncell else empty_i
        cq_sorted = self.cq[cell_sort] if ncell else empty_i
        ck_sorted = self.ck[cell_sort] if ncell else empty_i
        q_starts = np.searchsorted(cq_sorted, np.arange(m + 1))
        ksort = np.argsort(self.ck, kind="stable") if ncell else empty_i
        ck_by_k = self.ck[ksort] if ncell else empty_i
        k_starts = np.searchsorted(ck_by_k, np.arange(n + 1))
        ngroups = len(self.grow)
        gsort = np.lexsort((self.grow, self.gq)) if ngroups else empty_i
        gq_sorted = self.gq[gsort] if ngroups else empty_i
        grow_sorted = self.grow[gsort] if ngroups else empty_i
        gq_starts = np.searchsorted(gq_sorted, np.arange(m + 1))
        supp_by_x: Dict[int, List[Tuple[int, int, int]]] = {}
        for q in range(m):
            events = supp_events[q]
            for idx, (k_from, pid) in enumerate(events):
                k_to = (
                    events[idx + 1][0] - 1 if idx + 1 < len(events) else n
                )
                for x in pmembers[pid]:
                    supp_by_x.setdefault(x, []).append((q, k_from, k_to))
        argh_pos: Dict[int, List[int]] = {}
        for k in range(n):
            if argh[k] >= 0:
                argh_pos.setdefault(int(argh[k]), []).append(k)
        self.argh_pos = argh_pos
        self.xc_ids: List[np.ndarray] = []
        self.xc_A: List[np.ndarray] = []
        self.xg_ids: List[np.ndarray] = []
        self.xg_A: List[np.ndarray] = []
        for x in range(n):
            parts: List[np.ndarray] = []
            for q, k_from, k_to in supp_by_x.get(x, ()):  # (a)
                lo, hi = q_starts[q], q_starts[q + 1]
                sub = ck_sorted[lo:hi]
                c0 = lo + np.searchsorted(sub, k_from)
                c1 = lo + np.searchsorted(sub, k_to, side="right")
                parts.append(cell_sort[c0:c1])
            for k in argh_pos.get(x, ()):  # (c)
                parts.append(ksort[k_starts[k] : k_starts[k + 1]])
            overrides = seg_over.get(x, ())  # (b)
            ov_ids = (
                np.concatenate(
                    [np.arange(f, l, dtype=np.int64) for f, l, _ in overrides]
                )
                if overrides
                else empty_i
            )
            ov_vals = (
                np.concatenate(
                    [np.full(l - f, a) for f, l, a in overrides]
                )
                if overrides
                else np.zeros(0)
            )
            parts.append(ov_ids)
            ids = np.concatenate(parts) if parts else empty_i
            if len(ids):
                uids = np.unique(ids)
                avals = self.cA[uids].copy()
                if len(ov_ids):
                    avals[np.searchsorted(uids, ov_ids)] = ov_vals
                self.xc_ids.append(uids)
                self.xc_A.append(avals)
            else:
                self.xc_ids.append(empty_i)
                self.xc_A.append(np.zeros(0))
            gparts: List[np.ndarray] = []
            for q, k_from, k_to in supp_by_x.get(x, ()):
                lo, hi = gq_starts[q], gq_starts[q + 1]
                sub = grow_sorted[lo:hi]
                c0 = lo + np.searchsorted(sub, k_from)
                c1 = lo + np.searchsorted(sub, k_to, side="right")
                gparts.append(gsort[c0:c1])
            gover = g_over.get(x, ())
            gov_ids = np.array([gi for gi, _ in gover], dtype=np.int64)
            gov_vals = np.array([a for _, a in gover])
            gparts.append(gov_ids)
            gids = np.concatenate(gparts) if gparts else empty_i
            if len(gids):
                ugids = np.unique(gids)
                gvals = self.gA[ugids].copy()
                if len(gov_ids):
                    gvals[np.searchsorted(ugids, gov_ids)] = gov_vals
                self.xg_ids.append(ugids)
                self.xg_A.append(gvals)
            else:
                self.xg_ids.append(empty_i)
                self.xg_A.append(np.zeros(0))

        # interaction positions for the "y helps a window step" patches
        self.ikpos = pos[flat.itgt]
        self.ibpos = pos[flat.ihlp]

    # ------------------------------------------------------------------
    def _x_removed_baseline(self, a: int):
        """x-removed trajectory pieces for the row at position ``a``.

        Returns ``(Rminus, costx, sxv, qcols)``: runtime entering each
        step with ``x = order[a]`` deleted, the matching step costs and
        best-helper savings, and the rebuilt qbest columns for the
        queries that touch ``x``.
        """
        flat = self.flat
        n, x = flat.n, int(self.order[a])
        qcols: Dict[int, np.ndarray] = {}
        Rminus = self.R0.copy()
        for q in flat.queries_of_index[x]:
            lo, hi = self.evq_indptr[q], self.evq_indptr[q + 1]
            plans = self.evq_plan[lo:hi]
            keep = ~(flat.plan_members[plans] == x).any(axis=1)
            col = np.zeros(n + 2)
            if keep.any():
                np.maximum.at(
                    col, self.evq_pos[lo:hi][keep] + 1, self.evq_s[lo:hi][keep]
                )
            np.maximum.accumulate(col, out=col)
            col = col[: n + 1]
            qcols[q] = col
            Rminus += flat.qweight[q] * (self.QB0[:, q] - col)
        costx = self.cost0
        sxv = self.sx0
        patched = self.argh_pos.get(x)
        if patched:
            costx = costx.copy()
            sxv = sxv.copy()
            for k in patched:
                i = int(self.order[k])
                row = flat.cs[i]
                best = 0.0
                for h in np.nonzero(row)[0]:
                    if h != x and self.pos[h] < k and row[h] > best:
                        best = float(row[h])
                sxv[k] = best
                costx[k] = flat.ctime[i] - best
        return Rminus, costx, sxv, qcols

    def _qb_at(self, ks, qs, qcols):
        """x-removed qbest at (step, query) pairs, vectorized."""
        vals = self.QB0[ks, qs]
        for q, col in qcols.items():
            mask = qs == q
            if mask.any():
                vals[mask] = col[ks[mask]]
        return vals


# ----------------------------------------------------------------------
# The numpy kernels
# ----------------------------------------------------------------------
class BatchNeighborhood:
    """Batch move-scoring bound to one base order of one instance."""

    def __init__(self, flat: FlatInstance, order: Sequence[int]) -> None:
        self.flat = flat
        self.base = _SwapBase(flat, order)

    @property
    def base_objective(self) -> float:
        return self.base.objective

    # -- swaps ----------------------------------------------------------
    def score_swap_row(self, a: int):
        """Objectives of swapping position ``a`` with every ``b > a``."""
        sb, flat = self.base, self.flat
        n = flat.n
        if a >= n - 1:
            return np.zeros(0)
        x = int(sb.order[a])
        Rminus, costx, sxv, qcols = sb._x_removed_baseline(a)
        CC = np.concatenate(([0.0], np.cumsum(Rminus[:n] * costx)))
        bidx = np.arange(a + 1, n)
        yv = sb.order[bidx]

        # deviation-window term: base cells + per-x corrections
        SUFa = sb.rowtot - sb.CUMM[:, a]
        DCW = SUFa[bidx].copy()
        ids = sb.xc_ids[x]
        pcm = None
        if len(ids):
            ckI, cqI, crowI = sb.ck[ids], sb.cq[ids], sb.crow[ids]
            qv = sb._qb_at(ckI, cqI, qcols)
            valn = (
                flat.qweight[cqI]
                * np.maximum(sb.xc_A[x] - qv, 0.0)
                * costx[ckI]
            )
            corr = np.where(ckI > a, valn - sb.valbase[ids], 0.0)
            DCW += np.bincount(crowI, weights=corr, minlength=n)[bidx]
            pcm = np.bincount(
                crowI * n + ckI, weights=corr, minlength=n * n
            ).reshape(n, n)

        # retire-step deviation (the completed-early drop at k = b)
        DR = sb.DR0.copy()
        gids = sb.xg_ids[x]
        if len(gids):
            growI, gqI = sb.grow[gids], sb.gq[gids]
            gqv = sb._qb_at(growI, gqI, qcols)
            gvaln = flat.qweight[gqI] * np.maximum(sb.xg_A[x] - gqv, 0.0)
            DR += np.bincount(
                growI, weights=gvaln - sb.gvalbase[gids], minlength=n
            )
        Rb = Rminus[bidx] - DR[bidx]

        cost_y = flat.ctime[yv] - sb.hs[yv, a]
        retire_cost = flat.ctime[x] - np.maximum(
            sb.hs[x, bidx], flat.cs[x, yv]
        )
        O = (
            sb.P[a]
            + sb.R0[a] * cost_y
            + (CC[bidx] - CC[a + 1])
            - DCW
            + Rb * retire_cost
            + sb.P[n]
            - sb.P[bidx + 1]
        )

        # sparse "y is a build helper inside the window" cost patches
        karr, barr = sb.ikpos, sb.ibpos
        pmask = (karr > a) & (barr > karr)
        if pmask.any():
            kk = karr[pmask]
            bb = barr[pmask]
            gain = np.maximum(flat.isav[pmask] - sxv[kk], 0.0)
            S = sb.M[bb, kk] + (pcm[bb, kk] if pcm is not None else 0.0)
            delta = S / costx[kk]
            pv = -gain * (Rminus[kk] - delta)
            O += np.bincount(bb - (a + 1), weights=pv, minlength=n - a - 1)
        return O

    def score_swap_neighborhood(self):
        """Full ``(n, n)`` objective matrix for all pairwise swaps."""
        n = self.flat.n
        O = np.full((n, n), self.base.objective)
        for a in range(n - 1):
            row = self.score_swap_row(a)
            O[a, a + 1 :] = row
            O[a + 1 :, a] = row
        return O

    # -- inserts --------------------------------------------------------
    def score_insert_neighborhood(self, index_id: int):
        """Objectives of relocating ``index_id`` to every position."""
        sb, flat = self.base, self.flat
        n = flat.n
        x = int(index_id)
        src = int(sb.pos[x])
        O = np.full(n, sb.objective)
        # forward: remove x at src, re-insert after dst
        if src < n - 1:
            Rminus, costx, _, _ = sb._x_removed_baseline(src)
            CC = np.concatenate(([0.0], np.cumsum(Rminus[:n] * costx)))
            d = np.arange(src + 1, n)
            O[d] = (
                sb.P[src]
                + (CC[d + 1] - CC[src + 1])
                + Rminus[d + 1] * (flat.ctime[x] - sb.hs[x, d + 1])
                + sb.P[n]
                - sb.P[d + 1]
            )
        # backward: insert x early at dst < src
        if src > 0:
            Dx = np.zeros(n + 1)
            events: Dict[int, List[Tuple[int, float]]] = {}
            for pid in sb.flat.plans_of(x):
                pid = int(pid)
                others = [
                    int(v) for v in flat.plan_members[pid] if v >= 0 and v != x
                ]
                k_from = (
                    max(int(sb.pos[o]) for o in others) + 1 if others else 0
                )
                q = int(flat.plan_query[pid])
                events.setdefault(q, []).append(
                    (k_from, float(flat.plan_speedup[pid]))
                )
            for q, evs in events.items():
                col = np.zeros(n + 2)
                for k_from, s in evs:
                    col[k_from] = max(col[k_from], s)
                np.maximum.accumulate(col, out=col)
                Dx += flat.qweight[q] * np.maximum(
                    col[: n + 1] - sb.QB0[:, q], 0.0
                )
            sl = sb.order[:src]
            cpv = sb.cost0[:src] - np.maximum(
                flat.cs[sl, x] - sb.sx0[:src], 0.0
            )
            term = (sb.R0[:src] - Dx[:src]) * cpv
            TT = np.cumsum(term)
            d = np.arange(src)
            tail = TT[src - 1] - np.where(d > 0, TT[d - 1], 0.0)
            O[d] = (
                sb.P[d]
                + sb.R0[d] * (flat.ctime[x] - sb.hs[x, d])
                + tail
                + sb.P[n]
                - sb.P[src + 1]
            )
        return O
