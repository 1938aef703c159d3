"""Upper bound on the relay reliability function via dummy channels.

E_cs(R) = min over dummy relay channels V with cutset value at most R of
max_P D(V||W|P).  By linearity of the conditional divergence in P, the
inner max is attained at a single input pair, so the objective is the
worst symbol-pair divergence.  The feasible set is nonconvex; a seeded
multi-start local search with an increasing penalty on the constraint is
used, followed by a feasibility-restoration step.  Any feasible V is a
valid upper bound, so local optimality affects tightness, not validity.
"""

from dataclasses import dataclass

import numpy as np

from .prob_core import OptimizerConfig, kl_div_vec
from .relay_model import RelayChannelSpec, cutset_bound

_FEAS_TOL = 1e-4
#: lattice points per axis of the cheap cutset search in feasibility checks
FEASIBILITY_CUTSET_GRID = 5
_PENALTIES = (1.0, 10.0, 100.0, 1000.0)


@dataclass
class UpperBoundResult:
    value: float                 # bits; +inf when the bound is vacuous
    witness_v: RelayChannelSpec
    feasibility_gap: float       # C_cs(witness) - R, clamped at 0
    restarts_used: int


def ecs_objective(v: RelayChannelSpec, w: RelayChannelSpec) -> float:
    """max over (x1,x2) of D(V(.,.|x1,x2) || W(.,.|x1,x2)) in bits."""
    if v.sizes != w.sizes:
        raise ValueError("channel alphabets must match")
    n_x1, n_x2 = v.sizes[0], v.sizes[1]
    worst = 0.0
    for x1 in range(n_x1):
        for x2 in range(n_x2):
            d = kl_div_vec(v.w[x1, x2].reshape(-1), w.w[x1, x2].reshape(-1))
            if not np.isfinite(d):
                return np.inf
            worst = max(worst, d)
    return worst


def _useless_channel(w: RelayChannelSpec, rng):
    """A channel with zero cutset value: (y2,y3) independent of x1 given x2
    and y3 independent of everything."""
    n_x1, n_x2, n_y2, n_y3 = w.sizes
    mix1 = rng.dirichlet(np.ones(n_x1))
    mix12 = rng.dirichlet(np.ones(n_x1 * n_x2)).reshape(n_x1, n_x2)
    d_y2 = np.einsum("x,xay->ay", mix1, w.y2_marginal())       # (x2, y2)
    h_y3 = np.einsum("xa,xay->y", mix12, w.y3_marginal())      # (y3,)
    table = np.einsum("ay,z->ayz", d_y2, h_y3)                 # (x2, y2, y3)
    full = np.broadcast_to(table[None], (n_x1, n_x2, n_y2, n_y3)).copy()
    return RelayChannelSpec(full)


def _support_target(w: RelayChannelSpec, rng):
    """A low-cutset channel absolutely continuous with respect to W.

    Each row is a product d(y2|x2) x h(y3) restricted to the row's support
    and renormalized; rows whose restriction has no mass keep W's row.
    Staying inside the support keeps the divergence objective finite.
    """
    n_x1, n_x2 = w.sizes[0], w.sizes[1]
    base = _useless_channel(w, rng).w
    table = np.empty_like(w.w)
    for x1 in range(n_x1):
        for x2 in range(n_x2):
            tgt = np.where(w.w[x1, x2] > 0.0, base[x1, x2], 0.0)
            tot = tgt.sum()
            table[x1, x2] = tgt / tot if tot > 0.0 else w.w[x1, x2]
    return table


def _cheap_cfg(seed):
    return OptimizerConfig(coarse_grid_points=FEASIBILITY_CUTSET_GRID,
                           refinement_rounds=4, restarts=1, seed=seed)


def _ccs(table, cheap_cfg):
    val, _ = cutset_bound(RelayChannelSpec(table), cheap_cfg)
    return val


def _blend(u, w, lam):
    """Per-row convex combination (1-lam_i) U + lam_i W, lam per (x1,x2)."""
    lamb = lam[:, :, None, None]
    return (1.0 - lamb) * u + lamb * w


def ecs_upper(r: float, w: RelayChannelSpec, cfg: OptimizerConfig = None,
              warm_starts=None) -> UpperBoundResult:
    """Upper-bound value at rate r with a feasible dummy-channel witness.

    `warm_starts` optionally supplies candidate channel tables (used by
    rate sweeps to keep values monotone: any witness feasible at a lower
    rate stays feasible here).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if cfg is None:
        cfg = OptimizerConfig(restarts=16)
    cheap = _cheap_cfg(cfg.seed)

    ccs_w, _ = cutset_bound(w, cfg)
    if ccs_w <= r:
        return UpperBoundResult(0.0, w, 0.0, 0)

    n_x1, n_x2 = w.sizes[0], w.sizes[1]
    best_val, best_table = np.inf, None
    restarts = max(cfg.restarts, 1)
    for s in range(restarts):
        rng = np.random.default_rng(cfg.seed + 1000 * s + 1)
        u = _support_target(w, rng)
        if _ccs(u, cheap) > r - 1e-5:
            # blending toward W only raises the cutset value, so the whole
            # restart is infeasible unless u itself (just) qualifies
            if cutset_bound(RelayChannelSpec(u), cfg)[0] - r > _FEAS_TOL * 0.5:
                continue

        # bisection along the global blend toward W for a feasible start
        lo, hi = 0.0, 1.0
        for _ in range(14):
            mid = 0.5 * (lo + hi)
            lam = np.full((n_x1, n_x2), mid)
            if _ccs(_blend(u, w.w, lam), cheap) <= r - 1e-5:
                lo = mid
            else:
                hi = mid
        lam = np.full((n_x1, n_x2), lo)

        # penalized per-row coordinate descent on the blend weights
        def penalized(l, weight):
            table = _blend(u, w.w, l)
            obj = ecs_objective(RelayChannelSpec(table), w)
            gap = max(_ccs(table, cheap) - r, 0.0)
            return obj + weight * gap

        for weight in _PENALTIES:
            for step in (0.125, 0.03125):
                for _ in range(2):  # bounded sweeps keep each restart cheap
                    improved = False
                    cur = penalized(lam, weight)
                    for x1 in range(n_x1):
                        for x2 in range(n_x2):
                            for delta in (step, -step):
                                cand = lam.copy()
                                cand[x1, x2] = min(max(lam[x1, x2] + delta, 0.0), 1.0)
                                if cand[x1, x2] == lam[x1, x2]:
                                    continue
                                val = penalized(cand, weight)
                                if val < cur - 1e-12:
                                    lam, cur = cand, val
                                    improved = True
                    if not improved:
                        break

        # feasibility restoration: cheap walk first, accurate verification after
        table = _blend(u, w.w, lam)
        for _ in range(40):
            if _ccs(table, cheap) - r <= 0.0 or not lam.any():
                break
            lam = np.maximum(lam - 0.02, 0.0)
            table = _blend(u, w.w, lam)
        feasible = False
        for _ in range(10):
            if cutset_bound(RelayChannelSpec(table), cfg)[0] - r <= _FEAS_TOL * 0.5:
                feasible = True
                break
            lam = np.maximum(lam - 0.02, 0.0)
            table = _blend(u, w.w, lam)
        if not feasible:
            continue  # even the fully degraded blend stays above rate r
        val = ecs_objective(RelayChannelSpec(table), w)
        if val < best_val:
            best_val, best_table = val, table

    if warm_starts:
        for table in warm_starts:
            tbl = np.asarray(table, dtype=np.float64)
            if tbl.shape != w.w.shape:
                continue
            gap = cutset_bound(RelayChannelSpec(tbl), cfg)[0] - r
            if gap <= _FEAS_TOL * 0.5:
                val = ecs_objective(RelayChannelSpec(tbl), w)
                if val < best_val:
                    best_val, best_table = val, tbl

    if best_table is None:
        # no channel inside W's support reaches cutset value r: the bound
        # is vacuous (+inf).  A product channel with zero cutset value is
        # still a feasible witness, certifying one-sided validity.
        fallback = _useless_channel(w, np.random.default_rng(cfg.seed))
        gap = max(cutset_bound(fallback, cfg)[0] - r, 0.0)
        return UpperBoundResult(np.inf, fallback, gap, restarts)

    witness = RelayChannelSpec(best_table)
    gap = max(cutset_bound(witness, cfg)[0] - r, 0.0)
    return UpperBoundResult(best_val, witness, gap, restarts)


def ecs_upper_sweep(rates, w: RelayChannelSpec, cfg: OptimizerConfig = None):
    """Upper bounds over an increasing rate grid, warm-started and
    running-minimum enforced; returns (results, violation_count)."""
    results = []
    violations = 0
    prev_tables = []
    prev_val = np.inf
    for r in rates:
        res = ecs_upper(r, w, cfg, warm_starts=prev_tables)
        if res.value > prev_val + 1e-6:
            violations += 1
            res = UpperBoundResult(prev_val, results[-1].witness_v,
                                   results[-1].feasibility_gap,
                                   res.restarts_used)
        prev_tables = [res.witness_v.w]
        prev_val = min(prev_val, res.value)
        results.append(res)
    return results, violations
