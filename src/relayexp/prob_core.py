"""Finite-alphabet probability primitives and information measures in bits.

All logarithms are base 2 and 0*log(0) is taken to be 0.  Conditional KL
divergence returns +inf when absolute continuity fails, so that exponent
minimizations can treat infeasible channels as infinitely costly.

Also provides a deterministic maximizer over the probability simplex used
by every exponent module: a lattice scan followed by local refinement and
seeded multi-start, with ties broken toward the lowest lexicographic grid
index.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

SIMPLEX_TOL = 1e-9


def _neg_plogp(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    mask = x > 0.0
    out[mask] = -x[mask] * np.log2(x[mask])
    return out


def entropy_vec(v):
    """Entropy in bits of a raw probability vector (no validation)."""
    return float(_neg_plogp(np.asarray(v, dtype=np.float64)).sum())


@dataclass(frozen=True)
class Dist:
    """Probability vector over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("Dist.probs must be one-dimensional")
        if not np.all(np.isfinite(p)):
            raise ValueError("Dist entries must be finite")
        if np.any(p < 0.0):
            raise ValueError("Dist entries must be nonnegative")
        if abs(p.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"Dist entries sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probs", p)

    def __len__(self):
        return self.probs.shape[0]


@dataclass(frozen=True)
class CondDist:
    """Stochastic matrix: one Dist per input symbol, rows index inputs."""

    rows: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.rows, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError("CondDist.rows must be two-dimensional")
        if not np.all(np.isfinite(m)):
            raise ValueError("CondDist entries must be finite")
        if np.any(m < 0.0):
            raise ValueError("CondDist entries must be nonnegative")
        sums = m.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > SIMPLEX_TOL):
            raise ValueError("each CondDist row must sum to 1")
        object.__setattr__(self, "rows", m)

    @property
    def n_inputs(self):
        return self.rows.shape[0]

    @property
    def n_outputs(self):
        return self.rows.shape[1]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the deterministic simplex search."""

    coarse_grid_points: int = 9
    refinement_rounds: int = 6
    restarts: int = 4
    value_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.coarse_grid_points < 2:
            raise ValueError("coarse_grid_points must be >= 2")
        if self.value_tolerance <= 0:
            raise ValueError("value_tolerance must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be >= 0")


# ---------------------------------------------------------------------------
# information measures
# ---------------------------------------------------------------------------

def entropy(p: Dist) -> float:
    """H(p) in bits."""
    return entropy_vec(p.probs)


def cond_entropy(v: CondDist, p: Dist) -> float:
    """H(V|P) = sum_x p(x) H(v(.|x)) in bits."""
    if v.n_inputs != len(p):
        raise ValueError("dimension mismatch between CondDist and Dist")
    row_h = _neg_plogp(v.rows).sum(axis=1)
    return float(p.probs @ row_h)


def mutual_info(p: Dist, v: CondDist) -> float:
    """I(P,V) = H(PV) - H(V|P) in bits, PV the output marginal."""
    if v.n_inputs != len(p):
        raise ValueError("dimension mismatch between Dist and CondDist")
    out_marginal = p.probs @ v.rows
    val = entropy_vec(out_marginal) - cond_entropy(v, p)
    return max(val, 0.0)


def cond_mi_from_joint(joint) -> float:
    """I(A;B|S) in bits from a raw joint array p(s,a,b)."""
    j = np.asarray(joint, dtype=np.float64)
    h_as = _neg_plogp(j.sum(axis=2)).sum()
    h_bs = _neg_plogp(j.sum(axis=1)).sum()
    h_s = _neg_plogp(j.sum(axis=(1, 2))).sum()
    h_abs = _neg_plogp(j).sum()
    return max(float(h_as + h_bs - h_s - h_abs), 0.0)


def mi_axes(joint, a_axes, b_axes, s_axes=()) -> float:
    """I(A;B|S) in bits from an n-dimensional joint array.

    `a_axes`, `b_axes` and `s_axes` are disjoint axis tuples; all other
    axes are marginalized out first.
    """
    j = np.asarray(joint, dtype=np.float64)
    a_axes, b_axes, s_axes = tuple(a_axes), tuple(b_axes), tuple(s_axes)
    keep = s_axes + a_axes + b_axes
    drop = tuple(ax for ax in range(j.ndim) if ax not in keep)
    if drop:
        j = j.sum(axis=drop)
        remap = {ax: i for i, ax in enumerate(sorted(keep))}
        s_axes = tuple(remap[ax] for ax in s_axes)
        a_axes = tuple(remap[ax] for ax in a_axes)
        b_axes = tuple(remap[ax] for ax in b_axes)
    j = np.transpose(j, s_axes + a_axes + b_axes)
    ns = int(np.prod([j.shape[i] for i in range(len(s_axes))], initial=1))
    na = int(np.prod([j.shape[len(s_axes) + i] for i in range(len(a_axes))],
                     initial=1))
    return cond_mi_from_joint(j.reshape(ns, na, -1))


def kl_div_vec(v, w) -> float:
    """D(v||w) in bits for raw vectors; +inf on support violation."""
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    mask = v > 0.0
    if np.any(w[mask] <= 0.0):
        return np.inf
    return float(np.sum(v[mask] * np.log2(v[mask] / w[mask])))


def kl_div_cond(v: CondDist, w: CondDist, p: Dist) -> float:
    """D(V||W|P) in bits; +inf if absolute continuity fails on the support of p."""
    if v.rows.shape != w.rows.shape or v.n_inputs != len(p):
        raise ValueError("dimension mismatch in kl_div_cond")
    total = 0.0
    for x in range(len(p)):
        px = p.probs[x]
        if px == 0.0:
            continue
        d = kl_div_vec(v.rows[x], w.rows[x])
        if not np.isfinite(d):
            return np.inf
        total += px * d
    return total


# ---------------------------------------------------------------------------
# simplex search
# ---------------------------------------------------------------------------

def _lattice(dim, points):
    """All compositions of (points-1) into dim parts, lexicographic order."""
    m = points - 1
    out = []
    for cuts in combinations(range(m + dim - 1), dim - 1):
        prev = -1
        counts = []
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(m + dim - 2 - prev)
        out.append(np.array(counts, dtype=np.float64) / m)
    return out


def _exchange_descent(x, objective, init_step, rounds):
    """Pairwise mass-exchange ascent on the simplex (maximization)."""
    x = x.copy()
    best = objective(x)
    step = init_step
    dim = x.shape[0]
    for _ in range(max(rounds, 1)):
        improved = True
        while improved:
            improved = False
            cand_best = None
            for i in range(dim):
                for j in range(dim):
                    if i == j or x[j] < step:
                        continue
                    y = x.copy()
                    y[i] += step
                    y[j] -= step
                    val = objective(y)
                    if val > best + 1e-15 and (cand_best is None or val > cand_best[0]):
                        cand_best = (val, y)
            if cand_best is not None:
                best, x = cand_best
                improved = True
        step /= 4.0
    return x, best


def maximize_over_simplex(objective, dim, cfg: OptimizerConfig):
    """Deterministic maximization of a black-box objective over the simplex.

    Coarse lattice scan, then local pairwise-exchange refinement with
    shrinking step, then seeded restarts; returns (Dist, value).  Identical
    inputs yield bit-identical output; ties go to the lowest lexicographic
    lattice index.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if dim == 1:
        p = np.array([1.0])
        return Dist(p), float(objective(p))

    bary = np.full(dim, 1.0 / dim)
    best_x, best_val = bary, float(objective(bary))
    for x in _lattice(dim, cfg.coarse_grid_points):
        val = float(objective(x))
        if val > best_val:
            best_x, best_val = x, val

    init_step = 1.0 / (cfg.coarse_grid_points - 1)
    starts = [best_x]
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.restarts - 1):
        starts.append(rng.dirichlet(np.ones(dim)))
    for s in starts:
        x, val = _exchange_descent(s, objective, init_step, cfg.refinement_rounds)
        if val > best_val:
            best_x, best_val = x, val
    return Dist(best_x), best_val
