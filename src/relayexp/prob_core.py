"""Finite-alphabet probability primitives and information measures in bits.

All logarithms are base 2 and 0*log(0) is taken to be 0.  Conditional KL
divergence returns +inf when absolute continuity fails, so that exponent
minimizations can treat infeasible channels as infinitely costly.

Also provides a deterministic maximizer of a batched objective over the
probability simplex, used by the cutset bound: a lattice scan followed by
local refinement and seeded multi-start, with ties broken toward the lowest
lexicographic grid index.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SIMPLEX_TOL = 1e-9


class EnumBudgetError(RuntimeError):
    """Raised when an exact enumeration would exceed the object budget."""


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
    seed: int = 0

    def __post_init__(self):
        if self.coarse_grid_points < 2:
            raise ValueError("coarse_grid_points must be >= 2")
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

#: most lattice points a simplex search may enumerate
LATTICE_BUDGET = 10**6
#: rows of the lattice handed to the objective in one call
_LATTICE_CHUNK = 8192


@lru_cache(maxsize=8)
def _lattice(dim, points):
    """The simplex lattice with spacing 1/(points-1), one point per row in
    lexicographic order; read-only and cached per (dim, points).

    Raises EnumBudgetError before enumerating more than LATTICE_BUDGET
    points.
    """
    count = math.comb(points - 2 + dim, dim - 1)
    if count > LATTICE_BUDGET:
        raise EnumBudgetError(
            f"{count} simplex lattice points ({points} per axis over {dim} "
            f"coordinates) exceed the budget of {LATTICE_BUDGET}")
    m = points - 1
    # comps[k]: the compositions of k into the trailing parts built so far,
    # lexicographic because the leading part runs upward over sorted blocks
    comps = [np.array([[k]]) for k in range(m + 1)]
    for _ in range(dim - 1):
        comps = [np.vstack([np.column_stack([np.full(len(comps[k - f]), f),
                                             comps[k - f]])
                            for f in range(k + 1)])
                 for k in range(m + 1)]
    out = comps[m].astype(np.float64) / m
    out.flags.writeable = False
    return out


def _exchange_descent(x, objective, init_step, rounds):
    """Pairwise mass-exchange ascent on the simplex (maximization).

    Every feasible move of one step (mass `step` from coordinate j to i) is
    scored in one objective call; the first best move is taken if it gains
    more than 1e-15.
    """
    x = x.copy()
    best = float(objective(x[None])[0])
    step = init_step
    dim = x.shape[0]
    ii, jj = np.nonzero(~np.eye(dim, dtype=bool))  # i-major, as nested loops
    for _ in range(max(rounds, 1)):
        improved = True
        while improved:
            improved = False
            ok = x[jj] >= step
            if not ok.any():
                break
            i, j = ii[ok], jj[ok]
            rows = np.arange(i.size)
            moves = np.repeat(x[None], i.size, axis=0)
            moves[rows, i] += step
            moves[rows, j] -= step
            vals = objective(moves)
            k = int(np.argmax(vals))
            if vals[k] > best + 1e-15:
                best, x = float(vals[k]), moves[k]
                improved = True
        step /= 4.0
    return x, best


def maximize_over_simplex(objective, dim, cfg: OptimizerConfig):
    """Deterministic maximization of a batched objective over the simplex.

    `objective` takes an (n, dim) array whose rows are points of the
    simplex and returns their n values.  The search scores the barycentre,
    then the coarse lattice (in chunks of at most 8192 rows), then runs a
    pairwise-exchange refinement with shrinking step from the best lattice
    point and from seeded Dirichlet restarts, scoring all moves of one step
    in one call; returns (Dist, value).  Identical inputs yield
    bit-identical output; ties go to the lowest lexicographic lattice index
    and to the first move in (i, j) order.  Raises EnumBudgetError when the
    lattice exceeds LATTICE_BUDGET points.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if dim == 1:
        p = np.array([1.0])
        return Dist(p), float(objective(p[None])[0])

    lattice = _lattice(dim, cfg.coarse_grid_points)
    bary = np.full(dim, 1.0 / dim)
    best_x, best_val = bary, float(objective(bary[None])[0])
    for lo in range(0, lattice.shape[0], _LATTICE_CHUNK):
        vals = objective(lattice[lo:lo + _LATTICE_CHUNK])
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_x, best_val = lattice[lo + k].copy(), float(vals[k])

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
