"""Finite-alphabet probability primitives and information measures in bits.

All logarithms are base 2 and 0*log(0) is taken to be 0.  Conditional KL
divergence returns +inf when absolute continuity fails, so that exponent
minimizations can treat infeasible channels as infinitely costly.
"""

from dataclasses import dataclass

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


def cond_mi_from_joint(joint):
    """I(A;B|S) in bits of a joint p(s,a,b), or of each joint of a stack."""
    j = np.asarray(joint, dtype=np.float64)
    h_as = _neg_plogp(j.sum(axis=-1)).sum(axis=(-2, -1))
    h_bs = _neg_plogp(j.sum(axis=-2)).sum(axis=(-2, -1))
    h_s = _neg_plogp(j.sum(axis=(-2, -1))).sum(axis=-1)
    h_abs = _neg_plogp(j).sum(axis=(-3, -2, -1))
    mi = np.maximum(h_as + h_bs - h_s - h_abs, 0.0)
    return float(mi) if mi.ndim == 0 else mi


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
