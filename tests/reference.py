"""Scalar information measures and compress-forward terms, one quantity at
a time, as references for the package's batched code.

None of this is package API: the package computes these quantities in
stacked form (`prob_core.cond_mi_from_joint`, `prob_core._row_divergences`,
the `cf_exponents` pair scorer), and the tests check it against the
direct formulas here.
"""

import math

import numpy as np

from relayexp.cf_exponents import rate_loss
from relayexp.prob_core import CondDist, Dist, _neg_plogp, cond_mi_from_joint


# ---------------------------------------------------------------------------
# information measures
# ---------------------------------------------------------------------------

def entropy_vec(v):
    """Entropy in bits of a raw probability vector (no validation)."""
    return float(_neg_plogp(np.asarray(v, dtype=np.float64)).sum())


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
# compress-forward psi terms of one (Qtilde, V) pair
# ---------------------------------------------------------------------------

def v_q_x1(aux, v):
    """V_{Q_{X1}}(y3|x2,yhat2) for V of shape (X1, X2, Yhat2, Y3)."""
    return np.einsum("x,xahz->ahz", aux.q_x1, v)


def mi_terms(aux, qtilde, v):
    """(I(Q_X1, Qtilde x V | Q_X2), I(Qtilde_hat, V_{Q_X1} | Q_X2))."""
    qhat_t = aux.yhat_marginal(qtilde)
    q1, q2 = aux.q_x1, aux.q_x2
    j1 = np.einsum("a,x,ah,xahz->axhz", q2, q1, qhat_t, v)
    mi_x1 = cond_mi_from_joint(j1.reshape(j1.shape[0], j1.shape[1], -1))
    j2 = np.einsum("a,ah,ahz->ahz", q2, qhat_t, v_q_x1(aux, v))
    mi_hat = cond_mi_from_joint(j2)
    return mi_x1, mi_hat


def cf_psi1(aux, qtilde, v, r: float) -> float:
    """|I(Q_X1, Qtilde x V | Q_X2) - R|+."""
    mi_x1, _ = mi_terms(aux, qtilde, v)
    return max(mi_x1 - r, 0.0)


def _psi2_from_terms(mi_x1, mi_hat, loss, rates, variant):
    """psi_2 from its information terms."""
    if variant == "standard":
        inner = (np.maximum(mi_x1 - rates.r, 0.0) + mi_hat
                 - max(loss - rates.r2, 0.0))
        return np.maximum(inner, 0.0)
    if variant == "prime":
        return np.maximum(
            mi_x1 - rates.r + np.maximum(mi_hat - (loss - rates.r2), 0.0), 0.0)
    if variant == "twocase":
        clamped = np.maximum(mi_x1 - rates.r, 0.0)
        if rates.r2 <= loss:
            return np.maximum(mi_hat + clamped + rates.r2 - loss, 0.0)
        return mi_hat + clamped
    raise ValueError(f"unknown psi2 variant {variant!r}")


def cf_psi2(aux, qtilde, v, rates, variant: str = "standard") -> float:
    """The second decoding exponent term; `variant` selects the formula.

    "standard" is the single-expression form, "twocase" the equivalent
    case split on the excess Wyner-Ziv rate, "prime" the strengthened
    alternative.  All are nonnegative.
    """
    mi_x1, mi_hat = mi_terms(aux, qtilde, v)
    loss = rate_loss(aux, qtilde)
    return _psi2_from_terms(mi_x1, mi_hat, loss, rates, variant)


# ---------------------------------------------------------------------------
# method of types
# ---------------------------------------------------------------------------

def type_class_size(t):
    """Number of sequences with type t (exact multinomial coefficient)."""
    return math.factorial(t.n) // math.prod(map(math.factorial, t.counts))
