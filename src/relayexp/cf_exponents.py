"""Compress-forward exponent machinery at desk scale.

The compress-forward scheme has two constituent exponents: G1 covers the
destination's decoding of the relay's bin index, G2 covers the joint
decoding of the message and the description given the bin index.  G2
involves nested optimizations over the realized relay-observation law
Q_{Y2|X2}, the test channel Q_{Yhat2|Y2,X2}, an estimated law
Qtilde_{Y2|X2} and dummy channels V restricted to a likelihood set; it is
evaluated by coarse grids with local refinement, and every result carries
its grid resolution.  All alphabets must be at most 3 with |Yhat2| <= 2.
"""

from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from .pdf_exponents import ExponentEval, alternating_primal, gallager_dual
from .prob_core import (CondDist, Dist, OptimizerConfig, _neg_plogp,
                        cond_mi_from_joint, kl_div_vec)
from .relay_model import CfAuxChannels, CfInput, RelayChannelSpec, cf_aux_channels
from .types_toolkit import EnumBudgetError

_V_BUDGET = 200_000
# (Qtilde, V) pair evaluations a cf_G2 grid search may need before pruning;
# the skewed binary test channel needs about 8e7
CF_PAIR_BUDGET = 10**9
_ALPHA_SLACK = 1e-9


def cf_config():
    """Default search configuration for the compress-forward grids."""
    return OptimizerConfig(coarse_grid_points=5, refinement_rounds=2,
                           restarts=1, seed=0)


@dataclass(frozen=True)
class CfRates:
    """Message rate R and Wyner-Ziv rate R2 (bits)."""

    r: float
    r2: float

    def __post_init__(self):
        if self.r < 0 or self.r2 < 0:
            raise ValueError("rates must be nonnegative")


@dataclass(frozen=True)
class CfJointType:
    """Joint over X1 x X2 x Yhat2 x Y3 with consistent marginals."""

    joint: np.ndarray
    q_x1: np.ndarray
    q_x2: np.ndarray
    q_yhat_given_x2: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.joint, dtype=np.float64)
        if np.any(j < 0.0) or abs(j.sum() - 1.0) > 1e-9:
            raise ValueError("joint must be a probability table")
        m1 = j.sum(axis=(1, 2, 3))
        m2 = j.sum(axis=(0, 2, 3))
        if (np.max(np.abs(m1 - self.q_x1)) > 1e-9
                or np.max(np.abs(m2 - self.q_x2)) > 1e-9):
            raise ValueError("X1/X2 marginals are inconsistent")
        mhat = j.sum(axis=(0, 3))  # (X2, Yhat2)
        target = self.q_x2[:, None] * self.q_yhat_given_x2
        if np.max(np.abs(mhat - target)) > 1e-9:
            raise ValueError("Yhat2|X2 marginal is inconsistent")
        object.__setattr__(self, "joint", j)


def _check_scale(w: RelayChannelSpec, yhat_size):
    if max(w.sizes) > 3 or yhat_size > 2:
        raise ValueError("compress-forward evaluation is limited to "
                         "alphabets <= 3 with |Yhat2| <= 2")


# ---------------------------------------------------------------------------
# scalar psi machinery
# ---------------------------------------------------------------------------

def mi_terms(aux: CfAuxChannels, qtilde, v, qhat=None):
    """(I(Q_X1, Qtilde x V | Q_X2), I(Qtilde_hat, V_{Q_X1} | Q_X2)).

    The description marginal can be passed directly as `qhat` (shape
    (X2, Yhat2)); otherwise it is induced from `qtilde`.
    """
    qhat_t = aux.yhat_marginal(qtilde) if qhat is None else qhat
    q1, q2 = aux.q_x1, aux.q_x2
    j1 = np.einsum("a,x,ah,xahz->axhz", q2, q1, qhat_t, v)
    mi_x1 = cond_mi_from_joint(j1.reshape(j1.shape[0], j1.shape[1], -1))
    vq1 = aux.v_q_x1(v)                           # (X2, Yhat2, Y3)
    j2 = np.einsum("a,ah,ahz->ahz", q2, qhat_t, vq1)
    mi_hat = cond_mi_from_joint(j2)
    return mi_x1, mi_hat


def rate_loss(aux: CfAuxChannels, qtilde):
    """I(Qtilde_{Y2|X2}, Q_{Yhat2|Y2X2} | Q_{X2}) in bits.

    `qtilde` may carry leading axes (a stack of laws); the result then is
    an array of their shape.
    """
    test = aux.test_channel                                  # (Y2, X2, Yhat2)
    h_hat = _neg_plogp(np.einsum("...ay,yah->...ah", qtilde, test)).sum(-1)
    h_test = np.einsum("...ay,ya->...a", qtilde, _neg_plogp(test).sum(-1))
    loss = np.maximum(np.einsum("a,...a->...", aux.q_x2, h_hat - h_test), 0.0)
    return float(loss) if loss.ndim == 0 else loss


def cf_psi1(aux: CfAuxChannels, qtilde, v, r: float) -> float:
    """|I(Q_X1, Qtilde x V | Q_X2) - R|+."""
    mi_x1, _ = mi_terms(aux, qtilde, v)
    return max(mi_x1 - r, 0.0)


def _psi2_from_terms(mi_x1, mi_hat, loss, rates: CfRates, variant):
    if variant == "standard":
        inner = max(mi_x1 - rates.r, 0.0) + mi_hat - max(loss - rates.r2, 0.0)
        return max(inner, 0.0)
    if variant == "prime":
        return max(mi_x1 - rates.r + max(mi_hat - (loss - rates.r2), 0.0), 0.0)
    if variant == "twocase":
        clamped = max(mi_x1 - rates.r, 0.0)
        if rates.r2 <= loss:
            return max(mi_hat + clamped + rates.r2 - loss, 0.0)
        return mi_hat + clamped
    raise ValueError(f"unknown psi2 variant {variant!r}")


def cf_psi2(aux: CfAuxChannels, qtilde, v, rates: CfRates,
            variant: str = "standard") -> float:
    """The second decoding exponent term; `variant` selects the formula.

    "standard" is the single-expression form, "twocase" the equivalent
    case split on the excess Wyner-Ziv rate, "prime" the strengthened
    alternative.  All are nonnegative.
    """
    mi_x1, mi_hat = mi_terms(aux, qtilde, v)
    loss = rate_loss(aux, qtilde)
    return _psi2_from_terms(mi_x1, mi_hat, loss, rates, variant)


# ---------------------------------------------------------------------------
# alpha-likelihood membership
# ---------------------------------------------------------------------------

def _alpha_weights(aux: CfAuxChannels):
    """Q(x1,x2,yhat2) weights and the -log2 reference-channel table."""
    qw = np.einsum("x,a,ah->xah", aux.q_x1, aux.q_x2, aux.q_yhat_given_x2)
    ref = aux.w2_cond()
    logref = np.where(ref > 0.0, np.log2(np.where(ref > 0.0, ref, 1.0)), 0.0)
    zero = ref <= 0.0
    return qw, ref, logref, zero


def alpha_value(aux: CfAuxChannels, v):
    """alpha(Q, V) = D(V||W2|Q) + H(V|Q) = E_Q,V[-log2 W2]; +inf off support."""
    qw, _, logref, zero = _alpha_weights(aux)
    if np.any((v > 0.0) & zero & (qw[..., None] > 0.0)):
        return np.inf
    return float(-np.einsum("xah,xahz,xahz->", qw, v, logref))


# ---------------------------------------------------------------------------
# grid builders
# ---------------------------------------------------------------------------

def _row_grid(n_out, points):
    """Simplex lattice for one row: compositions of (points-1) over n_out."""
    m = points - 1
    rows = []
    for comp in product(range(m + 1), repeat=n_out - 1):
        rest = m - sum(comp)
        if rest < 0:
            continue
        rows.append(np.array(comp + (rest,), dtype=np.float64) / m)
    return rows


def _matrix_grid(n_in, n_out, points):
    """All stochastic matrices with rows on the lattice, lexicographic."""
    rows = _row_grid(n_out, points)
    return [np.array(combo) for combo in product(rows, repeat=n_in)]


_STACK_CACHE = {}
_TABLE_CACHE = {}
_TABLE_CHUNK = 1024


def _v_lattice(n_rows, n_y3):
    """(points, size) of the dummy-channel stack with `n_rows` rows over Y3.

    `points` is the per-row lattice resolution, 0 for the seeded Dirichlet
    sample used when even the vertex lattice exceeds the budget.
    """
    for points in (3, 2):
        size = len(_row_grid(n_y3, points)) ** n_rows
        if size <= _V_BUDGET:
            return points, size
    return 0, _V_BUDGET // 10 + n_y3


def _v_stack(shape_rows, n_y3):
    """Stack of dummy channels V on a per-row lattice within budget.

    shape_rows = (X1, X2, Yhat2); returns (stack, points_used), cached per
    shape.  The stack is laid out (X1, X2, Yhat2, Y3, M) with the channel
    index last, so that a weighted sum over each channel's entries runs
    over contiguous memory.
    """
    shape_rows = tuple(shape_rows)
    key = (shape_rows, n_y3)
    if key not in _STACK_CACHE:
        n_rows = int(np.prod(shape_rows))
        points, _ = _v_lattice(n_rows, n_y3)
        if points:
            combos = list(product(_row_grid(n_y3, points), repeat=n_rows))
            stack = np.array(combos).reshape(len(combos), *shape_rows, n_y3)
        else:
            # even the vertex lattice is too large: fall back to a seeded
            # Dirichlet sample plus the constant point-mass channels, and
            # let the local refinement polish the best sampled start
            rng = np.random.default_rng(7)
            stack = rng.dirichlet(np.ones(n_y3), size=(_V_BUDGET // 10, n_rows))
            stack = stack.reshape(-1, *shape_rows, n_y3)
            masses = np.zeros((n_y3, n_rows, n_y3))
            for z in range(n_y3):
                masses[z, :, z] = 1.0
            stack = np.concatenate(
                [stack, masses.reshape(n_y3, *shape_rows, n_y3)], axis=0)
        _STACK_CACHE[key] = (np.ascontiguousarray(np.moveaxis(stack, 0, -1)),
                              points)
    return _STACK_CACHE[key]


# ---------------------------------------------------------------------------
# the inner minimization of J (independent of the outer joint type)
# ---------------------------------------------------------------------------

def _row_tables(v, q_x1):
    """The tables of a stack of dummy channels that depend on V and Q_X1 only.

    v : (X1, X2, Yhat2, Y3, M), channel index last.  Returns V_{Q_X1} as
    (X2, Y3, Yhat2, M) and a (2, X2*Yhat2, M) array holding, per row
    (a, h), the information I(Q_X1, V(.|., a, h)) and the entropy
    H(V_{Q_X1}(.|a, h)).  The channel index stays last, and Yhat2 sits
    just before it in V_{Q_X1}, because the per-Qtilde sums run over them.
    """
    vq1 = np.einsum("x,xahzm->azhm", q_x1, v)
    h_row = _neg_plogp(vq1).sum(axis=1)                      # (X2, Yhat2, M)
    mi_row = h_row - np.einsum("x,xahm->ahm", q_x1,
                               _neg_plogp(v).sum(axis=3))
    return vq1, np.stack([mi_row, h_row]).reshape(2, -1, v.shape[-1])


def _v_tables(stack, q_x1):
    """`_row_tables` of a cached stack, built in chunks and kept for the
    latest Q_X1 per stack shape."""
    cached = _TABLE_CACHE.get(stack.shape)
    if cached is None or cached[0] != q_x1.tobytes():
        n_x2, n_yhat, n_y3, n_v = stack.shape[1:]
        vq1 = np.empty((n_x2, n_y3, n_yhat, n_v))
        lin = np.empty((2, n_x2 * n_yhat, n_v))
        for lo in range(0, n_v, _TABLE_CHUNK):
            hi = lo + _TABLE_CHUNK
            vq1[..., lo:hi], lin[..., lo:hi] = _row_tables(stack[..., lo:hi],
                                                           q_x1)
        cached = (q_x1.tobytes(), vq1, lin)
        _TABLE_CACHE[stack.shape] = cached
    return cached[1:]


def _alpha_cols(v_cols, coef, mask):
    """alpha of each column of `v_cols` (one channel per column) as the dot
    product with `coef`; +inf for columns with mass where `mask` is 1."""
    alphas = np.einsum("jm,j->m", v_cols, coef)
    if mask is not None:
        alphas[np.einsum("jm,j->m", v_cols, mask) > 0.0] = np.inf
    return alphas


def _member_cols(table, ref, idx):
    """Columns `idx` (last axis) of `table` extended by the single column
    `ref` as its column table.shape[-1]."""
    # np.take keeps the channel axis last in memory; fancy indexing
    # would move it first and slow every sum over the result
    if idx[-1] < table.shape[-1]:
        return np.take(table, idx, axis=-1)
    return np.concatenate([np.take(table, idx[:-1], axis=-1), ref], axis=-1)


def _true_y3_marginal(aux):
    """True Y3-given-X2 marginal under Q_X1 x Q_X2 x W2, shape (X2, Y3)."""
    return np.einsum("x,xahz->az", aux.q_x1, aux.w2)


def _pair_costs(aux, qhat, v, rates: CfRates):
    """Membership-checked cost of one (Qtilde-hat, V) competitor pair.

    A competitor pair describes the same received block as the true
    transmission, so two couplings apply:

    * likelihood membership -- the competitor's per-letter negative
      log-likelihood against W2, weighted by its own description
      marginal Qtilde-hat, must not exceed the true channel's value
      (less likely candidates never win the decoding); and
    * output consistency -- the Y3-given-X2 marginal the pair induces
      must match the true one; deviations are charged at their minimal
      divergence cost, which lower-bounds the divergence any channel
      behavior reproducing them must pay.

    Returns (membership_ok, marginal_cost, mi_x1, mi_hat).
    """
    _, ref, logref, zero = _alpha_weights(aux)
    qw = np.einsum("x,a,ah->xah", aux.q_x1, aux.q_x2, qhat)
    if np.any((v > 0.0) & zero & (qw[..., None] > 0.0)):
        return False, np.inf, 0.0, 0.0
    alpha = float(-np.einsum("xah,xahz,xahz->", qw, v, logref))
    t_ref = alpha_value(aux, aux.w2_cond())
    if alpha > t_ref + _ALPHA_SLACK:
        return False, np.inf, 0.0, 0.0
    mstar = _true_y3_marginal(aux)                    # (X2, Y3)
    mu = np.einsum("xah,xahz->az", qw, v)             # q2-weighted Y3 marginal
    cost = 0.0
    for a in range(mu.shape[0]):
        if aux.q_x2[a] <= 0.0:
            continue
        cost += aux.q_x2[a] * kl_div_vec(mu[a] / aux.q_x2[a], mstar[a])
    mi1, mih = mi_terms(aux, None, v, qhat=qhat)
    return True, float(cost), mi1, mih


def _pair_value(aux, qt, v, rates: CfRates):
    """(coupling cost + min{psi_1, psi_2}, marginal cost, ell) of one pair.

    Scalar evaluation of the objective of `_inner_min` at (Qtilde, V);
    the value is +inf, and ell None, for pairs outside the likelihood set.
    """
    ok, cost, mi1, mih = _pair_costs(aux, aux.yhat_marginal(qt), v, rates)
    if not ok:
        return np.inf, np.inf, None
    loss = rate_loss(aux, qt)
    p1 = max(mi1 - rates.r, 0.0)
    p2 = max(_psi2_from_terms(mi1, mih, loss, rates, "standard"),
             _psi2_from_terms(mi1, mih, loss, rates, "prime"))
    return cost + min(p1, p2), cost, 1 if p1 <= p2 else 2


def _refine_pair(aux, rates: CfRates, cfg: OptimizerConfig, qt, v, value,
                 step):
    """Local refinement of (Qtilde, V) with shrinking exchange steps.

    Moves `step` of mass between two entries of one row of `qt` or `v`
    (both changed in place) while that lowers the value by more than
    1e-15, then quarters the step, for `cfg.refinement_rounds` rounds.
    Returns the value at the final pair.
    """
    for _ in range(cfg.refinement_rounds):
        improved = True
        while improved:
            improved = False
            for arr in (qt, v):
                flat = arr.reshape(-1, arr.shape[-1])
                for row in range(flat.shape[0]):
                    for i in range(flat.shape[1]):
                        for j in range(flat.shape[1]):
                            if i == j or flat[row, j] < step:
                                continue
                            flat[row, i] += step
                            flat[row, j] -= step
                            cand = _pair_value(aux, qt, v, rates)[0]
                            if cand < value - 1e-15:
                                value = cand
                                improved = True
                            else:
                                flat[row, i] -= step
                                flat[row, j] += step
        step /= 4.0
    return value


def _inner_min(aux: CfAuxChannels, rates: CfRates, cfg: OptimizerConfig,
               qtilde_points=None, refine=True):
    """min over Qtilde and competitor channels V of coupling cost + psi.

    For each estimated law Qtilde (inducing a description marginal
    Qtilde-hat) and each dummy channel V on the grid, the pair is kept
    only if it is at least as likely as the true channel (see
    `_pair_costs`), its deviation from the true output marginal is
    charged as a divergence, and the decoding cost min{psi_1, psi_2} is
    added, psi_2 being the max of its standard and strengthened
    variants.  Returns (value, dict of witnesses).

    The grid stage uses that X1 is independent of Yhat2 given X2.  With
    the weights w(a, h) = Q_X2(a) Qtilde-hat(h|a), every quantity but one
    entropy is linear in w:

    * I(Q_X1, Qtilde x V | Q_X2) = sum_{a,h} w(a,h) I(Q_X1, V(.|., a, h))
      by the chain rule, since I(X1; Yhat2 | X2) = 0;
    * alpha and the off-support mass are w-weighted sums of per-row terms;
    * the Q_X2-weighted output marginal is
      mu(a, z) = sum_h w(a,h) V_{Q_X1}(z|a,h), and
      I(Qtilde-hat, V_{Q_X1} | Q_X2) = H(mu) - H(Q_X2)
      - sum_{a,h} w(a,h) H(V_{Q_X1}(.|a,h)), whose H(mu) is the
      mu log mu sum the marginal cost needs as well.

    The per-row tables depend on V and Q_X1 only and are built once per
    stack (`_v_tables`); the reference channel V_ref is one extra
    candidate after the stack.  Each Qtilde then costs one dot product
    over the stack for alpha (coefficients Q_X1 x w x -log2 W2) and a few
    over the members.  Ties keep the first Qtilde, then the first V.
    """
    n_x1 = aux.q_x1.shape[0]
    n_x2 = aux.q_x2.shape[0]
    n_y2 = aux.test_channel.shape[0]
    n_yhat = aux.w2.shape[2]
    n_y3 = aux.w2.shape[3]

    if qtilde_points is None:
        qtilde_points = cfg.coarse_grid_points
    qtildes = _matrix_grid(n_x2, n_y2, qtilde_points)
    qtildes.append(np.array([aux.wq1_y2[a] / aux.wq1_y2[a].sum()
                             for a in range(n_x2)]))
    if aux.realized is not None:
        qtildes.append(aux.realized.copy())

    vref = aux.w2_cond()
    vstack, v_points = _v_stack((n_x1, n_x2, n_yhat), n_y3)
    n_v = vstack.shape[-1]
    q1, q2 = aux.q_x1, aux.q_x2
    _, _, logref, zero = _alpha_weights(aux)
    t_ref = alpha_value(aux, vref)
    has_zero = zero.any()
    mstar = _true_y3_marginal(aux)                          # (X2, Y3)
    off_support = mstar <= 0.0
    has_off = off_support.any()
    log_mstar = np.where(mstar > 0.0,
                         np.log2(np.where(mstar > 0.0, mstar, 1.0)), 0.0)
    # marginal cost = sum mu log2 mu - sum mu (log2 mstar + log2 q2)
    cost_coef = log_mstar + np.log2(np.where(q2 > 0.0, q2, 1.0))[:, None]
    h_q2 = float(_neg_plogp(q2).sum())

    vq1, lin = _v_tables(vstack, q1)
    vq1_ref, lin_ref = _row_tables(vref[..., None], q1)
    v_cols = vstack.reshape(-1, n_v)
    ref_col = vref.reshape(-1, 1)

    qt_stack = np.stack(qtildes)                            # (T, X2, Y2)
    qhat_stack = np.einsum("tay,yah->tah", qt_stack, aux.test_channel)
    losses = rate_loss(aux, qt_stack)

    value = np.inf
    it = iv = None
    ell = 1
    best_cost = 0.0
    for t in range(qt_stack.shape[0]):
        w = q2[:, None] * qhat_stack[t]                     # (X2, Yhat2)
        qw = q1[:, None, None] * w
        coef = (-qw[..., None] * logref).reshape(-1)
        mask = None
        if has_zero:
            mask = (zero & (qw[..., None] > 0.0)).astype(np.float64).reshape(-1)
        # V_ref is candidate n_v, after the stack
        alphas = np.append(_alpha_cols(v_cols, coef, mask),
                           _alpha_cols(ref_col, coef, mask))
        midx = np.flatnonzero(alphas <= t_ref + _ALPHA_SLACK)
        if midx.size == 0:
            continue
        # q2-weighted Y3|X2 marginal and its consistency cost, per member
        mu = np.einsum("azhm,ah->azm", _member_cols(vq1, vq1_ref, midx), w)
        mu_log_mu = np.einsum("azm,azm->m", mu,
                              np.log2(np.where(mu > 0.0, mu, 1.0)))
        cost = mu_log_mu - np.einsum("azm,az->m", mu, cost_coef)
        if has_off:
            off = ((mu > 1e-15) & off_support[..., None]).any(axis=(0, 1))
            cost[off] = np.inf
        mi_x1, h_rows = np.einsum("jkm,k->jm",
                                  _member_cols(lin, lin_ref, midx),
                                  w.reshape(-1))
        mi_hat = -mu_log_mu - h_q2 - h_rows
        loss = losses[t]
        psi1 = np.maximum(mi_x1 - rates.r, 0.0)
        psi2_std = np.maximum(
            psi1 + mi_hat - np.maximum(loss - rates.r2, 0.0), 0.0)
        psi2_pri = np.maximum(
            mi_x1 - rates.r + np.maximum(mi_hat - (loss - rates.r2), 0.0), 0.0)
        psi2 = np.maximum(psi2_std, psi2_pri)
        vals = cost + np.minimum(psi1, psi2)
        k = int(np.argmin(vals))
        if vals[k] < value:
            value = float(vals[k])
            it, iv = t, int(midx[k])
            ell = 1 if psi1[k] <= psi2[k] else 2
            best_cost = float(cost[k])

    if it is None:
        # no competitor pair on the grid is as likely as the truth
        return np.inf, {"qtilde": None, "v": None, "ell": 0,
                        "marginal_cost": np.inf,
                        "v_grid_points": v_points,
                        "qtilde_grid_points": qtilde_points}

    qt = qtildes[it].copy()
    v = vstack[..., iv].copy() if iv < n_v else vref

    if refine and cfg.refinement_rounds > 0:
        step = 1.0 / (2 * max(qtilde_points - 1, v_points - 1, 1))
        value = _refine_pair(aux, rates, cfg, qt, v, value, step)
        _, best_cost, ell_refined = _pair_value(aux, qt, v, rates)
        if ell_refined is not None:
            ell = ell_refined

    witnesses = {"qtilde": qt, "v": v, "ell": ell,
                 "marginal_cost": best_cost,
                 "v_grid_points": v_points, "qtilde_grid_points": qtilde_points}
    return value, witnesses


def _product_joint(aux: CfAuxChannels):
    """The divergence-minimizing joint Q_X1 x Q_X2 x W2 (zero divergence)."""
    return np.einsum("x,a,xahz->xahz", aux.q_x1, aux.q_x2, aux.w2)


def cf_J(w: RelayChannelSpec, c: CfInput, rates: CfRates,
         cfg: OptimizerConfig = None):
    """min over consistent joints of divergence-plus-inner-decoding cost.

    The channel-behavior divergence attains 0 at the product joint
    Q_X1 x Q_X2 x W2 (which satisfies all marginal constraints); the
    evaluation anchors the behavior there and charges each competitor
    pair (Qtilde, V) for any deviation of its induced output marginal
    from the true one (see `_inner_min` / `_pair_costs`), a divergence
    lower bound on what a behavior reproducing the competitor would
    cost.  The product joint is returned as the joint-type witness.
    """
    _check_scale(w, c.yhat_size)
    if cfg is None:
        cfg = cf_config()
    aux = cf_aux_channels(w, c)
    inner, witnesses = _inner_min(aux, rates, cfg)
    pstar = _product_joint(aux)
    witnesses["joint"] = CfJointType(pstar, aux.q_x1, aux.q_x2,
                                     aux.q_yhat_given_x2)
    witnesses["divergence"] = 0.0
    # the truth pair certifies zero up to float noise in the marginal cost
    return inner if inner > 1e-12 else 0.0, witnesses


# ---------------------------------------------------------------------------
# constituent exponents
# ---------------------------------------------------------------------------

def cf_G1(w: RelayChannelSpec, c: CfInput, r2: float) -> ExponentEval:
    """min_V D(V || W_{Q_X1} | Q_X2) + |I(Q_X2, V) - R2|+.

    Computed in both the 1-D Gallager dual and the `alternating_primal`
    form; the dual value is returned with the primal (an upper bound) and
    its dummy channel attached as diagnostics.
    """
    if r2 < 0:
        raise ValueError("r2 must be nonnegative")
    aux = cf_aux_channels(w, c)
    q_s = np.array([1.0])
    q_xs = aux.q_x2[None, :]
    chan = aux.wq1_y3[None, :, :]

    dual, rho, _ = gallager_dual(q_s, q_xs, chan, r2)
    primal, vp, _, _, _ = alternating_primal(q_s, q_xs, chan, r2)
    return ExponentEval(dual, rho, "dual", "cf_G1",
                        {"primal": primal, "primal_witness": vp[0]})


def cf_G2(w: RelayChannelSpec, c_template: CfInput, r: float, r2: float,
          cfg: OptimizerConfig = None):
    """Outer min over realized Q_{Y2|X2} of divergence + max over test channels of J.

    Returns (value, witness dict with the realized law and test channel).
    The result is grid-accurate; the grid resolutions are reported.
    """
    _check_scale(w, c_template.yhat_size)
    if cfg is None:
        cfg = cf_config()
    rates = CfRates(r, r2)
    n_x2, n_y2 = w.sizes[1], w.sizes[2]
    n_yhat = c_template.yhat_size
    q2 = c_template.q_x2

    base_aux = cf_aux_channels(w, c_template)
    wq1_y2 = base_aux.wq1_y2  # (X2, Y2) true observation marginal

    def div_term(qy2):
        d = 0.0
        for a in range(n_x2):
            if q2.probs[a] == 0.0:
                continue
            dd = kl_div_vec(qy2[a], wq1_y2[a] / wq1_y2[a].sum())
            if not np.isfinite(dd):
                return np.inf
            d += q2.probs[a] * dd
        return d

    def inner_max(qy2, tests, stop_at=np.inf, refine=False):
        """max over candidate test channels of the inner J value.

        Aborts with (+inf, None, None) once the running max reaches
        `stop_at`: the candidate realized law then cannot beat the
        incumbent (J only grows with further tests).
        """
        best = (-np.inf, None, None)
        for t in tests:
            try:
                cin_t = CfInput(c_template.q_x1, q2, n_yhat,
                                CondDist(t.reshape(-1, n_yhat)),
                                CondDist(qy2))
                aux = cf_aux_channels(w, cin_t)
            except ValueError:
                continue
            val, wit = _inner_min(aux, rates, cfg, qtilde_points=3,
                                  refine=refine)
            if val > best[0]:
                best = (val, t, wit)
                if best[0] >= stop_at:
                    return (np.inf, None, None)
        return best

    qy2_cands = _matrix_grid(n_x2, n_y2, cfg.coarse_grid_points)
    qy2_cands.append(np.array([wq1_y2[a] / wq1_y2[a].sum()
                               for a in range(n_x2)]))
    test_cands = []
    seen = set()
    raw_tests = _matrix_grid(n_y2 * n_x2, n_yhat, 3)
    if c_template.test_channel is not None:
        raw_tests.insert(0, c_template.test_channel.rows
                         .reshape(n_y2 * n_x2, n_yhat))
    for t in raw_tests:
        # the description alphabet is internal: relabelings of Yhat2 give
        # identical values, so keep one representative per orbit
        canon = min(t[:, list(perm)].tobytes()
                    for perm in permutations(range(n_yhat)))
        if canon not in seen:
            seen.add(canon)
            test_cands.append(t)

    # every _inner_min call scores each (Qtilde, V) pair of its grid once;
    # refuse searches whose count, before pruning, is over the budget
    n_qtilde = len(_row_grid(n_y2, 3)) ** n_x2 + 2
    v_points, n_v = _v_lattice(w.sizes[0] * n_x2 * n_yhat, w.sizes[3])
    pairs = len(qy2_cands) * len(test_cands) * n_qtilde * (n_v + 1)
    if pairs > CF_PAIR_BUDGET:
        raise EnumBudgetError(
            f"compress-forward G2 search needs about {pairs:.2e} (Qtilde, V) "
            f"pair evaluations ({len(qy2_cands)} realized laws x "
            f"{len(test_cands)} test channels x {n_qtilde} Qtilde x "
            f"{n_v + 1} V), over the budget of {CF_PAIR_BUDGET:.0e}")

    best = (np.inf, None, None, None)  # value, qy2, test, witnesses
    for qy2 in qy2_cands:
        d = div_term(qy2)
        if d >= best[0]:
            continue  # J >= 0, cannot beat the incumbent
        jval, t, wit = inner_max(qy2, test_cands, stop_at=best[0] - d)
        if not np.isfinite(jval) or jval == -np.inf:
            continue
        total = d + jval
        if total < best[0]:
            best = (total, qy2, t, wit)

    value, qy2, t, wit = best
    # refinement of the realized law around the incumbent
    if cfg.refinement_rounds > 0 and qy2 is not None:
        step = 0.5 / max(cfg.coarse_grid_points - 1, 1)
        for _ in range(cfg.refinement_rounds):
            improved = True
            while improved:
                improved = False
                for a in range(n_x2):
                    for i in range(n_y2):
                        for j in range(n_y2):
                            if i == j or qy2[a, j] < step:
                                continue
                            cand = qy2.copy()
                            cand[a, i] += step
                            cand[a, j] -= step
                            d = div_term(cand)
                            if d >= value:
                                continue
                            jv, tc, wc = inner_max(cand, test_cands,
                                                   stop_at=value - d)
                            if np.isfinite(jv) and d + jv < value - 1e-12:
                                value, qy2, t, wit = d + jv, cand, tc, wc
                                improved = True
            step /= 4.0

    # polish the selected test channel with the refining inner search
    if qy2 is not None and t is not None:
        cin_t = CfInput(c_template.q_x1, q2, n_yhat,
                        CondDist(t.reshape(-1, n_yhat)), CondDist(qy2))
        jv, wit = _inner_min(cf_aux_channels(w, cin_t), rates, cfg,
                             qtilde_points=3, refine=True)
        value = div_term(qy2) + jv

    witness = {"q_y2_given_x2": qy2, "test_channel": t,
               "inner": wit, "v_grid_points": v_points,
               "grid_note": (f"qy2:{cfg.coarse_grid_points},test:3,"
                             f"qtilde:3,v:{v_points}")}
    return value if value > 1e-12 else 0.0, witness


def cf_overall_witness(w: RelayChannelSpec, c: CfInput, b: int, r_eff: float,
                       r2: float, cfg: OptimizerConfig = None,
                       g1: float = None):
    """`cf_overall` together with the witness dict of its G2 term.

    `g1` optionally supplies `cf_G1(w, c, r2).value`, which does not depend
    on the block rate.  G2 >= 0, so G1 = 0 settles the value: the G2 search
    is then skipped and its witness holds only `g1` and `g2_skipped`, with
    `grid_note` and `v_grid_points` set to None.
    """
    if b < 2:
        raise ValueError("b must be >= 2")
    if g1 is None:
        g1 = cf_G1(w, c, r2).value
    if g1 == 0.0:
        return 0.0, {"g1": g1, "g2_skipped": True, "grid_note": None,
                     "v_grid_points": None}
    g2, witness = cf_G2(w, c, b / (b - 1) * r_eff, r2, cfg)
    return (max(0.0, min(g1, g2) / b),
            {**witness, "g1": g1, "g2_skipped": False})


def cf_overall(w: RelayChannelSpec, c: CfInput, b: int, r_eff: float,
               r2: float, cfg: OptimizerConfig = None) -> float:
    """(1/b) min{G1(R2), G2(R_b, R2)} with R_b = b/(b-1) * r_eff."""
    return cf_overall_witness(w, c, b, r_eff, r2, cfg)[0]
