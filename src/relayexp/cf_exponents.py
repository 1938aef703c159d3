"""Compress-forward exponent machinery at desk scale.

The compress-forward scheme has two constituent exponents: G1 covers the
destination's decoding of the relay's bin index, G2 covers the joint
decoding of the message and the description given the bin index.  G2
involves nested optimizations over the realized relay-observation law
Q_{Y2|X2}, the test channel Q_{Yhat2|Y2,X2}, an estimated law
Qtilde_{Y2|X2} and dummy channels V restricted to a likelihood set.  Its
inner term J has zero channel-behavior divergence, attained at the product
joint Q_X1 x Q_X2 x W2, so J is the minimum over (Qtilde, V) that
`_inner_min` computes.  Each minimization runs on a coarse grid whose best
point is polished by one pairwise-exchange walk (`_exchange_walk`), and
every result carries its grid resolution.  All alphabets must be at most 3
with |Yhat2| <= 2.
"""

from dataclasses import dataclass
from functools import cache
from itertools import permutations, product

import numpy as np

from .pdf_exponents import (ExponentEval, _below_mi, alternating_primal,
                            gallager_dual)
from .prob_core import CondDist, _neg_plogp, _row_divergences
from .relay_model import CfAuxChannels, CfInput, RelayChannelSpec, cf_aux_channels
from .types_toolkit import EnumBudgetError, _compositions

_V_BUDGET = 200_000
# (Qtilde, V) pair evaluations a cf_G2 grid search may need before pruning;
# the skewed binary test channel needs about 8e7
CF_PAIR_BUDGET = 10**9
_ALPHA_SLACK = 1e-9
# per-row lattice of the estimated laws Qtilde and of the test channels
_QTILDE_POINTS = 3
# per-row lattice of the realized relay-observation laws Q_{Y2|X2}
_QY2_POINTS = 5
# rounds of each exchange walk that polishes a grid minimum; each round
# searches with a quarter of the previous round's step
_REFINE_ROUNDS = 2


@dataclass(frozen=True)
class CfRates:
    """Message rate R and Wyner-Ziv rate R2 (bits)."""

    r: float
    r2: float

    def __post_init__(self):
        if self.r < 0 or self.r2 < 0:
            raise ValueError("rates must be nonnegative")


def _check_scale(w: RelayChannelSpec, yhat_size):
    if max(w.sizes) > 3 or yhat_size > 2:
        raise ValueError("compress-forward evaluation is limited to "
                         "alphabets <= 3 with |Yhat2| <= 2")


# ---------------------------------------------------------------------------
# rate loss and alpha-likelihood membership
# ---------------------------------------------------------------------------

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
    """Simplex lattice for one row: compositions of (points-1) over n_out,
    ascending lexicographic."""
    m = points - 1
    return [np.array(comp, dtype=np.float64) / m
            for comp in reversed(list(_compositions(m, n_out)))]


def _matrix_grid(n_in, n_out, points):
    """All stochastic matrices with rows on the lattice, lexicographic."""
    rows = _row_grid(n_out, points)
    return [np.array(combo) for combo in product(rows, repeat=n_in)]


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


@cache
def _v_stack(shape_rows, n_y3):
    """Stack of dummy channels V on a per-row lattice within budget.

    shape_rows = (X1, X2, Yhat2) as a tuple; returns (stack, points_used),
    cached per shape, with the stack read-only.  The stack is laid out
    (X1, X2, Yhat2, Y3, M) with the channel index last, so that a weighted
    sum over each channel's entries runs over contiguous memory.
    """
    n_rows = int(np.prod(shape_rows))
    points, _ = _v_lattice(n_rows, n_y3)
    if points:
        stack = np.array(_matrix_grid(n_rows, n_y3, points))
    else:
        # even the vertex lattice is too large: fall back to a seeded
        # Dirichlet sample plus the constant point-mass channels, and
        # let the local refinement polish the best sampled start
        rng = np.random.default_rng(7)
        stack = rng.dirichlet(np.ones(n_y3), size=(_V_BUDGET // 10, n_rows))
        masses = np.zeros((n_y3, n_rows, n_y3))
        for z in range(n_y3):
            masses[z, :, z] = 1.0
        stack = np.concatenate([stack, masses], axis=0)
    stack = np.ascontiguousarray(
        np.moveaxis(stack.reshape(-1, *shape_rows, n_y3), 0, -1))
    stack.flags.writeable = False
    return stack, points


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


def _stack_tables(stack, q_x1):
    """`_row_tables` of a whole V stack, built `_TABLE_CHUNK` channels at a
    time to bound the temporaries."""
    n_x2, n_yhat, n_y3, n_v = stack.shape[1:]
    vq1 = np.empty((n_x2, n_y3, n_yhat, n_v))
    lin = np.empty((2, n_x2 * n_yhat, n_v))
    for lo in range(0, n_v, _TABLE_CHUNK):
        hi = lo + _TABLE_CHUNK
        vq1[..., lo:hi], lin[..., lo:hi] = _row_tables(stack[..., lo:hi], q_x1)
    return vq1, lin


def _alpha_cols(v_cols, coef, mask):
    """alpha of each column of `v_cols` (one channel per column) as the dot
    product with `coef`; +inf for columns with mass where `mask` is 1."""
    alphas = np.einsum("jm,j->m", v_cols, coef)
    if mask is not None:
        alphas[np.einsum("jm,j->m", v_cols, mask) > 0.0] = np.inf
    return alphas


def _true_y3_marginal(aux):
    """True Y3-given-X2 marginal under Q_X1 x Q_X2 x W2, shape (X2, Y3)."""
    return np.einsum("x,xahz->az", aux.q_x1, aux.w2)


def _pair_scorer(aux: CfAuxChannels, rates: CfRates):
    """The objective of `_inner_min` for one Qtilde against a stack of V.

    A competitor pair (Qtilde, V) describes the same received block as the
    true transmission, so two couplings apply:

    * likelihood membership -- the competitor's per-letter negative
      log-likelihood alpha against W2, weighted by its own description
      marginal Qtilde-hat, must not exceed the true channel's value
      (less likely candidates never win the decoding); and
    * output consistency -- the Y3-given-X2 marginal the pair induces
      must match the true one; deviations are charged at their minimal
      divergence cost, which lower-bounds the divergence any channel
      behavior reproducing them must pay.

    A member's value is that cost plus the decoding cost min{psi_1, psi_2},
    psi_2 being the max of its standard and strengthened variants.

    The scorer uses that X1 is independent of Yhat2 given X2.  With the
    weights w(a, h) = Q_X2(a) Qtilde-hat(h|a), every quantity but one
    entropy is linear in w:

    * I(Q_X1, Qtilde x V | Q_X2) = sum_{a,h} w(a,h) I(Q_X1, V(.|., a, h))
      by the chain rule, since I(X1; Yhat2 | X2) = 0;
    * alpha and the off-support mass are w-weighted sums of per-row terms;
    * the Q_X2-weighted output marginal is
      mu(a, z) = sum_h w(a,h) V_{Q_X1}(z|a,h), and
      I(Qtilde-hat, V_{Q_X1} | Q_X2) = H(mu) - H(Q_X2)
      - sum_{a,h} w(a,h) H(V_{Q_X1}(.|a,h)), whose H(mu) is the
      mu log mu sum the marginal cost needs as well.

    So a stack is given by its columns (X1*X2*Yhat2*Y3, M) and its
    `_row_tables`, and a Qtilde costs one dot product over the columns for
    alpha (coefficients Q_X1 x w x -log2 W2) and a few over the members.

    Returns score(qhat, loss, stack): `qhat` is Qtilde-hat, `loss` the
    rate loss of Qtilde and `stack` the triple (columns, V_{Q_X1}, row
    table).  score returns (members, values, marginal costs, ell) with ell
    1 where psi_1 <= psi_2 and 2 elsewhere.
    """
    q1, q2 = aux.q_x1, aux.q_x2
    _, vref, logref, zero = _alpha_weights(aux)
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

    def score(qhat, loss, stack):
        v_cols, vq1, lin = stack
        w = q2[:, None] * qhat                              # (X2, Yhat2)
        qw = q1[:, None, None] * w
        coef = (-qw[..., None] * logref).reshape(-1)
        mask = None
        if has_zero:
            mask = (zero & (qw[..., None] > 0.0)).astype(np.float64).reshape(-1)
        midx = np.flatnonzero(_alpha_cols(v_cols, coef, mask)
                              <= t_ref + _ALPHA_SLACK)
        if midx.size == 0:
            empty = np.empty(0)
            return midx, empty, empty, empty
        # q2-weighted Y3|X2 marginal and its consistency cost, per member;
        # np.take keeps the channel axis last in memory, where fancy
        # indexing would move it first and slow every sum over the members
        mu = np.einsum("azhm,ah->azm", np.take(vq1, midx, axis=-1), w)
        mu_log_mu = np.einsum("azm,azm->m", mu,
                              np.log2(np.where(mu > 0.0, mu, 1.0)))
        cost = mu_log_mu - np.einsum("azm,az->m", mu, cost_coef)
        if has_off:
            off = ((mu > 1e-15) & off_support[..., None]).any(axis=(0, 1))
            cost[off] = np.inf
        mi_x1, h_rows = np.einsum("jkm,k->jm", np.take(lin, midx, axis=-1),
                                  w.reshape(-1))
        mi_hat = -mu_log_mu - h_q2 - h_rows
        psi1 = np.maximum(mi_x1 - rates.r, 0.0)
        # psi_2 is the larger of its standard and strengthened forms
        psi2 = np.maximum(
            np.maximum(psi1 + mi_hat - max(loss - rates.r2, 0.0), 0.0),
            np.maximum(mi_x1 - rates.r
                       + np.maximum(mi_hat - (loss - rates.r2), 0.0), 0.0))
        return (midx, cost + np.minimum(psi1, psi2), cost,
                np.where(psi1 <= psi2, 1, 2))

    return score


def _exchange_walk(score, arrays, value, info, step, rounds, tol):
    """First-improvement pairwise-exchange search with shrinking steps.

    Scans the arrays in order, the rows of each (all axes but the last)
    and the ordered entry pairs (i, j) of a row, and tries moving `step` of
    mass from entry j to entry i where entry j holds at least `step`.  A
    move is made on a copy, and `score(moved arrays, value)` returns
    (value, info) for it given the incumbent value; the move is kept when
    its value is below value - tol, and the scan goes on from it.  Scans
    repeat until one keeps no move; the step is then quartered, `rounds`
    times in all.  The input arrays are never changed.  Returns (value,
    info, arrays) of the final incumbent.
    """
    arrays = list(arrays)
    shapes = [a.shape for a in arrays]
    for _ in range(rounds):
        improved = True
        while improved:
            improved = False
            for k, shape in enumerate(shapes):
                n = shape[-1]
                for row, i, j in product(range(arrays[k].size // n),
                                         range(n), range(n)):
                    flat = arrays[k].reshape(-1, n)
                    if i == j or flat[row, j] < step:
                        continue
                    moved = flat.copy()
                    moved[row, i] += step
                    moved[row, j] -= step
                    trial = arrays.copy()
                    trial[k] = moved.reshape(shape)
                    cand, cand_info = score(trial, value)
                    if cand < value - tol:
                        value, info, arrays = cand, cand_info, trial
                        improved = True
        step /= 4.0
    return value, info, arrays


def _inner_min(aux: CfAuxChannels, rates: CfRates, rounds=_REFINE_ROUNDS,
               tables=None):
    """min over Qtilde and competitor channels V of coupling cost + psi.

    The estimated laws Qtilde are the `_QTILDE_POINTS` lattice, the true
    observation marginal and the realized law; the channels V are the
    `_v_stack` lattice and then the reference channel V_ref, scored as a
    one-channel stack of its own.  Every pair is scored by `_pair_scorer`;
    ties keep the first Qtilde, then the first V.  The best pair is
    polished by a `rounds`-round `_exchange_walk` over (Qtilde, V) (none
    at 0), each move scored on the one-channel tables of the moved V.
    `tables` are the stack's `_stack_tables` for aux.q_x1, built here when
    not given.  Returns (value, dict of witnesses).
    """
    n_x1 = aux.q_x1.shape[0]
    n_x2 = aux.q_x2.shape[0]
    n_y2 = aux.test_channel.shape[0]
    n_yhat = aux.w2.shape[2]
    n_y3 = aux.w2.shape[3]

    qtildes = _matrix_grid(n_x2, n_y2, _QTILDE_POINTS)
    qtildes.append(aux.wq1_y2 / aux.wq1_y2.sum(axis=1, keepdims=True))
    qtildes.append(aux.realized.copy())

    def single(v):
        """The scorer's triple of the one-channel stack `v`."""
        return (v.reshape(-1, 1), *_row_tables(v[..., None], aux.q_x1))

    vref = aux.w2_cond()
    vstack, v_points = _v_stack((n_x1, n_x2, n_yhat), n_y3)
    if tables is None:
        tables = _stack_tables(vstack, aux.q_x1)
    # (channels with the channel index last, their scorer triple)
    stacks = ((vstack, (vstack.reshape(-1, vstack.shape[-1]), *tables)),
              (vref[..., None], single(vref)))
    score = _pair_scorer(aux, rates)

    qt_stack = np.stack(qtildes)                            # (T, X2, Y2)
    qhat_stack = np.einsum("tay,yah->tah", qt_stack, aux.test_channel)
    losses = rate_loss(aux, qt_stack)

    value = np.inf
    qt = v = info = None
    for t in range(qt_stack.shape[0]):
        for channels, triple in stacks:
            midx, vals, cost, ell = score(qhat_stack[t], losses[t], triple)
            if midx.size == 0:
                continue
            k = int(np.argmin(vals))
            if vals[k] < value:
                value = float(vals[k])
                qt, v = qtildes[t], channels[..., midx[k]].copy()
                info = (float(cost[k]), int(ell[k]))

    if qt is None:
        # no competitor pair on the grid is as likely as the truth
        return np.inf, {"qtilde": None, "v": None, "ell": 0,
                        "marginal_cost": np.inf,
                        "v_grid_points": v_points,
                        "qtilde_grid_points": _QTILDE_POINTS}

    def pair_value(arrays, _):
        qt, v = arrays
        midx, vals, cost, ell = score(aux.yhat_marginal(qt),
                                      rate_loss(aux, qt), single(v))
        if midx.size == 0:
            return np.inf, None
        return float(vals[0]), (float(cost[0]), int(ell[0]))

    # half the Qtilde lattice spacing; V's lattice is never finer
    step = 0.5 / (_QTILDE_POINTS - 1)
    value, info, (qt, v) = _exchange_walk(pair_value, (qt, v), value, info,
                                          step, rounds, 1e-15)

    witnesses = {"qtilde": qt, "v": v, "ell": info[1],
                 "marginal_cost": info[0],
                 "v_grid_points": v_points,
                 "qtilde_grid_points": _QTILDE_POINTS}
    return value, witnesses


# ---------------------------------------------------------------------------
# constituent exponents
# ---------------------------------------------------------------------------

def cf_G1(w: RelayChannelSpec, c: CfInput, r2: float) -> ExponentEval:
    """min_V D(V || W_{Q_X1} | Q_X2) + |I(Q_X2, V) - R2|+.

    Computed in both the 1-D Gallager dual and the `alternating_primal`
    form; the dual value is returned with the primal (an upper bound) and
    its dummy channel attached as diagnostics.  Where R2 >= I(Q_X2,
    W_{Q_X1}) both are exactly 0, with rho = 0 and V = W_{Q_X1}, and no
    curve is evaluated.
    """
    if r2 < 0:
        raise ValueError("r2 must be nonnegative")
    aux = cf_aux_channels(w, c)
    q_s = np.array([1.0])
    q_xs = aux.q_x2[None, :]
    chan = aux.wq1_y3[None, :, :]

    below = _below_mi(q_s, q_xs, chan, r2)
    dual, rho, _ = gallager_dual(q_s, q_xs, chan, r2, below)
    primal, vp, _, _, _ = alternating_primal(q_s, q_xs, chan, r2, below)
    return ExponentEval(dual, rho, "dual", "cf_G1",
                        {"primal": primal, "primal_witness": vp[0]})


def cf_G2(w: RelayChannelSpec, c_template: CfInput, r: float, r2: float,
          rounds: int = _REFINE_ROUNDS):
    """Outer min over realized Q_{Y2|X2} of divergence + max over test channels of J.

    The realized laws are the `_QY2_POINTS` lattice and the true
    observation marginal; the best one is polished by a `rounds`-round
    `_exchange_walk`, and J at the final (realized law, test channel) by
    `_inner_min` with the same rounds (`rounds` >= 0; 0 keeps the grid
    minima).  Returns (value, witness dict with the realized law and test
    channel).  The result is grid-accurate; the grid resolutions are
    reported.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    _check_scale(w, c_template.yhat_size)
    rates = CfRates(r, r2)
    n_x1, n_x2, n_y2, n_y3 = w.sizes
    n_yhat = c_template.yhat_size
    q2 = c_template.q_x2
    on = q2.probs > 0.0

    base_aux = cf_aux_channels(w, c_template)
    wq1_y2 = base_aux.wq1_y2
    true_obs = wq1_y2 / wq1_y2.sum(axis=1, keepdims=True)

    def div_term(qy2):
        """D(qy2 || true_obs | Q_X2); rows x2 with Q_X2(x2) = 0 add 0."""
        d = _row_divergences(qy2[on, None], true_obs[on, None])
        return float(np.sum(q2.probs[on] * d))

    def aux_of(qy2, t):
        cin = CfInput(c_template.q_x1, q2, n_yhat,
                      CondDist(t.reshape(-1, n_yhat)), CondDist(qy2))
        return cf_aux_channels(w, cin)

    qy2_cands = _matrix_grid(n_x2, n_y2, _QY2_POINTS)
    qy2_cands.append(true_obs)
    test_cands = []
    seen = set()
    raw_tests = _matrix_grid(n_y2 * n_x2, n_yhat, _QTILDE_POINTS)
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
    n_qtilde = len(_row_grid(n_y2, _QTILDE_POINTS)) ** n_x2 + 2
    v_points, n_v = _v_lattice(n_x1 * n_x2 * n_yhat, n_y3)
    pairs = len(qy2_cands) * len(test_cands) * n_qtilde * (n_v + 1)
    if pairs > CF_PAIR_BUDGET:
        raise EnumBudgetError(
            f"compress-forward G2 search needs about {pairs:.2e} (Qtilde, V) "
            f"pair evaluations ({len(qy2_cands)} realized laws x "
            f"{len(test_cands)} test channels x {n_qtilde} Qtilde x "
            f"{n_v + 1} V), over the budget of {CF_PAIR_BUDGET:.0e}")
    # Q_X1 is the same for every test channel and realized law
    tables = _stack_tables(_v_stack((n_x1, n_x2, n_yhat), n_y3)[0],
                           base_aux.q_x1)

    def realized_value(arrays, incumbent):
        """(divergence + max over test channels of J, (test, witnesses)).

        Gives (+inf, None) once the value cannot beat `incumbent`: the
        max over tests stops as soon as it reaches incumbent - divergence,
        since J only grows with further tests.
        """
        (qy2,) = arrays
        d = div_term(qy2)
        if d >= incumbent:
            return np.inf, None  # J >= 0, cannot beat the incumbent
        stop_at = incumbent - d
        best = (-np.inf, None)
        for t in test_cands:
            try:
                aux = aux_of(qy2, t)
            except ValueError:
                continue
            val, wit = _inner_min(aux, rates, rounds=0, tables=tables)
            if val > best[0]:
                best = (val, (t, wit))
                if val >= stop_at:
                    return np.inf, None
        if not np.isfinite(best[0]):
            return np.inf, None
        return d + best[0], best[1]

    value, info, qy2 = np.inf, (None, None), None
    for cand in qy2_cands:
        total, cand_info = realized_value((cand,), value)
        if total < value:
            value, info, qy2 = total, cand_info, cand

    if qy2 is not None:
        step = 0.5 / (_QY2_POINTS - 1)
        value, info, (qy2,) = _exchange_walk(
            realized_value, (qy2,), value, info, step, rounds, 1e-12)
    t, wit = info

    # polish J at the selected test channel with the refining inner search
    if qy2 is not None and t is not None:
        jv, wit = _inner_min(aux_of(qy2, t), rates, rounds, tables)
        value = div_term(qy2) + jv

    witness = {"q_y2_given_x2": qy2, "test_channel": t,
               "inner": wit, "v_grid_points": v_points,
               "grid_note": (f"qy2:{_QY2_POINTS},"
                             f"test:{_QTILDE_POINTS},"
                             f"qtilde:{_QTILDE_POINTS},v:{v_points}")}
    return value if value > 1e-12 else 0.0, witness


def cf_overall_witness(w: RelayChannelSpec, c: CfInput, b: int, r_eff: float,
                       r2: float, rounds: int = _REFINE_ROUNDS,
                       g1: float = None):
    """(1/b) min{G1(R2), G2(R_b, R2)} with R_b = b/(b-1) * r_eff, and the
    witness dict of its G2 term.

    `rounds` (>= 0) is passed on to `cf_G2`.  `g1` optionally supplies
    `cf_G1(w, c, r2).value`, which does not depend on the block rate.
    G2 >= 0, so G1 = 0 settles the value: the G2 search is then skipped
    and its witness holds only `g1` and `g2_skipped`, with `grid_note` and
    `v_grid_points` set to None.
    """
    if b < 2:
        raise ValueError("b must be >= 2")
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if g1 is None:
        g1 = cf_G1(w, c, r2).value
    if g1 == 0.0:
        return 0.0, {"g1": g1, "g2_skipped": True, "grid_note": None,
                     "v_grid_points": None}
    g2, witness = cf_G2(w, c, b / (b - 1) * r_eff, r2, rounds)
    return (max(0.0, min(g1, g2) / b),
            {**witness, "g1": g1, "g2_skipped": False})

