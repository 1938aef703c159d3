"""Compress-forward constituents: psi forms, identities, G1, G2, J."""

from itertools import product

import numpy as np
import pytest

from relayexp import cf_exponents
from relayexp import (CfInput, CfRates, CondDist, Dist, cf_G1, cf_G2,
                      cf_aux_channels, cf_overall_witness)
from relayexp.cf_exponents import (_ALPHA_SLACK, _alpha_weights, _check_scale,
                                   _exchange_walk, _inner_min, _matrix_grid,
                                   _row_tables, _true_y3_marginal, _v_stack,
                                   alpha_value, rate_loss)
from relayexp.prob_core import cond_mi_from_joint
from conftest import random_relay_channel
from reference import (cf_psi1, cf_psi2, cond_entropy, entropy_vec,
                       kl_div_cond, kl_div_vec, mi_axes, mi_terms, mutual_info)


def _random_cf_input(rng, chan, yhat=2):
    n_x1, n_x2, n_y2, _ = chan.sizes
    test = CondDist(rng.dirichlet(np.ones(yhat), size=n_y2 * n_x2))
    realized = CondDist(rng.dirichlet(np.ones(n_y2), size=n_x2))
    return CfInput(Dist(rng.dirichlet(np.ones(n_x1))),
                   Dist(rng.dirichlet(np.ones(n_x2))), yhat, test, realized)


def _identity_test_input(chan, q_x1=None, q_x2=None):
    """Deterministic test channel copying y2, realized = true marginal."""
    n_x1, n_x2, n_y2, _ = chan.sizes
    q_x1 = q_x1 if q_x1 is not None else Dist(np.full(n_x1, 1.0 / n_x1))
    q_x2 = q_x2 if q_x2 is not None else Dist(np.full(n_x2, 1.0 / n_x2))
    test = np.zeros((n_y2 * n_x2, 2))
    for y2 in range(n_y2):
        for x2 in range(n_x2):
            test[y2 * n_x2 + x2, min(y2, 1)] = 1.0
    marg = np.einsum("x,xay->ay", q_x1.probs, chan.y2_marginal())
    realized = CondDist(marg / marg.sum(axis=1, keepdims=True))
    return CfInput(q_x1, q_x2, 2, CondDist(test), realized)


def _full_joint(chan, c):
    """p(x1,x2,y2,yhat,y3) under independent inputs and the test channel."""
    n_x1, n_x2, n_y2, n_y3 = chan.sizes
    test = c.test_channel.rows.reshape(n_y2, n_x2, c.yhat_size)
    return np.einsum("x,a,xayz,yah->xayhz", c.q_x1.probs, c.q_x2.probs,
                     chan.w, test)


def _skewed_relay_channel(qy2_one=0.08, py3=None):
    """Binary channel with a low-entropy relay observation.

    Y2 ~ Bernoulli(qy2_one) independent of X1, Y3 ~ p(y3|x1,y2).  The
    skew keeps the description leak I(Yhat2;Y2|X2) small enough for the
    chain-identity positivity threshold to be positive.
    """
    if py3 is None:
        py3 = np.array([[0.05, 0.40], [0.95, 0.60]])  # p(y3=1 | x1, y2)
    w = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            for y2 in range(2):
                qq = qy2_one if y2 == 1 else 1.0 - qy2_one
                for y3 in range(2):
                    p = py3[x1, y2] if y3 == 1 else 1 - py3[x1, y2]
                    w[x1, x2, y2, y3] = qq * p
    from relayexp import RelayChannelSpec
    return RelayChannelSpec(w)


class TestPsiForms:
    def test_standard_equals_twocase(self):
        # the one-expression form and the case split agree to 1e-12
        for seed in range(200):
            rng = np.random.default_rng(seed)
            chan = random_relay_channel(rng, (2, 2, 2, 2))
            c = _random_cf_input(rng, chan)
            aux = cf_aux_channels(chan, c)
            qtilde = rng.dirichlet(np.ones(2), size=2)
            v = rng.dirichlet(np.ones(2), size=(2, 2, 2))
            rates = CfRates(rng.uniform(0, 1.5), rng.uniform(0, 1.0))
            a = cf_psi2(aux, qtilde, v, rates, "standard")
            b = cf_psi2(aux, qtilde, v, rates, "twocase")
            assert a == pytest.approx(b, abs=1e-12)

    def test_psi1_matches_direct_mi(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        c = _random_cf_input(rng, chan)
        aux = cf_aux_channels(chan, c)
        qtilde = rng.dirichlet(np.ones(2), size=2)
        v = rng.dirichlet(np.ones(2), size=(2, 2, 2))
        mi_x1, _ = mi_terms(aux, qtilde, v)
        for r in (0.0, mi_x1, mi_x1 + 0.3):
            assert cf_psi1(aux, qtilde, v, r) == pytest.approx(
                max(mi_x1 - r, 0.0), abs=1e-12)

    def test_psi_nonnegative(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        c = _random_cf_input(rng, chan)
        aux = cf_aux_channels(chan, c)
        for _ in range(20):
            qtilde = rng.dirichlet(np.ones(2), size=2)
            v = rng.dirichlet(np.ones(2), size=(2, 2, 2))
            rates = CfRates(rng.uniform(0, 2), rng.uniform(0, 2))
            assert cf_psi1(aux, qtilde, v, rates.r) >= 0.0
            for variant in ("standard", "twocase", "prime"):
                assert cf_psi2(aux, qtilde, v, rates, variant) >= 0.0

    def test_unknown_variant_rejected(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        aux = cf_aux_channels(chan, _random_cf_input(rng, chan))
        with pytest.raises(ValueError):
            cf_psi2(aux, np.full((2, 2), 0.5),
                    np.full((2, 2, 2, 2), 0.5), CfRates(0.1, 0.1), "bogus")

    def test_rate_loss_is_description_mi(self, rng):
        # [DERIVED] I(Y2; Yhat2 | X2) from the joint, computed independently
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        c = _random_cf_input(rng, chan)
        aux = cf_aux_channels(chan, c)
        qtilde = rng.dirichlet(np.ones(2), size=2)
        j = np.einsum("a,ay,yah->ayh", c.q_x2.probs, qtilde,
                      c.test_channel.rows.reshape(2, 2, 2))
        want = mi_axes(j, (1,), (2,), (0,))
        assert rate_loss(aux, qtilde) == pytest.approx(want, abs=1e-12)


class TestAlpha:
    def test_alpha_is_divergence_plus_entropy(self, rng):
        # [DERIVED] alpha(Q,V) = D(V||W2|Q) + H(V|Q), checked term by term
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        c = _random_cf_input(rng, chan)
        aux = cf_aux_channels(chan, c)
        v = rng.dirichlet(np.ones(2), size=(2, 2, 2))
        qw = np.einsum("x,a,ah->xah", aux.q_x1, aux.q_x2, aux.q_yhat_given_x2)
        ref = aux.w2_cond()
        p_flat = Dist(qw.reshape(-1) / qw.sum())
        v_flat = CondDist(v.reshape(-1, 2))
        ref_flat = CondDist(ref.reshape(-1, 2))
        want = (kl_div_cond(v_flat, ref_flat, p_flat)
                + cond_entropy(v_flat, p_flat))
        assert alpha_value(aux, v) == pytest.approx(want, abs=1e-12)

    def test_reference_channel_alpha_is_entropy(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        c = _random_cf_input(rng, chan)
        aux = cf_aux_channels(chan, c)
        ref = aux.w2_cond()
        qw = np.einsum("x,a,ah->xah", aux.q_x1, aux.q_x2, aux.q_yhat_given_x2)
        want = cond_entropy(CondDist(ref.reshape(-1, 2)),
                            Dist(qw.reshape(-1) / qw.sum()))
        assert alpha_value(aux, ref) == pytest.approx(want, abs=1e-12)


class TestIdentities:
    def test_three_variable_mi_identity(self):
        # I(H;Y3|X2) + I(X1;HY3|X2) = H(X1|X2)+H(H|X2)+H(Y3|X2)-H(X1,H,Y3|X2)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            j = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)  # x1,x2,h,y3
            lhs = mi_axes(j, (2,), (3,), (1,)) + mi_axes(j, (0,), (2, 3), (1,))
            # independent entropy-based evaluation of the right-hand side
            px2 = j.sum(axis=(0, 2, 3))
            rhs = 0.0
            for a in range(2):
                cond = j[:, a] / px2[a]        # (x1, h, y3)
                rhs += px2[a] * (entropy_vec(cond.sum(axis=(1, 2)))
                                 + entropy_vec(cond.sum(axis=(0, 2)))
                                 + entropy_vec(cond.sum(axis=(0, 1)))
                                 - entropy_vec(cond.reshape(-1)))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_markov_chain_identity(self):
        # for joints Q_X1 x Q_X2 x Q_Y2|X2 x Q_H|Y2X2 x W(y3|x1,x2,y2):
        # I(X2;Y3) + I(X1;HY3|X2) + I(H;Y3|X2) - I(H;Y2|X2)
        #   = I(X1X2;Y3) - I(Y2;H|X1X2Y3)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            qx1 = rng.dirichlet(np.ones(2))
            qx2 = rng.dirichlet(np.ones(2))
            qy2 = rng.dirichlet(np.ones(2), size=2)
            t = rng.dirichlet(np.ones(2), size=(2, 2))
            wc = rng.dirichlet(np.ones(2), size=(2, 2, 2))
            j = np.einsum("x,a,ay,yah,xayz->xayhz", qx1, qx2, qy2, t, wc)
            lhs = (mi_axes(j, (1,), (4,))
                   + mi_axes(j, (0,), (3, 4), (1,))
                   + mi_axes(j, (3,), (4,), (1,))
                   - mi_axes(j, (3,), (2,), (1,)))
            rhs = mi_axes(j, (0, 1), (4,)) - mi_axes(j, (2,), (3,), (0, 1, 4))
            assert lhs == pytest.approx(rhs, abs=1e-9)


def _batch_cond_mi_ref(joints):
    """I(A;B|S) in bits for an (m, S, A, B) batch of joints, entropy-based."""
    def _neg_plogp(x):
        out = np.zeros_like(x)
        mask = x > 0.0
        out[mask] = -x[mask] * np.log2(x[mask])
        return out

    pa = joints.sum(axis=3)
    pb = joints.sum(axis=2)
    ps = pa.sum(axis=2)
    return (_neg_plogp(pa).sum(axis=(1, 2)) + _neg_plogp(pb).sum(axis=(1, 2))
            - _neg_plogp(ps).sum(axis=1)
            - _neg_plogp(joints).sum(axis=(1, 2, 3)))


def _pair_value(aux, qt, v, rates):
    """(coupling cost + min{psi_1, psi_2}, marginal cost, ell) of one pair.

    Scalar evaluation of the objective of `_inner_min` at (Qtilde, V) from
    `alpha_value`'s weights, `kl_div_vec` and `cf_psi1` / `cf_psi2`; the
    value is +inf, and ell None, for pairs outside the likelihood set.
    """
    qw = np.einsum("x,a,ah->xah", aux.q_x1, aux.q_x2, aux.yhat_marginal(qt))
    _, _, logref, zero = _alpha_weights(aux)
    if np.any((v > 0.0) & zero & (qw[..., None] > 0.0)):
        return np.inf, np.inf, None
    alpha = float(-np.einsum("xah,xahz,xahz->", qw, v, logref))
    if alpha > alpha_value(aux, aux.w2_cond()) + _ALPHA_SLACK:
        return np.inf, np.inf, None
    mstar = _true_y3_marginal(aux)
    mu = np.einsum("xah,xahz->az", qw, v)
    cost = 0.0
    for a in range(mu.shape[0]):
        if aux.q_x2[a] > 0.0:
            cost += aux.q_x2[a] * kl_div_vec(mu[a] / aux.q_x2[a], mstar[a])
    p1 = cf_psi1(aux, qt, v, rates.r)
    p2 = max(cf_psi2(aux, qt, v, rates, "standard"),
             cf_psi2(aux, qt, v, rates, "prime"))
    return cost + min(p1, p2), float(cost), 1 if p1 <= p2 else 2


def _inner_min_reference(aux, rates, qtilde_points, rounds):
    """Direct per-Qtilde evaluation of the grid stage of `_inner_min`.

    Reference for the tabled version: for each Qtilde it builds the
    (members x X2 x X1 x Yhat2 x Y3) joint of every member V, V_ref
    appended to the stack, and takes both informations from entropy sums
    over that joint.  A `rounds`-round refinement walks with the scalar
    `_pair_value`.
    Returns (value, qtilde, v, ell).
    """
    n_x1, n_x2 = aux.q_x1.shape[0], aux.q_x2.shape[0]
    n_y2 = aux.test_channel.shape[0]
    n_yhat, n_y3 = aux.w2.shape[2], aux.w2.shape[3]
    qtildes = _matrix_grid(n_x2, n_y2, qtilde_points)
    qtildes.append(np.array([aux.wq1_y2[a] / aux.wq1_y2[a].sum()
                             for a in range(n_x2)]))
    qtildes.append(aux.realized.copy())
    vref = aux.w2_cond()
    stack, v_points = _v_stack((n_x1, n_x2, n_yhat), n_y3)
    vstack = np.concatenate([np.moveaxis(stack, -1, 0), vref[None]])
    q1, q2 = aux.q_x1, aux.q_x2
    _, _, logref, zero = _alpha_weights(aux)
    t_ref = alpha_value(aux, vref)
    mstar = _true_y3_marginal(aux)
    log_mstar = np.where(mstar > 0.0,
                         np.log2(np.where(mstar > 0.0, mstar, 1.0)), 0.0)
    qt_stack = np.stack(qtildes)
    qhat_stack = np.einsum("tay,yah->tah", qt_stack, aux.test_channel)
    losses = [cond_mi_from_joint(np.einsum("a,ay,yah->ayh", q2, qt,
                                           aux.test_channel))
              for qt in qtildes]
    value, it, iv, ell = np.inf, None, None, 1
    for t in range(qt_stack.shape[0]):
        qw = np.einsum("x,a,ah->xah", q1, q2, qhat_stack[t])
        alphas = -np.einsum("mxahz,xah,xahz->m", vstack, qw, logref)
        if zero.any():
            support = np.einsum(
                "mxahz,xahz->m", vstack,
                (zero & (qw[..., None] > 0.0)).astype(np.float64))
            alphas = np.where(support > 0.0, np.inf, alphas)
        midx = np.flatnonzero(alphas <= t_ref + _ALPHA_SLACK)
        if midx.size == 0:
            continue
        vmem = np.ascontiguousarray(vstack[midx])
        mu = np.einsum("xah,mxahz->maz", qw, vmem)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = mu * (np.log2(np.where(mu > 0.0, mu, 1.0))
                          - log_mstar - np.log2(
                              np.where(q2 > 0.0, q2, 1.0))[None, :, None])
        terms = np.where(mu > 0.0, terms, 0.0)
        cost = terms.sum(axis=(1, 2))
        off = (mu > 1e-15) & (mstar[None] <= 0.0)
        cost = np.where(off.any(axis=(1, 2)), np.inf, cost)
        j = np.einsum("a,x,ah,mxahz->maxhz", q2, q1, qhat_stack[t], vmem)
        mi_x1 = _batch_cond_mi_ref(j.reshape(len(midx), n_x2, n_x1, -1))
        mi_hat = _batch_cond_mi_ref(j.sum(axis=2))
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
    if it is None:
        return np.inf, None, None, 0
    qt, v = qtildes[it].copy(), vstack[iv].copy()
    if rounds > 0:
        step = 1.0 / (2 * max(qtilde_points - 1, v_points - 1, 1))
        value, _, (qt, v) = _exchange_walk(
            lambda arrays, _: (_pair_value(aux, *arrays, rates)[0], None),
            (qt, v), value, None, step, rounds, 1e-15)
        ell_refined = _pair_value(aux, qt, v, rates)[2]
        ell = ell if ell_refined is None else ell_refined
    return value, qt, v, ell


def _inner_min_cases():
    """(aux, rates) on the skewed channel and on five seeded channels."""
    chan = _skewed_relay_channel()
    aux = cf_aux_channels(chan, _identity_test_input(chan))
    cases = [(aux, CfRates(r, r2)) for r in (0.02, 0.1, 0.3)
             for r2 in (0.01, 0.3)]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        aux = cf_aux_channels(chan, _random_cf_input(rng, chan))
        cases += [(aux, CfRates(r, 0.2)) for r in (0.05, 0.3)]
    return cases


class TestInnerMinTables:
    @pytest.mark.parametrize("walk", [False, True])
    def test_matches_reference_loop(self, walk):
        rounds = 1 if walk else 0
        for aux, rates in _inner_min_cases():
            want, qt, v, ell = _inner_min_reference(aux, rates, 3, rounds)
            got, wit = _inner_min(aux, rates, rounds=rounds)
            assert abs(got - want) <= 1e-12
            np.testing.assert_array_equal(wit["qtilde"], qt)
            np.testing.assert_array_equal(wit["v"], v)
            assert wit["ell"] == ell
            # the witness attains the value under the scalar evaluation
            value, _, ell_pair = _pair_value(aux, wit["qtilde"], wit["v"],
                                             rates)
            assert abs(value - got) <= 1e-12 and ell_pair == wit["ell"]

    def test_tables_give_mi_terms(self):
        # [DERIVED] chain rule: I(X1; Yhat2 Y3 | X2) = sum_{a,h} w I(Q_X1, V)
        # and I(Yhat2; Y3 | X2) = H(mu) - H(Q_X2) - sum_{a,h} w H(V_{Q_X1})
        for seed in range(20):
            rng = np.random.default_rng(seed)
            chan = random_relay_channel(rng, (2, 2, 2, 2))
            aux = cf_aux_channels(chan, _random_cf_input(rng, chan))
            qtilde = rng.dirichlet(np.ones(2), size=2)
            v = rng.dirichlet(np.ones(2), size=(2, 2, 2))
            v[0, 1, 1] = (1.0, 0.0)
            vq1, lin = _row_tables(v[..., None], aux.q_x1)
            w = aux.q_x2[:, None] * aux.yhat_marginal(qtilde)
            mi_x1, h_rows = lin[..., 0] @ w.reshape(-1)
            mu = np.einsum("azh,ah->az", vq1[..., 0], w)
            mi_hat = (entropy_vec(mu.reshape(-1)) - entropy_vec(aux.q_x2)
                      - h_rows)
            want_x1, want_hat = mi_terms(aux, qtilde, v)
            assert mi_x1 == pytest.approx(want_x1, abs=1e-12)
            assert mi_hat == pytest.approx(want_hat, abs=1e-12)


class TestExchangeWalk:
    def test_rejected_moves_leave_arrays_bit_identical(self):
        # non-dyadic entries and step: a move undone by subtraction would
        # leave the entries a few ulps off
        rng = np.random.default_rng(3)
        qt = rng.dirichlet(np.ones(3), size=2)
        v = rng.dirichlet(np.ones(2), size=(2, 2))
        before = (qt.copy(), v.copy())
        tried = []

        def never_better(arrays, incumbent):
            tried.append(incumbent)
            return 1.0, "moved"

        value, info, arrays = _exchange_walk(never_better, (qt, v), 1.0,
                                             "start", 0.1, 2, 1e-15)
        assert tried and value == 1.0 and info == "start"
        for got, inp, want in zip(arrays, (qt, v), before):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(inp, want)

    def test_accepted_moves_keep_row_sums(self):
        rng = np.random.default_rng(4)
        start = (rng.dirichlet(np.ones(3), size=2),
                 rng.dirichlet(np.ones(2), size=(2, 2)))
        targets = (rng.dirichlet(np.ones(3), size=2),
                   rng.dirichlet(np.ones(2), size=(2, 2)))

        def distance(arrays, _):
            d = sum(float(((a - t) ** 2).sum())
                    for a, t in zip(arrays, targets))
            return d, d

        value0 = distance(start, None)[0]
        value, info, arrays = _exchange_walk(distance, start, value0, None,
                                             0.1, 3, 1e-15)
        assert value < value0 and info == value
        assert value == distance(arrays, None)[0]
        for got, inp in zip(arrays, start):
            assert np.all(got >= 0.0)
            assert np.max(np.abs(got.sum(axis=-1) - inp.sum(axis=-1))) <= 1e-15


class TestGrids:
    @pytest.mark.parametrize("points", [2, 3, 5, 9])
    def test_matrix_grid_matches_product_and_filter(self, points):
        m = points - 1
        for n_in, n_out in product((1, 2, 3), repeat=2):
            rows = [np.array(comp + (m - sum(comp),), dtype=np.float64) / m
                    for comp in product(range(m + 1), repeat=n_out - 1)
                    if sum(comp) <= m]
            want = [np.array(combo) for combo in product(rows, repeat=n_in)]
            got = _matrix_grid(n_in, n_out, points)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


class TestG1:
    def test_dual_close_to_primal(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            chan = random_relay_channel(rng, (2, 2, 2, 2))
            c = _random_cf_input(rng, chan)
            aux = cf_aux_channels(chan, c)
            i23 = mutual_info(Dist(aux.q_x2), CondDist(aux.wq1_y3))
            for r2 in (0.5 * i23, i23, 1.2 * i23 + 0.01):
                res = cf_G1(chan, c, r2)
                assert res.value <= res.diagnostics["primal"] + 1e-6
                assert abs(res.value - res.diagnostics["primal"]) <= 5e-3

    def test_positivity_threshold(self, rng):
        # positive exactly when the bin-index rate is below I(X2;Y3)
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        c = _random_cf_input(rng, chan)
        aux = cf_aux_channels(chan, c)
        i23 = mutual_info(Dist(aux.q_x2), CondDist(aux.wq1_y3))
        if i23 > 0.02:
            assert cf_G1(chan, c, 0.5 * i23).value > 0.0
        assert cf_G1(chan, c, i23 + 0.05).value <= 1e-12

    def test_exactly_zero_above_mutual_information(self):
        # R2 = 1 is above I(X2;Y3) on these channels, where -log2 S(0)
        # rounds to 1.6e-16 and a golden section over rho would report it
        for seed in (1, 21):
            chan = random_relay_channel(np.random.default_rng(seed),
                                        (2, 2, 2, 2))
            c = _identity_test_input(chan)
            aux = cf_aux_channels(chan, c)
            assert mutual_info(Dist(aux.q_x2), CondDist(aux.wq1_y3)) < 1.0
            res = cf_G1(chan, c, 1.0)
            assert (res.value, res.witness) == (0.0, 0.0)
            assert not np.signbit(res.value)
            assert res.value <= res.diagnostics["primal"] == 0.0
            assert np.array_equal(res.diagnostics["primal_witness"],
                                  aux.wq1_y3)

    def test_rejects_negative_rate(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        with pytest.raises(ValueError):
            cf_G1(chan, _random_cf_input(rng, chan), -0.1)

    def test_brute_force_oracle(self, rng):
        # [DERIVED] independent fine-grid minimization of
        # D(V||W_Q1|Q2) + |I(Q2,V) - R2|+ over dummy channels V
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        c = _random_cf_input(rng, chan)
        aux = cf_aux_channels(chan, c)
        r2 = 0.15
        grid = np.linspace(0.0, 1.0, 61)
        best = np.inf
        q2 = Dist(aux.q_x2)
        for a0 in grid:
            for a1 in grid:
                v = CondDist(np.array([[a0, 1 - a0], [a1, 1 - a1]]))
                d = kl_div_cond(v, CondDist(aux.wq1_y3), q2)
                if not np.isfinite(d):
                    continue
                best = min(best, d + max(mutual_info(q2, v) - r2, 0.0))
        res = cf_G1(chan, c, r2)
        assert res.value <= best + 1e-6
        assert abs(res.value - best) <= 5e-3
        assert res.diagnostics["primal"] <= best + 1e-6
        assert abs(res.diagnostics["primal"] - best) <= 5e-3


class TestJ:
    """J: its channel-behavior divergence is 0 at the product joint, so J
    is the value of `_inner_min`."""

    def test_nonnegative_with_decoding_branch(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        aux = cf_aux_channels(chan, _random_cf_input(rng, chan))
        val, wit = _inner_min(aux, CfRates(0.2, 0.2), rounds=1)
        assert val >= 0.0
        assert wit["ell"] in (1, 2)

    def test_zero_at_large_rates(self, rng):
        # rates above every mutual information drive both psi terms to 0;
        # the truth pair certifies zero up to float noise in the cost
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        aux = cf_aux_channels(chan, _random_cf_input(rng, chan))
        val, _ = _inner_min(aux, CfRates(3.0, 3.0), rounds=1)
        assert val <= 1e-12

    def test_monotone_in_message_rate(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        aux = cf_aux_channels(chan, _random_cf_input(rng, chan))
        vals = [_inner_min(aux, CfRates(r, 0.2), rounds=1)[0]
                for r in (0.05, 0.2, 0.5, 1.0)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_scale_guard(self, rng):
        chan = random_relay_channel(rng, (4, 2, 2, 2))
        with pytest.raises(ValueError):
            _check_scale(chan, 2)


class TestG2:
    def test_value_nonnegative_with_grid_note(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        c = _identity_test_input(chan)
        val, wit = cf_G2(chan, c, 0.3, 0.2, rounds=1)
        assert val >= 0.0
        assert "grid_note" in wit and wit["q_y2_given_x2"] is not None

    def test_positivity_inside_threshold(self):
        # predicted positive when R is below the rate threshold assembled
        # from R2 and the description informations; zero far above the
        # message-decoding information
        chan = _skewed_relay_channel()
        c = _identity_test_input(chan)
        j = _full_joint(chan, c)
        r2 = 0.01
        r_thresh = (r2 + mi_axes(j, (0,), (3, 4), (1,))
                    + mi_axes(j, (3,), (4,), (1,))
                    - mi_axes(j, (3,), (2,), (1,)))
        i_psi1 = mi_axes(j, (0,), (3, 4), (1,))
        assert r_thresh > 0.05
        val_in, _ = cf_G2(chan, c, 0.5 * r_thresh, r2, rounds=1)
        assert val_in > 0.0
        assert val_in == pytest.approx(0.5255089710496098, abs=1e-12)
        val_out, _ = cf_G2(chan, c, i_psi1 + 0.3, r2, rounds=1)
        assert val_out == 0.0

    def test_overall_combines_constituents(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        c = _identity_test_input(chan)
        b, r_eff, r2 = 10, 0.3, 0.2
        got, _ = cf_overall_witness(chan, c, b, r_eff, r2, rounds=1)
        g1 = cf_G1(chan, c, r2).value
        g2, _ = cf_G2(chan, c, b / (b - 1) * r_eff, r2, rounds=1)
        assert got == pytest.approx(max(0.0, min(g1, g2) / b), abs=1e-12)

    def test_overall_skips_g2_when_g1_is_zero(self, monkeypatch):
        # X2 does not affect the skewed channel, so G1 = 0 settles the value
        def refuse(*args, **kwargs):
            raise AssertionError("cf_G2 called although G1 = 0")

        monkeypatch.setattr(cf_exponents, "cf_G2", refuse)
        chan = _skewed_relay_channel()
        c = _identity_test_input(chan)
        val, wit = cf_overall_witness(chan, c, 5, 0.3, 0.3, rounds=1)
        assert val == 0.0
        assert wit == {"g1": 0.0, "g2_skipped": True, "grid_note": None,
                       "v_grid_points": None}

    def test_overall_runs_g2_when_g1_is_positive(self, monkeypatch):
        chan = random_relay_channel(np.random.default_rng(0), (2, 2, 2, 2))
        c = _identity_test_input(chan)
        b, r_eff, r2 = 5, 0.05, 0.0
        g1 = cf_G1(chan, c, r2).value
        assert g1 == pytest.approx(0.00376, abs=1e-5)
        g2_values = []

        def recording(*args, **kwargs):
            g2, wit = cf_G2(*args, **kwargs)
            g2_values.append(g2)
            return g2, wit

        monkeypatch.setattr(cf_exponents, "cf_G2", recording)
        val, wit = cf_overall_witness(chan, c, b, r_eff, r2, rounds=1)
        assert len(g2_values) == 1
        assert val == pytest.approx(max(0.0, min(g1, g2_values[0]) / b),
                                    abs=1e-12)
        assert wit["g1"] == g1 and wit["g2_skipped"] is False
        assert wit["grid_note"] is not None

    def test_rejects_negative_rounds(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        with pytest.raises(ValueError, match="rounds"):
            cf_G2(chan, _identity_test_input(chan), 0.3, 0.2, rounds=-1)

    def test_overall_rejects_negative_rounds_when_g1_is_zero(self):
        # G1 = 0 skips the G2 search, but not the check of its setting
        chan = _skewed_relay_channel()
        c = _identity_test_input(chan)
        with pytest.raises(ValueError, match="rounds must be >= 0"):
            cf_overall_witness(chan, c, 5, 0.3, 0.3, rounds=-1)
        with pytest.raises(ValueError, match="rounds must be >= 0"):
            cf_overall_witness(chan, c, 5, 0.3, 0.3, rounds=-1, g1=0.0)

    def test_overall_rejects_small_b(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        c = _identity_test_input(chan)
        with pytest.raises(ValueError):
            cf_overall_witness(chan, c, 1, 0.3, 0.2)


class TestCfRates:
    def test_rates_validation(self):
        with pytest.raises(ValueError):
            CfRates(-0.1, 0.2)
