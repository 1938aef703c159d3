"""Acceptance gate: end-to-end checks of the package's numerical claims.

Each test prints one PASS/FAIL line for its criterion.
"""

import time
from itertools import product

import numpy as np

from relayexp import (CfRates, CondDist, Dist, cf_G1, cf_G2, cf_aux_channels,
                      check_joint_typicality,
                      check_lemma1, cutset_bound, ecs_upper, ecs_upper_sweep,
                      enum_types, pdf_dual_exponent, pdf_primal_exponent,
                      sato_channel)
from relayexp.cli_sweeps import SweepSpec, run, write_outputs
from relayexp.pdf_exponents import KINDS, _state_channel
from relayexp.prob_core import cond_mi_from_joint
from relayexp.types_toolkit import TypeN, enum_cond_types
from conftest import random_relay_channel
from reference import cf_psi2, mi_axes, mutual_info
from test_cf_exponents import (_full_joint, _identity_test_input,
                               _random_cf_input, _skewed_relay_channel)

TARGET = 1.161878  # Sato-channel capacity in bits


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status} {detail}".rstrip())


def _kind_mi(kind, chan, q):
    q_s, q_xs, c = _state_channel(kind, chan, q)
    joint = q_s[:, None, None] * q_xs[:, :, None] * c
    return cond_mi_from_joint(joint)


def test_criterion_1_cutset_anchor():
    t0 = time.perf_counter()
    chan, caid = sato_channel()
    value, _, _ = cutset_bound(chan, candidate=caid)
    full = np.einsum("xa,xayz->xayz", caid.probs.reshape(3, 2), chan.w)
    i_multi = mi_axes(full, (0, 1), (3,))
    i_relay = mi_axes(full, (0,), (2,), (1,))
    dt = time.perf_counter() - t0
    ok = (abs(value - TARGET) <= 1e-3
          and abs(i_multi - TARGET) <= 1e-4
          and abs(i_relay - TARGET) <= 1e-4
          and dt < 30.0)
    _report(1, "cutset anchor", ok,
            f"value={value:.6f} I_multi={i_multi:.6f} I_relay={i_relay:.6f} "
            f"elapsed={dt:.1f}s")
    assert ok


def test_criterion_2_sato_figures():
    t0 = time.perf_counter()
    res = run(SweepSpec("sato-figures", preset="sato"))
    dt = time.perf_counter() - t0

    f_rows = {(r[0], round(r[1], 6)): (r[2], r[4]) for r in res.rows
              if r[3] == "relay_F_over_b"}
    g_rows = {(r[0], round(r[1], 6)): (r[2], r[4]) for r in res.rows
              if r[3] == "decoder_G_over_b"}
    opt_rows = {round(r[1], 6): r[0] for r in res.rows if r[3] == "df_opt_b"}

    # F/b below G/b wherever both curves are positive
    order_ok = all(fv < gv for key, (_, fv) in f_rows.items()
                   for (_, gv) in [g_rows[key]] if fv > 0 and gv > 0)

    # per-b zero crossing of F located at the capacity (in the per-block rate)
    crossing_ok = True
    for b in (10, 50, 100):
        pts = sorted((rb, fv) for (bb, _), (rb, fv) in f_rows.items()
                     if bb == b)
        last_pos = max(rb for rb, fv in pts if fv > 0)
        first_zero = min((rb for rb, fv in pts if fv == 0 and rb > last_pos),
                         default=None)
        cross = last_pos if first_zero is None else 0.5 * (last_pos + first_zero)
        if abs(cross - TARGET) > 5e-3:
            crossing_ok = False

    # b=10: both curves vanish from an effective rate of 1.05 on, and the
    # relay curve is still positive one grid notch below
    b10_ok = all(f_rows[(10, re)][1] == 0 and g_rows[(10, re)][1] == 0
                 for (bb, re) in f_rows if bb == 10 and re >= 1.05 - 1e-12)
    b10_ok = b10_ok and f_rows[(10, 1.04)][1] > 0

    # the optimizing block count does not decrease with the effective rate
    bs = [opt_rows[re] for re in (1.00, 1.05, 1.10)]
    opt_ok = bs[0] <= bs[1] <= bs[2]

    ok = order_ok and crossing_ok and b10_ok and opt_ok and dt < 300.0
    _report(2, "Sato exponent figures", ok,
            f"order={order_ok} crossing={crossing_ok} b10={b10_ok} "
            f"best_b={bs} elapsed={dt:.1f}s")
    assert ok


def test_criterion_3_dual_primal_agreement():
    from relayexp import PdfInput
    worst = 0.0
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        q = PdfInput(Dist(np.full(2, 0.5)), CondDist(np.full((2, 2), 0.5)),
                     CondDist(np.full((4, 2), 0.5)), 2)
        for kind in KINDS:
            mi = _kind_mi(kind, chan, q)
            for rate in (0.97 * mi, mi, 1.2 * mi + 0.01):
                dual = pdf_dual_exponent(kind, chan, q, rate).value
                primal = pdf_primal_exponent(kind, chan, q, rate).value
                gap = abs(dual - primal)
                worst = max(worst, gap)
                if dual > primal + 1e-6 or gap > 5e-3:
                    ok = False
        c = _random_cf_input(rng, chan)
        aux = cf_aux_channels(chan, c)
        i23 = mutual_info(Dist(aux.q_x2), CondDist(aux.wq1_y3))
        for r2 in (0.97 * i23, i23, 1.2 * i23 + 0.01):
            res = cf_G1(chan, c, r2)
            gap = abs(res.value - res.diagnostics["primal"])
            worst = max(worst, gap)
            if res.value > res.diagnostics["primal"] + 1e-6 or gap > 5e-3:
                ok = False
    _report(3, "dual vs primal agreement", ok, f"worst gap={worst:.2e}")
    assert ok


def test_criterion_4_types_exhaustive():
    t0 = time.perf_counter()
    channels = (CondDist(np.array([[0.9, 0.1], [0.1, 0.9]])),
                CondDist(np.array([[0.7, 0.3], [0.3, 0.7]])),
                CondDist(np.eye(2)))
    checked = 0
    ok = True
    for n in range(1, 7):
        for p in enum_types(n, 2):
            for v in enum_cond_types(p, 2):
                for rep in check_lemma1(n, p, v, channels):
                    if not rep.all_ok:
                        ok = False
                    checked += 1
                if n >= 2:
                    joint_base = TypeN(tuple(c for r in v.counts for c in r), n)
                    vprimes = enum_cond_types(joint_base, 2)
                    for rep in check_joint_typicality(n, p, v, vprimes):
                        if not rep.all_ok:
                            ok = False
                        checked += 1
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    _report(4, "type lemmas exhaustive n<=6", ok,
            f"checks={checked} elapsed={dt:.1f}s")
    assert ok


def test_criterion_5_identities():
    # the two algebraic forms of the second decoding exponent agree
    forms_ok = True
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        aux = cf_aux_channels(chan, _random_cf_input(rng, chan))
        qtilde = rng.dirichlet(np.ones(2), size=2)
        v = rng.dirichlet(np.ones(2), size=(2, 2, 2))
        rates = CfRates(rng.uniform(0, 1.5), rng.uniform(0, 1.0))
        a = cf_psi2(aux, qtilde, v, rates, "standard")
        b = cf_psi2(aux, qtilde, v, rates, "twocase")
        if abs(a - b) > 1e-12:
            forms_ok = False

    # multi-information decomposition on arbitrary joints
    multi_ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        j = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)  # x1,x2,h,y3
        lhs = mi_axes(j, (2,), (3,), (1,)) + mi_axes(j, (0,), (2, 3), (1,))
        rhs = (mi_axes(j, (0,), (2,), (1,)) + mi_axes(j, (0,), (3,), (1, 2))
               + mi_axes(j, (2,), (3,), (1,)))
        if abs(lhs - rhs) > 1e-9:
            multi_ok = False

    # chain identity on joints with the description Markov structure
    chain_ok = True
    for seed in range(100):
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
        if abs(lhs - rhs) > 1e-9:
            chain_ok = False

    ok = forms_ok and multi_ok and chain_ok
    _report(5, "psi and information identities", ok,
            f"forms={forms_ok} multi={multi_ok} chain={chain_ok}")
    assert ok


def test_criterion_6_upper_bound_sweep():
    chan, _ = sato_channel()
    rates = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2]
    results, violations = ecs_upper_sweep(rates, chan, restarts=4, seed=0)
    gaps_ok = all(res.feasibility_gap <= 1e-4 for res in results)
    vals = [res.value for res in results]
    mono_ok = violations == 0 and all(a >= b - 1e-6
                                      for a, b in zip(vals, vals[1:]))
    above = ecs_upper(1.165, chan, restarts=4, seed=0)
    zero_ok = above.value <= 1e-6
    ok = gaps_ok and mono_ok and zero_ok
    _report(6, "dummy-channel upper bound", ok,
            f"violations={violations} value@1.165={above.value:.2e}")
    assert ok


# --------------------------------------------------------------------------
# criterion 7: independent brute-force evaluation of the second exponent
# --------------------------------------------------------------------------

def _batch_cmi(joints):
    """I(A;B|S) in bits for a (m, S, A, B) batch, entropy-based."""

    def _neg(x):
        out = np.zeros_like(x)
        m = x > 0.0
        out[m] = -x[m] * np.log2(x[m])
        return out

    pa = joints.sum(axis=3)
    pb = joints.sum(axis=2)
    ps = pa.sum(axis=2)
    return (_neg(pa).sum(axis=(1, 2)) + _neg(pb).sum(axis=(1, 2))
            - _neg(ps).sum(axis=1) - _neg(joints).sum(axis=(1, 2, 3)))


def _g2_brute(chan, c, r, r2):
    """Grid search over the full nesting, written independently.

    Outer: realized law Q_{Y2|X2} (9-point rows) charged its divergence
    from the true observation marginal; max over test channels (rows in
    {(1,0),(0.5,0.5),(0,1)}); inner min over estimated laws (5-point
    rows) and dummy channels V (3-point rows) restricted to pairs at
    least as likely as the true channel, charged for output-marginal
    deviations plus the decoding cost min{psi1, psi2}.
    """
    q1, q2 = c.q_x1.probs, c.q_x2.probs
    cond, _ = chan.y3_conditional()                       # (x1,x2,y2,y3)
    wq1_y2 = np.einsum("x,xay->ay", q1, chan.y2_marginal())
    true_marg = wq1_y2 / wq1_y2.sum(axis=1, keepdims=True)

    def _rows(grid_pts):
        return [np.array([a, 1.0 - a]) for a in grid_pts]

    def _mats(rows, n_in):
        return [np.array(m) for m in product(rows, repeat=n_in)]

    def _kl(p, q):
        if np.any((p > 0) & (q <= 0)):
            return np.inf
        m = p > 0
        return float((p[m] * np.log2(p[m] / q[m])).sum())

    qy2_cands = [true_marg] + _mats(_rows(np.linspace(0, 1, 9)), 2)
    qt_base = _mats(_rows(np.linspace(0, 1, 5)), 2)
    tests, seen = [], set()
    for t in _mats(_rows((1.0, 0.5, 0.0)), 4):
        canon = min(t.tobytes(), t[:, ::-1].tobytes())
        if canon not in seen:
            seen.add(canon)
            tests.append(t.reshape(2, 2, 2))              # (y2, x2, h)
    vstack = np.array(_mats(_rows((1.0, 0.5, 0.0)), 8)).reshape(
        -1, 2, 2, 2, 2)                                   # (m, x1, x2, h, y3)

    best = np.inf
    for qy2 in qy2_cands:
        div = sum(q2[a] * _kl(qy2[a], true_marg[a]) for a in range(2))
        if not np.isfinite(div) or div >= best:
            continue
        jmax = -np.inf
        pruned = False
        for test in tests:
            w2 = np.einsum("ay,yah,xayz->xahz", qy2, test, cond)
            qhat_real = np.einsum("ay,yah->ah", qy2, test)
            marg = w2.sum(axis=3)
            w2c = np.where(marg[..., None] > 0, w2 / np.where(
                marg[..., None] > 0, marg[..., None], 1.0), 0.5)
            zero = w2c <= 0.0
            logref = np.where(zero, 0.0, np.log2(np.where(zero, 1.0, w2c)))
            qw_ref = np.einsum("x,a,ah->xah", q1, q2, qhat_real)
            t_ref = float(-np.einsum("xah,xahz,xahz->", qw_ref, w2c, logref))
            mstar = np.einsum("x,xahz->az", q1, w2)       # (x2, y3), rows sum 1
            vfull = np.concatenate([vstack, w2c[None]])
            jval = np.inf
            for qt in qt_base + [qy2, true_marg]:
                qhat = np.einsum("ay,yah->ah", qt, test)
                jloss = np.einsum("a,ay,yah->ayh", q2, qt, test)
                loss = _batch_cmi(jloss[None])[0]
                qw = np.einsum("x,a,ah->xah", q1, q2, qhat)
                bad = np.einsum("mxahz,xahz->m", vfull,
                                (zero & (qw[..., None] > 0)).astype(float))
                alphas = -np.einsum("mxahz,xah,xahz->m", vfull, qw, logref)
                alphas = np.where(bad > 0, np.inf, alphas)
                midx = np.flatnonzero(alphas <= t_ref + 1e-9)
                if midx.size == 0:
                    continue
                vm = vfull[midx]
                mu = np.einsum("xah,mxahz->maz", qw, vm)
                cost = np.empty(len(midx))
                for k in range(len(midx)):
                    cost[k] = sum(q2[a] * _kl(mu[k, a] / q2[a], mstar[a])
                                  for a in range(2) if q2[a] > 0)
                j1 = np.einsum("a,x,ah,mxahz->maxhz", q2, q1, qhat, vm)
                mi1 = _batch_cmi(j1.reshape(len(midx), 2, 2, -1))
                j2 = np.einsum("a,ah,mahz->mahz", q2, qhat,
                               np.einsum("x,mxahz->mahz", q1, vm))
                mih = _batch_cmi(j2)
                psi1 = np.maximum(mi1 - r, 0.0)
                psi2 = np.maximum(
                    np.maximum(psi1 + mih - max(loss - r2, 0.0), 0.0),
                    np.maximum(mi1 - r + np.maximum(mih - (loss - r2), 0.0),
                               0.0))
                jval = min(jval, float(np.min(cost + np.minimum(psi1, psi2))))
            jmax = max(jmax, jval)
            if div + jmax >= best:
                pruned = True
                break
        if not pruned and np.isfinite(jmax):
            best = min(best, div + jmax)
    return best if best > 1e-12 else 0.0


def test_criterion_7_second_exponent_brute_force():
    chan = _skewed_relay_channel()
    c = _identity_test_input(chan)
    j = _full_joint(chan, c)
    r2 = 0.01
    r_thresh = (r2 + mi_axes(j, (0,), (3, 4), (1,))
                + mi_axes(j, (3,), (4,), (1,))
                - mi_axes(j, (3,), (2,), (1,)))
    rate = 0.5 * r_thresh
    got, _ = cf_G2(chan, c, rate, r2, rounds=1)
    want = _g2_brute(chan, c, rate, r2)
    close_ok = abs(got - want) <= 0.02

    # positivity-threshold prediction vs the computed value, five instances
    sign_ok = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        py3 = np.array([[rng.uniform(0.02, 0.10), rng.uniform(0.30, 0.50)],
                        [rng.uniform(0.90, 0.98), rng.uniform(0.50, 0.70)]])
        inst = _skewed_relay_channel(rng.uniform(0.05, 0.15), py3)
        ci = _identity_test_input(inst)
        ji = _full_joint(inst, ci)
        thr = (r2 + mi_axes(ji, (0,), (3, 4), (1,))
               + mi_axes(ji, (3,), (4,), (1,))
               - mi_axes(ji, (3,), (2,), (1,)))
        i_psi1 = mi_axes(ji, (0,), (3, 4), (1,))
        # below the threshold when it is usable, well above the decoding
        # information otherwise (covers predicted-negative thresholds too)
        rr = 0.4 * thr if seed % 2 == 0 and thr > 0.05 else i_psi1 + 0.4
        val, _ = cf_G2(inst, ci, rr, r2, rounds=1)
        if (val > 0.0) != (rr < thr):
            sign_ok = False

    ok = close_ok and sign_ok
    _report(7, "second exponent vs brute force", ok,
            f"value={got:.4f} brute={want:.4f} sign_ok={sign_ok}")
    assert ok


def test_criterion_8_cli_determinism(tmp_path):
    chan = _skewed_relay_channel()
    from relayexp.cli_sweeps import write_channel
    cpath = str(tmp_path / "chan.json")
    write_channel(chan, cpath)
    specs = [
        dict(command="cutset", preset="sato"),
        dict(command="pdf", channel_path=cpath, blocks=(5,), rate=0.2,
             restarts=1),
        dict(command="df", channel_path=cpath, blocks=(5,), rate=0.2,
             restarts=1),
        dict(command="cf", channel_path=cpath, blocks=(5,), rate=0.3, r2=0.3),
        dict(command="upper", channel_path=cpath, rate=0.3, restarts=2),
        dict(command="types-verify"),
        dict(command="sato-figures", preset="sato"),
    ]
    ok = True
    for kwargs in specs:
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / kwargs["command"] / tag
            spec = SweepSpec(out_dir=str(out), **kwargs)
            write_outputs(spec, run(spec))
            outputs.append(sorted(out.glob("*.csv")))
        pair_ok = [p.name for p in outputs[0]] == [p.name for p in outputs[1]]
        if pair_ok:
            pair_ok = all(p1.read_bytes() == p2.read_bytes()
                          for p1, p2 in zip(*outputs))
        if not pair_ok:
            ok = False
    _report(8, "CLI determinism", ok,
            f"commands={len(specs)} byte-identical={ok}")
    assert ok
