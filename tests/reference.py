"""Scalar information measures and compress-forward terms, one quantity at
a time, and the plain loops of the dummy-channel search, as references for
the package's batched code.

None of this is package API: the package computes these quantities in
stacked form (`prob_core.cond_mi_from_joint`, `prob_core._row_divergences`,
the `cf_exponents` pair scorer), and the tests check it against the
direct formulas here.  `level_channel` and `cutset_bound` are the
package's loops before they were trimmed, and `ecs_upper_sweep` is the
sweep before it computed W's facts once per sweep; the package must
return their results bit for bit.  `parse_reference` is the CLI's argparse front end
before the flag table replaced it; the two must build equal specs.
"""

import argparse
import math

import numpy as np

from relayexp import relay_model
from relayexp.cf_exponents import rate_loss
from relayexp.cli_sweeps import CliError, SweepSpec
from relayexp.haroutunian_upper import (_ROW_HALVINGS, _ZERO_ERROR_MARGIN,
                                        UpperBoundResult, _smallest_level,
                                        _support_target, _useless_channel,
                                        ecs_objective)
from relayexp.prob_core import (CondDist, Dist, _neg_plogp, _row_divergences,
                                cond_mi_from_joint)


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


# ---------------------------------------------------------------------------
# dummy-channel search
# ---------------------------------------------------------------------------

def level_channel(u, w, t):
    """V(t) by the plain bisection: row x is (1-lam_x) u_x + lam_x W_x with
    lam_x the upper end after _ROW_HALVINGS halvings of [0, 1] on
    D(row||W_x) <= t; rows with D(u_x||W_x) <= t keep u_x exactly."""
    lo = np.zeros(u.shape[:2])
    hi = np.where(_row_divergences(u, w) <= t, 0.0, 1.0)
    for _ in range(_ROW_HALVINGS):
        mid = 0.5 * (lo + hi)
        lam = mid[:, :, None, None]
        ok = _row_divergences((1.0 - lam) * u + lam * w, w) <= t
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    lam = hi[:, :, None, None]
    return (1.0 - lam) * u + lam * w


def _cross_entropy(rows, law, on):
    return -np.where(on, rows * np.log2(law), 0.0).sum(axis=-1)


def cutset_bound(v, *, candidate=None, decide_at=None, stats=None):
    """`relay_model.cutset_bound` with every operation of each iterate
    spelled out: the terms off the support through np.where, and the
    step's top through the finite entries of g whether or not all are.
    `stats` gains "cutset_calls" and "cutset_iterations" only."""
    rm = relay_model
    n_x1, n_x2, n_y2, n_y3 = v.sizes
    w3 = v.y3_marginal().reshape(-1, n_y3)
    w23 = v.w.reshape(n_x1, n_x2, n_y2 * n_y3)
    h3, h23 = _neg_plogp(w3).sum(axis=1), _neg_plogp(w23).sum(axis=2)
    on3, on23 = w3 > 0.0, w23 > 0.0
    fill = w23.mean(axis=0)
    n = n_x1 * n_x2
    p = np.full(n, 1.0 / n) if candidate is None else candidate.probs.copy()
    lo, hi, witness = -np.inf, np.inf, p
    cap = rm._ITERATIONS if decide_at is None else rm._DECIDE_ITERATIONS
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, cap + 1):
            a = _cross_entropy(w3, p @ w3, on3) - h3
            mass = np.einsum("xa,xaz->az", p.reshape(n_x1, n_x2), w23)
            total = mass.sum(axis=1, keepdims=True)
            m = np.where(total > 0.0, mass / total, fill)
            b = (_cross_entropy(w23, m, on23) - h23).reshape(n)
            live = p > 0.0
            i1 = float(p @ np.where(live, a, 0.0))
            i2 = float(p @ np.where(live, b, 0.0))
            if min(i1, i2) > lo and max(i1, i2) < np.inf:
                lo, witness = min(i1, i2), p
            if it % rm._ENVELOPE_EVERY == 1:
                bound, best_lam = rm._envelope(a, b)
                hi = min(hi, bound)
            if it == 1:
                lam = best_lam
            else:
                lam = min(max(lam - (i1 - i2), 0.0), 1.0)
            g = lam * a + (1.0 - lam) * b
            hi = min(hi, float(g.max()))
            if hi - lo <= rm._GAP or (decide_at is not None
                                      and (hi <= decide_at
                                           or lo > decide_at)):
                break
            ok = np.isfinite(g)
            top = g[ok].max()
            fall = rm._STEP * (top - np.where(ok, g, top))
            p = p * np.exp2(-np.minimum(fall, rm._MAX_FALL))
            p = p / p.sum()
    if stats is not None:
        stats["cutset_calls"] = stats.get("cutset_calls", 0) + 1
        stats["cutset_iterations"] = stats.get("cutset_iterations", 0) + it
    return max(lo, 0.0), hi, Dist(witness)


def ecs_upper(r, w, restarts, seed=0, warm_starts=None, stats=None):
    """`haroutunian_upper.ecs_upper` computing everything at its one rate:
    R0's certificate, the +inf witness's decision, W's decision and the
    restart targets.  `stats` gains the cutset counts only."""
    start = None

    def cutset_hi(table):
        nonlocal start
        _, hi, start = relay_model.cutset_bound(
            relay_model.RelayChannelSpec(table), candidate=start,
            decide_at=r, stats=stats)
        return hi

    def feasible(table):
        return cutset_hi(table) <= r

    def vacuous():
        witness = _useless_channel(w)
        gap = max(cutset_hi(witness.w) - r, 0.0)
        return UpperBoundResult(np.inf, witness, gap, restarts)

    if r < relay_model.zero_error_rate(w).rate - _ZERO_ERROR_MARGIN:
        return vacuous()
    if feasible(w.w):
        return UpperBoundResult(0.0, w, 0.0, 0)
    best_val, best_table = np.inf, None
    for s in range(restarts):
        u = _support_target(w, np.random.default_rng(seed + 1000 * s + 1))
        top = float(_row_divergences(u, w.w).max())
        if not feasible(u):
            continue
        table = _smallest_level(u, w.w, top, feasible, stats)
        if table is None:
            table = u
        val = ecs_objective(relay_model.RelayChannelSpec(table), w)
        if val < best_val:
            best_val, best_table = val, table
    for table in warm_starts or ():
        tbl = np.asarray(table, dtype=np.float64)
        if tbl.shape == w.w.shape and feasible(tbl):
            val = ecs_objective(relay_model.RelayChannelSpec(tbl), w)
            if val < best_val:
                best_val, best_table = val, tbl
    if best_table is None:
        return vacuous()
    return UpperBoundResult(best_val, relay_model.RelayChannelSpec(best_table),
                            0.0, restarts)


def ecs_upper_sweep(rates, w, restarts, seed=0, stats=None):
    """`haroutunian_upper.ecs_upper_sweep` as a loop of the reference
    `ecs_upper`, one rate at a time, with the running minimum."""
    results, prev_tables, prev_val = [], [], np.inf
    for r in rates:
        res = ecs_upper(r, w, restarts, seed, prev_tables, stats)
        if res.value > prev_val + 1e-6:
            res = UpperBoundResult(prev_val, results[-1].witness_v,
                                   results[-1].feasibility_gap,
                                   res.restarts_used)
        prev_tables = [res.witness_v.w]
        prev_val = min(prev_val, res.value)
        results.append(res)
    return results


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(prog="relayexp",
                                description="Relay-channel error exponent sweeps")
    p.add_argument("command", choices=["pdf", "df", "cf", "cutset", "upper",
                                       "types-verify", "sato-figures"])
    p.add_argument("--preset")
    p.add_argument("--channel")
    p.add_argument("--b", help="comma-separated block counts")
    p.add_argument("--reff", help="rate grid start:stop:step in bits")
    p.add_argument("--rate", type=float)
    p.add_argument("--r2", type=float, default=0.3)
    p.add_argument("--form", choices=["primal", "dual"], default="dual")
    p.add_argument("--split", default="auto")
    p.add_argument("--u-size", type=int)
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int)
    return p


def parse_reference(argv) -> SweepSpec:
    """The SweepSpec argparse and the old `--b`, `--reff` and `--split`
    branches built from `argv`, before the check of the flags each command
    reads; raises SystemExit(2) where argparse refuses the command line,
    CliError(2) on a malformed value of those three flags and CliError(3)
    where SweepSpec refuses a value."""
    args = _build_parser().parse_args(argv)
    blocks = ()
    if args.b:
        try:
            blocks = tuple(int(tok) for tok in args.b.split(","))
        except ValueError:
            raise CliError(2, f"cannot parse --b {args.b!r}")
    grid = None
    if args.reff:
        try:
            parts = [float(tok) for tok in args.reff.split(":")]
        except ValueError:
            raise CliError(2, f"cannot parse --reff {args.reff!r}")
        if len(parts) == 1:
            grid = (parts[0], parts[0], 1.0)
        elif len(parts) == 3:
            grid = tuple(parts)
        else:
            raise CliError(2, "--reff must be start:stop:step or a single rate")
    split = args.split
    if split != "auto":
        try:
            split = float(split)
        except ValueError:
            raise CliError(2, f"cannot parse --split {args.split!r}")
    return SweepSpec(command=args.command, preset=args.preset,
                     channel_path=args.channel, rate_grid=grid, blocks=blocks,
                     form=args.form, split=split, u_size=args.u_size,
                     rate=args.rate, r2=args.r2, out_dir=args.out,
                     seed=args.seed, restarts=args.restarts)
