"""Partial-decode-forward error exponents in primal and dual form.

The three constituent exponents share one shape: a state-conditioned
channel chan(y|s,x) with state law q_s and per-state input law q_xs.

* relay exponent F: state x2, input u, output y2 (relay decodes u)
* decoder exponent G: single state, input (u,x2), output y3
* decoder exponent Gtilde: state (u,x2), input x1, output y3

The primal form minimizes D(V||chan|Q) + |I(Q,V) - R|+ over dummy channels
V; the dual (Gallager) form maximizes -rho*R - log2 S(rho) over rho in
[0,1] and is a lower bound on the primal.  The primal is solved by
Lagrange duality and alternating minimisation (Arimoto 1976) and reports
the objective at its dummy channel, so [dual, primal] brackets the exponent.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import e0_sum
from .prob_core import CondDist, Dist, cond_mi_from_joint
from .relay_model import PdfInput, RelayChannelSpec, pdf_virtual_channels

KINDS = ("relay_F", "decoder_G", "decoder_Gtilde")

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# a golden section stops once its bracket is at most this wide
_GOLDEN_TOL = 1e-8
# an alternation stops once no entry of q_Y moves by more than this
_ALTERNATION_TOL = 1e-12
# probes x channel entries per curve call of a lockstep golden section, so
# that each float64 (probes x channel) temporary stays within 0.5 MiB
_CURVE_ELEMENTS = 1 << 16
#: the automatic rate split: a scan of SPLIT_GRID points over [0, 1], then
#: SPLIT_REFINE points within SPLIT_WINDOW of the scan's first maximum
SPLIT_GRID = 41
SPLIT_REFINE = 11
SPLIT_WINDOW = 0.025
# the multipliers of `_ends`; on `sato-figures` 128 leave 2.3 times fewer
# relay_F curve points to solve than 32 do
_BOUND_RHO = np.linspace(0.0, 1.0, 128)
# a kind is skipped where its lower end exceeds the min by more than this,
# and `_ends` adds it to each upper end, which rounding of E0 could bend.
# A dual value is below its exponent only by golden_max's error: endpoints
# are checked exactly, and at an interior maximum the slope is 0, so the
# 1e-8 bracket costs about |E0''|/2 * (5e-9)^2 < 1e-15 bits; the rest is
# rounding of values of order 1.  A primal value is at or above its exponent
_BOUND_MARGIN = 1e-9


@dataclass
class ExponentEval:
    value: float
    witness: object          # rho (dual) or a dummy-channel array (primal)
    form: str                # "primal" | "dual"
    kind: str
    diagnostics: dict = field(default_factory=dict)


def _check_rates(rate, name="rate"):
    """Raise ValueError unless every entry of `rate` is finite and >= 0."""
    if not np.all(np.isfinite(rate) & (np.asarray(rate) >= 0)):
        raise ValueError(f"{name} must be finite and nonnegative")


def golden_max(f, lo, hi):
    """Golden-section maximization of unimodal problems run in lockstep.

    `lo` and `hi` are scalars or arrays; they broadcast to one independent
    problem per entry.  `f` maps an array of points, one per problem, to
    their values.  Each problem follows the scalar golden section exactly
    (same probe points, ties go left, stop once b - a <= _GOLDEN_TOL), so
    its result does not depend on the other problems.  Returns (x, f(x)) in
    the broadcast shape.
    """
    a, b = (np.array(v, dtype=np.float64) for v in np.broadcast_arrays(lo, hi))
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    active = b - a > _GOLDEN_TOL
    while active.any():
        left = fc >= fd
        right = active & ~left
        left &= active
        # left: b, d, fd = d, c, fc and probe a new c; right: a, c, fc =
        # c, d, fd and probe a new d
        b = np.where(left, d, b)
        a = np.where(right, c, a)
        d, fd = np.where(left, c, d), np.where(left, fc, fd)
        c, fc = np.where(right, d, c), np.where(right, fd, fc)
        probe = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fp = f(probe)
        c, fc = np.where(left, probe, c), np.where(left, fp, fc)
        d, fd = np.where(right, probe, d), np.where(right, fp, fd)
        active = b - a > _GOLDEN_TOL
    x = 0.5 * (a + b)
    return x[()], np.asarray(f(x))[()]


def _state_channel(kind, w: RelayChannelSpec, q: PdfInput):
    """(q_s, q_xs, chan) for the requested exponent kind."""
    if kind not in KINDS:
        raise ValueError(f"unknown exponent kind {kind!r}")
    n_x1, n_x2, n_y2, n_y3 = w.sizes
    n_u = q.u_size
    v1, v2 = pdf_virtual_channels(w, q)
    q_u = q.q_u_given_x2.rows                       # (x2, u)
    q_ux2 = (q.q_x2.probs[None, :] * q_u.T)         # (u, x2) joint

    if kind == "relay_F":
        chan = v1.rows.reshape(n_u, n_x2, n_y2).transpose(1, 0, 2)
        return q.q_x2.probs.copy(), q_u.copy(), np.ascontiguousarray(chan)
    if kind == "decoder_G":
        chan = v2.rows.reshape(1, n_u * n_x2, n_y3)
        return (np.array([1.0]), q_ux2.reshape(1, -1).copy(),
                np.ascontiguousarray(chan))
    # decoder_Gtilde: states (u, x2), inputs x1
    wy3 = w.y3_marginal()                            # (x1, x2, y3)
    chan = np.broadcast_to(wy3.transpose(1, 0, 2)[None], (n_u, n_x2, n_x1, n_y3))
    chan = np.ascontiguousarray(chan.reshape(n_u * n_x2, n_x1, n_y3))
    q_s = q_ux2.reshape(-1)
    q_xs = q.q_x1_given_ux2.rows.copy()
    return q_s, q_xs, chan


def _chunked(curve, x, size):
    """`curve` at the nonempty 1-D `x`, evaluated on at most
    `_CURVE_ELEMENTS // size` entries at a time, `size` being the number of
    channel entries one entry of `x` costs."""
    step = max(1, _CURVE_ELEMENTS // size)
    return np.concatenate([curve(x[i:i + step])
                           for i in range(0, x.size, step)])


def _lagrange_max(curve, rate, size=1):
    """(value, x, points) of max_{x in [0,1]} curve(x) - x*R for each rate.

    `curve` maps a scalar or an array of multipliers to the concave curve
    at each of them.  `rate` is a scalar or an array; each distinct rate is
    solved once (equal rates would share every probe), and all of them
    share one lockstep golden section.  The curve does not depend on the
    rate, and problems that have made the same left/right choices probe
    bit-identical x.  Since the curve is concave, those choices are
    monotone in R, so problems that share a probe are neighbours in rate
    order, the order `np.unique` gives: at each step a probe is new when it
    differs from the one before it.  The curve is evaluated at the new
    probes only, in `_chunked` pieces (`size` is the number of channel
    entries one probe costs), and `points` counts the evaluations.  A run
    of equal probes that rounding splits is evaluated once per piece, with
    the same value.  The endpoints x = 0 and 1 are
    checked too, and a nonpositive (or NaN) value becomes +0.0 with x = 0.
    An empty `rate` gives empty results and no evaluations.
    """
    rate = np.asarray(rate, dtype=np.float64)
    if not rate.size:
        return np.zeros(rate.shape), np.zeros(rate.shape), 0
    distinct, inverse = np.unique(rate, return_inverse=True)
    points = 0

    def g(x):
        nonlocal points
        if not np.ndim(x):
            points += 1
            return curve(x) - x * distinct
        new = np.ones(x.size, dtype=bool)
        np.not_equal(x[1:], x[:-1], out=new[1:])
        u = x[new]
        points += u.size
        return _chunked(curve, u, size)[np.cumsum(new) - 1] - x * distinct

    x, val = golden_max(g, np.zeros(distinct.shape), np.ones(distinct.shape))
    for cand in (0.0, 1.0):
        cval = g(cand)
        better = cval > val
        x, val = np.where(better, cand, x), np.where(better, cval, val)
    positive = val > 0.0
    value = np.where(positive, val, 0.0)[inverse].reshape(rate.shape)
    witness = np.where(positive, x, 0.0)[inverse].reshape(rate.shape)
    return value[()], witness[()], points


def _state_mi(q_s, q_xs, chan):
    """I(Q,chan) in bits of the state channel, or of each channel of a
    stack (leading axes of `chan`)."""
    return cond_mi_from_joint((q_s[:, None] * q_xs)[..., None] * chan)


def _below_mi(q_s, q_xs, chan, rate):
    """Mask of the rates below the package's I(Q,chan) of the state channel.

    Both forms are max_lam E(lam) - lam*R with E concave and E'(0) = I(Q,W)
    (Gallager 1968, section 5.6), so every other rate gives exactly 0 at
    lam = 0 without evaluating E.
    """
    return np.asarray(rate) < _state_mi(q_s, q_xs, chan)


def gallager_dual(q_s, q_xs, chan, rate, below=None):
    """(value, rho, points) of max_{rho in [0,1]} -rho*R - log2 S(rho) for
    each rate.

    S is `e0_sum` of the state channel (q_s, q_xs, chan); `rate` is a
    scalar or an array.  Rates at or above I(Q,chan) give exactly 0 with
    rho = 0 and no evaluation of S; the others are solved as in
    `_lagrange_max`, and `points` is the number of rho at which S was
    evaluated.  `below` is `_below_mi` at `rate`, when the caller has it.
    """
    rate = np.asarray(rate, dtype=np.float64)
    if below is None:
        below = _below_mi(q_s, q_xs, chan, rate)
    value, rho, points = np.zeros(rate.shape), np.zeros(rate.shape), 0
    if below.any():
        value[below], rho[below], points = _lagrange_max(
            lambda r: -np.log2(e0_sum(q_s, q_xs, chan, r)), rate[below],
            chan.size)
    return value[()], rho[()], points


def pdf_dual_exponent(kind, w: RelayChannelSpec, q: PdfInput,
                      rate) -> ExponentEval:
    """Gallager-form exponent max_{rho in [0,1]} -rho*R - log2 S_kind(rho).

    `rate` may be an array; value and witness (rho) then have its shape
    and every entry equals the scalar call at that rate.  Rates at or above
    I(Q,W) of the kind's state channel give exactly 0 with rho = 0.  The
    diagnostics carry `curve_points`, the number of rho at which S was
    evaluated, all of them for rates below I(Q,W).
    """
    _check_rates(rate)
    value, rho, points = gallager_dual(*_state_channel(kind, w, q), rate)
    return ExponentEval(value, rho, "dual", kind,
                        {"rho_tolerance": _GOLDEN_TOL, "curve_points": points})


def _alternate(q_s, q_xs, chan, lam):
    """min over V and per-state output laws q_Y of
    D(V||chan|Q) + lam * D(V||q_Y|Q), for each multiplier in `lam`.

    Alternates V ∝ chan^(1/(1+lam)) * q_Y^(lam/(1+lam)) and q_Y,s = q_xs V_s
    from V = chan; each multiplier stops on its own.  Rows of zero weight
    keep V = chan, as does lam = 0.  Returns V (lam's shape + chan's
    shape), the minimum over V at the last q_Y and the alternation count.
    """
    lam = np.asarray(lam, dtype=np.float64)
    expo = (1.0 / (1.0 + lam))[..., None, None, None]
    weights = q_s[:, None] * q_xs
    live = (weights > 0.0)[..., None]
    # numpy raises by a broadcast exponent 1/2 with an exact square root in
    # small batches but by pow, which can differ in the last bit, in large
    # ones; at lam = 1 (both exponents 1/2) every batch takes the root
    half = (lam == 1.0)[..., None, None, None]

    def power(base, e):
        raised = np.power(base, e)
        return np.where(half, np.sqrt(base), raised) if half.any() else raised

    chan_pow = power(chan, expo)
    v = np.broadcast_to(chan, lam.shape + chan.shape)
    q_y = np.einsum("sx,...sxy->...sy", q_xs, v)
    active = lam > 0.0
    steps = 0

    def update(q_y):
        t = chan_pow * power(q_y[..., None, :], 1.0 - expo)
        return t, np.where(live, t.sum(axis=-1, keepdims=True), 1.0)

    while active.any():
        t, z = update(q_y)
        v = np.where(active[..., None, None, None] & live, t / z, v)
        new_q = np.einsum("sx,...sxy->...sy", q_xs, v)
        active &= np.abs(new_q - q_y).max(axis=(-2, -1)) > _ALTERNATION_TOL
        q_y = new_q
        steps += 1
    z = update(q_y)[1][..., 0]
    value = -(1.0 + lam) * np.einsum("sx,...sx->...", weights, np.log2(z))
    return v, np.where(lam > 0.0, value, 0.0), steps


def alternating_primal(q_s, q_xs, chan, rate, below=None):
    """(value, V, lam, alternations, points) of
    min_V D(V||chan|Q) + |I(Q,V) - R|+.

    The minimum is max_{lam in [0,1]} E(lam) - lam*R, E the concave
    `_alternate` minimum.  The value is the objective at the returned V,
    never below the true minimum; rates at or above I(Q,chan) give exactly
    0 with V = chan.  Value and lam have the shape of `rate`; `points` is
    the number of multipliers at which E was evaluated.  `below` is
    `_below_mi` at `rate`, when the caller has it.
    """
    rate = np.asarray(rate, dtype=np.float64)
    weights = q_s[:, None] * q_xs
    if below is None:
        below = _below_mi(q_s, q_xs, chan, rate)
    steps = 0

    def curve(lam):
        nonlocal steps
        _, value, n = _alternate(q_s, q_xs, chan, lam)
        steps += n
        return value

    lam = np.zeros(rate.shape)
    points = 0
    if below.any():
        _, lam[below], points = _lagrange_max(curve, rate[below], chan.size)
    v, _, n = _alternate(q_s, q_xs, chan, lam)
    # V is zero wherever chan is, so the ratio is taken on V's support only
    on = v > 0.0
    ratio = np.divide(v, chan, out=np.ones_like(v), where=on)
    div = np.einsum("sx,...sxy->...", weights, v * np.log2(ratio))
    value = div + np.maximum(_state_mi(q_s, q_xs, v) - rate, 0.0)
    value = np.where(below & (value > 0.0), value, 0.0)
    return value[()], v, lam[()], steps + n, points


def pdf_primal_exponent(kind, w: RelayChannelSpec, q: PdfInput,
                        rate) -> ExponentEval:
    """Primal exponent min_V D(V||chan|Q) + |I(Q,V) - R|+ for the kind.

    `rate` may be an array; value and lambda then have its shape and the
    witness stacks one dummy channel per rate.  The diagnostics carry the
    Gallager value at the same rates (`"dual"`), so [dual, value] brackets
    the exponent, the Lagrange multiplier, the number of alternations and
    `curve_points`, the number of multipliers at which the alternating
    minimum was evaluated.  I(Q,W) is computed once for both forms, which
    are exactly 0 at every rate at or above it.
    """
    _check_rates(rate)
    q_s, q_xs, chan = _state_channel(kind, w, q)
    below = _below_mi(q_s, q_xs, chan, rate)
    value, v, lam, steps, points = alternating_primal(q_s, q_xs, chan, rate,
                                                      below)
    dual, _, _ = gallager_dual(q_s, q_xs, chan, rate, below)
    return ExponentEval(value, v, "primal", kind,
                        {"dual": dual, "lambda": lam, "alternations": steps,
                         "curve_points": points})


def _solve(kind, form, chan, rate, below, stats, dominated=0):
    """(value, witness) of one kind's state channel `chan` = (q_s, q_xs,
    chan) at the 1-D `rate`, in dual or primal form; `below` is
    `_below_mi` at `rate`, or None to compute it.  If `stats` is a dict,
    the rates handed to the solver, its curve points and `dominated`, the
    cells the caller skipped because the kind's lower end put it above
    the min, are added to its {kind: {"problems": n, "curve_points": n,
    "dominated": n}}."""
    if form == "dual":
        value, witness, points = gallager_dual(*chan, rate, below)
    else:
        value, witness, _, _, points = alternating_primal(*chan, rate, below)
    if stats is not None and (rate.size or dominated):
        work = stats.setdefault(kind, {"problems": 0, "curve_points": 0,
                                       "dominated": 0})
        work["problems"] += int(rate.size)
        work["curve_points"] += int(points)
        work["dominated"] += dominated
    return value, witness


def _ends(chan, rate):
    """(lo, hi) around max_{rho in [0,1]} E0(rho) - rho*R of the state
    channel `chan` = (q_s, q_xs, chan) at each rate, from E0 on `_BOUND_RHO`
    and its slope I(Q,W) at 0.  E0 is concave: lo, at the rho_j where the
    chord slope falls to R (if rounding bends the curve, the j found still
    holds), is below both forms.  On each interval E0 is below the lines
    through its ends with the neighbouring chords' slopes (the tangent
    left of the first; the last has its left line only), which away from
    rho_j fall faster than R: hi, the dual's upper end, is the best of
    rho_j and its two nearest corners, plus `_BOUND_MARGIN`."""
    q_s, q_xs, w = chan
    rho = _BOUND_RHO
    e0 = -np.log2(_chunked(lambda r: e0_sum(q_s, q_xs, w, r), rho, w.size))
    slopes = np.diff(e0) / np.diff(rho)
    j = np.searchsorted(-slopes, -rate)
    lo = e0[j] - rho[j] * rate
    left = np.r_[_state_mi(q_s, q_xs, w), slopes[:-1]]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip((slopes[:-1] - slopes[1:]) / (left[:-1] - slopes[1:]), 0, 1)
    x = np.r_[rho[:-2] + np.nan_to_num(t) * np.diff(rho)[:-1], 1.0]
    top = np.r_[np.minimum(e0[:-2] + left[:-1] * (x[:-1] - rho[:-2]),
                           e0[1:-1] + slopes[1:] * (x[:-1] - rho[1:-1])),
                e0[-2] + left[-1] * (1.0 - rho[-2])]
    a, b = np.maximum(j - 1, 0), np.minimum(j, x.size - 1)
    hi = np.maximum(lo, np.maximum(top[a] - x[a] * rate, top[b] - x[b] * rate))
    return lo, hi + _BOUND_MARGIN


def _best_splits(w, q, r_b, fraction, form, stats=None):
    """Best split values at the per-block rates `r_b`, and where they are.

    `fraction` fixes the split, or None scans `SPLIT_GRID` points over
    [0, 1] and then `SPLIT_REFINE` points within `SPLIT_WINDOW` of the
    scan's first maximum.  Each stage solves the kinds one after another,
    in one call per kind, and skips a kind at the (point, split) cells
    where the kinds solved before it give a min it cannot go below.  A kind
    at or above its I(Q,W) is exactly 0, and then so is the min, so a kind
    below its own I(Q,W) is skipped wherever another active kind is not
    (cells at or above it cost no curve work and are solved).  Where two
    or more kinds are active and all below their I(Q,W), a kind whose
    `_ends` lower end exceeds the min so far by more than `_BOUND_MARGIN`
    is skipped (`dominated`); the kinds go in order of how often their
    lower end is the smallest there, first wins ties.  No minimum or split
    depends on a skipped cell.  The solves are tallied in `stats` as
    `_solve` says.

    Returns three functions: `ends()`, the (2, n) lower and upper ends of
    the best minima from the active kinds' `_ends` (upper +inf unless the
    form is dual and the split fixed); `solve(points, keep)`, the best
    minima and splits at new indices into `r_b`, no kind skipped at the
    `keep` mask over them; and `parts(points)`, each kind's (active, rate,
    value, witness) there, first solving its cells skipped there.
    """
    chans = {kind: _state_channel(kind, w, q) for kind in KINDS}
    at = {}

    def stage(r_b, splits, keep):
        # F and G take R' = split * R_b and Gtilde R'' = (1 - split) * R_b,
        # each active where its share of the split is positive, at R_b = 0
        # too, so that R_b = 0 gets the limit of the values as R_b -> 0+
        r1, r2 = splits * r_b[:, None], (1.0 - splits) * r_b[:, None]
        on1, on2 = splits > 0.0, splits < 1.0
        kinds = {"relay_F": (on1, r1), "decoder_G": (on1, r1),
                 "decoder_Gtilde": (on2, r2)}
        below = {k: _below_mi(*chans[k], rate)
                 for k, (_, rate) in kinds.items()}
        mins = np.where(np.logical_or.reduce(
            [on & ~below[k] for k, (on, _) in kinds.items()]), 0.0, np.inf)
        contested = (mins > 0.0) & (np.sum([on for on, _ in kinds.values()],
                                           axis=0) > 1)
        order, bound = list(kinds), dict.fromkeys(kinds, 0.0)
        if contested.any():
            lows = []
            for k, (on, rate) in kinds.items():
                cells = contested & on
                bound[k] = np.zeros(splits.shape)
                if cells.any():
                    bound[k][cells] = _ends(chans[k], rate[cells])[0]
                lows.append(np.where(cells, bound[k], np.inf)[contested])
            wins = np.bincount(np.argmin(lows, axis=0), minlength=len(kinds))
            order = [order[i] for i in np.argsort(-wins, kind="stable")]
        parts = {}
        for kind in order:
            active, rate = kinds[kind]
            # the kind's value is at least max(bound - margin, 0), so where
            # that is at or above the min so far it cannot lower the min
            skip = active & below[kind] & ~keep[:, None] & (
                np.maximum(bound[kind] - _BOUND_MARGIN, 0.0) >= mins)
            solved = active & ~skip
            # an empty solve still gives the witness its trailing axes
            val, wit = _solve(kind, form, chans[kind], rate[solved],
                              below[kind][solved], stats,
                              int(np.count_nonzero(skip & contested)))
            value = np.zeros(splits.shape)
            witness = np.zeros(splits.shape + np.shape(wit)[1:])
            value[solved], witness[solved] = val, wit
            mins = np.where(solved, np.minimum(mins, value), mins)
            parts[kind] = (active, rate, value, witness, skip)
        # the first maximum over the grid wins, as in a strict > scan; one
        # flat index takes it from each grid much faster than (row, column)
        # index pairs do
        at = np.arange(r_b.size) * splits.shape[1] + np.argmax(mins, axis=1)

        def pick(a):
            return np.take(a.reshape((-1,) + a.shape[2:]), at, axis=0)

        return (pick(mins), pick(splits),
                {k: [pick(a) for a in parts[k]] for k in kinds})

    def ends():
        if form != "dual" or fraction is None:
            return np.full((2, r_b.size), [[0.0], [np.inf]])
        shares = dict(zip(KINDS, (fraction, fraction, 1.0 - fraction)))
        return np.min([_ends(chans[k], share * r_b)
                       for k, share in shares.items() if share > 0.0], axis=0)

    def solve(points, keep):
        if fraction is not None:
            best, split, got = stage(r_b[points],
                                     np.full((points.size, 1), fraction), keep)
        else:
            best, split, got = stage(r_b[points], np.tile(np.linspace(
                0.0, 1.0, SPLIT_GRID), (points.size, 1)), keep)
            fine_best, fine_split, fine_at = stage(r_b[points], np.linspace(
                np.maximum(split - SPLIT_WINDOW, 0.0),
                np.minimum(split + SPLIT_WINDOW, 1.0), SPLIT_REFINE, axis=1),
                keep)
            # a refined split wins only where it is strictly better
            better = fine_best > best
            got = {k: [np.where(better.reshape((-1,) + (1,) * (new.ndim - 1)),
                                new, old)
                       for new, old in zip(fine_at[k], got[k])] for k in got}
            best, split = (np.where(better, fine_best, best),
                           np.where(better, fine_split, split))
        for kind, arrays in got.items():
            for full, a in zip(at.setdefault(kind, [np.zeros(
                    r_b.shape + a.shape[1:], a.dtype) for a in arrays]), arrays):
                full[points] = a
        return best, split

    def parts(points):
        for kind, (_, rate, value, witness, skipped) in at.items():
            todo = np.zeros_like(skipped)
            todo[points] = skipped[points]
            if todo.any():
                value[todo], witness[todo] = _solve(
                    kind, form, chans[kind], rate[todo], None, stats)
                skipped[todo] = False
        return {k: tuple(a[points] for a in p[:4]) for k, p in at.items()}

    return ends, solve, parts


class PdfSweep:
    """`pdf_sweep` results on a block-count x rate grid: `r_b`, `value` and
    `split` have shape (len(bs), len(r_effs)).  A cell is solved by
    `solve(cells, keep)` (a mask of unsolved cells) when first read, one
    batch per read: `value` and `split` read every cell, `at` and `parts`
    theirs, and `best_blocks` those that can win by `ends()`, the (2,) +
    grid lower and upper ends.  Without `solve` every cell is given."""

    def __init__(self, r_b, value, split, parts, solve=None,
                 ends=lambda: np.reshape([0.0, np.inf], (2, 1, 1))):
        self.r_b, self._value, self._split = r_b, value, split
        self._parts, self._solve, self._ends = parts, solve, ends
        self._solved, self._reads = np.full(value.shape, solve is None), 0

    def _read(self, index, rows=slice(0)):
        """Solve the unsolved cells at `index` and in the block rows `rows`
        in one batch, skipping no kind in those rows, and return self."""
        keep, todo = np.zeros_like(self._solved), np.zeros_like(self._solved)
        keep[rows] = todo[index] = True
        todo = (todo | keep) & ~self._solved
        if todo.any():
            self._value[todo], self._split[todo] = self._solve(todo, keep[todo])
            self._solved, self._reads = self._solved | todo, self._reads + 1
        return self

    def at(self, index=...):
        """The values at `index` into the grid, read there."""
        return self._read(index)._value[index]

    value = property(at)
    split = property(lambda self: self._read(...)._split)

    def parts(self, rows=slice(None)):
        """Each kind's (active, rate, value, witness) at `split` in the
        block rows `rows` (an index, a list or a slice), a primal witness
        adding the dummy channel's axes; each active entry is exact."""
        self._read(slice(0), rows)
        points = np.arange(self.r_b.size).reshape(self.r_b.shape)[rows]
        return {k: tuple(a.reshape(points.shape + a.shape[1:]) for a in p)
                for k, p in self._parts(points.ravel()).items()}

    def best_blocks(self, rows=slice(0), stats=None):
        """Per rate, the index of the first block count whose value is
        within 1e-15 of the rate's max.  It reads the cells whose upper end
        exceeds their rate's best lower end, and the block rows `rows`, in
        one batch; then, until none is left, the unread cells whose upper
        end reaches their rate's best read value minus 1e-15.  Every unread
        cell is then more than 1e-15 below the max, so it cannot be chosen,
        whatever the lower ends.  A dict `stats` gets the `cells`, the
        `solved` ones and the `rounds` of reads."""
        lower, upper = np.broadcast_to(self._ends(), (2,) + self.r_b.shape)
        start = self._reads
        self._read(upper > lower.max(axis=0, initial=-np.inf), rows)
        while True:
            value = np.where(self._solved, self._value, -np.inf)
            best = value.max(axis=0, initial=-np.inf) - 1e-15
            todo = ~self._solved & (upper >= best)
            if not todo.any():
                break
            self._read(todo)
        if stats is not None:
            stats.update(cells=value.size, solved=int(self._solved.sum()),
                         rounds=self._reads - start)
        near = value >= best
        return near.argmax(0) if len(near) else np.zeros(near.shape[1], int)


def pdf_sweep(w: RelayChannelSpec, q: PdfInput, bs, r_effs,
              form: str = "dual", split_fraction=None, stats=None) -> PdfSweep:
    """The block-Markov pdf exponent at every (b, r_eff) of `bs` x `r_effs`.

    Each value is (1/b) max over the rate split R' + R'' = R_b of
    min{F(R'), G(R'), Gtilde(R'')}, R_b = b/(b-1) * r_eff, floored at 0.
    A constituent whose share of the split is zero carries no messages and
    is dropped from the min, at R_b = 0 as at every other rate (with U = X1
    and split 1 this is exactly decode-forward, where only F and G
    remain).  `split_fraction` fixes the split, or None scans it as
    `_best_splits` does.  The points are solved when `PdfSweep` reads them,
    each read in one batch, a kind only where it can still lower the min,
    and tallied in `stats`; the other parts at the chosen split are solved,
    and added to `stats`, when `PdfSweep.parts` first reads their rows.
    Raises ValueError unless every b >= 2, every r_eff is finite and >= 0
    and the split lies in [0, 1].
    """
    bs = np.asarray(bs, dtype=np.float64).reshape(-1, 1)
    r_effs = np.asarray(r_effs, dtype=np.float64).reshape(-1)
    if np.any(bs < 2):
        raise ValueError("b must be >= 2")
    _check_rates(r_effs, "r_eff")
    if split_fraction is not None and not 0 <= split_fraction <= 1:
        raise ValueError("split_fraction must lie in [0, 1]")
    r_b = bs / (bs - 1) * r_effs
    ends, solve, parts = _best_splits(w, q, r_b.ravel(), split_fraction, form,
                                      stats)

    def solve_cells(cells, keep):
        best, split = solve(np.flatnonzero(cells), keep)
        value = best / np.broadcast_to(bs, r_b.shape)[cells]
        return np.where(value > 0.0, value, 0.0), split

    return PdfSweep(r_b, np.zeros(r_b.shape), np.zeros(r_b.shape), parts,
                    solve_cells, lambda: ends().reshape((2,) + r_b.shape) / bs)


def df_input(w: RelayChannelSpec, q_joint: Dist) -> PdfInput:
    """Decode-forward input (U = X1) from a joint distribution over X1 x X2."""
    n_x1, n_x2 = w.sizes[0], w.sizes[1]
    joint = q_joint.probs.reshape(n_x1, n_x2)
    q_x2 = joint.sum(axis=0)
    if np.any(q_x2 <= 0.0):
        raise ValueError("q_joint must give positive mass to every x2")
    q_u_given_x2 = (joint / q_x2[None, :]).T        # (x2, u=x1)
    rows = np.repeat(np.eye(n_x1), n_x2, axis=0)    # row (u, x2) puts 1 on u
    return PdfInput(Dist(q_x2), CondDist(q_u_given_x2), CondDist(rows), n_x1)
