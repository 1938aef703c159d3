"""Discrete memoryless relay channel model and derived channel constructions.

A relay channel is W(y2, y3 | x1, x2): the source sends x1, the relay sends
x2, the relay observes y2 and the destination observes y3.  This module
holds the channel data type, the virtual channels used by the
partial-decode-forward exponents, the auxiliary channels used by the
compress-forward exponents, the certified cutset bracket, the zero-error
threshold that bounds the cutset value of every channel inside W's
support from below, and the Sato channel preset.
"""

from dataclasses import dataclass, field

import numpy as np

from .prob_core import CondDist, Dist, _neg_plogp

_ROW_TOL = 1e-9


def _conditional(joint):
    """(joint / its sum over the last axis, mask of the leading indices
    where that sum is 0); those rows are filled uniformly."""
    marg = joint.sum(axis=-1)[..., None]
    mass = marg > 0.0
    cond = np.where(mass, joint / np.where(mass, marg, 1.0),
                    1.0 / joint.shape[-1])
    return cond, ~mass[..., 0]


@dataclass(frozen=True)
class RelayChannelSpec:
    """W(y2,y3|x1,x2) as a 4-d table indexed [x1][x2][y2][y3]."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 4:
            raise ValueError("relay channel table must be 4-dimensional")
        if not np.all(np.isfinite(w)):
            raise ValueError("channel probabilities must be finite")
        if np.any(w < 0.0):
            raise ValueError("channel probabilities must be nonnegative")
        sums = w.sum(axis=(2, 3))
        if np.any(np.abs(sums - 1.0) > _ROW_TOL):
            raise ValueError("each W(.,.|x1,x2) must sum to 1")
        # renormalize away decimal roundoff within tolerance
        w = w / sums[:, :, None, None]
        object.__setattr__(self, "w", w)

    @property
    def sizes(self):
        """(|X1|, |X2|, |Y2|, |Y3|)."""
        return self.w.shape

    def y3_marginal(self):
        """W(y3|x1,x2) as an array (X1, X2, Y3)."""
        return self.w.sum(axis=2)

    def y2_marginal(self):
        """W(y2|x1,x2) as an array (X1, X2, Y2)."""
        return self.w.sum(axis=3)

    def y3_conditional(self):
        """W(y3|x1,x2,y2) with uniform fill at zero-probability (x1,x2,y2).

        Returns (cond, flagged) where `flagged` lists the filled triples
        in (x1, x2, y2) order.
        """
        cond, empty = _conditional(self.w)
        return cond, [tuple(map(int, idx)) for idx in np.argwhere(empty)]


@dataclass(frozen=True)
class PdfInput:
    """Input distributions for partial decode-forward: Q_{X2}, Q_{U|X2}, Q_{X1|U,X2}."""

    q_x2: Dist
    q_u_given_x2: CondDist          # rows indexed by x2
    q_x1_given_ux2: CondDist        # rows indexed by u*|X2| + x2
    u_size: int

    def __post_init__(self):
        n_x2 = len(self.q_x2)
        if self.q_u_given_x2.n_inputs != n_x2:
            raise ValueError("Q_{U|X2} must have one row per x2")
        if self.q_u_given_x2.n_outputs != self.u_size:
            raise ValueError("Q_{U|X2} output size must equal u_size")
        if self.q_x1_given_ux2.n_inputs != self.u_size * n_x2:
            raise ValueError("Q_{X1|UX2} must have one row per (u, x2)")


@dataclass(frozen=True)
class CfInput:
    """Input distributions for compress-forward.

    `test_channel` is Q_{Yhat2|Y2,X2} with rows indexed by y2*|X2|+x2 and
    `realized` is the relay-observation conditional type Q_{Y2|X2} under
    consideration.
    """

    q_x1: Dist
    q_x2: Dist
    yhat_size: int
    test_channel: CondDist
    realized: CondDist

    def __post_init__(self):
        n_x2 = len(self.q_x2)
        n_y2 = self.realized.n_outputs
        if self.realized.n_inputs != n_x2:
            raise ValueError("realized Q_{Y2|X2} must have one row per x2")
        if self.test_channel.n_inputs != n_y2 * n_x2:
            raise ValueError("test channel must have one row per (y2, x2)")
        if self.test_channel.n_outputs != self.yhat_size:
            raise ValueError("test channel output size must equal yhat_size")


def pdf_virtual_channels(w: RelayChannelSpec, q: PdfInput):
    """The virtual channels W_{Y2|U,X2} and W_{Y3|U,X2} induced by a
    partial-decode-forward input, as CondDists with rows indexed by
    u*|X2|+x2."""
    n_x1, n_x2, n_y2, n_y3 = w.sizes
    n_u = q.u_size
    qx1 = q.q_x1_given_ux2.rows.reshape(n_u, n_x2, n_x1)
    wy2 = w.y2_marginal()   # (x1, x2, y2)
    wy3 = w.y3_marginal()   # (x1, x2, y3)

    v1 = np.einsum("uax,xay->uay", qx1, wy2).reshape(n_u * n_x2, n_y2)
    v2 = np.einsum("uax,xay->uay", qx1, wy3).reshape(n_u * n_x2, n_y3)
    return CondDist(v1), CondDist(v2)


@dataclass(frozen=True)
class CfAuxChannels:
    """Auxiliary channels induced by a compress-forward input.

    wq1 : (X2, Y2, Y3)  channel averaged over Q_{X1}
    wq1_y3, wq1_y2 : its marginals
    w2 : (X1, X2, Yhat2, Y3)  channel averaged over realized Q_{Y2|X2} and
         the test channel
    q_yhat_given_x2 : (X2, Yhat2)  description marginal induced by `realized`
    flagged : triples (x1,x2,y2) where W(y3|x1,x2,y2) was undefined and
         filled uniformly; nonempty flags mean the supplied realized law
         exercises a modeling convention rather than channel data
    """

    wq1: np.ndarray
    wq1_y3: np.ndarray
    wq1_y2: np.ndarray
    w2: np.ndarray
    q_yhat_given_x2: np.ndarray
    test_channel: np.ndarray    # (Y2, X2, Yhat2)
    q_x1: np.ndarray
    q_x2: np.ndarray
    realized: np.ndarray        # (X2, Y2) realized relay-observation law
    flagged: tuple = field(default_factory=tuple)

    def yhat_marginal(self, q_y2_given_x2):
        """Q_{Yhat2|X2} induced by an arbitrary Q_{Y2|X2} (X2, Y2) array."""
        return np.einsum("ay,yah->ah", q_y2_given_x2, self.test_channel)

    def w2_cond(self):
        """W2's Y3-conditional V_ref(y3|x1,x2,yhat2); uniform at zero mass."""
        return _conditional(self.w2)[0]


def cf_aux_channels(w: RelayChannelSpec, c: CfInput) -> CfAuxChannels:
    """Build the compress-forward auxiliary channels for one input bundle."""
    n_x1, n_x2, n_y2, n_y3 = w.sizes
    wq1 = np.einsum("x,xayz->ayz", c.q_x1.probs, w.w)   # (X2, Y2, Y3)
    wq1_y3 = wq1.sum(axis=1)
    wq1_y2 = wq1.sum(axis=2)

    cond, flagged = w.y3_conditional()   # (X1, X2, Y2, Y3)
    # triples with W(y3|x1,x2,y2) undefined use the uniform fill; they are
    # reported in `flagged` so callers can assess the convention's impact
    test = c.test_channel.rows.reshape(n_y2, n_x2, c.yhat_size)
    w2 = np.einsum("ay,yah,xayz->xahz", c.realized.rows, test, cond)
    q_yhat = np.einsum("ay,yah->ah", c.realized.rows, test)
    return CfAuxChannels(wq1, wq1_y3, wq1_y2, w2, q_yhat, test,
                         c.q_x1.probs.copy(), c.q_x2.probs.copy(),
                         c.realized.rows.copy(), tuple(flagged))


#: exponent scale s of the multiplicative update P <- P 2^(s g)
_STEP = 2.0
#: most bits one update may take from a coordinate: far from the optimum
#: (near a vertex, say) g spreads over tens of bits and full steps
#: oscillate between faces instead of converging
_MAX_FALL = 8.0
#: bracket width at which cutset_bound stops
_GAP = 1e-9
#: iteration caps of cutset_bound without and with a decision threshold
_ITERATIONS = 10_000
_DECIDE_ITERATIONS = 30
#: iterations between two evaluations of the exact bound over lam
_ENVELOPE_EVERY = 8


def _cross_entropy(rows, law, on, buf):
    """-sum_y rows[..., y] log2 law[..., y] over the last axis where `on`
    (rows > 0); +inf where a row puts mass on a zero of its law.  `buf`,
    zeros of rows' shape, takes the terms and keeps +0.0 off `on`."""
    return -np.multiply(rows, np.log2(law), out=buf, where=on).sum(axis=-1)


def _envelope(a, b):
    """(min over lam in [0, 1] of max_x lam a_x + (1 - lam) b_x, a
    minimising lam).

    By LP duality the min is the max over mixtures mu of min(mu.a, mu.b),
    and an optimal mu has at most two points: a single x (lam at an end of
    [0, 1]) or a pair whose lines cross inside (0, 1) (lam at the
    crossing).  A line with an infinite coefficient is infinite wherever
    that coefficient has positive weight.
    """
    if not np.isfinite(a).all():
        return float(b.max()), 0.0
    if not np.isfinite(b).all():
        return float(a.max()), 1.0
    d = a - b
    k = int(np.argmax(np.minimum(a, b)))
    best, lam = float(min(a[k], b[k])), float(d[k] < 0.0)
    up, down = np.flatnonzero(d > 0.0), np.flatnonzero(d < 0.0)
    if up.size and down.size:
        d_up, d_down = d[up][:, None], d[down]
        cross = (a[down] * d_up - a[up][:, None] * d_down) / (d_up - d_down)
        i, j = np.unravel_index(int(np.argmax(cross)), cross.shape)
        if cross[i, j] > best:
            best = float(cross[i, j])
            lam = float((b[down[j]] - b[up[i]]) / (d[up[i]] - d[down[j]]))
    return best, lam


def cutset_bound(v: RelayChannelSpec, *, candidate: Dist = None,
                 decide_at: float = None, stats: dict = None):
    """Certified bracket (lo, hi, witness) on the cutset value
    C = max_P min{I(X1X2;Y3), I(X1;Y2Y3|X2)} over joints P on X1 x X2.

    C = min over lam in [0, 1] of max_P f_lam(P) with
    f_lam = lam I(X1X2;Y3) + (1 - lam) I(X1;Y2Y3|X2), concave in P and
    linear in lam.  At every iterate P, with q3 = P W_{Y3} and m_{x2} P's
    output law of (Y2, Y3) in block x2,
    g_lam(x) = lam D(W_{Y3|x} || q3) + (1 - lam) D(W_{Y2Y3|x} || m_{x2})
    is the gradient of f_lam, and since any output laws bound the mutual
    informations from above, max_P f_lam <= max_x g_lam(x) (Blahut 1972,
    Arimoto 1972).  So at every iterate lo = min{I1(P), I2(P)}, attained
    at the witness P, and hi = max_x g_lam(x) for any lam bracket C; the
    best of each is kept.  hi is taken at the iterate's lam and, every
    _ENVELOPE_EVERY iterates, at the best lam.  The iteration is
    P <- P 2^(s g_lam), normalised, with lam first the best one and then
    dual steps lam <- lam - (I1 - I2) clipped to [0, 1].

    It starts from `candidate` (uniform when None; a zero coordinate of the
    candidate stays zero, which keeps the bracket valid but may keep it
    open) and stops when hi - lo <= 1e-9, after _ITERATIONS iterations,
    or, when `decide_at` is given, as soon as hi <= decide_at or
    lo > decide_at, and after _DECIDE_ITERATIONS iterations.  `stats`,
    when given, gains the call in "cutset_calls", its iterations in
    "cutset_iterations" and, when it returns a decision still open
    (lo <= decide_at < hi), one in "cutset_undecided".
    """
    n_x1, n_x2, n_y2, n_y3 = v.sizes
    w3 = v.y3_marginal().reshape(-1, n_y3)
    w23 = v.w.reshape(n_x1, n_x2, n_y2 * n_y3)
    h3, h23 = _neg_plogp(w3).sum(axis=1), _neg_plogp(w23).sum(axis=2)
    on3, on23 = w3 > 0.0, w23 > 0.0
    buf3, buf23 = np.zeros_like(w3), np.zeros_like(w23)
    # the law of an empty block: any distribution keeps hi valid
    fill = w23.mean(axis=0)
    n = n_x1 * n_x2
    p = np.full(n, 1.0 / n) if candidate is None else candidate.probs.copy()
    lo, hi, witness = -np.inf, np.inf, p
    cap = _ITERATIONS if decide_at is None else _DECIDE_ITERATIONS
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, cap + 1):
            a = _cross_entropy(w3, p @ w3, on3, buf3) - h3
            mass = np.einsum("xa,xaz->az", p.reshape(n_x1, n_x2), w23)
            total = mass.sum(axis=1, keepdims=True)
            # normalised by its own total, m stays a distribution when a
            # block's mass underflows
            m = np.where(total > 0.0, mass / total, fill)
            b = (_cross_entropy(w23, m, on23, buf23) - h23).reshape(n)
            live = p > 0.0
            i1 = float(p @ np.where(live, a, 0.0))
            i2 = float(p @ np.where(live, b, 0.0))
            # an infinite term means a live symbol's mass underflowed out of
            # the output law, not a true value above log2 |X1||X2|
            if min(i1, i2) > lo and max(i1, i2) < np.inf:
                lo, witness = min(i1, i2), p
            if it % _ENVELOPE_EVERY == 1:
                bound, best_lam = _envelope(a, b)
                hi = min(hi, bound)
            if it == 1:
                lam = best_lam
            else:
                lam = min(max(lam - (i1 - i2), 0.0), 1.0)
            g = lam * a + (1.0 - lam) * b
            # the bound at this lam; a nan or inf maximum leaves hi as is
            top = float(g.max())
            hi = min(hi, top)
            if hi - lo <= _GAP or (decide_at is not None
                                   and (hi <= decide_at or lo > decide_at)):
                break
            if np.isfinite(top):
                fall = _STEP * (top - g)
            else:
                # g is nan (0 times inf) or inf only where P has no or
                # underflowed mass; any P keeps the bracket valid, so such
                # a coordinate just takes the largest finite step
                ok = np.isfinite(g)
                top = g[ok].max()
                fall = _STEP * (top - np.where(ok, g, top))
            p = p * np.exp2(-np.minimum(fall, _MAX_FALL))
            p = p / p.sum()
    if stats is not None:
        stats["cutset_calls"] = stats.get("cutset_calls", 0) + 1
        stats["cutset_iterations"] = stats.get("cutset_iterations", 0) + it
        undecided = decide_at is not None and lo <= decide_at < hi
        stats["cutset_undecided"] = (stats.get("cutset_undecided", 0)
                                     + undecided)
    return max(lo, 0.0), hi, Dist(witness)


#: branch-and-bound nodes zero_error_rate expands over all x2
_PACKING_NODES = 10_000


@dataclass(frozen=True)
class ZeroErrorCertificate:
    """Source symbols `x1s` whose destination supports W(.|x1, x2) at relay
    symbol `x2` are pairwise disjoint, and rate = log2 len(x1s) bits.
    `exact` is whether the search that found them finished within its
    budget, so that no larger such set exists."""

    rate: float
    x2: int
    x1s: tuple
    exact: bool


def zero_error_rate(w: RelayChannelSpec) -> ZeroErrorCertificate:
    """The zero-error threshold R0: the max over x2 of log2 of the largest
    set S of x1 whose Y3 supports under W are pairwise disjoint.

    Every V whose rows are absolutely continuous with respect to W's (every
    V with finite divergence from W) keeps those supports disjoint, so with
    P uniform on S x {x2} both I(X1X2;Y3) and I(X1;Y2Y3|X2) are at least
    log2 |S|, and C_cs(V) >= R0 (Shannon 1956's single-letter zero-error
    argument).  Per x2, a depth-first branch and bound over the sets,
    smallest supports first, expands at most _PACKING_NODES nodes in all;
    past them the largest set found so far is returned with exact False.
    It is still a valid certificate, of a possibly smaller rate.
    """
    n_x1, n_x2, _, n_y3 = w.sizes
    supp = w.y3_marginal() > 0.0                 # (x1, x2, y3)
    best, best_x2, nodes, exact = (0,), 0, 0, True
    for x2 in range(n_x2):
        on = supp[:, x2]
        # bit i of a mask stands for x1 = order[i]; clash[i] holds the
        # symbols whose support meets order[i]'s, order[i] included
        order = np.argsort(on.sum(axis=1), kind="stable")
        cols = [int.from_bytes(np.packbits(on[order, y], bitorder="little")
                               .tobytes(), "little") for y in range(n_y3)]
        clash = []
        for x1 in order:
            mask = 0
            for y in np.flatnonzero(on[x1]):
                mask |= cols[y]
            clash.append(mask)
        stack = [((), (1 << n_x1) - 1)]
        while stack:
            chosen, cand = stack.pop()
            if len(chosen) > len(best):
                best, best_x2 = tuple(sorted(int(order[i]) for i in chosen)), x2
            if len(chosen) + cand.bit_count() <= len(best):
                continue
            if nodes == _PACKING_NODES:
                exact = False
                break
            nodes += 1
            low = cand & -cand
            i = low.bit_length() - 1
            stack.append((chosen, cand ^ low))
            stack.append((chosen + (i,), cand & ~clash[i]))
        if not exact:
            break
    return ZeroErrorCertificate(float(np.log2(len(best))), best_x2, best,
                                exact)


SATO_P = 0.35431
SATO_Q = 0.072845


def sato_channel():
    """The Sato relay channel and its capacity-achieving input joint.

    X1, Y2, Y3 are ternary, X2 binary.  The relay observes the source input
    noiselessly (y2 = x1); the destination channel W(y3|x1,x2) is given by
    two 3x3 matrices, one per x2.
    """
    wy3 = np.array([
        # x2 = 0
        [[1.0, 0.0, 0.0],
         [0.0, 0.5, 0.5],
         [0.0, 0.5, 0.5]],
        # x2 = 1
        [[0.5, 0.5, 0.0],
         [0.5, 0.5, 0.0],
         [0.0, 0.0, 1.0]],
    ])
    w = np.zeros((3, 2, 3, 3))
    for x1 in range(3):
        for x2 in range(2):
            w[x1, x2, x1, :] = wy3[x2, x1]
    p, q = SATO_P, SATO_Q
    joint = np.array([[p, q], [q, q], [q, p]])
    joint = joint / joint.sum()
    return RelayChannelSpec(w), Dist(joint.reshape(-1))
