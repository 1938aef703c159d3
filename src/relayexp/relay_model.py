"""Discrete memoryless relay channel model and derived channel constructions.

A relay channel is W(y2, y3 | x1, x2): the source sends x1, the relay sends
x2, the relay observes y2 and the destination observes y3.  This module
holds the channel data type, the virtual channels used by the
partial-decode-forward exponents, the auxiliary channels used by the
compress-forward exponents, the cutset function and the Sato channel preset.
"""

from dataclasses import dataclass, field

import numpy as np

from .prob_core import (CondDist, Dist, OptimizerConfig, _neg_plogp,
                        maximize_over_simplex)

_ROW_TOL = 1e-9


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

        Returns (cond, flagged) where `flagged` lists the filled triples.
        """
        marg = self.y2_marginal()
        n_y3 = self.w.shape[3]
        cond = np.empty_like(self.w)
        flagged = []
        for x1 in range(self.w.shape[0]):
            for x2 in range(self.w.shape[1]):
                for y2 in range(self.w.shape[2]):
                    m = marg[x1, x2, y2]
                    if m > 0.0:
                        cond[x1, x2, y2] = self.w[x1, x2, y2] / m
                    else:
                        cond[x1, x2, y2] = 1.0 / n_y3
                        flagged.append((x1, x2, y2))
        return cond, flagged


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
    """The three virtual channels induced by a partial-decode-forward input.

    Returns (W_{Y2|U,X2}, W_{Y3|U,X2}, W_{Y3|U,X1,X2}) as CondDists with
    rows indexed by u*|X2|+x2 for the first two and by (u, x1, x2)
    flattened in that order for the third, which is the Y3-marginal of W
    and therefore constant in u.
    """
    n_x1, n_x2, n_y2, n_y3 = w.sizes
    n_u = q.u_size
    qx1 = q.q_x1_given_ux2.rows.reshape(n_u, n_x2, n_x1)
    wy2 = w.y2_marginal()   # (x1, x2, y2)
    wy3 = w.y3_marginal()   # (x1, x2, y3)

    v1 = np.einsum("uax,xay->uay", qx1, wy2).reshape(n_u * n_x2, n_y2)
    v2 = np.einsum("uax,xay->uay", qx1, wy3).reshape(n_u * n_x2, n_y3)
    v3 = np.broadcast_to(
        wy3.transpose(0, 1, 2)[None, :, :, :], (n_u, n_x1, n_x2, n_y3)
    ).reshape(n_u * n_x1 * n_x2, n_y3).copy()
    return CondDist(v1), CondDist(v2), CondDist(v3)


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
    realized: np.ndarray = None  # (X2, Y2) realized relay-observation law
    flagged: tuple = field(default_factory=tuple)

    def yhat_marginal(self, q_y2_given_x2):
        """Q_{Yhat2|X2} induced by an arbitrary Q_{Y2|X2} (X2, Y2) array."""
        return np.einsum("ay,yah->ah", q_y2_given_x2, self.test_channel)

    def v_q_x1(self, v):
        """V_{Q_{X1}}(y3|x2,yhat2) for V of shape (X1, X2, Yhat2, Y3)."""
        return np.einsum("x,xahz->ahz", self.q_x1, v)

    def w2_cond(self):
        """W2's Y3-conditional V_ref(y3|x1,x2,yhat2); uniform at zero mass."""
        marg = self.w2.sum(axis=3)
        n_y3 = self.w2.shape[3]
        out = np.empty_like(self.w2)
        nz = marg > 0.0
        out[~nz] = 1.0 / n_y3
        out[nz] = self.w2[nz] / marg[nz][:, None]
        return out


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


def _cutset_objective(w: RelayChannelSpec):
    """min{I(X1X2;Y3), I(X1;Y2Y3|X2)} for a batch of joints over X1 x X2.

    The returned function maps an (n, |X1||X2|) array, one flattened joint
    P(x1,x2) per row, to the n cutset values.  With h3 and h23 the row
    entropies H(Y3|x1x2) and H(Y2Y3|x1x2),
    I(X1X2;Y3) = H(P W_Y3) - P.h3 and
    I(X1;Y2Y3|X2) = sum_x2 [H(m_x2) - H(P_x2)] - P.h23, where
    m(x2,y2y3) = sum_x1 P(x1,x2) W(y2y3|x1,x2).
    """
    n_x1, n_x2, n_y2, n_y3 = w.sizes
    wy3 = w.y3_marginal().reshape(n_x1 * n_x2, n_y3)
    w23 = w.w.reshape(n_x1, n_x2, n_y2 * n_y3)
    h3 = _neg_plogp(wy3).sum(axis=1)
    h23 = _neg_plogp(w23).sum(axis=2).reshape(-1)

    def objective(p):
        i1 = _neg_plogp(p @ wy3).sum(axis=1) - p @ h3
        joint = p.reshape(-1, n_x1, n_x2)
        m = np.einsum("nxa,xaz->naz", joint, w23)
        i2 = (_neg_plogp(m).sum(axis=(1, 2))
              - _neg_plogp(joint.sum(axis=1)).sum(axis=1) - p @ h23)
        return np.maximum(np.minimum(i1, i2), 0.0)

    return objective


def cutset_bound(v: RelayChannelSpec, cfg: OptimizerConfig = None,
                 candidate: Dist = None):
    """Cutset value max_P min{I(X1X2;Y3), I(X1;Y2Y3|X2)} and its witness.

    `candidate` optionally supplies a joint over X1 x X2; it is not part of
    the search, but its value is compared with the search's result
    afterwards and it becomes the witness if its value is larger, so the
    returned value is never below the candidate's.  Raises EnumBudgetError
    when the search lattice exceeds prob_core.LATTICE_BUDGET points.
    """
    if cfg is None:
        cfg = OptimizerConfig()
    n_x1, n_x2 = v.sizes[0], v.sizes[1]
    objective = _cutset_objective(v)
    witness, value = maximize_over_simplex(objective, n_x1 * n_x2, cfg)
    if candidate is not None:
        cval = float(objective(candidate.probs[None])[0])
        if cval > value:
            witness, value = candidate, cval
    return value, witness


def cutset_at(v: RelayChannelSpec, joint: Dist):
    """Evaluate the cutset objective at a fixed joint over X1 x X2."""
    return float(_cutset_objective(v)(joint.probs[None])[0])


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
