"""Hot numerical kernels.

`e0_sum` is numpy only.  `batch_cond_mi` has a numba fast path and a
pure-numpy fallback, selected once at import time: set the environment
variable ``RELAYEXP_NO_NUMBA=1`` to force the pure-numpy code path (useful
on platforms without a working numba).
"""

import os

import numpy as np

_LOG2 = float(np.log(2.0))

USE_NUMBA = os.environ.get("RELAYEXP_NO_NUMBA", "0").lower() not in ("1", "true", "yes")

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        USE_NUMBA = False


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------

def e0_sum(qs, qxs, w, rho):
    """Gallager-style inner sum for a state-conditioned channel.

    qs : (S,) state probabilities
    qxs : (S, X) input distribution per state
    w : (S, X, Y) channel per state
    rho : a scalar, or an array of any shape
    returns sum_{s,y} qs[s] * (sum_x qxs[s,x] * w[s,x,y]^(1/(1+rho)))^(1+rho)
    as a float for a scalar rho, else as an array of rho's shape.  For rho
    in [0, 1] an entry of a rho array equals the scalar call bit for bit.
    """
    rho = np.asarray(rho, dtype=np.float64)
    ex = (1.0 / (1.0 + rho))[..., None, None, None]
    inner = np.einsum("sx,...sxy->...sy", qxs, np.power(w, ex))
    total = np.einsum("s,...sy->...", qs,
                      np.power(inner, (1.0 + rho)[..., None, None]))
    if not total.ndim:
        return float(total)
    # numpy raises to the scalar exponents 1/2 and 2 (1 + rho rounds to 2)
    # by an exact square root and square, but to an array of exponents by
    # pow, which can differ in the last bit
    at_one = 1.0 + rho == 2.0
    if at_one.any():
        total[at_one] = e0_sum(qs, qxs, w, 1.0)
    return total


def _batch_cond_mi_np(joints):
    """Conditional mutual information I(A;B|S) for a batch of joints.

    joints : (m, S, A, B) array of joint probabilities p(s,a,b), each
    summing to 1.  Returns an (m,) array of values in bits.
    """
    j = np.asarray(joints, dtype=np.float64)
    pab = j
    pa = j.sum(axis=3)                      # (m, S, A)
    pb = j.sum(axis=2)                      # (m, S, B)
    ps = pa.sum(axis=2)                     # (m, S)

    def _neg_plogp(x):
        out = np.zeros_like(x)
        mask = x > 0.0
        out[mask] = -x[mask] * np.log2(x[mask])
        return out

    h_ab = _neg_plogp(pab).sum(axis=(1, 2, 3))
    h_a = _neg_plogp(pa).sum(axis=(1, 2))
    h_b = _neg_plogp(pb).sum(axis=(1, 2))
    h_s = _neg_plogp(ps).sum(axis=1)
    # I(A;B|S) = H(A,S) + H(B,S) - H(S) - H(A,B,S)
    return h_a + h_b - h_s - h_ab


# ---------------------------------------------------------------------------
# numba implementation (same contract, scalar loops)
# ---------------------------------------------------------------------------

def _batch_cond_mi_loop(joints):
    m, ns, na, nb = joints.shape
    out = np.zeros(m)
    for k in range(m):
        val = 0.0
        for s in range(ns):
            ps = 0.0
            for a in range(na):
                for b in range(nb):
                    ps += joints[k, s, a, b]
            for a in range(na):
                pa = 0.0
                for b in range(nb):
                    pa += joints[k, s, a, b]
                if pa > 0.0:
                    val -= pa * np.log(pa)
            for b in range(nb):
                pb = 0.0
                for a in range(na):
                    pb += joints[k, s, a, b]
                if pb > 0.0:
                    val -= pb * np.log(pb)
            for a in range(na):
                for b in range(nb):
                    pab = joints[k, s, a, b]
                    if pab > 0.0:
                        val += pab * np.log(pab)
            if ps > 0.0:
                val += ps * np.log(ps)
        out[k] = val / _LOG2
    return out


if USE_NUMBA:
    batch_cond_mi = njit(cache=True)(_batch_cond_mi_loop)
else:
    batch_cond_mi = _batch_cond_mi_np
