"""Hot numerical kernels, in numpy only.

`e0_sum` is the Gallager-style inner sum every dual exponent evaluates; it
broadcasts over an array of rho values.
"""

import numpy as np


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
    ex = (1.0 / (1.0 + rho))[..., None]
    # channels repeat few values (zeros, ones, halves), so only the distinct
    # entries are raised to each exponent and then gathered; np.take keeps
    # the layout, and so the einsum's rounding, of powering w directly
    vals, idx = np.unique(w, return_inverse=True)
    powered = np.take(np.power(vals, ex), idx.reshape(w.shape), axis=-1)
    inner = np.einsum("sx,...sxy->...sy", qxs, powered)
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
