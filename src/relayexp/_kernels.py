"""Hot numerical kernels, in numpy only.

`e0_sum` is the Gallager-style inner sum every dual exponent evaluates; it
broadcasts over an array of rho values.  It evaluates from a plan built
once per state channel and cached on the channel's content:

* only the distinct channel values other than 0 and 1 are raised to
  1/(1+rho), since 0^e = 0 and 1^e = 1 exactly;
* each output column (s, y) keeps its nonzero terms (q_xs[s,x], value) in
  x order, since adding +0 is exact;
* columns with the same terms have bitwise-equal sums, so each distinct
  column is summed and raised to 1+rho once and gathered back to (s, y).

The result is the float that raising every entry of w gives, because the
plan repeats numpy's arithmetic on the full arrays: einsum adds a column's
terms one at a time in x order, except for |Y| = 1, where it takes one
dot product per column whose lanes depend on the zero terms, so those are
kept; and numpy's power squares (or takes the square root) exactly where
it would on the full arrays.
"""

from functools import lru_cache

import numpy as np

# distinct state channels whose plans are kept
_PLAN_CACHE_SIZE = 64


def _plan(qxs, w):
    """The evaluation plan of the state channel (qxs, w), cached on the
    shapes and bytes of both: (raised, dot, coef, code, fixed, col_of).

    raised : the distinct values of w other than 0 and 1
    dot : |Y| = 1, and each column sum is one dot product
    coef, code : each distinct column's term coefficients and values, the
        values as indices into [0, 1, raised^(1/(1+rho))...]; shaped
        (term, column), or (column, term) for a dot
    fixed : the column sums when nothing is raised, else None
    col_of : (S, Y) -> distinct column; column 0 has no terms
    """
    qxs = np.ascontiguousarray(qxs, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    return _cached_plan(qxs.shape, w.shape, qxs.tobytes(), w.tobytes())


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _cached_plan(qxs_shape, w_shape, qxs_bytes, w_bytes):
    qxs = np.frombuffer(qxs_bytes).reshape(qxs_shape)
    w = np.frombuffer(w_bytes).reshape(w_shape)
    ns, _, ny = w_shape
    vals, inverse = np.unique(w, return_inverse=True)
    trivial = (vals == 0.0) | (vals == 1.0)
    w_code = np.where(vals == 0.0, 0, np.where(
        vals == 1.0, 1, 1 + np.cumsum(~trivial)))[inverse.reshape(w_shape)]
    dot = ny == 1
    # each column's terms (coefficient, code) in x order, the zero terms
    # dropped unless the column sum is a dot product; the empty column is 0
    columns = {(): 0}
    col_of = np.empty((ns, ny), dtype=np.intp)
    for s, (q_s, code_s) in enumerate(zip(qxs.tolist(), w_code.tolist())):
        for y in range(ny):
            terms = tuple((q, code_x[y]) for q, code_x in zip(q_s, code_s)
                          if dot or (q != 0.0 and code_x[y] != 0))
            col_of[s, y] = columns.setdefault(terms, len(columns))
    width = max(map(len, columns))
    coef = np.zeros((len(columns), width))
    code = np.zeros((len(columns), width), dtype=np.intp)
    for c, terms in enumerate(columns):
        coef[c, :len(terms)] = [q for q, _ in terms]
        code[c, :len(terms)] = [k for _, k in terms]
    if not dot:
        # terms first, so that einsum adds them one at a time; with the
        # empty column there are at least two columns, and einsum does not
        # reduce them as one dot product
        coef, code = coef.T.copy(), code.T.copy()
    fixed = None
    if trivial.all():
        fixed = _column_sums(dot, coef, np.array([0.0, 1.0])[code])
    return vals[~trivial], dot, coef, code, fixed, col_of


def _column_sums(dot, coef, terms):
    """The sum of each column's terms; `terms` has `coef`'s shape followed
    by rho's, and the sums have shape (columns,) + rho's shape."""
    if dot:
        return np.einsum("ck,c...k->c...", coef,
                         np.ascontiguousarray(np.moveaxis(terms, 1, -1)))
    return np.einsum("kc,kc...->c...", coef, terms)


def e0_sum(qs, qxs, w, rho):
    """Gallager-style inner sum for a state-conditioned channel.

    qs : (S,) state probabilities
    qxs : (S, X) input distribution per state
    w : (S, X, Y) channel per state
    rho : a finite scalar >= 0, or an array of any shape of such values
    returns sum_{s,y} qs[s] * (sum_x qxs[s,x] * w[s,x,y]^(1/(1+rho)))^(1+rho)
    as a float for a scalar rho, else as an array of rho's shape.  An entry
    of a rho array equals the scalar call bit for bit.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if rho.ndim > 1:
        return e0_sum(qs, qxs, w, rho.ravel()).reshape(rho.shape)
    # below, rho has at most one axis, so .T moves the column axis last
    raised, dot, coef, code, fixed, col_of = _plan(qxs, w)
    if fixed is None:
        ext = np.empty((raised.size + 2,) + rho.shape)
        ext[0] = 0.0
        ext[1] = 1.0
        np.power(raised.reshape((-1,) + (1,) * rho.ndim),
                 1.0 / (1.0 + rho), out=ext[2:])
        sums = _column_sums(dot, coef, ext[code])
    else:
        sums = fixed.reshape((-1,) + (1,) * rho.ndim)
    if col_of.size > 1:
        powered = np.zeros(sums.shape[:1] + rho.shape)
        np.power(sums[1:], 1.0 + rho, out=powered[1:])
        inner = np.take(np.ascontiguousarray(powered.T), col_of, axis=-1)
    else:
        # numpy squares a scalar exponent of 2 exactly when it is broadcast
        # over several entries, but raises a lone (1, 1) entry by pow, so a
        # single column is raised in that layout
        inner = np.power(np.take(sums.T, col_of, axis=-1),
                         (1.0 + rho)[..., None, None])
    total = np.einsum("s,...sy->...", qs, inner)
    if not total.ndim:
        return float(total)
    # numpy raises to the scalar exponents 1/2 and 2 (1 + rho rounds to 2)
    # by an exact square root and square, but to an array of exponents by
    # pow, which can differ in the last bit
    at_one = 1.0 + rho == 2.0
    if at_one.any():
        total[at_one] = e0_sum(qs, qxs, w, 1.0)
    return total
