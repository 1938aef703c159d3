"""Finite-alphabet probability primitives and information measures in bits.

All logarithms are base 2 and 0*log(0) is taken to be 0.  Row divergences
are +inf where absolute continuity fails, so that exponent minimizations
can treat infeasible channels as infinitely costly.
"""

from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-9


class EnumBudgetError(RuntimeError):
    """Raised when an exact enumeration would exceed the object budget."""


def _neg_plogp(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    mask = x > 0.0
    out[mask] = -x[mask] * np.log2(x[mask])
    return out


@dataclass(frozen=True)
class Dist:
    """Probability vector over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("Dist.probs must be one-dimensional")
        if not np.all(np.isfinite(p)):
            raise ValueError("Dist entries must be finite")
        if np.any(p < 0.0):
            raise ValueError("Dist entries must be nonnegative")
        if abs(p.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"Dist entries sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probs", p)

    def __len__(self):
        return self.probs.shape[0]


@dataclass(frozen=True)
class CondDist:
    """Stochastic matrix: one Dist per input symbol, rows index inputs."""

    rows: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.rows, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError("CondDist.rows must be two-dimensional")
        if not np.all(np.isfinite(m)):
            raise ValueError("CondDist entries must be finite")
        if np.any(m < 0.0):
            raise ValueError("CondDist entries must be nonnegative")
        sums = m.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > SIMPLEX_TOL):
            raise ValueError("each CondDist row must sum to 1")
        object.__setattr__(self, "rows", m)

    @property
    def n_inputs(self):
        return self.rows.shape[0]

    @property
    def n_outputs(self):
        return self.rows.shape[1]


# ---------------------------------------------------------------------------
# information measures
# ---------------------------------------------------------------------------

def cond_mi_from_joint(joint):
    """I(A;B|S) in bits of a joint p(s,a,b), or of each joint of a stack."""
    j = np.asarray(joint, dtype=np.float64)
    h_as = _neg_plogp(j.sum(axis=-1)).sum(axis=(-2, -1))
    h_bs = _neg_plogp(j.sum(axis=-2)).sum(axis=(-2, -1))
    h_s = _neg_plogp(j.sum(axis=(-2, -1))).sum(axis=-1)
    h_abs = _neg_plogp(j).sum(axis=(-3, -2, -1))
    mi = np.maximum(h_as + h_bs - h_s - h_abs, 0.0)
    return float(mi) if mi.ndim == 0 else mi


def _row_divergences(v, w):
    """D(v_x||w_x) in bits for every row x (the last two axes); +inf on a
    support violation."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(v > 0.0, v * np.log2(v / w), 0.0)
    return terms.sum(axis=(-2, -1))
