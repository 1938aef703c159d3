"""Method-of-types enumeration and exhaustive small-blocklength checks.

Counts are exact big integers; probabilities become floating point only at
the final comparison step, in the log domain, with a small slack so that
roundoff cannot flip a boundary comparison.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .prob_core import (CondDist, Dist, EnumBudgetError, cond_entropy,
                        cond_mi_from_joint, kl_div_cond)

ENUM_BUDGET = 10**7
_LOG_SLACK = 1e-9


@dataclass(frozen=True)
class TypeN:
    """Empirical distribution of a length-n sequence, stored as counts."""

    counts: tuple
    n: int

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError("type counts must be nonnegative")
        if sum(counts) != self.n:
            raise ValueError("type counts must sum to n")
        object.__setattr__(self, "counts", counts)

    @property
    def probs(self):
        return np.array(self.counts, dtype=np.float64) / self.n


@dataclass(frozen=True)
class CondTypeN:
    """Conditional type compatible with a base type (row sums match base)."""

    counts: tuple  # tuple of tuples, input symbol x output symbol
    base: TypeN

    def __post_init__(self):
        counts = tuple(tuple(int(c) for c in row) for row in self.counts)
        if len(counts) != len(self.base.counts):
            raise ValueError("conditional type must have one row per base symbol")
        for row, total in zip(counts, self.base.counts):
            if any(c < 0 for c in row):
                raise ValueError("conditional type counts must be nonnegative")
            if sum(row) != total:
                raise ValueError("conditional type row sums must match the base type")
        object.__setattr__(self, "counts", counts)

    @property
    def n_outputs(self):
        return len(self.counts[0])


def _compositions(total, parts):
    """All compositions of `total` into `parts` parts, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enum_types(n, alphabet_size):
    """All types of length-n sequences over the alphabet, lexicographic."""
    if n < 1 or alphabet_size < 1:
        raise ValueError("n and alphabet_size must be >= 1")
    count = math.comb(n + alphabet_size - 1, alphabet_size - 1)
    if count > ENUM_BUDGET:
        raise EnumBudgetError(f"{count} types exceeds the enumeration budget")
    return [TypeN(c, n) for c in _compositions(n, alphabet_size)]


def enum_cond_types(base: TypeN, out_size):
    """All conditional types compatible with `base`, lexicographic by row."""
    total = 1
    for c in base.counts:
        total *= math.comb(c + out_size - 1, out_size - 1)
    if total > ENUM_BUDGET:
        raise EnumBudgetError(f"{total} conditional types exceeds the budget")
    row_choices = [list(_compositions(c, out_size)) for c in base.counts]
    return [CondTypeN(rows, base) for rows in product(*row_choices)]


def _multinomial(total, parts):
    num = math.factorial(total)
    for p in parts:
        num //= math.factorial(p)
    return num


def type_class_size(t: TypeN):
    """Number of sequences with type t (exact multinomial coefficient)."""
    return _multinomial(t.n, t.counts)


def vshell_size(ct: CondTypeN):
    """Size of the conditional-type shell relative to any base-type sequence."""
    size = 1
    for row, total in zip(ct.counts, ct.base.counts):
        size *= _multinomial(total, row)
    return size


@dataclass
class Lemma1Report:
    count_bound: bool
    shell_sandwich: bool
    sequence_prob: bool
    shell_prob_sandwich: bool
    details: dict = field(default_factory=dict)

    @property
    def all_ok(self):
        return (self.count_bound and self.shell_sandwich
                and self.sequence_prob and self.shell_prob_sandwich)


def verify_lemma1(n, p: TypeN, v: CondTypeN, w: CondDist) -> Lemma1Report:
    """Check the four basic type properties for one (P, V, W) instance.

    1. number of conditional types compatible with P is <= (n+1)^(|X||Y|)
    2. (n+1)^(-|X||Y|) * 2^(nH(V|P)) <= |shell| <= 2^(nH(V|P))
    3. the n-fold channel probability of any shell sequence equals
       2^(-n(D(V||W|P)+H(V|P))) exactly
    4. (n+1)^(-|X||Y|) * 2^(-nD) <= W^n(shell) <= 2^(-nD)
    """
    if p.n != n or v.base != p:
        raise ValueError("type and conditional type must share blocklength n")
    a_in = len(p.counts)
    a_out = v.n_outputs
    exp_poly = a_in * a_out
    log_poly = exp_poly * math.log2(n + 1)
    details = {}

    n_cond = 1
    for c in p.counts:
        n_cond *= math.comb(c + a_out - 1, a_out - 1)
    count_bound = n_cond <= (n + 1) ** exp_poly
    details["n_cond_types"] = n_cond

    counts = np.array(v.counts, dtype=np.float64)
    # a zero-count row has weight 0 under P, so any fill row will do
    counts[counts.sum(axis=1) == 0.0] = 1.0
    v_dist = CondDist(counts / counts.sum(axis=1, keepdims=True))
    p_dist = Dist(p.probs)
    h = cond_entropy(v_dist, p_dist)
    log_shell = float(math.log2(vshell_size(v)))
    shell_sandwich = (n * h - log_poly - _LOG_SLACK <= log_shell
                      <= n * h + _LOG_SLACK)
    details["log2_shell"] = log_shell
    details["n_times_H"] = n * h

    d = kl_div_cond(v_dist, w, p_dist)
    # log2 of the per-sequence probability W^n(y^n | x^n) for a shell member
    log_seq = 0.0
    for x, row in enumerate(v.counts):
        for y, c in enumerate(row):
            if c == 0:
                continue
            wxy = w.rows[x, y]
            log_seq = -np.inf if wxy <= 0.0 else log_seq + c * math.log2(wxy)
    rhs = -n * (d + h)
    if np.isinf(d):
        sequence_prob = np.isneginf(log_seq)
        shell_prob_sandwich = True  # probability exactly 0, bounds vacuous
    else:
        sequence_prob = abs(log_seq - rhs) <= 1e-10 * max(1.0, abs(rhs))
        log_shell_prob = log_shell + log_seq
        shell_prob_sandwich = (-n * d - log_poly - _LOG_SLACK <= log_shell_prob
                               <= -n * d + _LOG_SLACK)
    details["log2_seq_prob"] = log_seq
    details["minus_n_D_plus_H"] = rhs
    return Lemma1Report(count_bound, shell_sandwich, sequence_prob,
                        shell_prob_sandwich, details)


@dataclass
class JointTypicalityReport:
    consistent: bool
    lemma2_lower: bool
    lemma2_upper: bool
    lemma3_upper: bool
    probability: Fraction = Fraction(0)
    mi_bits: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def all_ok(self):
        return (self.consistent and self.lemma2_lower and self.lemma2_upper
                and self.lemma3_upper)


def _representative(counts_per_block):
    """A canonical sequence realizing given per-block symbol counts."""
    seq = []
    for counts in counts_per_block:
        for sym, c in enumerate(counts):
            seq.extend([sym] * c)
    return seq


def verify_joint_typicality(n, p: TypeN, v: CondTypeN, vprime: CondTypeN):
    """Exact shell-intersection probability against its polynomial envelope.

    p is the type of x1^n, v the conditional type of x2^n given x1^n and
    vprime the conditional type of y^n given (x1^n, x2^n) (rows indexed by
    x1*|X2|+x2).  Computes P[y^n in shell(vprime | x1^n, X2^n)] exactly,
    with X2^n uniform on the v-shell of x1^n and y^n a fixed sequence whose
    conditional type given x1^n is the (x1 -> y) marginal of vprime.  The
    probability must lie within [2^(-nI)/p1, p2 * 2^(-nI)] and below
    p3 * 2^(-nI), where I = I(X2;Y|X1) and p1, p2, p3 are polynomial
    factors (n+1)^e with exponents |X1||X2|(|Y|+1), |X1||X2||Y| and
    |X1||X2|.
    """
    if p.n != n or v.base != p:
        raise ValueError("blocklength mismatch")
    n_x1 = len(p.counts)
    n_x2 = v.n_outputs
    n_y = vprime.n_outputs

    # marginal consistency: vprime's base must be the joint (x1,x2) type
    joint_base = tuple(c for row in v.counts for c in row)
    if vprime.base.counts != joint_base or vprime.base.n != n:
        return JointTypicalityReport(False, False, False, False,
                                     details={"reason": "marginal inconsistency"})

    if n_x2 ** n > ENUM_BUDGET:
        raise EnumBudgetError("shell enumeration exceeds the budget")

    x1 = _representative([p.counts])  # the sorted sequence with type p
    # target y sequence: per x1 symbol, counts summed over x2
    ymarg = []
    for a in range(n_x1):
        row = [0] * n_y
        for b in range(n_x2):
            for y in range(n_y):
                row[y] += vprime.counts[a * n_x2 + b][y]
        ymarg.append(row)
    ybar = _representative(ymarg)

    vmat = tuple(tuple(r) for r in v.counts)
    target = tuple(tuple(r) for r in vprime.counts)
    num = 0
    den = 0
    for x2 in product(range(n_x2), repeat=n):
        cond = [[0] * n_x2 for _ in range(n_x1)]
        for a, b in zip(x1, x2):
            cond[a][b] += 1
        if tuple(tuple(r) for r in cond) != vmat:
            continue
        den += 1
        jcount = [[0] * n_y for _ in range(n_x1 * n_x2)]
        for a, b, y in zip(x1, x2, ybar):
            jcount[a * n_x2 + b][y] += 1
        if tuple(tuple(r) for r in jcount) == target:
            num += 1

    prob = Fraction(num, den)
    joint = np.array(vprime.counts, dtype=np.float64).reshape(n_x1, n_x2, n_y) / n
    mi = cond_mi_from_joint(joint)  # I(X2;Y|X1)

    p1_exp = n_x1 * n_x2 * (n_y + 1)
    p2_exp = n_x1 * n_x2 * n_y
    p3_exp = n_x1 * n_x2
    logn1 = math.log2(n + 1)
    log_prob = -np.inf if num == 0 else math.log2(num) - math.log2(den)
    lower = -n * mi - p1_exp * logn1
    lemma2_lower = log_prob >= lower - _LOG_SLACK
    lemma2_upper = log_prob <= -n * mi + p2_exp * logn1 + _LOG_SLACK
    lemma3_upper = log_prob <= -n * mi + p3_exp * logn1 + _LOG_SLACK
    return JointTypicalityReport(True, lemma2_lower, lemma2_upper, lemma3_upper,
                                 prob, mi,
                                 details={"num": num, "den": den,
                                          "log2_prob": log_prob})
