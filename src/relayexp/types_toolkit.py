"""Method-of-types enumeration and exhaustive small-blocklength checks.

Counts are exact big integers; probabilities become floating point only at
the final comparison step, in the log domain, with a small slack so that
roundoff cannot flip a boundary comparison.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, pairwise, product

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
    total = _cond_type_count(base, out_size)
    if total > ENUM_BUDGET:
        raise EnumBudgetError(f"{total} conditional types exceeds the budget")
    row_choices = [list(_compositions(c, out_size)) for c in base.counts]
    return [CondTypeN(rows, base) for rows in product(*row_choices)]


def _cond_type_count(base: TypeN, out_size):
    """Number of conditional types with `out_size` outputs given `base`."""
    return math.prod(math.comb(c + out_size - 1, out_size - 1)
                     for c in base.counts)


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


def check_lemma1(n, p: TypeN, v: CondTypeN, channels):
    """Lemma 1 for one (P, V) against each channel W; one report per W.

    1. number of conditional types compatible with P is <= (n+1)^(|X||Y|)
    2. (n+1)^(-|X||Y|) * 2^(nH(V|P)) <= |shell| <= 2^(nH(V|P))
    3. the n-fold channel probability of any shell sequence equals
       2^(-n(D(V||W|P)+H(V|P))) exactly
    4. (n+1)^(-|X||Y|) * 2^(-nD) <= W^n(shell) <= 2^(-nD)

    Properties 1 and 2 are computed once; only D(V||W|P) and the
    per-sequence probability depend on W.
    """
    if p.n != n or v.base != p:
        raise ValueError("type and conditional type must share blocklength n")
    exp_poly = len(p.counts) * v.n_outputs
    log_poly = exp_poly * math.log2(n + 1)
    n_cond = _cond_type_count(p, v.n_outputs)
    counts = np.array(v.counts, dtype=np.float64)
    # a zero-count row has weight 0 under P, so any fill row will do
    counts[counts.sum(axis=1) == 0.0] = 1.0
    v_dist = CondDist(counts / counts.sum(axis=1, keepdims=True))
    p_dist = Dist(p.probs)
    h = cond_entropy(v_dist, p_dist)
    log_shell = float(math.log2(vshell_size(v)))
    shell_sandwich = (n * h - log_poly - _LOG_SLACK <= log_shell
                      <= n * h + _LOG_SLACK)

    reports = []
    for w in channels:
        d = kl_div_cond(v_dist, w, p_dist)
        # log2 of the per-sequence probability W^n(y^n | x^n) for a shell member
        log_seq = 0.0
        for row, w_row in zip(v.counts, w.rows.tolist()):
            for c, wxy in zip(row, w_row):
                if c:
                    log_seq = (-math.inf if wxy <= 0.0
                               else log_seq + c * math.log2(wxy))
        rhs = -n * (d + h)
        if math.isinf(d):
            sequence_prob = log_seq == -math.inf
            shell_prob_sandwich = True  # probability exactly 0, bounds vacuous
        else:
            sequence_prob = abs(log_seq - rhs) <= 1e-10 * max(1.0, abs(rhs))
            shell_prob_sandwich = (-n * d - log_poly - _LOG_SLACK
                                   <= log_shell + log_seq
                                   <= -n * d + _LOG_SLACK)
        reports.append(Lemma1Report(
            n_cond <= (n + 1) ** exp_poly, shell_sandwich, sequence_prob,
            shell_prob_sandwich,
            {"n_cond_types": n_cond, "log2_shell": log_shell,
             "n_times_H": n * h, "log2_seq_prob": log_seq,
             "minus_n_D_plus_H": rhs}))
    return reports


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


def _block_counts(seq, spans, size):
    """Symbol counts of `seq` on each (lo, hi) block, block-major."""
    return tuple([seq[lo:hi].count(s) for lo, hi in spans for s in range(size)])


def check_joint_typicality(n, p: TypeN, v: CondTypeN, vprimes):
    """Exact shell-intersection probabilities against their polynomial
    envelope for one (P, V) and each V' of `vprimes`; one report per V'.

    P is the type of x1^n, V the conditional type of x2^n given x1^n and
    V' that of y^n given (x1^n, x2^n) (rows indexed by x1*|X2|+x2).
    Computes P[y^n in shell(V' | x1^n, X2^n)] exactly, with X2^n uniform
    on the V-shell of x1^n and y^n a fixed sequence whose conditional
    type given x1^n is the (x1 -> y) marginal of V'.  The probability
    must lie within [2^(-nI)/p1, p2 * 2^(-nI)] and below p3 * 2^(-nI),
    where I = I(X2;Y|X1) and p1, p2, p3 are polynomial factors (n+1)^e
    with exponents |X1||X2|(|Y|+1), |X1||X2||Y| and |X1||X2|.

    X2^n is enumerated once and the shell's joint types tallied once per
    distinct (x1 -> y) marginal.  The mutual informations come from one
    `cond_mi_from_joint` call, so the V' must share an output alphabet.
    """
    if p.n != n or v.base != p:
        raise ValueError("blocklength mismatch")
    n_x1, n_x2 = len(p.counts), v.n_outputs
    joint_base = tuple(c for row in v.counts for c in row)
    reports, pending, joints = [], [], []
    shell = None
    for vp in vprimes:
        # marginal consistency: V''s base must be the joint (x1,x2) type
        if vp.base.counts != joint_base or vp.base.n != n:
            reports.append(JointTypicalityReport(
                False, False, False, False,
                details={"reason": "marginal inconsistency"}))
            continue
        if shell is None:
            if n_x2 ** n > ENUM_BUDGET:
                raise EnumBudgetError("shell enumeration exceeds the budget")
            # x1^n is the sorted sequence of type P; the number of zeros
            # in x2^n is a cheap necessary condition
            x1_spans = list(pairwise(accumulate(p.counts, initial=0)))
            zeros = sum(row[0] for row in v.counts)
            shell = [x2 for x2 in product(range(n_x2), repeat=n)
                     if x2.count(0) == zeros
                     and _block_counts(x2, x1_spans, n_x2) == joint_base]
            tallies = {}
        per_x1 = [vp.counts[a * n_x2:(a + 1) * n_x2] for a in range(n_x1)]
        # the x2 counts of each (x1, y) pair: y^n is sorted within each x1
        # block, so each pair is one block of positions
        cols = [col for rows in per_x1 for col in zip(*rows)]
        ymarg = tuple(map(sum, cols))
        if ymarg not in tallies:
            y_spans = list(pairwise(accumulate(ymarg, initial=0)))
            tallies[ymarg] = Counter(_block_counts(x2, y_spans, n_x2)
                                     for x2 in shell)
        pending.append((len(reports), tallies[ymarg][tuple(chain(*cols))]))
        joints.append(per_x1)
        reports.append(None)
    if not joints:
        return reports
    joints = np.array(joints, dtype=np.float64) / n
    mis = cond_mi_from_joint(joints)  # I(X2;Y|X1)
    n_x12, n_y, den = n_x1 * n_x2, joints.shape[-1], len(shell)
    logn1 = math.log2(n + 1)
    for (i, num), mi in zip(pending, mis.tolist()):
        log_prob = -np.inf if num == 0 else math.log2(num) - math.log2(den)
        lower = -n * mi - n_x12 * (n_y + 1) * logn1
        lemma2_lower = log_prob >= lower - _LOG_SLACK
        lemma2_upper = log_prob <= -n * mi + n_x12 * n_y * logn1 + _LOG_SLACK
        lemma3_upper = log_prob <= -n * mi + n_x12 * logn1 + _LOG_SLACK
        reports[i] = JointTypicalityReport(
            True, lemma2_lower, lemma2_upper, lemma3_upper, Fraction(num, den),
            mi, details={"num": num, "den": den, "log2_prob": log_prob})
    return reports

