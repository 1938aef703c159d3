"""Method-of-types enumeration and exhaustive small-blocklength checks.

Counts are exact big integers; probabilities become floating point only at
the final comparison step, in the log domain, with a small slack so that
roundoff cannot flip a boundary comparison.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product

import numpy as np

from .prob_core import EnumBudgetError, _neg_plogp, cond_mi_from_joint

ENUM_BUDGET = 10**7
_LOG_SLACK = 1e-9


@dataclass(frozen=True)
class TypeN:
    """Empirical distribution of a length-n sequence, stored as counts."""

    counts: tuple
    n: int

    def __post_init__(self):
        counts = tuple(map(int, self.counts))
        if min(counts, default=0) < 0:
            raise ValueError("type counts must be nonnegative")
        if sum(counts) != self.n:
            raise ValueError("type counts must sum to n")
        object.__setattr__(self, "counts", counts)


def _int_row(row):
    """`row` as a tuple of Python ints; a row that already is one is kept,
    so the conditional types of one enumeration share their rows."""
    if type(row) is tuple and all(type(c) is int for c in row):
        return row
    return tuple(map(int, row))


@dataclass(frozen=True)
class CondTypeN:
    """Conditional type compatible with a base type (row sums match base)."""

    counts: tuple  # tuple of tuples, input symbol x output symbol
    base: TypeN

    def __post_init__(self):
        counts = tuple(map(_int_row, self.counts))
        if len(counts) != len(self.base.counts):
            raise ValueError("conditional type must have one row per base symbol")
        if len(set(map(len, counts))) > 1:
            raise ValueError("conditional type rows must have equal lengths")
        if min(chain.from_iterable(counts), default=0) < 0:
            raise ValueError("conditional type counts must be nonnegative")
        if tuple(map(sum, counts)) != self.base.counts:
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


def _multinomials(rows):
    """Product over `rows` of the multinomial coefficient (sum(row); row)."""
    return math.prod(math.factorial(sum(row))
                     // math.prod(map(math.factorial, row)) for row in rows)


def vshell_size(ct: CondTypeN):
    """Size of the conditional-type shell relative to any base-type sequence:
    the product of one multinomial coefficient per row."""
    return _multinomials(ct.counts)


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


def lemma1_batch(n, pvs, channels):
    """Lemma 1 for each (P, V) of `pvs`, all of blocklength n and one shape,
    against each channel W; one list of reports per (P, V), one per W.

    1. number of conditional types compatible with P is <= (n+1)^(|X||Y|)
    2. (n+1)^(-|X||Y|) * 2^(nH(V|P)) <= |shell| <= 2^(nH(V|P))
    3. the n-fold channel probability of any shell sequence equals
       2^(-n(D(V||W|P)+H(V|P))) exactly
    4. (n+1)^(-|X||Y|) * 2^(-nD) <= W^n(shell) <= 2^(-nD)

    H(V|P), D(V||W|P) and the per-sequence probabilities of the batch
    come from a few array operations, each instance's from its own entries.
    """
    if any(p.n != n or v.base != p for p, v in pvs):
        raise ValueError("type and conditional type must share blocklength n")
    if not pvs:
        return []
    counts = np.array([v.counts for _, v in pvs], dtype=np.float64)
    if any(w.rows.shape != counts.shape[1:] for w in channels):
        raise ValueError("each channel must match the conditional types' shape")
    w = np.array([w.rows for w in channels]).reshape(-1, *counts.shape[1:])
    exp_poly = counts[0].size
    log_poly = exp_poly * math.log2(n + 1)
    weights = counts.sum(axis=2)  # n P(x): rows with P(x) = 0 add 0 to H, D
    v_rows = counts / np.maximum(weights, 1.0)[..., None]
    h_all = (weights / n * _neg_plogp(v_rows).sum(axis=2)).sum(axis=1)
    pos = counts[:, None] > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        vw = v_rows[:, None]
        d_rows = np.where(pos, vw * np.log2(vw / w), 0.0).sum(axis=3)
        d_all = np.where((pos & (w <= 0.0)).any(axis=(2, 3)), np.inf,
                         (weights[:, None] / n * d_rows).sum(axis=2))
        # log2 W^n(y^n | x^n) of a shell member; -inf on a zero of W
        log_seqs = np.where(pos, counts[:, None] * np.log2(w), 0.0).sum((2, 3))
    out = []
    for (p, v), h, ds, seqs in zip(pvs, h_all.tolist(), d_all.tolist(),
                                   log_seqs.tolist()):
        n_cond = _cond_type_count(p, v.n_outputs)
        log_shell = float(math.log2(vshell_size(v)))
        shell_sandwich = (n * h - log_poly - _LOG_SLACK <= log_shell
                          <= n * h + _LOG_SLACK)
        reports = []
        for d, log_seq in zip(ds, seqs):
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
        out.append(reports)
    return out


def check_lemma1(n, p: TypeN, v: CondTypeN, channels):
    """Lemma 1 for one (P, V): `lemma1_batch` of one instance."""
    return lemma1_batch(n, [(p, v)], channels)[0]


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


def joint_typicality_batch(n, cases):
    """Exact shell-intersection probabilities against their polynomial
    envelope; per (P, V, vprimes) of `cases`, a list of one report per V'.

    P is the type of x1^n, V the conditional type of x2^n given x1^n and
    V' that of y^n given (x1^n, x2^n) (rows indexed by x1*|X2|+x2).
    Computes P[y^n in shell(V' | x1^n, X2^n)] exactly, with X2^n uniform
    on the V-shell of x1^n and y^n a fixed sequence whose conditional
    type given x1^n is the (x1 -> y) marginal of V'.  The probability
    must lie within [2^(-nI)/p1, p2 * 2^(-nI)] and below p3 * 2^(-nI),
    where I = I(X2;Y|X1) and p1, p2, p3 are polynomial factors (n+1)^e
    with exponents |X1||X2|(|Y|+1), |X1||X2||Y| and |X1||X2|.

    With x1^n sorted and y^n sorted within each x1 block, every (x1, y)
    pair is one block of positions.  An x2^n whose joint type is V' fills
    each block with that pair's x2 counts independently of the others, and
    lies in the V-shell because V' is consistent with V; so the count is a
    product of multinomial coefficients over the blocks, out of |V-shell|.
    Every I(X2;Y|X1) of the batch comes from one `cond_mi_from_joint` call,
    so the cases share their alphabets.
    """
    out, pending, sizes = [], [], set()
    for p, v, vprimes in cases:
        if p.n != n or v.base != p:
            raise ValueError("blocklength mismatch")
        sizes.add((len(p.counts), v.n_outputs))
        joint_base = tuple(c for row in v.counts for c in row)
        den, reports = vshell_size(v), []
        for vp in vprimes:
            # marginal consistency: V''s base must be the joint (x1,x2) type
            if vp.base.counts != joint_base or vp.base.n != n:
                reports.append(JointTypicalityReport(
                    False, False, False, False,
                    details={"reason": "marginal inconsistency"}))
                continue
            pending.append((reports, len(reports), den, vp.counts))
            reports.append(None)
        out.append(reports)
    if not pending:
        return out
    (n_x1, n_x2), = sizes  # a ValueError unless the cases share alphabets
    m = len(pending)
    counts = np.array([c for *_, c in pending]).reshape(m, n_x1, n_x2, -1)
    # the x2 counts of each (x1, y) block
    blocks = counts.transpose(0, 1, 3, 2).reshape(m, -1, n_x2).tolist()
    n_x12, n_y, logn1 = n_x1 * n_x2, counts.shape[3], math.log2(n + 1)
    for (reports, i, den, _), rows, mi in zip(  # mi = I(X2;Y|X1)
            pending, blocks, cond_mi_from_joint(counts / n).tolist()):
        num = _multinomials(rows)
        log_prob = math.log2(num) - math.log2(den)
        lower = -n * mi - n_x12 * (n_y + 1) * logn1
        lemma2_lower = log_prob >= lower - _LOG_SLACK
        lemma2_upper = log_prob <= -n * mi + n_x12 * n_y * logn1 + _LOG_SLACK
        lemma3_upper = log_prob <= -n * mi + n_x12 * logn1 + _LOG_SLACK
        reports[i] = JointTypicalityReport(
            True, lemma2_lower, lemma2_upper, lemma3_upper, Fraction(num, den),
            mi, details={"num": num, "den": den, "log2_prob": log_prob})
    return out


def check_joint_typicality(n, p: TypeN, v: CondTypeN, vprimes):
    """Lemmas 2 and 3 for one (P, V): `joint_typicality_batch` of one case."""
    return joint_typicality_batch(n, [(p, v, vprimes)])[0]
