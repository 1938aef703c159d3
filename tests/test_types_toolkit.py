"""Method-of-types enumeration, exact counting and the lemma verifiers."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from relayexp import (CondTypeN, TypeN, check_joint_typicality, check_lemma1,
                      enum_types, joint_typicality_batch, lemma1_batch,
                      vshell_size)
from relayexp.prob_core import CondDist
from relayexp.types_toolkit import EnumBudgetError, enum_cond_types
from reference import type_class_size

BSC01 = CondDist(np.array([[0.9, 0.1], [0.1, 0.9]]))
IDENTITY = CondDist(np.eye(2))
# the three channels of the types-verify sweep, and one whose first row
# misses part of most shells' support
CHANNELS = (BSC01, CondDist(np.array([[0.7, 0.3], [0.3, 0.7]])), IDENTITY,
            CondDist(np.array([[1.0, 0.0], [0.2, 0.8]])))


def _joint_cases(n):
    """Every binary (P, V) of blocklength n with every V' on its joint type."""
    return [(p, v, enum_cond_types(
                TypeN(tuple(c for row in v.counts for c in row), n), 2))
            for p in enum_types(n, 2) for v in enum_cond_types(p, 2)]


def _fields(rep):
    """A report's fields with floats as repr, so == compares bit for bit."""
    def exact(x):
        return repr(float(x)) if isinstance(x, float) else x
    out = {key: exact(val) for key, val in vars(rep).items()}
    out["details"] = {key: exact(val) for key, val in rep.details.items()}
    return out


class TestEnumeration:
    def test_type_count_stars_and_bars(self):
        # [DERIVED] number of types = C(n+k-1, k-1)
        for n, k in ((4, 2), (5, 3), (3, 4)):
            assert len(enum_types(n, k)) == math.comb(n + k - 1, k - 1)

    def test_types_partition_all_sequences(self):
        # [DERIVED] sum over types of |type class| = k^n
        for n, k in ((4, 2), (3, 3)):
            total = sum(type_class_size(t) for t in enum_types(n, k))
            assert total == k ** n

    def test_cond_types_partition_shells(self):
        # [DERIVED] sum over conditional types of |shell| = out^n
        p = TypeN((3, 2), 5)
        total = sum(vshell_size(ct) for ct in enum_cond_types(p, 3))
        assert total == 3 ** 5

    def test_multinomial_known_value(self):
        # [TRIVIAL] 4!/2!2! = 6
        assert type_class_size(TypeN((2, 2), 4)) == 6

    def test_budget_error(self):
        with pytest.raises(EnumBudgetError):
            enum_types(200, 10)

    def test_lexicographic_order(self):
        counts = [t.counts for t in enum_types(2, 3)]
        assert counts == sorted(counts, reverse=True)


class TestTypeValidation:
    def test_counts_must_sum_to_n(self):
        with pytest.raises(ValueError):
            TypeN((2, 1), 4)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            TypeN((-1, 5), 4)

    def test_cond_type_row_sums(self):
        p = TypeN((2, 2), 4)
        with pytest.raises(ValueError):
            CondTypeN(((1, 0), (1, 1)), p)

    def test_cond_type_rows_of_different_lengths_rejected(self):
        # the row sums match the base, so only the length check catches it
        with pytest.raises(ValueError, match="equal lengths"):
            CondTypeN(((1, 0), (2,)), TypeN((1, 2), 3))

    def test_cond_type_keeps_int_rows_and_converts_others(self):
        p = TypeN((1, 2), 3)
        rows = ((1, 0), (0, 2))
        v = CondTypeN(rows, p)
        assert all(got is row for got, row in zip(v.counts, rows))
        for other in ([[1, 0], [0, 2]], np.array([[1, 0], [0, 2]]),
                      ((1.0, 0), (0, 2)), ((True, False), (0, 2))):
            w = CondTypeN(other, p)
            assert w.counts == rows and w == v
            assert all(type(c) is int for row in w.counts for c in row)
        # one enumeration shares each row choice across its types
        cts = enum_cond_types(TypeN((2, 1), 3), 2)
        assert cts[0].counts[0] is cts[1].counts[0]


class TestLemma1:
    def test_passes_on_samples(self):
        for n in (3, 5):
            for p in enum_types(n, 2):
                for v in enum_cond_types(p, 2):
                    reports = check_lemma1(n, p, v, (BSC01, IDENTITY))
                    assert all(rep.all_ok for rep in reports)

    def test_sequence_prob_exact(self):
        # [DERIVED] hand computation: n=2, x = (0,0), y = (0,1) through BSC(0.1)
        p = TypeN((2, 0), 2)
        v = CondTypeN(((1, 1), (0, 0)), p)
        (rep,) = check_lemma1(2, p, v, [BSC01])
        assert rep.all_ok
        assert rep.details["log2_seq_prob"] == pytest.approx(
            math.log2(0.9 * 0.1), abs=1e-12)

    def test_support_violation_identity_channel(self):
        # a conditional type off the support of the identity channel gets
        # probability exactly zero; the sandwich is then vacuous
        p = TypeN((2, 0), 2)
        v = CondTypeN(((0, 2), (0, 0)), p)
        (rep,) = check_lemma1(2, p, v, [IDENTITY])
        assert rep.all_ok
        assert np.isneginf(rep.details["log2_seq_prob"])

    def test_blocklength_mismatch(self):
        p = TypeN((2, 1), 3)
        v = CondTypeN(((2, 0), (1, 0)), p)
        with pytest.raises(ValueError):
            check_lemma1(4, p, v, [BSC01])


class TestJointTypicality:
    def _instance(self, n=4):
        p = TypeN((2, 2), n)
        v = CondTypeN(((1, 1), (2, 0)), p)
        base = TypeN((1, 1, 2, 0), n)
        vp = CondTypeN(((1, 0), (0, 1), (1, 1), (0, 0)), base)
        return p, v, vp

    def test_probability_is_exact_fraction(self):
        p, v, vp = self._instance()
        (rep,) = check_joint_typicality(4, p, v, [vp])
        assert isinstance(rep.probability, Fraction)
        assert rep.all_ok

    def test_probability_matches_independent_recount(self):
        # [DERIVED] recount the shell intersection with an order-independent
        # enumeration over x2 sequences written from scratch
        n = 4
        p, v, vp = self._instance(n)
        x1 = [0, 0, 1, 1]
        # y chosen to realize the x1 -> y marginal of vp: rows (x1=0): y
        # counts (1,1); (x1=1): (1,1)
        y = [0, 1, 0, 1]
        num = den = 0
        for x2 in product(range(2), repeat=n):
            cond = [[0, 0], [0, 0]]
            for a, b in zip(x1, x2):
                cond[a][b] += 1
            if tuple(map(tuple, cond)) != v.counts:
                continue
            den += 1
            jc = [[0, 0] for _ in range(4)]
            for a, b, yy in zip(x1, x2, y):
                jc[a * 2 + b][yy] += 1
            if tuple(map(tuple, jc)) == vp.counts:
                num += 1
        (rep,) = check_joint_typicality(n, p, v, [vp])
        assert rep.probability == Fraction(num, den)

    def test_marginal_inconsistency_detected(self):
        p = TypeN((2, 2), 4)
        v = CondTypeN(((1, 1), (2, 0)), p)
        wrong_base = TypeN((2, 0, 2, 0), 4)
        vp = CondTypeN(((1, 1), (0, 0), (1, 1), (0, 0)), wrong_base)
        (rep,) = check_joint_typicality(4, p, v, [vp])
        assert not rep.consistent

    def test_exhaustive_small_n(self):
        for n in (2, 3):
            for p in enum_types(n, 2):
                for v in enum_cond_types(p, 2):
                    base = TypeN(tuple(c for r in v.counts for c in r), n)
                    reports = check_joint_typicality(
                        n, p, v, enum_cond_types(base, 2))
                    assert all(rep.all_ok for rep in reports)


class TestBatchedCores:
    def test_counts_match_closed_form(self):
        # [DERIVED] the library counts each shell intersection as a product
        # of multinomial coefficients; recount it here by listing every
        # x2^n, with y^n shuffled within each x1 block, on every binary
        # (P, V, V') of n = 2..5 and on |X1|, |X2|, |Y| = 2, 3, 2 at n = 4
        rng = np.random.default_rng(0)
        shapes = [((2, 2, 2), n) for n in range(2, 6)] + [((2, 3, 2), 4)]
        checked = 0
        for (n_x1, n_x2, n_y), n in shapes:
            for p in enum_types(n, n_x1):
                x1 = [a for a, c in enumerate(p.counts) for _ in range(c)]
                for v in enum_cond_types(p, n_x2):
                    shell = [x2 for x2 in product(range(n_x2), repeat=n)
                             if all(list(zip(x1, x2)).count((a, b)) == c
                                    for a, row in enumerate(v.counts)
                                    for b, c in enumerate(row))]
                    vps = enum_cond_types(TypeN(sum(v.counts, ()), n), n_y)
                    reports = check_joint_typicality(n, p, v, vps)
                    for vp, rep in zip(vps, reports):
                        # a y^n with the (x1 -> y) marginal of V'
                        y = []
                        for a in range(n_x1):
                            rows = vp.counts[a * n_x2:(a + 1) * n_x2]
                            block = [c for c, k in enumerate(map(sum,
                                                                 zip(*rows)))
                                     for _ in range(k)]
                            y += rng.permutation(block).tolist()
                        num = sum(
                            all(list(zip(x1, x2, y)).count((a, b, c)) == k
                                for ab, row in enumerate(vp.counts)
                                for c, k in enumerate(row)
                                for a, b in [divmod(ab, n_x2)])
                            for x2 in shell)
                        assert rep.details["num"] == num
                        assert rep.details["den"] == len(shell)
                        assert rep.probability == Fraction(num, len(shell))
                        checked += 1
        assert checked > 1000

    def test_batches_equal_one_instance_calls(self):
        # every field of every report, bit for bit, with all channels of one
        # (P, V) in one Lemma 1 call and all its V' in one joint call; one
        # V' whose base is not the joint type leads each joint batch, so
        # reports must keep their order
        for n in range(1, 7):
            for p, v, vps in _joint_cases(n):
                batch = check_lemma1(n, p, v, CHANNELS)
                single = [check_lemma1(n, p, v, [w])[0] for w in CHANNELS]
                assert [_fields(r) for r in batch] == [_fields(r) for r in single]
                if n < 2:
                    continue
                wrong = enum_cond_types(TypeN((n, 0, 0, 0), n), 2)[0]
                batch = check_joint_typicality(n, p, v, [wrong] + vps)
                single = [check_joint_typicality(n, p, v, [vp])[0]
                          for vp in [wrong] + vps]
                assert [_fields(r) for r in batch] == [_fields(r) for r in single]
                assert all(r.consistent for r in batch[1:])
                assert (batch[0].consistent
                        == (sum(v.counts, ()) == (n, 0, 0, 0)))

    def test_blocklength_cores_equal_one_instance_calls(self):
        # every (P, V) of one n in one call of each core, against one call
        # per (P, V); the fourth channel's zero gives D = +inf and a log2
        # sequence probability of -inf, and one V' off the joint type
        # gives an inconsistent report in every case
        for n in range(1, 5):
            cases = _joint_cases(n)
            pvs = [(p, v) for p, v, _ in cases]
            batch = lemma1_batch(n, pvs, CHANNELS)
            single = [check_lemma1(n, p, v, CHANNELS) for p, v in pvs]
            assert ([[_fields(r) for r in reps] for reps in batch]
                    == [[_fields(r) for r in reps] for reps in single])
            details = [r.details for reps in batch for r in reps]
            assert any(math.isinf(d["minus_n_D_plus_H"]) for d in details)
            assert any(d["log2_seq_prob"] == -math.inf for d in details)
            if n < 2:
                continue
            wrong = CondTypeN(((n, 0), (0, 0), (0, 0), (0, 0)),
                              TypeN((n, 0, 0, 0), n))
            cases = [(p, v, vps[:1] + [wrong] + vps[1:])
                     for p, v, vps in cases]
            batch = joint_typicality_batch(n, cases)
            single = [check_joint_typicality(n, *case) for case in cases]
            assert ([[_fields(r) for r in reps] for reps in batch]
                    == [[_fields(r) for r in reps] for reps in single])
            assert sum(not r.consistent for reps in batch for r in reps) == (
                len(cases) - 1)

    def test_cores_reject_mixed_blocklengths_and_alphabets(self):
        p2, p3 = TypeN((1, 1), 2), TypeN((2, 1), 3)
        v2, v3 = enum_cond_types(p2, 2)[0], enum_cond_types(p3, 2)[0]
        with pytest.raises(ValueError):
            lemma1_batch(2, [(p2, v2), (p3, v3)], [BSC01])
        with pytest.raises(ValueError):
            joint_typicality_batch(2, [(p2, v2, []), (p3, v3, [])])
        # |X1| = 2, |X2| = 2 against |X1| = 1, |X2| = 4: the same four
        # rows per V', which one stacked array would split wrongly
        p1 = TypeN((2,), 2)
        v4 = CondTypeN(((1, 1, 0, 0),), p1)
        cases = [(p, v, enum_cond_types(TypeN(sum(v.counts, ()), 2), 2))
                 for p, v in ((p2, v2), (p1, v4))]
        assert all(vps for _, _, vps in cases)
        with pytest.raises(ValueError):
            joint_typicality_batch(2, cases)

    def test_large_blocklength_needs_no_enumeration(self):
        # 2^30 x2 sequences, which no enumeration could list; the count is
        # a product of multinomials, and here one x2^n is in both shells
        n = 30
        p = TypeN((15, 15), n)
        v = CondTypeN(((15, 0), (0, 15)), p)
        vp = CondTypeN(((15, 0), (0, 0), (0, 0), (0, 15)),
                       TypeN((15, 0, 0, 15), n))
        (rep,) = check_joint_typicality(n, p, v, [vp])
        assert rep.probability == 1 and rep.all_ok
        wrong = CondTypeN(((30, 0), (0, 0), (0, 0), (0, 0)),
                          TypeN((30, 0, 0, 0), n))
        assert not check_joint_typicality(n, p, v, [wrong])[0].consistent

    def test_lemma1_rejects_mismatched_channel(self):
        p = TypeN((2, 1), 3)
        v = CondTypeN(((2, 0), (1, 0)), p)
        with pytest.raises(ValueError):
            check_lemma1(3, p, v, [CondDist(np.ones((2, 1)))])
