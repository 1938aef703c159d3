"""Method-of-types enumeration, exact counting and the lemma verifiers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from relayexp import (CondTypeN, TypeN, enum_types, type_class_size,
                      verify_joint_typicality, verify_lemma1, vshell_size)
from relayexp.prob_core import CondDist
from relayexp.types_toolkit import EnumBudgetError, enum_cond_types

BSC01 = CondDist(np.array([[0.9, 0.1], [0.1, 0.9]]))
IDENTITY = CondDist(np.eye(2))


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


class TestLemma1:
    def test_passes_on_samples(self):
        for n in (3, 5):
            for p in enum_types(n, 2):
                for v in enum_cond_types(p, 2):
                    for w in (BSC01, IDENTITY):
                        assert verify_lemma1(n, p, v, w).all_ok

    def test_sequence_prob_exact(self):
        # [DERIVED] hand computation: n=2, x = (0,0), y = (0,1) through BSC(0.1)
        p = TypeN((2, 0), 2)
        v = CondTypeN(((1, 1), (0, 0)), p)
        rep = verify_lemma1(2, p, v, BSC01)
        assert rep.all_ok
        assert rep.details["log2_seq_prob"] == pytest.approx(
            math.log2(0.9 * 0.1), abs=1e-12)

    def test_support_violation_identity_channel(self):
        # a conditional type off the support of the identity channel gets
        # probability exactly zero; the sandwich is then vacuous
        p = TypeN((2, 0), 2)
        v = CondTypeN(((0, 2), (0, 0)), p)
        rep = verify_lemma1(2, p, v, IDENTITY)
        assert rep.all_ok
        assert np.isneginf(rep.details["log2_seq_prob"])

    def test_blocklength_mismatch(self):
        p = TypeN((2, 1), 3)
        v = CondTypeN(((2, 0), (1, 0)), p)
        with pytest.raises(ValueError):
            verify_lemma1(4, p, v, BSC01)


class TestJointTypicality:
    def _instance(self, n=4):
        p = TypeN((2, 2), n)
        v = CondTypeN(((1, 1), (2, 0)), p)
        base = TypeN((1, 1, 2, 0), n)
        vp = CondTypeN(((1, 0), (0, 1), (1, 1), (0, 0)), base)
        return p, v, vp

    def test_probability_is_exact_fraction(self):
        p, v, vp = self._instance()
        rep = verify_joint_typicality(4, p, v, vp)
        assert isinstance(rep.probability, Fraction)
        assert rep.all_ok

    def test_probability_matches_independent_recount(self):
        # [DERIVED] recount the shell intersection with an order-independent
        # enumeration over x2 sequences written from scratch
        from itertools import product as iproduct
        n = 4
        p, v, vp = self._instance(n)
        x1 = [0, 0, 1, 1]
        # y chosen to realize the x1 -> y marginal of vp: rows (x1=0): y
        # counts (1,1); (x1=1): (1,1)
        y = [0, 1, 0, 1]
        num = den = 0
        for x2 in iproduct(range(2), repeat=n):
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
        rep = verify_joint_typicality(n, p, v, vp)
        assert rep.probability == Fraction(num, den)

    def test_marginal_inconsistency_detected(self):
        p = TypeN((2, 2), 4)
        v = CondTypeN(((1, 1), (2, 0)), p)
        wrong_base = TypeN((2, 0, 2, 0), 4)
        vp = CondTypeN(((1, 1), (0, 0), (1, 1), (0, 0)), wrong_base)
        rep = verify_joint_typicality(4, p, v, vp)
        assert not rep.consistent

    def test_exhaustive_small_n(self):
        for n in (2, 3):
            for p in enum_types(n, 2):
                for v in enum_cond_types(p, 2):
                    base = TypeN(tuple(c for r in v.counts for c in r), n)
                    for vp in enum_cond_types(base, 2):
                        assert verify_joint_typicality(n, p, v, vp).all_ok
