"""Information measures and probability types."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayexp import CondDist, Dist
from relayexp.prob_core import cond_mi_from_joint
from reference import (cond_entropy, entropy, entropy_vec, kl_div_cond,
                       kl_div_vec, mi_axes, mutual_info)


def _h2(p):
    """Binary entropy, written independently of the library."""
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _prob_vec(n):
    return st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n).map(
        lambda v: np.array(v) / sum(v))


class TestEntropy:
    def test_uniform(self):
        # [TRIVIAL] H(uniform over n) = log2 n
        for n in (2, 3, 5, 8):
            assert entropy(Dist(np.full(n, 1.0 / n))) == pytest.approx(
                math.log2(n), abs=1e-12)

    def test_point_mass(self):
        # [TRIVIAL]
        assert entropy(Dist(np.array([1.0, 0.0, 0.0]))) == 0.0

    def test_binary_oracle(self):
        # [DERIVED] closed-form binary entropy
        for p in (0.1, 0.3, 0.45):
            assert entropy(Dist(np.array([p, 1 - p]))) == pytest.approx(
                _h2(p), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(_prob_vec(4))
    def test_bounds(self, p):
        h = entropy_vec(p)
        assert -1e-12 <= h <= math.log2(4) + 1e-12


class TestKl:
    def test_zero_iff_equal(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_div_vec(p, p) == 0.0
        assert kl_div_vec(p, np.array([0.3, 0.3, 0.4])) > 0.0

    def test_support_violation(self):
        assert kl_div_vec([0.5, 0.5], [1.0, 0.0]) == np.inf

    def test_known_value(self):
        # [DERIVED] D([.5,.5]||[.25,.75]) = .5*log2(2) + .5*log2(2/3)
        want = 0.5 * 1.0 + 0.5 * math.log2(0.5 / 0.75)
        assert kl_div_vec([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
            want, abs=1e-12)

    def test_cond_kl_skips_zero_mass(self):
        v = CondDist(np.array([[1.0, 0.0], [0.5, 0.5]]))
        w = CondDist(np.array([[0.5, 0.5], [0.0, 1.0]]))
        # second row violates support but carries zero input mass
        p = Dist(np.array([1.0, 0.0]))
        assert np.isfinite(kl_div_cond(v, w, p))

    @settings(max_examples=100, deadline=None)
    @given(_prob_vec(3), _prob_vec(3))
    def test_nonnegative(self, p, q):
        assert kl_div_vec(p, q) >= -1e-12


class TestMutualInfo:
    def test_bsc_oracle(self):
        # [DERIVED] I = 1 - h2(eps) for uniform input over a BSC
        for eps in (0.05, 0.1, 0.3):
            v = CondDist(np.array([[1 - eps, eps], [eps, 1 - eps]]))
            got = mutual_info(Dist(np.array([0.5, 0.5])), v)
            assert got == pytest.approx(1.0 - _h2(eps), abs=1e-12)

    def test_independent_is_zero(self):
        v = CondDist(np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert mutual_info(Dist(np.array([0.4, 0.6])), v) == 0.0

    def test_cond_mi_from_joint_matches_decomposition(self, rng):
        j = rng.dirichlet(np.ones(24)).reshape(2, 3, 4)
        # [DERIVED] I(A;B|S) = H(A|S) + H(B|S) - H(AB|S), via entropies
        ps = j.sum(axis=(1, 2))
        want = 0.0
        for s in range(2):
            if ps[s] == 0:
                continue
            c = j[s] / ps[s]
            want += ps[s] * (entropy_vec(c.sum(axis=1))
                             + entropy_vec(c.sum(axis=0))
                             - entropy_vec(c.reshape(-1)))
        assert cond_mi_from_joint(j) == pytest.approx(want, abs=1e-12)

    def test_cond_mi_from_joint_stack_matches_each_joint(self, rng):
        # a stack gives, bit for bit, the float of each joint alone
        stack = rng.dirichlet(np.ones(12), size=(2, 5)).reshape(2, 5, 2, 3, 2)
        stack[0, 0] = 0.0
        stack[0, 0, 1, 2, 0] = 1.0  # a point mass: I = 0
        got = cond_mi_from_joint(stack)
        assert got.shape == (2, 5)
        for idx in np.ndindex(2, 5):
            want = cond_mi_from_joint(stack[idx])
            assert type(want) is float
            assert got[idx] == want
        assert got[0, 0] == 0.0

    def test_mi_axes_matches_direct(self, rng):
        j = rng.dirichlet(np.ones(36)).reshape(2, 3, 2, 3)
        direct = cond_mi_from_joint(
            np.transpose(j, (1, 0, 2, 3)).reshape(3, 2, 6))
        assert mi_axes(j, (0,), (2, 3), (1,)) == pytest.approx(direct, abs=1e-12)

    def test_mi_axes_marginalizes(self, rng):
        j = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
        want = cond_mi_from_joint(j.sum(axis=(0, 3))[None])
        assert mi_axes(j, (1,), (2,)) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(_prob_vec(3))
    def test_data_bounds(self, p):
        v = CondDist(np.array([[0.8, 0.2], [0.1, 0.9], [0.5, 0.5]]))
        mi = mutual_info(Dist(p), v)
        assert -1e-12 <= mi <= min(entropy_vec(p), 1.0) + 1e-9


class TestValidation:
    def test_dist_rejects_negative(self):
        with pytest.raises(ValueError):
            Dist(np.array([1.2, -0.2]))

    def test_dist_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Dist(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Dist(np.array([bad, 0.5, 0.5]))
        with pytest.raises(ValueError):
            CondDist(np.array([[0.5, 0.5], [bad, 0.5]]))

    def test_cond_dist_rejects_bad_row(self):
        with pytest.raises(ValueError):
            CondDist(np.array([[0.5, 0.5], [0.9, 0.3]]))

    def test_cond_entropy_dimension_check(self):
        with pytest.raises(ValueError):
            cond_entropy(CondDist(np.eye(2)), Dist(np.array([1.0])))
