"""Relay channel data types, derived channels and the cutset function."""

from itertools import combinations

import numpy as np
import pytest

from relayexp import (CfInput, CondDist, Dist, OptimizerConfig, PdfInput,
                      RelayChannelSpec, cf_aux_channels, cutset_bound,
                      pdf_virtual_channels, sato_channel)
from relayexp.haroutunian_upper import _cheap_cfg
from relayexp.prob_core import EnumBudgetError, cond_mi_from_joint, mi_axes
from relayexp.relay_model import _cutset_objective, cutset_at
from conftest import random_relay_channel


# ---------------------------------------------------------------------------
# reference copies of the scalar cutset objective and simplex search that
# the batched ones replaced; the batched path must reproduce them
# ---------------------------------------------------------------------------

def _scalar_cutset_objective(w):
    n_x1, n_x2, n_y2, n_y3 = w.sizes
    wy3 = w.y3_marginal().reshape(n_x1 * n_x2, n_y3)
    w23 = w.w.reshape(n_x1, n_x2, n_y2 * n_y3)

    def objective(p):
        joint = p.reshape(n_x1, n_x2)
        j1 = joint.reshape(-1, 1)[:, :, None] * wy3[:, None, :]
        i1 = cond_mi_from_joint(np.transpose(j1, (1, 0, 2)))
        j2 = joint.T[:, :, None] * np.transpose(w23, (1, 0, 2))
        i2 = cond_mi_from_joint(j2)
        return min(i1, i2)

    return objective


def _scalar_lattice(dim, points):
    m = points - 1
    out = []
    for cuts in combinations(range(m + dim - 1), dim - 1):
        prev = -1
        counts = []
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(m + dim - 2 - prev)
        out.append(np.array(counts, dtype=np.float64) / m)
    return out


def _scalar_descent(x, objective, init_step, rounds):
    x = x.copy()
    best = objective(x)
    step = init_step
    dim = x.shape[0]
    for _ in range(max(rounds, 1)):
        improved = True
        while improved:
            improved = False
            cand_best = None
            for i in range(dim):
                for j in range(dim):
                    if i == j or x[j] < step:
                        continue
                    y = x.copy()
                    y[i] += step
                    y[j] -= step
                    val = objective(y)
                    if val > best + 1e-15 and (cand_best is None
                                               or val > cand_best[0]):
                        cand_best = (val, y)
            if cand_best is not None:
                best, x = cand_best
                improved = True
        step /= 4.0
    return x, best


def _scalar_search(objective, dim, cfg):
    bary = np.full(dim, 1.0 / dim)
    best_x, best_val = bary, float(objective(bary))
    for x in _scalar_lattice(dim, cfg.coarse_grid_points):
        val = float(objective(x))
        if val > best_val:
            best_x, best_val = x, val
    init_step = 1.0 / (cfg.coarse_grid_points - 1)
    starts = [best_x]
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.restarts - 1):
        starts.append(rng.dirichlet(np.ones(dim)))
    for s in starts:
        x, val = _scalar_descent(s, objective, init_step,
                                 cfg.refinement_rounds)
        if val > best_val:
            best_x, best_val = x, val
    return best_x, best_val


def _reference_channels():
    rng = np.random.default_rng(0)
    return [sato_channel()[0], random_relay_channel(rng, (3, 2, 2, 3)),
            random_relay_channel(rng, (2, 2, 2, 2))]


class TestRelayChannelSpec:
    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            RelayChannelSpec(np.ones((2, 2, 2)))

    def test_rejects_negative(self):
        w = np.full((2, 2, 2, 2), 0.25)
        w[0, 0, 0, 0] = -0.1
        w[0, 0, 1, 1] = 0.6
        with pytest.raises(ValueError):
            RelayChannelSpec(w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        w = np.full((2, 2, 2, 2), 0.25)
        w[1, 0, 0, 1] = bad
        with pytest.raises(ValueError):
            RelayChannelSpec(w)

    def test_rejects_nonstochastic_row(self):
        w = np.full((2, 2, 2, 2), 0.2)
        with pytest.raises(ValueError):
            RelayChannelSpec(w)

    def test_renormalizes_within_tolerance(self):
        w = np.full((1, 1, 2, 2), 0.25)
        w[0, 0, 0, 0] = 0.25 + 4e-10
        spec = RelayChannelSpec(w)
        assert spec.w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_marginals_consistent(self, rng):
        spec = random_relay_channel(rng, (2, 3, 2, 3))
        np.testing.assert_allclose(spec.y2_marginal().sum(axis=2), 1.0)
        np.testing.assert_allclose(spec.y3_marginal().sum(axis=2), 1.0)
        np.testing.assert_allclose(
            spec.y2_marginal(), spec.w.sum(axis=3))

    def test_y3_conditional_flags_zero_mass(self):
        chan, _ = sato_channel()
        cond, flagged = chan.y3_conditional()
        # the relay observes y2 = x1, so every y2 != x1 triple is flagged
        assert all(y2 != x1 for (x1, _, y2) in flagged)
        assert len(flagged) == 3 * 2 * 2
        np.testing.assert_allclose(cond.sum(axis=3), 1.0)


class TestSatoAnchors:
    def test_capacity_value(self):
        # [PAPER] cutset/capacity of the preset channel is 1.161878 bits
        chan, caid = sato_channel()
        value, _ = cutset_bound(chan, OptimizerConfig(), candidate=caid)
        assert value == pytest.approx(1.161878, abs=1e-3)

    def test_mutual_informations_at_optimal_joint(self):
        # [PAPER] both cut values equal 1.161878 at the supplied joint
        chan, caid = sato_channel()
        joint = caid.probs.reshape(3, 2)
        full = np.einsum("xa,xayz->xayz", joint, chan.w)
        i_multi = mi_axes(full, (0, 1), (3,))           # I(X1X2;Y3)
        i_relay = mi_axes(full, (0,), (2,), (1,))       # I(X1;Y2|X2)
        assert i_multi == pytest.approx(1.161878, abs=1e-4)
        assert i_relay == pytest.approx(1.161878, abs=1e-4)

    def test_caid_is_cutset_witness(self):
        # with the optimal joint supplied as a candidate, the returned value
        # is at least its cutset value and close to the search-only optimum
        chan, caid = sato_channel()
        val_at_caid = cutset_at(chan, caid)
        value, _ = cutset_bound(chan, OptimizerConfig(), candidate=caid)
        assert val_at_caid <= value + 1e-12
        searched, _ = cutset_bound(chan, OptimizerConfig())
        assert searched == pytest.approx(value, abs=1e-3)

    def test_relay_observation_noiseless(self):
        chan, _ = sato_channel()
        y2m = chan.y2_marginal()
        for x1 in range(3):
            for x2 in range(2):
                assert y2m[x1, x2, x1] == pytest.approx(1.0, abs=1e-12)


class TestCutset:
    def test_uniform_candidate_never_above_optimum(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        n = 4
        value, witness = cutset_bound(chan, OptimizerConfig())
        cand = Dist(np.full(n, 1.0 / n))
        assert cutset_at(chan, cand) <= value + 1e-9
        assert cutset_at(chan, witness) == pytest.approx(value, abs=1e-12)

    def test_useless_channel_has_zero_cutset(self):
        # (y2,y3) independent of the inputs: both cut values are zero
        w = np.zeros((2, 2, 2, 2))
        w[:, :] = np.array([[0.2, 0.3], [0.1, 0.4]])
        value, _ = cutset_bound(RelayChannelSpec(w), OptimizerConfig())
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_candidate_can_only_improve(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        base, _ = cutset_bound(chan, OptimizerConfig())
        cand = Dist(rng.dirichlet(np.ones(4)))
        with_cand, _ = cutset_bound(chan, OptimizerConfig(), candidate=cand)
        assert with_cand >= base - 1e-12


class TestBatchedCutset:
    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_objective_matches_scalar(self, idx):
        chan = _reference_channels()[idx]
        dim = chan.sizes[0] * chan.sizes[1]
        joints = np.random.default_rng(idx).dirichlet(np.ones(dim), size=200)
        batched = _cutset_objective(chan)(joints)
        scalar = _scalar_cutset_objective(chan)
        assert batched.shape == (200,)
        np.testing.assert_allclose(batched, [scalar(p) for p in joints],
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("cheap", [False, True])
    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_search_matches_scalar(self, idx, cheap):
        chan = _reference_channels()[idx]
        cfg = _cheap_cfg(0) if cheap else OptimizerConfig()
        want_x, want_val = _scalar_search(_scalar_cutset_objective(chan),
                                          chan.sizes[0] * chan.sizes[1], cfg)
        value, witness = cutset_bound(chan, cfg)
        np.testing.assert_array_equal(witness.probs, want_x)
        assert value == pytest.approx(want_val, abs=1e-12)

    def test_oversized_lattice_refused(self):
        # a 5x5 input pair has 10.5M points on the 9-point lattice
        chan = random_relay_channel(np.random.default_rng(0), (5, 5, 2, 2))
        with pytest.raises(EnumBudgetError, match="budget"):
            cutset_bound(chan, OptimizerConfig())


class TestDerivedChannels:
    def test_virtual_channels_stochastic(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        q = PdfInput(Dist(np.array([0.5, 0.5])),
                     CondDist(np.full((2, 2), 0.5)),
                     CondDist(np.full((4, 2), 0.5)), 2)
        v1, v2, v3 = pdf_virtual_channels(chan, q)
        for v in (v1, v2, v3):
            np.testing.assert_allclose(v.rows.sum(axis=1), 1.0)

    def test_virtual_channel_oracle(self, rng):
        # [DERIVED] W1(y2|u,x2) = sum_x1 Q(x1|u,x2) W(y2|x1,x2) by hand
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        qrows = rng.dirichlet(np.ones(2), size=4)
        q = PdfInput(Dist(np.array([0.5, 0.5])),
                     CondDist(np.full((2, 2), 0.5)), CondDist(qrows), 2)
        v1, _, _ = pdf_virtual_channels(chan, q)
        wy2 = chan.y2_marginal()
        for u in range(2):
            for x2 in range(2):
                want = sum(qrows[u * 2 + x2, x1] * wy2[x1, x2]
                           for x1 in range(2))
                np.testing.assert_allclose(v1.rows[u * 2 + x2], want,
                                           atol=1e-12)

    def test_cf_aux_channels_consistent(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        test = CondDist(rng.dirichlet(np.ones(2), size=4))
        realized = CondDist(rng.dirichlet(np.ones(2), size=2))
        c = CfInput(Dist(np.array([0.4, 0.6])), Dist(np.array([0.5, 0.5])),
                    2, test, realized)
        aux = cf_aux_channels(chan, c)
        np.testing.assert_allclose(aux.wq1.sum(axis=(1, 2)), 1.0)
        np.testing.assert_allclose(aux.w2.sum(axis=(2, 3)), 1.0)
        np.testing.assert_allclose(aux.q_yhat_given_x2.sum(axis=1), 1.0)
        # [DERIVED] wq1 = sum_x1 q(x1) W
        want = np.einsum("x,xayz->ayz", c.q_x1.probs, chan.w)
        np.testing.assert_allclose(aux.wq1, want, atol=1e-12)

    def test_cf_input_shape_validation(self):
        with pytest.raises(ValueError):
            CfInput(Dist(np.array([0.5, 0.5])), Dist(np.array([0.5, 0.5])),
                    2, CondDist(np.full((3, 2), 0.5)),
                    CondDist(np.full((2, 2), 0.5)))

    def test_pdf_input_shape_validation(self):
        with pytest.raises(ValueError):
            PdfInput(Dist(np.array([0.5, 0.5])),
                     CondDist(np.full((2, 2), 0.5)),
                     CondDist(np.full((3, 2), 0.5)), 2)
