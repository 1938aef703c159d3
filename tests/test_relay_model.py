"""Relay channel data types, derived channels and the cutset bracket."""

from itertools import combinations

import numpy as np
import pytest

from relayexp import (CfInput, CondDist, Dist, PdfInput, RelayChannelSpec,
                      cf_aux_channels, cutset_bound, pdf_virtual_channels,
                      sato_channel)
from relayexp import relay_model
from relayexp.relay_model import _envelope, zero_error_rate
from conftest import random_relay_channel
from test_cf_exponents import _skewed_relay_channel
import reference
from reference import mi_axes


def _cutset_at(w, joint):
    """min{I(X1X2;Y3), I(X1;Y2Y3|X2)} at a flattened joint over X1 x X2,
    written with mi_axes on the full joint array."""
    n_x1, n_x2 = w.sizes[0], w.sizes[1]
    full = joint.reshape(n_x1, n_x2)[:, :, None, None] * w.w
    return min(mi_axes(full, (0, 1), (3,)), mi_axes(full, (0,), (2, 3), (1,)))


# ---------------------------------------------------------------------------
# the lattice search with exchange descent that the bracket replaced; its
# values are achieved, so they are lower estimates of the cutset value
# ---------------------------------------------------------------------------

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


def _scalar_search(objective, dim, points, rounds, restarts, seed):
    bary = np.full(dim, 1.0 / dim)
    best_x, best_val = bary, float(objective(bary))
    for x in _scalar_lattice(dim, points):
        val = float(objective(x))
        if val > best_val:
            best_x, best_val = x, val
    init_step = 1.0 / (points - 1)
    starts = [best_x]
    rng = np.random.default_rng(seed)
    for _ in range(restarts - 1):
        starts.append(rng.dirichlet(np.ones(dim)))
    for s in starts:
        x, val = _scalar_descent(s, objective, init_step, rounds)
        if val > best_val:
            best_x, best_val = x, val
    return best_x, best_val


def _conditional_loop(joint):
    """The row-by-row conditional that `y3_conditional` and `w2_cond`
    replaced: each last-axis row divided by its sum, uniform where the sum
    is 0; returns (cond, filled leading indices in order)."""
    cond = np.empty_like(joint)
    filled = []
    for idx in np.ndindex(joint.shape[:-1]):
        m = joint[idx].sum()
        if m > 0.0:
            cond[idx] = joint[idx] / m
        else:
            cond[idx] = 1.0 / joint.shape[-1]
            filled.append(idx)
    return cond, filled


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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_y3_conditional_matches_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        chans = [sato_channel()[0]] + [
            random_relay_channel(rng, sizes, full_support=False)
            for sizes in ((2, 2, 2, 2), (3, 2, 2, 3))]
        for chan in chans:
            cond, flagged = chan.y3_conditional()
            want, filled = _conditional_loop(chan.w)
            np.testing.assert_array_equal(cond, want)
            assert flagged == filled
            assert all(type(i) is int for triple in flagged for i in triple)


class TestSatoAnchors:
    def test_capacity_value(self):
        # [PAPER] cutset/capacity of the preset channel is 1.161878 bits
        chan, caid = sato_channel()
        value, _, _ = cutset_bound(chan, candidate=caid)
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
        # is at least its cutset value and close to the value without it
        chan, caid = sato_channel()
        val_at_caid = _cutset_at(chan, caid.probs)
        value, _, _ = cutset_bound(chan, candidate=caid)
        assert val_at_caid <= value + 1e-12
        searched, _, _ = cutset_bound(chan)
        assert searched == pytest.approx(value, abs=1e-3)

    def test_relay_observation_noiseless(self):
        chan, _ = sato_channel()
        y2m = chan.y2_marginal()
        for x1 in range(3):
            for x2 in range(2):
                assert y2m[x1, x2, x1] == pytest.approx(1.0, abs=1e-12)


def _disjoint_at(w, x2, x1s):
    """Whether the Y3 supports of the symbols x1s at relay symbol x2 are
    pairwise disjoint."""
    on = w.y3_marginal()[list(x1s), x2] > 0.0
    return bool(np.all(on.sum(axis=0) <= 1))


def _sparse_channel(rng, sizes, keep):
    """A channel whose rows keep each (y2, y3) entry with probability
    `keep` (at least one per row), with Dirichlet weights on those kept."""
    n_x1, n_x2, n_y2, n_y3 = sizes
    w = np.zeros(sizes)
    for x1 in range(n_x1):
        for x2 in range(n_x2):
            on = rng.random(n_y2 * n_y3) < keep
            on[rng.integers(n_y2 * n_y3)] = True
            row = np.zeros(n_y2 * n_y3)
            row[on] = rng.dirichlet(np.ones(on.sum()))
            w[x1, x2] = row.reshape(n_y2, n_y3)
    return RelayChannelSpec(w)


def _sparse(seed, sizes):
    """Dirichlet(1/2) rows, each entry but the first zeroed with
    probability 1/2 and the rows renormalised."""
    rng = np.random.default_rng(seed)
    n_x1, n_x2, n_y2, n_y3 = sizes
    w = rng.dirichlet(np.full(n_y2 * n_y3, 0.5), size=(n_x1, n_x2))
    w[..., 1:] *= rng.random(w[..., 1:].shape) >= 0.5
    return RelayChannelSpec((w / w.sum(axis=-1, keepdims=True))
                            .reshape(sizes))


def _sato_children(count):
    """`count` channels V << W_Sato with Dirichlet rows on W's support,
    drawn from default_rng(7)."""
    chan = sato_channel()[0]
    rng = np.random.default_rng(7)
    on = chan.w.reshape(3, 2, -1) > 0.0
    children = []
    for _ in range(count):
        v = np.zeros_like(on, dtype=float)
        for x1 in range(3):
            for x2 in range(2):
                v[x1, x2, on[x1, x2]] = rng.dirichlet(
                    np.ones(on[x1, x2].sum()))
        children.append(RelayChannelSpec(v.reshape(chan.sizes)))
    return children


class TestZeroErrorRate:
    def test_sato_is_one_bit(self):
        # [PAPER] with x2 = 0, x1 = 0 always gives y3 = 0 and x1 in {1, 2}
        # never does: a noiseless bit, and no three symbols are disjoint
        chan = sato_channel()[0]
        cert = zero_error_rate(chan)
        assert cert.rate == 1.0 and cert.exact
        assert len(cert.x1s) == 2 and _disjoint_at(chan, cert.x2, cert.x1s)

    def test_zero_on_full_support_channels(self):
        # every Y3 support meets every other, so single symbols are all
        chans = [random_relay_channel(np.random.default_rng(s), (2, 2, 2, 2))
                 for s in range(4)]
        chans += [random_relay_channel(np.random.default_rng(0),
                                       (3, 2, 2, 3)),
                  _skewed_relay_channel()]
        for chan in chans:
            cert = zero_error_rate(chan)
            assert cert.rate == 0.0 and cert.exact and len(cert.x1s) == 1

    def test_noiseless_destination_at_one_relay_symbol(self):
        # at x2 = 1 the destination sees x1 in {0, 1, 2} noiselessly and
        # x1 = 3 anywhere; at x2 = 0 every row has full support
        w = np.full((4, 2, 2, 3), 1.0 / 6.0)
        for x1 in range(3):
            w[x1, 1] = 0.0
            w[x1, 1, :, x1] = 0.5
        cert = zero_error_rate(RelayChannelSpec(w))
        assert cert.rate == np.log2(3) and cert.exact
        assert cert.x2 == 1 and cert.x1s == (0, 1, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_search(self, seed):
        rng = np.random.default_rng(seed)
        chan = _sparse_channel(rng, (6, 2, 2, 4), 0.15)
        best = max(len(s) for x2 in range(2) for k in range(1, 7)
                   for s in combinations(range(6), k)
                   if _disjoint_at(chan, x2, s))
        cert = zero_error_rate(chan)
        assert cert.exact and len(cert.x1s) == best
        assert cert.rate == np.log2(best)
        assert _disjoint_at(chan, cert.x2, cert.x1s)

    @pytest.mark.parametrize("budget", [0, 1, 3, 6])
    def test_budget_keeps_a_valid_certificate(self, monkeypatch, budget):
        # eight noiseless symbols need more than six nodes to reach R0 = 3
        w = np.zeros((8, 1, 1, 8))
        w[np.arange(8), 0, 0, np.arange(8)] = 1.0
        chan = RelayChannelSpec(w)
        assert zero_error_rate(chan).rate == 3.0
        monkeypatch.setattr(relay_model, "_PACKING_NODES", budget)
        cert = zero_error_rate(chan)
        assert not cert.exact
        assert 1 <= len(cert.x1s) <= budget + 1 < 8
        assert cert.rate == np.log2(len(cert.x1s))
        assert _disjoint_at(chan, cert.x2, cert.x1s)

    def test_every_channel_in_the_support_has_cutset_at_least_r0(self):
        # [DERIVED] V << W keeps the certificate's supports disjoint, so its
        # cutset value is at least R0 = 1 on Sato: both bracket ends say so
        chan = sato_channel()[0]
        r0 = zero_error_rate(chan).rate
        for v in _sato_children(50):
            # lo is attained, so lo above the decision level certifies it
            lo, hi, _ = cutset_bound(v, decide_at=r0 - 1e-9)
            assert lo >= r0 - 1e-9 and hi >= r0 - 1e-9


class TestCutset:
    def test_uniform_candidate_never_above_optimum(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        n = 4
        value, _, witness = cutset_bound(chan)
        cand = np.full(n, 1.0 / n)
        assert _cutset_at(chan, cand) <= value + 1e-9
        assert _cutset_at(chan, witness.probs) == pytest.approx(value,
                                                                abs=1e-12)

    def test_useless_channel_has_zero_cutset(self):
        # (y2,y3) independent of the inputs: both cut values are zero
        w = np.zeros((2, 2, 2, 2))
        w[:, :] = np.array([[0.2, 0.3], [0.1, 0.4]])
        value, _, _ = cutset_bound(RelayChannelSpec(w))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_candidate_can_only_improve(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        base, _, _ = cutset_bound(chan)
        cand = Dist(rng.dirichlet(np.ones(4)))
        with_cand, _, _ = cutset_bound(chan, candidate=cand)
        assert with_cand >= base - 1e-12


class TestBatchedCutset:
    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_objective_matches_scalar(self, idx):
        # a decision every bracket takes at once stops after the first
        # iterate, the candidate: its lower side is min{I1, I2} there
        chan = _reference_channels()[idx]
        dim = chan.sizes[0] * chan.sizes[1]
        joints = np.random.default_rng(idx).dirichlet(np.ones(dim), size=50)
        for p in joints:
            lo, hi, witness = cutset_bound(chan, candidate=Dist(p),
                                           decide_at=-1.0)
            np.testing.assert_array_equal(witness.probs, p)
            assert lo == pytest.approx(_cutset_at(chan, p), abs=1e-12)
            assert lo <= hi

    @pytest.mark.parametrize("cheap", [False, True])
    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_search_matches_scalar(self, idx, cheap):
        # the bracket holds every value the old search achieved, and its
        # lower side is no worse
        chan = _reference_channels()[idx]
        points, rounds, restarts = (5, 4, 1) if cheap else (9, 6, 4)
        _, want_val = _scalar_search(lambda p: _cutset_at(chan, p),
                                     chan.sizes[0] * chan.sizes[1], points,
                                     rounds, restarts, seed=0)
        lo, hi, _ = cutset_bound(chan)
        assert want_val <= hi
        assert lo >= want_val - 1e-9


class TestBracket:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (3, 2, 2, 3)])
    def test_lo_below_hi_on_sparse_channels(self, seed, sizes):
        # zeros in W put zeros in the output laws; the bracket must keep
        # them as infinite divergences, never as zero terms
        chan = random_relay_channel(np.random.default_rng(seed), sizes,
                                    full_support=False)
        lo, hi, witness = cutset_bound(chan)
        assert lo <= hi
        assert hi - lo <= 1e-6
        assert _cutset_at(chan, witness.probs) == pytest.approx(lo, abs=1e-12)

    @pytest.mark.parametrize("seed,sizes", [
        (34, (4, 4, 4, 4)), (11, (2, 2, 2, 2)), (21, (2, 3, 3, 2)),
        (97, (2, 3, 3, 2)), (31, (4, 4, 4, 4)), (36, (4, 4, 4, 4))])
    def test_lo_is_attained_where_a_mass_underflows(self, seed, sizes):
        # here a live symbol's mass falls to a subnormal, its products with
        # W underflow out of the block's output law, and I2 reads +inf; lo
        # once took I1 at such iterates and ended above hi (seed 34:
        # 0.681116719 against 0.677483623, where min{I1, I2} is 0.620945)
        chan = _sparse(seed, sizes)
        lo, hi, witness = cutset_bound(chan)
        assert lo <= hi
        assert lo <= _cutset_at(chan, witness.probs) + 1e-12

    def test_point_to_point_oracle(self):
        # [DERIVED] one relay input, a constant relay observation and a
        # BSC(0.1) to the destination: both cuts are I(X1;Y3), so the
        # cutset value is the BSC capacity 1 - h2(0.1), at the uniform input
        eps = 0.1
        w = np.zeros((2, 1, 1, 2))
        w[:, 0, 0] = [[1 - eps, eps], [eps, 1 - eps]]
        lo, hi, witness = cutset_bound(RelayChannelSpec(w))
        cap = 1.0 + eps * np.log2(eps) + (1 - eps) * np.log2(1 - eps)
        assert lo <= cap <= hi <= lo + 1e-9
        np.testing.assert_allclose(witness.probs, 0.5, atol=1e-3)

    def test_single_input_pair(self):
        w = np.full((1, 1, 2, 2), 0.25)
        lo, hi, witness = cutset_bound(RelayChannelSpec(w))
        assert lo == 0.0 and hi <= 1e-12
        assert witness.probs.tolist() == [1.0]

    def test_deterministic(self):
        chan = random_relay_channel(np.random.default_rng(3), (3, 2, 2, 3))
        first, second = cutset_bound(chan), cutset_bound(chan)
        assert first[:2] == second[:2]
        np.testing.assert_array_equal(first[2].probs, second[2].probs)

    @pytest.mark.parametrize("vertex", range(6))
    def test_sato_from_near_vertex_candidates(self, vertex):
        # divergences spread over tens of bits near a vertex; full update
        # steps there oscillated between faces and left the bracket open
        chan, _ = sato_channel()
        start = np.full(6, 1e-9)
        start[vertex] = 1.0
        lo, hi, _ = cutset_bound(chan, candidate=Dist(start / start.sum()))
        assert 1.161878 <= lo <= hi <= lo + 1e-6

    def test_sato_without_candidate(self):
        chan, _ = sato_channel()
        lo, hi, _ = cutset_bound(chan)
        assert 1.161878 <= lo <= hi <= lo + 1e-6

    @pytest.mark.parametrize("seed,sizes", [
        (0, (3, 2, 2, 3)), (100, (2, 2, 2, 2)), (101, (2, 2, 2, 2)),
        (102, (2, 2, 2, 2)), (5, (5, 5, 3, 3))])
    def test_certified_on_seeded_channels(self, seed, sizes):
        chan = random_relay_channel(np.random.default_rng(seed), sizes)
        lo, hi, witness = cutset_bound(chan)
        assert lo <= hi <= lo + 1e-6
        assert _cutset_at(chan, witness.probs) == pytest.approx(lo, abs=1e-12)

    def test_decision_stops_early(self):
        chan, caid = sato_channel()
        stats = {}
        lo, hi, _ = cutset_bound(chan, candidate=caid, decide_at=1.2,
                                 stats=stats)
        assert hi <= 1.2
        lo, hi, _ = cutset_bound(chan, candidate=caid, decide_at=1.0,
                                 stats=stats)
        assert lo > 1.0
        assert stats == {"cutset_calls": 2, "cutset_iterations": 2,
                         "cutset_undecided": 0}

    def test_envelope_matches_lambda_grid(self):
        # min over lam of the max of lines lam a + (1 - lam) b, against a
        # dense grid over lam; the grid can only miss the minimum
        rng = np.random.default_rng(7)
        lams = np.linspace(0.0, 1.0, 100_001)
        for n in (1, 2, 6, 25):
            a, b = rng.random(n), rng.random(n)
            value, lam = _envelope(a, b)
            grid = (np.outer(lams, a) + np.outer(1.0 - lams, b)).max(axis=1)
            assert value <= grid.min() + 1e-12
            assert value >= grid.min() - 1e-4
            assert (lam * a + (1.0 - lam) * b).max() == pytest.approx(
                value, abs=1e-12)

    def test_envelope_with_infinite_lines(self):
        a = np.array([0.3, np.inf])
        b = np.array([0.5, 0.2])
        assert _envelope(a, b) == (0.5, 0.0)
        assert _envelope(b, a) == (0.5, 1.0)
        assert _envelope(np.array([np.inf, 0.1]),
                         np.array([0.1, np.inf]))[0] == np.inf


def _same_as_reference(chan, **kwargs):
    """cutset_bound's bracket, witness and iteration count equal the
    reference loop's; returns the bracket."""
    got_stats, want_stats = {}, {}
    got = cutset_bound(chan, stats=got_stats, **kwargs)
    want = reference.cutset_bound(chan, stats=want_stats, **kwargs)
    assert got[:2] == want[:2]
    np.testing.assert_array_equal(got[2].probs, want[2].probs)
    assert got_stats["cutset_iterations"] == want_stats["cutset_iterations"]
    return want


class TestIterateMatchesReference:
    # the iterate writes the cross-entropy terms into a zeroed buffer and
    # takes its step's top from g's maximum when that is finite; the plain
    # loop in tests/reference.py does neither, and both must agree exactly

    def test_full_solves_and_decisions(self):
        chans = [sato_channel()[0]] + [
            random_relay_channel(np.random.default_rng(seed), sizes,
                                 full_support=seed % 2 == 0)
            for seed in range(6)
            for sizes in ((2, 2, 2, 2), (3, 2, 2, 3), (3, 3, 3, 3))]
        for chan in chans:
            lo = _same_as_reference(chan)[0]
            for scale in (0.5, 0.99, 1.01):
                _same_as_reference(chan, decide_at=scale * lo)

    def test_decisions_from_candidates_with_zeros(self):
        # a zero coordinate of the candidate can leave g without a finite
        # maximum, where the step filters the finite entries
        start = Dist(np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.5]))
        for v in _sato_children(30):
            for rate in (1.0, 1.2, 1.5):
                _same_as_reference(v, decide_at=rate)
                _same_as_reference(v, decide_at=rate, candidate=start)


class TestDerivedChannels:
    def test_virtual_channels_stochastic(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        q = PdfInput(Dist(np.array([0.5, 0.5])),
                     CondDist(np.full((2, 2), 0.5)),
                     CondDist(np.full((4, 2), 0.5)), 2)
        v1, v2 = pdf_virtual_channels(chan, q)
        for v in (v1, v2):
            np.testing.assert_allclose(v.rows.sum(axis=1), 1.0)

    def test_virtual_channel_oracle(self, rng):
        # [DERIVED] W1(y2|u,x2) = sum_x1 Q(x1|u,x2) W(y2|x1,x2) by hand
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        qrows = rng.dirichlet(np.ones(2), size=4)
        q = PdfInput(Dist(np.array([0.5, 0.5])),
                     CondDist(np.full((2, 2), 0.5)), CondDist(qrows), 2)
        v1, _ = pdf_virtual_channels(chan, q)
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

    def test_w2_cond_matches_row_loop(self, rng):
        # with an identity test channel, x2 = 0 never describes yhat2 = 1,
        # so those rows of W2 have no mass and take the uniform fill
        chan = random_relay_channel(rng, (2, 2, 2, 3), full_support=False)
        ident = CondDist(np.array([[1.0, 0.0], [1.0, 0.0],
                                   [0.0, 1.0], [0.0, 1.0]]))
        realized = CondDist(np.array([[1.0, 0.0], [0.3, 0.7]]))
        aux = cf_aux_channels(chan, CfInput(Dist(np.array([0.4, 0.6])),
                                            Dist(np.array([0.5, 0.5])),
                                            2, ident, realized))
        want, filled = _conditional_loop(aux.w2)
        assert filled == [(0, 0, 1), (1, 0, 1)]
        np.testing.assert_array_equal(aux.w2_cond(), want)

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
