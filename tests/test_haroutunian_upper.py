"""Dummy-channel upper bound: objective reduction, feasibility, sweeps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relayexp
from relayexp import (RelayChannelSpec, cutset_bound, ecs_objective,
                      ecs_upper, ecs_upper_sweep, haroutunian_upper,
                      sato_channel)
from relayexp.cli_sweeps import _rate_points
from relayexp.haroutunian_upper import (_GRID, _first_feasible,
                                        _level_channel, _support_target,
                                        _useless_channel)
from relayexp.prob_core import EnumBudgetError
from relayexp.relay_model import ZeroErrorCertificate
from conftest import random_relay_channel
import reference
from reference import kl_div_vec, level_channel


class TestObjective:
    def test_zero_at_equal_channels(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        assert ecs_objective(chan, chan) == 0.0

    def test_single_pair_deviation(self, rng):
        # [TRIVIAL] V differs from W at one input pair only: the max-pair
        # objective equals the divergence at that pair
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        table = chan.w.copy()
        bump = np.array([[0.4, 0.1], [0.3, 0.2]])
        table[1, 0] = bump
        v = RelayChannelSpec(table)
        want = kl_div_vec(bump.reshape(-1), chan.w[1, 0].reshape(-1))
        assert ecs_objective(v, chan) == pytest.approx(want, abs=1e-12)

    def test_equals_grid_max_over_inputs(self, rng):
        # [DERIVED] the objective is linear in P_{X1X2}, so the max over
        # distributions equals the max over symbol pairs; check against a
        # dense P grid
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        v = random_relay_channel(rng, (2, 2, 2, 2))
        per_pair = np.array(
            [[kl_div_vec(v.w[x1, x2].reshape(-1), chan.w[x1, x2].reshape(-1))
              for x2 in range(2)] for x1 in range(2)])
        best = 0.0
        grid = np.linspace(0.0, 1.0, 21)
        for a in grid:
            for b in grid:
                for c in grid:
                    if a + b + c > 1.0 + 1e-12:
                        continue
                    p = np.array([[a, b], [c, 1.0 - a - b - c]])
                    best = max(best, float((p * per_pair).sum()))
        assert ecs_objective(v, chan) == pytest.approx(best, abs=1e-9)

    def test_alphabet_mismatch_rejected(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        other = random_relay_channel(rng, (2, 2, 2, 3))
        with pytest.raises(ValueError):
            ecs_objective(chan, other)

    def test_support_violation_infinite(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        table = chan.w.copy()
        table[0, 0] = np.array([[1.0, 0.0], [0.0, 0.0]])
        w0 = chan.w.copy()
        w0[0, 0] = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert ecs_objective(RelayChannelSpec(table),
                             RelayChannelSpec(w0)) == np.inf


class TestUpperBound:
    def test_zero_at_and_above_capacity(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        ccs, _, _ = cutset_bound(chan)
        res = ecs_upper(ccs + 1e-3, chan, restarts=4, seed=0)
        assert res.value <= 1e-6
        assert res.feasibility_gap <= 1e-4

    def test_witness_feasible_and_positive_below(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        ccs, _, _ = cutset_bound(chan)
        res = ecs_upper(0.5 * ccs, chan, restarts=4, seed=0)
        assert res.feasibility_gap <= 1e-4
        if np.isfinite(res.value):
            assert res.value > 0.0
            # the witness certifies the value: its objective matches
            assert ecs_objective(res.witness_v, chan) == pytest.approx(
                res.value, abs=1e-9)

    def test_seeded_3x2x2x3_half_cutset(self, rng):
        # one restart of the level bisection certifies 0.0422076 here
        chan = random_relay_channel(rng, (3, 2, 2, 3))
        r = 0.5 * cutset_bound(chan)[0]
        res = ecs_upper(r, chan, restarts=1, seed=0)
        assert res.value <= 0.04221
        assert cutset_bound(res.witness_v)[1] <= r
        assert ecs_objective(res.witness_v, chan) == pytest.approx(
            res.value, abs=1e-12)

    def test_rejects_negative_rate(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        with pytest.raises(ValueError):
            ecs_upper(-0.1, chan, restarts=4, seed=0)

    def test_rejects_zero_restarts(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        with pytest.raises(ValueError, match="restarts"):
            ecs_upper(0.1, chan, restarts=0)
        with pytest.raises(ValueError, match="restarts"):
            ecs_upper_sweep([0.1, 0.2], chan, restarts=0)

    def test_sweep_checks_restarts_on_an_empty_grid(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        for restarts in (0, -3):
            with pytest.raises(ValueError, match="restarts must be >= 1"):
                ecs_upper_sweep([], chan, restarts=restarts)
        assert ecs_upper_sweep([], chan, restarts=1) == ([], 0)

    def test_sweep_rejects_a_falling_grid(self):
        # the running minimum carries a lower rate's witness forward, which
        # is feasible at higher rates only: on the seeded 3x2x2x3 channel,
        # rates (0.14, 0.02) reported 0.00142 at r = 0.02 from a witness
        # whose cutset hi is 0.13999, where ecs_upper(0.02) gives 0.2896
        chan = random_relay_channel(np.random.default_rng(0), (3, 2, 2, 3))
        with pytest.raises(ValueError, match="nondecreasing"):
            ecs_upper_sweep((0.14, 0.02), chan, restarts=4)

    def test_sato_small_rate_vacuous(self):
        # below Sato's zero-error threshold R0 = 1 every channel inside the
        # support keeps a noiseless bit at x2 = 0, so its cutset value is at
        # least 1: the +inf is certified, not a search that failed
        chan, _ = sato_channel()
        res = ecs_upper(0.2, chan, restarts=2, seed=0)
        assert res.value == np.inf
        # the fallback witness still has zero cutset value (feasible)
        assert res.feasibility_gap <= 1e-4

    def test_sweep_witnesses_certified(self):
        # every finite value rests on a witness whose full cutset bracket
        # lies at or below the rate
        chan = random_relay_channel(np.random.default_rng(100), (2, 2, 2, 2))
        rates = (0.0196, 0.0393, 0.0589, 0.0785)
        stats = {}
        results, _ = ecs_upper_sweep(rates, chan, restarts=4, seed=0,
                                      stats=stats)
        for r, res in zip(rates, results):
            if np.isfinite(res.value):
                assert cutset_bound(res.witness_v)[1] <= r
                assert res.feasibility_gap == 0.0
        assert stats["cutset_calls"] > 0
        assert stats["cutset_iterations"] >= stats["cutset_calls"]

    def test_sweep_monotone_with_warm_starts(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        rates = (0.05, 0.15, 0.3, 0.6)
        results, violations = ecs_upper_sweep(rates, chan, restarts=4, seed=0)
        assert violations == 0
        vals = [res.value for res in results]
        assert all(a >= b - 1e-6 for a, b in zip(vals, vals[1:]))
        for res in results:
            assert res.feasibility_gap <= 1e-4


class TestZeroErrorShortcut:
    @pytest.mark.parametrize("rates,restarts", [
        ((0.2, 0.4, 0.6, 0.8, 1.0, 1.2), 16),     # the CLI's default grid
        ((0.2, 0.4, 0.6, 0.8, 1.0, 1.2), 4),      # criterion 6
        ((1.165,), 4),
    ])
    def test_restarts_agree_with_the_certificate(self, monkeypatch, rates,
                                                 restarts):
        # with no certificate every Sato rate below 1 bit runs its restarts,
        # which all fail, and reports what the certificate reports at once
        chan = sato_channel()[0]
        stats = {}
        short, _ = ecs_upper_sweep(rates, chan, restarts, stats=stats)
        assert stats["zero_error"]["decided"] == [r for r in rates if r < 1]
        monkeypatch.setattr(haroutunian_upper, "zero_error_rate",
                            lambda w: ZeroErrorCertificate(0.0, 0, (0,), True))
        searched, _ = ecs_upper_sweep(rates, chan, restarts)
        for a, b in zip(short, searched):
            assert (a.value, a.feasibility_gap, a.restarts_used) == (
                b.value, b.feasibility_gap, b.restarts_used)

    def test_certified_rows_skip_restarts_and_numpy_random(self, tmp_path):
        # the upper-sato benchmark command: three rows below R0 = 1, all
        # settled by one cutset call on the witness, whose hi is at most
        # the lowest rate, and no restart draws a number, so numpy.random
        # is never imported
        code = ("import sys\n"
                "from relayexp.cli_sweeps import main\n"
                "code = main(['upper', '--preset', 'sato', '--reff',\n"
                "             '0.4:0.8:0.2', '--restarts', '4', '--out',\n"
                "             sys.argv[1]])\n"
                "print('numpy.random' in sys.modules, code)\n")
        src = str(Path(relayexp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                             env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        assert out.stdout.splitlines()[-1] == "False 0"
        meta = json.loads((tmp_path / "upper.meta.json").read_text())
        assert meta["grids"]["cutset_calls"] == 1
        assert meta["grids"]["rates"] == {
            "zero_error": 3, "channel_feasible": 0, "searched": 0,
            "first_feasible": None}
        assert meta["grids"]["zero_error"] == {
            "rate": 1.0, "x2": 0, "x1": [0, 1], "exact": True,
            "decided": [0.4, 0.6, 0.8]}
        rows = (tmp_path / "upper.csv").read_text().splitlines()[1:]
        assert rows == [f"0,{r},{r},ecs_upper,inf,gap=0,restarts:4"
                        for r in ("0.4", "0.6", "0.8")]


_CHANNELS = {
    "sato": lambda: sato_channel()[0],
    "rand3223": lambda: random_relay_channel(np.random.default_rng(0),
                                             (3, 2, 2, 3)),
    "2222s0": lambda: random_relay_channel(np.random.default_rng(0),
                                           (2, 2, 2, 2)),
}


class TestSweepFacts:
    @pytest.mark.parametrize("name,grid,restarts,settled", [
        # every rate below R0 = 1: one decision on the +inf witness
        ("sato", (0.001, 0.999, 0.001), 4, (999, 0, 0, None)),
        # R0, searched rates, and W feasible from 1.17 (C = 1.1619)
        ("sato", (0.01, 1.2, 0.01), 4, (99, 4, 17, 1.17)),
        # every rate above the cutset value 0.1559: one decision on W
        ("rand3223", (0.16, 2.0, 0.01), 4, (0, 185, 0, 0.16)),
        # R0 = 0 at the grid's start, and the cutset value inside it
        ("2222s0", (0.0, 0.3, 0.02), 2, (0, 9, 7, 0.14)),
    ])
    def test_equals_the_per_rate_loop(self, name, grid, restarts, settled):
        # decisions on the +inf witness and on W start from the uniform
        # joint, so reusing them across rates moves no value, gap,
        # restart count or witness; the per-rate loop is the reference
        chan, rates = _CHANNELS[name](), _rate_points(grid)
        stats, want_stats = {}, {}
        got, _ = ecs_upper_sweep(rates, chan, restarts, stats=stats)
        want = reference.ecs_upper_sweep(rates, chan, restarts,
                                         stats=want_stats)
        for r, a, b in zip(rates, got, want):
            assert (a.value, a.feasibility_gap, a.restarts_used) == (
                b.value, b.feasibility_gap, b.restarts_used), r
            np.testing.assert_array_equal(a.witness_v.w, b.witness_v.w)
        assert len(got) == len(want) == len(rates)
        zero_error, feasible, searched, first = settled
        assert stats["rates"] == {
            "zero_error": zero_error, "channel_feasible": feasible,
            "searched": searched, "first_feasible": first}
        # the sweep runs a subset of the loop's decisions
        assert stats["cutset_calls"] < want_stats["cutset_calls"]
        assert stats["cutset_iterations"] < want_stats["cutset_iterations"]

    def test_one_rate_runs_what_the_loop_runs(self):
        # with a single rate nothing is shared: the same decisions run
        chan = _CHANNELS["rand3223"]()
        for r in (0.02, 0.0779424125, 0.16):
            stats, want_stats = {}, {}
            got = ecs_upper(r, chan, restarts=2, stats=stats)
            want = reference.ecs_upper(r, chan, 2, stats=want_stats)
            assert (got.value, got.feasibility_gap) == (
                want.value, want.feasibility_gap)
            assert {key: stats[key] for key in want_stats} == want_stats

    @pytest.mark.parametrize("n", range(7))
    def test_first_feasible_bisects(self, n):
        rates = list(range(6))
        probed = []

        def feasible(r):
            probed.append(r)
            return r >= n

        assert _first_feasible(rates, feasible) == min(n, 6)
        # the lowest rate first, then the highest, then at most a bisection
        assert probed[:2] == [0, 5][:len(probed)]
        assert len(probed) <= 5
        assert _first_feasible([], feasible) == 0

    def test_work_over_budget_raises_before_any_restart(self, monkeypatch):
        # one rate below the cutset value with 100,000 restarts plans
        # 2,100,002 decisions of 30 iterations over 36 entries
        chan = _CHANNELS["rand3223"]()
        monkeypatch.setattr(haroutunian_upper, "_support_target", None)
        with pytest.raises(EnumBudgetError, match="2100002 cutset decisions"):
            ecs_upper(0.0779424125, chan, restarts=100000)
        with pytest.raises(EnumBudgetError, match="budget of 1e\\+08"):
            ecs_upper_sweep(_rate_points((0.01, 0.15, 0.0001)), chan)
        # rates settled by R0 or by W's feasibility plan no work
        sato = sato_channel()[0]
        ecs_upper_sweep(_rate_points((0.01, 0.99, 0.01)), sato,
                        restarts=100000)
        ecs_upper(0.16, chan, restarts=100000)


def _support_target_loop(w, base):
    """The row-by-row construction `_support_target` replaced: restrict
    each row of `base` to W's support and renormalize; a row with no mass
    left keeps W's row."""
    table = np.empty_like(w.w)
    for x1 in range(w.sizes[0]):
        for x2 in range(w.sizes[1]):
            tgt = np.where(w.w[x1, x2] > 0.0, base[x1, x2], 0.0)
            tot = tgt.sum()
            table[x1, x2] = tgt / tot if tot > 0.0 else w.w[x1, x2]
    return table


class TestSupportTarget:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_row_loop(self, seed):
        chans = [sato_channel()[0]] + [
            random_relay_channel(np.random.default_rng(seed), sizes,
                                 full_support=False)
            for sizes in ((2, 2, 2, 2), (3, 2, 2, 3), (3, 3, 3, 3))]
        for chan in chans:
            base = haroutunian_upper._useless_channel(
                chan, np.random.default_rng(seed)).w
            got = _support_target(chan, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, _support_target_loop(chan,
                                                                    base))

    def test_row_without_mass_keeps_w(self, monkeypatch):
        # a base channel that is 0 on the whole support of one row
        chan = sato_channel()[0]
        table = np.full(chan.sizes, 1.0 / 9.0)
        off = chan.w[1, 0] <= 0.0
        table[1, 0] = off / off.sum()
        base = RelayChannelSpec(table)
        monkeypatch.setattr(haroutunian_upper, "_useless_channel",
                            lambda w, rng: base)
        got = _support_target(chan, None)
        np.testing.assert_array_equal(got[1, 0], chan.w[1, 0])
        np.testing.assert_array_equal(got, _support_target_loop(chan,
                                                                base.w))


class TestLevelChannel:
    def test_rows_stop_at_the_level(self, rng):
        chan = random_relay_channel(rng, (3, 2, 2, 3))
        u = _support_target(chan, np.random.default_rng(1))
        d_u = np.array([[kl_div_vec(u[x1, x2].reshape(-1),
                                    chan.w[x1, x2].reshape(-1))
                         for x2 in range(2)] for x1 in range(3)])
        for t in (0.0, 0.25 * d_u.max(), 0.5 * d_u.max(), d_u.max()):
            v = _level_channel(u, chan.w, t)
            np.testing.assert_allclose(v.sum(axis=(2, 3)), 1.0, atol=1e-12)
            assert np.all(v >= 0.0)
            assert not np.any((v > 0.0) & (chan.w <= 0.0))
            for x1 in range(3):
                for x2 in range(2):
                    d = kl_div_vec(v[x1, x2].reshape(-1),
                                   chan.w[x1, x2].reshape(-1))
                    assert d <= t + 1e-9
                    if d_u[x1, x2] <= t:
                        np.testing.assert_array_equal(v[x1, x2], u[x1, x2])
                    else:
                        assert d == pytest.approx(t, abs=1e-6)

    @staticmethod
    def _targets():
        """(W, u) pairs: Sato and seeds 0-29 of four shapes, half of them
        sparse, with u the first restart's support target."""
        chans = [sato_channel()[0]] + [
            random_relay_channel(np.random.default_rng(seed), sizes,
                                 full_support=seed % 2 == 0)
            for sizes in ((3, 2, 2, 3), (2, 2, 2, 2), (3, 2, 3, 3),
                          (4, 4, 4, 4))
            for seed in range(30)]
        return [(chan.w, _support_target(chan, np.random.default_rng(i)))
                for i, chan in enumerate(chans)]

    def test_equals_the_plain_bisection(self):
        # the predicted path is checked, so the table is the 40-step
        # bisection's bit for bit, at every level down to the noise floor
        levels = (1.0, 0.999, 0.5, 0.25, 0.1, 0.03, 1e-3, 1e-6)
        stats = {}
        for w, u in self._targets():
            top = float(haroutunian_upper._row_divergences(u, w).max())
            for t in top * np.array(levels):
                np.testing.assert_array_equal(
                    _level_channel(u, w, t, stats), level_channel(u, w, t))
        assert stats["level_calls"] == 121 * len(levels)
        # most paths are predicted whole: on average under one loop step
        # per call is resumed
        assert stats["level_resumed_steps"] < stats["level_calls"]

    def test_equals_the_plain_bisection_off_the_support(self):
        # rows of u with mass outside W's support stay at +inf divergence
        # and end at lam = 1; at t = 0 only rows equal to W's keep u's
        table = random_relay_channel(np.random.default_rng(0),
                                     (3, 2, 2, 3)).w.copy()
        table[:, :, 0, 0] = 0.0
        chans = [sato_channel()[0], RelayChannelSpec(
            table / table.sum(axis=(2, 3), keepdims=True))]
        for chan in chans:
            for u in (_useless_channel(chan).w,
                      _support_target(chan, np.random.default_rng(0))):
                for t in (0.0, 0.05, 0.5):
                    np.testing.assert_array_equal(
                        _level_channel(u, chan.w, t),
                        level_channel(u, chan.w, t))

    @pytest.mark.parametrize("shift", [3 * _GRID, -3 * _GRID, 0.25],
                             ids=["3 steps up", "3 steps down", "0.25 up"])
    def test_a_wrong_prediction_resumes_the_loop(self, monkeypatch, shift):
        crossing = haroutunian_upper._crossing
        monkeypatch.setattr(haroutunian_upper, "_crossing",
                            lambda u, w, t: crossing(u, w, t) + shift)
        for w, u in self._targets()[1:31]:
            top = float(haroutunian_upper._row_divergences(u, w).max())
            for t in (0.5 * top, 0.1 * top):
                stats = {}
                np.testing.assert_array_equal(
                    _level_channel(u, w, t, stats), level_channel(u, w, t))
                assert stats["level_resumed_steps"] > 0
