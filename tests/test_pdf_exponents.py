"""Partial-decode-forward exponents: dual and primal forms, block scan."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relayexp import (CondDist, Dist, PdfInput, PdfSweep, df_input,
                      pdf_dual_exponent, pdf_exponents, pdf_primal_exponent,
                      pdf_sweep, sato_channel)
from relayexp._kernels import e0_sum
from relayexp.pdf_exponents import (_GOLDEN, KINDS, SPLIT_GRID, SPLIT_REFINE,
                                    SPLIT_WINDOW, _lagrange_max,
                                    _state_channel, golden_max)
from relayexp.prob_core import cond_mi_from_joint
from conftest import count_solver_calls, random_relay_channel
from reference import entropy_vec, kl_div_vec


def _uniform_pdf_input(n_x1, n_x2, n_u):
    return PdfInput(Dist(np.full(n_x2, 1.0 / n_x2)),
                    CondDist(np.full((n_x2, n_u), 1.0 / n_u)),
                    CondDist(np.full((n_u * n_x2, n_x1), 1.0 / n_x1)), n_u)


def _kind_mi(kind, chan, q):
    """Mutual information of the state channel backing one exponent kind."""
    q_s, q_xs, c = _state_channel(kind, chan, q)
    joint = q_s[:, None, None] * q_xs[:, :, None] * c
    return cond_mi_from_joint(joint)


class TestGoldenMax:
    def test_quadratic(self):
        x, v = golden_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_monotone_hits_boundary(self):
        x, _ = golden_max(lambda t: t, 0.0, 1.0)
        assert x == pytest.approx(1.0, abs=1e-6)


def _golden_max_scalar(f, lo, hi):
    """Scalar golden section, the reference for the lockstep one; it stops
    at the lockstep section's bracket width, 1e-8."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-8:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


class TestGoldenMaxLockstep:
    def test_batch_matches_scalar_reference(self):
        # problems run in lockstep give each problem's scalar result
        # exactly, ties (a flat objective) included
        shifts = np.array([0.0, 0.3, 0.3 + 1e-12, 0.7, 1.0, 2.0, 0.5])
        lo = np.array([0.0, 0.0, 0.0, 0.2, 0.0, -1.0, 0.0])
        hi = np.array([1.0, 1.0, 1.0, 0.9, 1.0, 3.0, 1.0])
        flat = np.array([False] * 6 + [True])

        def f(t):
            return np.where(flat, 0.0, -(t - shifts) ** 2)

        xs, vs = golden_max(f, lo, hi)
        for i in range(len(shifts)):
            def fi(t):
                return 0.0 if flat[i] else -(t - shifts[i]) ** 2
            want = _golden_max_scalar(fi, float(lo[i]), float(hi[i]))
            assert (xs[i], vs[i]) == want
            assert golden_max(fi, lo[i], hi[i]) == want


class TestDualForm:
    def test_point_to_point_oracle(self, rng):
        # [DERIVED] with a single relay input the decoder exponent reduces
        # to the classical random-coding exponent of W(y3|x1), which we
        # evaluate here by an independent dense rho scan
        chan = random_relay_channel(rng, (2, 1, 2, 2))
        q = df_input(chan, Dist(np.array([0.5, 0.5])))
        wy3 = chan.y3_marginal()[:, 0, :]   # (x1, y3)
        rate = 0.1

        def e0(rho):
            inner = (0.5 * wy3 ** (1.0 / (1.0 + rho))).sum(axis=0)
            return -np.log2((inner ** (1.0 + rho)).sum())

        rhos = np.linspace(0.0, 1.0, 20001)
        want = max(max(e0(r) - r * rate for r in rhos), 0.0)
        got = pdf_dual_exponent("decoder_G", chan, q, rate)
        assert got.value == pytest.approx(want, abs=1e-6)

    def test_zero_above_mutual_information(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        q = _uniform_pdf_input(2, 2, 2)
        for kind in KINDS:
            mi = _kind_mi(kind, chan, q)
            assert pdf_dual_exponent(kind, chan, q, mi + 0.05).value == 0.0

    def test_exactly_zero_at_and_above_mutual_information(self):
        # E0'(0) = I(Q,W), so the exponent is 0 at every R >= I(Q,W); on
        # these channels -log2 S(0) rounds to about 1e-16, which a golden
        # section over rho would report
        for seed in (2, 7):
            chan = random_relay_channel(np.random.default_rng(seed),
                                        (3, 2, 2, 3))
            q = _uniform_pdf_input(3, 2, 2)
            for kind in KINDS:
                mi = _kind_mi(kind, chan, q)
                rates = np.array([mi, mi + 0.05, 2 * mi])
                dual = pdf_dual_exponent(kind, chan, q, rates)
                assert dual.value.tolist() == [0.0, 0.0, 0.0]
                assert not np.any(np.signbit(dual.value))
                assert dual.witness.tolist() == [0.0, 0.0, 0.0]
                assert dual.diagnostics["curve_points"] == 0
                primal = pdf_primal_exponent(kind, chan, q, rates)
                assert np.all(dual.value <= primal.value)
                assert np.array_equal(primal.diagnostics["dual"], dual.value)
                for rate in rates:
                    one = pdf_dual_exponent(kind, chan, q, float(rate))
                    assert (one.value, one.witness) == (0.0, 0.0)

    def test_positive_below_mutual_information(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        q = df_input(chan, Dist(np.array([0.3, 0.2, 0.25, 0.25])))
        for kind in ("relay_F", "decoder_G"):
            mi = _kind_mi(kind, chan, q)
            if mi > 0.02:
                assert pdf_dual_exponent(kind, chan, q, 0.5 * mi).value > 0.0

    def test_nonincreasing_in_rate(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        q = _uniform_pdf_input(2, 2, 2)
        for kind in KINDS:
            vals = [pdf_dual_exponent(kind, chan, q, r).value
                    for r in (0.0, 0.1, 0.3, 0.6, 1.0)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rate_array_matches_scalar_calls(self):
        # one batched solve over a rate array equals the per-rate solves:
        # the dual bit for bit, the primal within 1e-12; above the mutual
        # information both are exactly 0, with rho = 0 and V = chan
        for seed in range(4):
            rng = np.random.default_rng(seed)
            chan = random_relay_channel(rng, (3, 2, 2, 3))
            for q in (_uniform_pdf_input(3, 2, 2),
                      df_input(chan, Dist(rng.dirichlet(np.ones(6))))):
                for kind in KINDS:
                    mi = _kind_mi(kind, chan, q)
                    rates = np.concatenate([[0.0, mi + 0.05, 3.0],
                                            rng.uniform(0.0, 1.2 * mi, 20)])
                    batch = pdf_dual_exponent(kind, chan, q, rates)
                    primal = pdf_primal_exponent(kind, chan, q, rates)
                    for i, rate in enumerate(rates):
                        one = pdf_dual_exponent(kind, chan, q, float(rate))
                        assert batch.value[i] == one.value
                        assert batch.witness[i] == one.witness
                        one = pdf_primal_exponent(kind, chan, q, float(rate))
                        assert abs(primal.value[i] - one.value) <= 1e-12
                    assert not np.any(np.signbit(batch.value))
                    chan_s = _state_channel(kind, chan, q)[2]
                    for above in (1, 2):
                        assert batch.value[above] == 0.0
                        assert batch.witness[above] == 0.0
                        assert primal.value[above] == 0.0
                        assert np.array_equal(primal.witness[above], chan_s)

    def test_duplicate_rates_match_scalar_calls(self):
        # repeated rates and rates above I(Q,W) share probes in the
        # lockstep section; each entry must still equal its scalar call
        chan, caid = sato_channel()
        q = df_input(chan, caid)
        for kind in ("relay_F", "decoder_G"):
            mi = _kind_mi(kind, chan, q)
            rates = np.array([0.2, mi + 0.1, 0.2, 0.9 * mi, mi + 0.1, 3.0,
                              0.0, 0.9 * mi, 0.0, 3.0])
            batch = pdf_dual_exponent(kind, chan, q, rates)
            for i, rate in enumerate(rates):
                one = pdf_dual_exponent(kind, chan, q, float(rate))
                assert batch.value[i] == one.value
                assert batch.witness[i] == one.witness
            # the curve was evaluated once per distinct probe, so no more
            # often than at six distinct rates
            singles = sum(pdf_dual_exponent(kind, chan, q, float(r))
                          .diagnostics["curve_points"]
                          for r in np.unique(rates))
            assert batch.diagnostics["curve_points"] <= singles

    def test_lockstep_curve_evaluates_distinct_probes_once(self):
        chan, caid = sato_channel()
        q_s, q_xs, c = _state_channel("relay_F", chan, df_input(chan, caid))
        seen = []

        def curve(rho):
            seen.append(np.size(rho))
            return -np.log2(e0_sum(q_s, q_xs, c, rho))

        rates = np.linspace(0.0, 2.0, 400)
        value, rho, points = _lagrange_max(curve, rates)
        # 400 problems probe about 44 times each, but only about 3,400
        # distinct multipliers are evaluated
        assert points == sum(seen)
        assert points < rates.size * len(seen) / 4
        for i in range(0, rates.size, 37):
            one = _lagrange_max(curve, rates[i])
            assert (one[0], one[1]) == (value[i], rho[i])

    def test_rejects_negative_rate(self, rng):
        chan = random_relay_channel(rng)
        q = _uniform_pdf_input(2, 2, 2)
        with pytest.raises(ValueError):
            pdf_dual_exponent("relay_F", chan, q, -0.1)

    def test_rejects_unknown_kind(self, rng):
        chan = random_relay_channel(rng)
        q = _uniform_pdf_input(2, 2, 2)
        with pytest.raises(ValueError):
            pdf_dual_exponent("nope", chan, q, 0.1)

    def test_rejects_non_finite_rates(self):
        chan, caid = sato_channel()
        q = df_input(chan, caid)
        for solve in (pdf_dual_exponent, pdf_primal_exponent):
            for rate in (np.nan, np.inf, [0.1, np.nan], [[0.2], [np.inf]]):
                with pytest.raises(ValueError):
                    solve("relay_F", chan, q, rate)

    def test_empty_rate_array(self):
        chan, caid = sato_channel()
        q = df_input(chan, caid)
        for shape in ((0,), (0, 3)):
            dual = pdf_dual_exponent("relay_F", chan, q, np.zeros(shape))
            primal = pdf_primal_exponent("decoder_G", chan, q,
                                         np.zeros(shape))
            assert dual.value.shape == dual.witness.shape == shape
            assert primal.value.shape == shape
            assert primal.witness.shape[:len(shape)] == shape
            assert dual.diagnostics["curve_points"] == 0
            assert primal.diagnostics["curve_points"] == 0


def _sato_curve(kind):
    """(curve, channel size, I(Q,W)) of one Sato exponent kind."""
    chan, caid = sato_channel()
    q = df_input(chan, caid)
    q_s, q_xs, c = _state_channel(kind, chan, q)
    return (lambda rho: -np.log2(e0_sum(q_s, q_xs, c, rho)), c.size,
            _kind_mi(kind, chan, q))


_SATO_CURVES = {kind: _sato_curve(kind) for kind in ("relay_F", "decoder_G")}


def _unique_reference(curve, rates):
    """(points, evaluations) of the lockstep section of `_lagrange_max` when
    each step evaluates the curve at np.unique of its probes, which no exact
    dedupe can undercut, and when it evaluates every probe."""
    points, evals = 2, 2            # the endpoints x = 0 and 1

    def g(x):
        nonlocal points, evals
        if not np.ndim(x):
            points, evals = points + 1, evals + 1
            return curve(x) - x * rates
        u, inv = np.unique(x, return_inverse=True)
        points, evals = points + u.size, evals + x.size
        return curve(u)[inv.reshape(x.shape)] - x * rates

    golden_max(g, np.zeros(rates.shape), np.ones(rates.shape))
    return points, evals


class TestLagrangeMaxProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(_SATO_CURVES)),
           st.lists(st.one_of(st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.5]),
                              st.floats(0.0, 2.0)),
                    min_size=1, max_size=24),
           st.booleans())
    @example("relay_F", [0.7], False)
    @example("decoder_G", [1.2, 0.3, 0.3, 1.2, 0.0, 2.0], True)
    def test_matches_single_rates(self, kind, scales, two_d):
        # rates in units of I(Q,W): unsorted, repeated and above it
        curve, size, mi = _SATO_CURVES[kind]
        rates = np.array(scales) * mi
        if two_d and rates.size % 2 == 0:
            rates = rates.reshape(2, -1)
        value, x, points = _lagrange_max(curve, rates, size)
        assert value.shape == x.shape == rates.shape
        for idx in np.ndindex(rates.shape):
            one = _lagrange_max(curve, float(rates[idx]), size)
            assert (value[idx], x[idx]) == (one[0], one[1])
        least, most = _unique_reference(curve, rates)
        assert least <= points <= most


class TestPrimalForm:
    def test_dual_lower_bounds_primal(self):
        # the Gallager form never exceeds the constant-composition form
        for seed in range(6):
            rng = np.random.default_rng(seed)
            chan = random_relay_channel(rng, (2, 2, 2, 2))
            q = _uniform_pdf_input(2, 2, 2)
            for kind in KINDS:
                mi = _kind_mi(kind, chan, q)
                for rate in (0.5 * mi, mi, 1.2 * mi + 0.01):
                    dual = pdf_dual_exponent(kind, chan, q, rate).value
                    primal = pdf_primal_exponent(kind, chan, q, rate).value
                    assert dual <= primal + 1e-6

    def test_primal_zero_at_true_channel_rate(self, rng):
        # at rates above the mutual information, V = chan certifies zero
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        q = _uniform_pdf_input(2, 2, 2)
        for kind in KINDS:
            mi = _kind_mi(kind, chan, q)
            val = pdf_primal_exponent(kind, chan, q, mi + 0.05).value
            assert val == pytest.approx(0.0, abs=1e-9)

    def test_minimum_and_witness_on_seeded_channel(self):
        # an exchange descent stopped 1.06e-3 above the Gallager value at
        # this point; the value must also be the objective
        # D(V||W|Q) + |I(Q,V) - R|+ recomputed at the witness
        chan = random_relay_channel(np.random.default_rng(0), (3, 2, 2, 3))
        q = _uniform_pdf_input(3, 2, 2)
        rate = 0.5 * (10 / 9) * 0.1
        ev = pdf_primal_exponent("decoder_Gtilde", chan, q, rate)
        dual = pdf_dual_exponent("decoder_Gtilde", chan, q, rate).value
        assert dual <= ev.value <= dual + 1e-4
        assert ev.diagnostics["dual"] == dual
        q_s, q_xs, w = _state_channel("decoder_Gtilde", chan, q)
        v = ev.witness
        assert v.shape == w.shape
        assert np.all(v >= 0.0) and np.all(v[w == 0.0] == 0.0)
        assert np.allclose(v.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)
        div, mi = 0.0, 0.0
        for s in range(len(q_s)):
            mi += q_s[s] * entropy_vec(q_xs[s] @ v[s])
            for x in range(q_xs.shape[1]):
                div += q_s[s] * q_xs[s, x] * kl_div_vec(v[s, x], w[s, x])
                mi -= q_s[s] * q_xs[s, x] * entropy_vec(v[s, x])
        assert ev.value == pytest.approx(div + max(mi - rate, 0.0), abs=1e-12)

    def test_zero_weight_rows(self):
        # df_input gives Gtilde inputs of zero weight and the Sato channel
        # has zero entries; the values are those of the exchange descent
        chan, caid = sato_channel()
        q = df_input(chan, caid)
        rates = np.array([0.3, 0.6, 1.0, 1.2])
        want = {"relay_F": [0.8618772, 0.5618772, 0.1618772, 0.0],
                "decoder_G": [0.8180999, 0.5180999, 0.1180999, 0.0],
                "decoder_Gtilde": [0.0, 0.0, 0.0, 0.0]}
        with np.errstate(all="raise"):
            for kind, vals in want.items():
                ev = pdf_primal_exponent(kind, chan, q, rates)
                assert np.allclose(ev.value, vals, rtol=0.0, atol=1e-6)


class TestBlockMarkov:
    def test_r_b_formula(self, rng):
        # [TRIVIAL] R_b = b/(b-1) * r_eff
        chan = random_relay_channel(rng)
        sweep = pdf_sweep(chan, _uniform_pdf_input(2, 2, 2), [10], [0.9],
                          split_fraction=1.0)
        assert sweep.r_b[0, 0] == pytest.approx(10.0 / 9.0 * 0.9, abs=1e-15)

    def test_rejects_non_finite_rate(self, rng):
        chan = random_relay_channel(rng)
        q = _uniform_pdf_input(2, 2, 2)
        for r_eff in (np.nan, np.inf, -0.1):
            with pytest.raises(ValueError):
                pdf_sweep(chan, q, [5], r_eff)

    def test_rejects_small_b(self, rng):
        chan = random_relay_channel(rng)
        with pytest.raises(ValueError):
            pdf_sweep(chan, _uniform_pdf_input(2, 2, 2), [1], [0.5])

    def test_overall_nonnegative_and_split_reported(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        q = _uniform_pdf_input(2, 2, 2)
        sweep = pdf_sweep(chan, q, [10], [0.1], split_fraction=1.0)
        assert sweep.value[0, 0] >= 0.0
        assert sweep.split[0, 0] == 1.0
        assert set(sweep.parts()) == set(KINDS)

    def test_fixed_split_never_beats_scan(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        q = _uniform_pdf_input(2, 2, 2)
        scan = pdf_sweep(chan, q, [10], [0.05]).value[0, 0]
        fixed = pdf_sweep(chan, q, [10], [0.05], split_fraction=0.5)
        assert fixed.value[0, 0] <= scan + 1e-9

    def test_block_curve_consistent(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        q = df_input(chan, Dist(np.full(4, 0.25)))
        for split in (1.0, None):
            sweep = pdf_sweep(chan, q, range(2, 7), [0.05], "dual", split)
            assert sweep.value.shape == (5, 1)
            curve = sweep.value[:, 0]
            # the best block count attains the maximum of the curve
            assert curve[sweep.best_blocks()[0]] == curve.max()
            # every point of the batched curve is the direct evaluation
            for i, b in enumerate(range(2, 7)):
                direct = pdf_sweep(chan, q, [b], [0.05], "dual", split)
                assert curve[i] == direct.value[0, 0]

    def test_rate_sequence_matches_single_rates(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        q = df_input(chan, Dist(np.full(4, 0.25)))
        rates = [0.0, 0.05, 0.02, 0.05, 0.3, 5.0]
        for split in (1.0, None):
            many = pdf_sweep(chan, q, range(2, 10), rates, "dual", split)
            assert many.value.shape == (8, len(rates))
            best = many.best_blocks()
            for j, rate in enumerate(rates):
                one = pdf_sweep(chan, q, range(2, 10), [rate], "dual", split)
                np.testing.assert_array_equal(many.value[:, j],
                                              one.value[:, 0])
                np.testing.assert_array_equal(many.split[:, j],
                                              one.split[:, 0])
                assert best[j] == one.best_blocks()[0]

    def test_sato_block_curve_matches_single_points(self):
        chan, caid = sato_channel()
        q = df_input(chan, caid)
        rates = [1.0, 1.1, 1.2]
        stats = {}
        sweep = pdf_sweep(chan, q, range(2, 41), rates, "dual", 1.0, stats)
        # the sweep solves its cells when they are first read
        assert not stats and sweep.value.shape == (39, 3)
        assert set(stats) == {"relay_F", "decoder_G"}
        assert stats["relay_F"]["problems"] == 3 * 39
        for j, rate in enumerate(rates):
            for i in range(0, 39, 7):
                direct = pdf_sweep(chan, q, [i + 2], [rate], "dual", 1.0)
                assert sweep.value[i, j] == direct.value[0, 0]
            curve = sweep.value[:, j]
            assert curve[sweep.best_blocks()[j]] == curve.max()

    def test_sweep_validates_rate_arrays_and_split(self, rng):
        chan = random_relay_channel(rng)
        q = _uniform_pdf_input(2, 2, 2)
        for rates in ([0.1, -0.1], np.nan, [0.1, np.inf]):
            with pytest.raises(ValueError):
                pdf_sweep(chan, q, range(2, 6), rates)
        with pytest.raises(ValueError):
            pdf_sweep(chan, q, range(2, 6), 0.1, split_fraction=1.5)

    def test_batch_matches_single_configs(self, rng):
        # one sweep over the grid gives what one point at a time gives; at
        # r_eff = 5e-324 the rates of F and G round to 0 on every refined
        # split near 0, so they are active in the scan only
        chan = random_relay_channel(rng, (3, 2, 2, 3))
        q = _uniform_pdf_input(3, 2, 2)
        bs = (2, 10)
        for form, rates in (("dual", (0.0, 5e-324, 0.02, 0.1, 0.5)),
                            ("primal", (5e-324, 0.1))):
            sweep = pdf_sweep(chan, q, bs, rates, form)
            assert sweep.value.shape == sweep.split.shape == (2, len(rates))
            for (i, b), (j, r) in itertools.product(enumerate(bs),
                                                    enumerate(rates)):
                one = pdf_sweep(chan, q, [b], [r], form)
                assert sweep.value[i, j] == one.value[0, 0]
                assert sweep.split[i, j] == one.split[0, 0]
                assert sweep.r_b[i, j] == one.r_b[0, 0] == b / (b - 1) * r
                parts, one_parts = sweep.parts(), one.parts()
                on = [k for k, p in parts.items() if p[0][i, j]]
                assert on == [k for k, p in one_parts.items() if p[0][0, 0]]
                for k in on:
                    got, want = parts[k], one_parts[k]
                    assert (got[1][i, j], got[2][i, j]) \
                        == (want[1][0, 0], want[2][0, 0])
                    np.testing.assert_array_equal(got[3][i, j], want[3][0, 0])

    def test_best_blocks_keeps_first_within_tolerance(self):
        # per rate (column), the first b within 1e-15 of the max wins
        value = np.array([[0.3, 0.0, 0.1],
                          [0.3 + 4e-16, 0.0, 0.1 + 2e-15],
                          [0.2, 0.0, 0.1 + 2e-15]])
        sweep = PdfSweep(value, value, value, dict)
        assert sweep.best_blocks().tolist() == [0, 0, 1]

    def test_empty_grids(self):
        chan, caid = sato_channel()
        q = df_input(chan, caid)
        for bs, rates, best in (((), (1.0, 1.1), [0, 0]), ((2, 3), (), [])):
            sweep = pdf_sweep(chan, q, bs, rates, "dual", 1.0)
            assert sweep.value.shape == (len(bs), len(rates))
            assert sweep.best_blocks().tolist() == best

    def test_sweep_checks_every_block_count(self, rng):
        chan = random_relay_channel(rng)
        q = _uniform_pdf_input(2, 2, 2)
        with pytest.raises(ValueError):
            pdf_sweep(chan, q, [2, 5, 1], [0.1])


def _random_pdf_input(rng, n_x1, n_x2, n_u):
    """A seeded input under which all three kinds have positive I(Q,W)."""
    return PdfInput(Dist(rng.dirichlet(np.ones(n_x2))),
                    CondDist(rng.dirichlet(np.ones(n_u), size=n_x2)),
                    CondDist(rng.dirichlet(np.ones(n_x1), size=n_u * n_x2)),
                    n_u)


def _reference_sweep(chan, q, bs, r_effs, form, split):
    """(value, split, cells) of `pdf_sweep` with every active cell of every
    kind solved by a direct `pdf_dual_exponent` / `pdf_primal_exponent`
    call, one call per kind and stage; `cells` counts the solved cells."""
    solve = pdf_dual_exponent if form == "dual" else pdf_primal_exponent
    bs = np.asarray(bs, dtype=np.float64).reshape(-1, 1)
    r_b = (bs / (bs - 1) * np.asarray(r_effs, dtype=np.float64)).ravel()
    rows = np.arange(r_b.size)
    cells = 0

    def stage(splits):
        nonlocal cells
        r1, r2 = splits * r_b[:, None], (1.0 - splits) * r_b[:, None]
        mins = np.full(splits.shape, np.inf)
        for kind, rate, active in (("relay_F", r1, splits > 0.0),
                                   ("decoder_G", r1, splits > 0.0),
                                   ("decoder_Gtilde", r2, splits < 1.0)):
            value = np.zeros(splits.shape)
            value[active] = solve(kind, chan, q, rate[active]).value
            cells += int(active.sum())
            mins = np.where(active, np.minimum(mins, value), mins)
        cols = np.argmax(mins, axis=1)
        return mins[rows, cols], splits[rows, cols]

    if split is not None:
        best, at = stage(np.full((r_b.size, 1), split))
    else:
        best, at = stage(np.tile(np.linspace(0.0, 1.0, SPLIT_GRID),
                                 (r_b.size, 1)))
        fine, fine_at = stage(np.linspace(
            np.maximum(at - SPLIT_WINDOW, 0.0),
            np.minimum(at + SPLIT_WINDOW, 1.0), SPLIT_REFINE, axis=1))
        better = fine > best
        best, at = np.where(better, fine, best), np.where(better, fine_at, at)
    value = best.reshape(bs.size, -1) / bs
    return np.where(value > 0.0, value, 0.0), at.reshape(value.shape), cells


def _rates_around_mi(chan, q):
    """0 and effective rates whose per-block rates straddle each kind's
    I(Q,W) at b = 2 and 5."""
    mis = [_kind_mi(kind, chan, q) for kind in KINDS]
    rates = {0.0}
    for mi in mis:
        for b in (2, 5):
            rates.update(f * mi * (b - 1) / b for f in (0.5, 0.97, 1.0, 1.03))
    return sorted(rates)


def _sweep_configs():
    """(seed, chan, q): seeded 2x2x2x2 channels and the seed-0 3x2x2x3
    channel, each under its decode-forward input and a seeded input."""
    for seed, sizes in ((0, (2, 2, 2, 2)), (1, (2, 2, 2, 2)),
                        (2, (2, 2, 2, 2)), (0, (3, 2, 2, 3))):
        rng = np.random.default_rng(seed)
        chan = random_relay_channel(rng, sizes)
        n_x1, n_x2 = sizes[:2]
        yield seed, chan, df_input(chan, Dist(np.full(n_x1 * n_x2,
                                                      1.0 / (n_x1 * n_x2))))
        yield seed, chan, _random_pdf_input(rng, n_x1, n_x2, 2)


class TestSkippedCells:
    """A kind is not solved where another active kind is already exactly 0;
    nothing printed or returned may change."""

    def test_sweep_matches_direct_solves_bit_for_bit(self):
        skipped = 0
        for seed, chan, q in _sweep_configs():
            r_effs = _rates_around_mi(chan, q)
            runs = [("dual", r_effs, (None, 0.0, 0.3, 0.5, 1.0))]
            if seed == 0:
                # the primal costs about ten times the dual per rate
                runs.append(("primal", r_effs[::4], (None, 0.5)))
            for form, rates, splits in runs:
                for split in splits:
                    stats = {}
                    sweep = pdf_sweep(chan, q, (2, 5), rates, form, split,
                                      stats)
                    value, at, cells = _reference_sweep(chan, q, (2, 5),
                                                        rates, form, split)
                    assert np.array_equal(sweep.value, value)
                    assert np.array_equal(sweep.split, at)
                    assert not np.any(np.signbit(sweep.value))
                    skipped += cells - sum(w["problems"]
                                           for w in stats.values())
        # the sweeps solved fewer cells than the reference
        assert skipped > 0

    @pytest.mark.parametrize("form", ["dual", "primal"])
    def test_parts_are_exact_at_skipped_cells(self, form, monkeypatch):
        rng = np.random.default_rng(0)
        chan = random_relay_channel(rng, (3, 2, 2, 3))
        q = _random_pdf_input(rng, 3, 2, 2)
        assert _kind_mi("relay_F", chan, q) != _kind_mi("decoder_G", chan, q)
        solve = pdf_dual_exponent if form == "dual" else pdf_primal_exponent
        rates = _rates_around_mi(chan, q)
        # at split 0.5, R' = R_b / 2 straddles I(Q,W) at twice these rates
        rates += [2.0 * r for r in rates]
        filled = 0
        for split in (None, 0.5, 1.0):
            stats = {}
            sweep = pdf_sweep(chan, q, (2, 5), rates, form, split, stats)
            assert sweep.value.shape == (2, len(rates))  # reads every cell
            swept = {k: dict(w) for k, w in stats.items()}
            calls = count_solver_calls(monkeypatch)
            # a read solves the skipped cells of its block rows, one call
            # per kind that has any, and tallies them; a cell is solved
            # once, so reading every row after the last one solves only the
            # first, and a further read solves nothing
            last = sweep.parts([1])
            parts = sweep.parts()
            n_calls = len(calls)
            assert n_calls <= 2 * len(KINDS)
            again = sweep.parts()
            assert len(calls) == n_calls
            assert sum(calls) == (sum(w["problems"] for w in stats.values())
                                  - sum(w["problems"] for w in swept.values()))
            filled += sum(calls)
            monkeypatch.undo()
            for kind, (active, rate, value, witness) in parts.items():
                for got, rows in ((last[kind], slice(1, None)),
                                  (again[kind], slice(None))):
                    for a, b in zip(got, (active, rate, value, witness)):
                        assert np.array_equal(a, b[rows])
                direct = solve(kind, chan, q, rate[active])
                assert np.array_equal(value[active], direct.value)
                assert np.array_equal(witness[active], direct.witness)
                assert not value[~active].any()
        assert filled > 0


def _dominance_configs():
    """(name, chan, q, bs, r_effs, form, split, rows): the Sato channel,
    the seed-0 3x2x2x3 channel and seeded 2x2x2x2 channels, under the
    decode-forward input (split 1 or auto) and a pdf input (split 0.5 or
    auto), in both forms, with the block rows whose parts are read."""
    chan, caid = sato_channel()
    sato = df_input(chan, caid)
    yield "sato df", chan, sato, range(2, 41), np.linspace(1.0, 1.2, 9), \
        "dual", 1.0, [8, 30]
    yield "sato df auto", chan, sato, (2, 10), (1.0, 1.1), "dual", None, [1]
    yield "sato pdf", chan, _uniform_pdf_input(3, 2, 2), (2, 10, 50), \
        np.linspace(0.0, 0.6, 7), "dual", 0.5, [0, 2]
    yield "sato pdf primal", chan, _uniform_pdf_input(3, 2, 2), (2, 10), \
        (0.0, 0.2, 0.4), "primal", None, [1]
    for seed, sizes in ((0, (3, 2, 2, 3)), (0, (2, 2, 2, 2)),
                        (1, (2, 2, 2, 2)), (2, (2, 2, 2, 2)),
                        (3, (2, 2, 2, 2))):
        rng = np.random.default_rng(seed)
        chan = random_relay_channel(rng, sizes)
        n_x1, n_x2 = sizes[:2]
        inputs = (("df", df_input(chan, Dist(np.full(
            n_x1 * n_x2, 1.0 / (n_x1 * n_x2)))), 1.0),
                  ("pdf", _random_pdf_input(rng, n_x1, n_x2, 2), 0.5))
        for name, q, split in inputs:
            r_effs = _rates_around_mi(chan, q)
            for form, rates in (("dual", r_effs), ("primal", r_effs[::3])):
                for at in (split, None):
                    yield (f"{seed} {sizes} {name} {form} {at}", chan, q,
                           (2, 5), rates, form, at, [1])


class TestDominatedCells:
    """A kind is not solved where its certified lower end is above the min
    of the kinds solved before it; nothing returned may change."""

    def test_lower_end_is_below_both_forms(self):
        rng = np.random.default_rng(0)
        chan = random_relay_channel(rng, (3, 2, 2, 3))
        q = _random_pdf_input(rng, 3, 2, 2)
        for kind in KINDS:
            state = _state_channel(kind, chan, q)
            e0 = -np.log2(e0_sum(*state, pdf_exponents._BOUND_RHO))
            rates = np.linspace(0.0, 1.2 * _kind_mi(kind, chan, q), 13)
            low = pdf_exponents._ends(state, rates)[0]
            primal = pdf_primal_exponent(kind, chan, q, rates)
            assert np.all(low <= primal.diagnostics["dual"] + 1e-12)
            assert np.all(low <= primal.value + 1e-12)
            # each grid point is a lower end, and the search finds the best
            best = np.max(e0[:, None] - np.outer(pdf_exponents._BOUND_RHO,
                                                 rates), axis=0)
            assert np.allclose(low, best, rtol=0.0, atol=1e-15)

    def test_skip_is_exact(self, monkeypatch):
        dominated = {"dual": 0, "primal": 0}
        for name, chan, q, bs, r_effs, form, split, rows in \
                _dominance_configs():
            stats = {}
            sweep = pdf_sweep(chan, q, bs, r_effs, form, split, stats)
            parts = sweep.parts(rows)
            with monkeypatch.context() as patch:
                # with an infinite margin a kind is skipped only where the
                # min is already exactly 0
                patch.setattr(pdf_exponents, "_BOUND_MARGIN", np.inf)
                full = pdf_sweep(chan, q, bs, r_effs, form, split)
                full_parts = full.parts(rows)
            assert np.array_equal(sweep.value, full.value), name
            assert np.array_equal(sweep.split, full.split), name
            for kind in KINDS:
                for got, want in zip(parts[kind], full_parts[kind]):
                    assert np.array_equal(got, want), (name, kind)
            dominated[form] += sum(w["dominated"] for w in stats.values())
        assert dominated["dual"] > 0 and dominated["primal"] > 0


def _end_configs():
    """(name, chan, q): the Sato channel, the seed-0 3x2x2x3 channel and
    seeded 2x2x2x2 channels (seeds 0-3), each under its decode-forward
    input with a uniform joint, and a pdf input under which decoder_Gtilde
    is not 0 too."""
    chan, caid = sato_channel()
    yield "sato df", chan, df_input(chan, caid)
    yield "sato pdf", chan, _uniform_pdf_input(3, 2, 2)
    for seed, sizes in ((0, (3, 2, 2, 3)), (0, (2, 2, 2, 2)),
                        (1, (2, 2, 2, 2)), (2, (2, 2, 2, 2)),
                        (3, (2, 2, 2, 2))):
        rng = np.random.default_rng(seed)
        chan = random_relay_channel(rng, sizes)
        n = sizes[0] * sizes[1]
        yield f"{seed} {sizes} df", chan, df_input(chan, Dist(np.full(n,
                                                                     1 / n)))
        yield (f"{seed} {sizes} pdf", chan,
               _random_pdf_input(rng, sizes[0], sizes[1], 2))


@st.composite
def _block_grids(draw):
    """(value, lower, upper) of a small block-count x rate grid.  Values lie
    in chains of near-ties 4e-16 apart, so that ties within 1e-15 and
    beyond it occur; a lower end is below its value or a few ulps above
    it, and an upper end is at or above its value."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    value, lower, upper = np.empty((3,) + shape)
    for cell in np.ndindex(shape):
        base, tie, ulps, slack = draw(st.tuples(
            st.sampled_from([0.0, 0.1, 0.3]), st.integers(0, 5),
            st.integers(-1, 3), st.sampled_from([0.0, 1e-15, 0.01])))
        value[cell] = base + tie * 4e-16
        lower[cell] = (value[cell] - 0.01 if ulps < 0
                       else value[cell] + ulps * np.spacing(value[cell]))
        upper[cell] = value[cell] + slack
    return value, lower, upper


class TestCertifiedEnds:
    """`_ends` brackets each dual value, and `best_blocks` solves only the
    cells that can win yet returns what a scan of every cell returns."""

    def test_ends_bracket_every_dual_value(self):
        dense = np.linspace(0.0, 1.0, 4001)
        for name, chan, q in _end_configs():
            for kind in KINDS:
                state = _state_channel(kind, chan, q)
                mi = _kind_mi(kind, chan, q)
                rates = np.linspace(0.0, mi, 301)[:-1]
                lo, hi = pdf_exponents._ends(state, rates)
                ev = pdf_dual_exponent(kind, chan, q, rates)
                # the golden value, its rho's own E0 - rho*R, and E0 - rho*R
                # at every rho of a dense grid lie below the upper end
                curve = -np.log2(e0_sum(*state, dense))
                best = np.max(curve[:, None] - np.outer(dense, rates), axis=0)
                assert np.all(lo <= ev.value + 1e-15), (name, kind)
                assert np.all(ev.value <= hi), (name, kind)
                assert np.all(best <= hi), (name, kind)
                # the grid makes the bracket narrow, not just valid
                assert np.all(hi - lo < 1e-3), (name, kind)

    def test_lazy_best_blocks_matches_a_full_scan(self, monkeypatch):
        configs = [(chan, q, np.linspace(0.0, min(_kind_mi(k, chan, q)
                                                  for k in KINDS[:2]), 41))
                   for name, chan, q in _end_configs() if name.endswith(" df")]
        configs[0] = configs[0][:2] + (np.linspace(1.0, 1.2, 41),)
        for chan, q, rates in configs:
            full = pdf_sweep(chan, q, range(2, 201), rates, "dual", 1.0).value
            want = PdfSweep(full, full, full, dict).best_blocks()
            lazy, stats = pdf_sweep(chan, q, range(2, 201), rates, "dual",
                                    1.0), {}
            calls = count_solver_calls(monkeypatch)
            got = lazy.best_blocks(stats=stats)
            monkeypatch.undo()
            assert np.array_equal(got, want)
            cols = np.arange(rates.size)
            assert np.array_equal(lazy.at((got, cols)), full[want, cols])
            # one batch, one solver call per kind (decoder_Gtilde's empty)
            assert stats["rounds"] == 1 and len(calls) == len(KINDS)
            assert stats["solved"] < stats["cells"] == full.size

    def test_overshooting_lower_end_forces_one_second_read(self):
        # rate 0: row 1's lower end lies 2 ulp above its value 0.3, as
        # rounding can leave it, so row 0, tied at 0.3 with an upper end of
        # exactly its value, is not in the first batch; its upper end
        # reaches the read max minus 1e-15, so a second read takes it, and
        # the first b within 1e-15 of the max is row 0.  Rate 1 is decided
        # by the first batch
        value = np.array([[0.3, 0.1], [0.3, 0.5]])
        lower = value - 0.01
        lower[1, 0] = np.nextafter(np.nextafter(0.3, 1.0), 1.0)
        upper = value + [[0.0, 0.01], [0.01, 0.01]]
        reads = []

        def solve(cells, keep):
            reads.append(np.argwhere(cells).tolist())
            return value[cells], np.zeros(np.count_nonzero(cells))

        sweep = PdfSweep(value, np.zeros(value.shape), np.zeros(value.shape),
                         dict, solve, lambda: (lower, upper))
        stats = {}
        assert sweep.best_blocks(stats=stats).tolist() == [0, 1]
        assert PdfSweep(value, value, value, dict).best_blocks().tolist() \
            == [0, 1]
        assert reads == [[[1, 0], [1, 1]], [[0, 0]]]
        assert stats == {"cells": 4, "solved": 3, "rounds": 2}

    @settings(max_examples=300, deadline=None)
    @given(_block_grids(), st.integers(0, 2))
    def test_best_blocks_matches_the_full_grid_rule(self, grid, n_rows):
        value, lower, upper = grid
        reads = []

        def solve(cells, keep):
            reads.append(cells.copy())
            return value[cells], np.zeros(np.count_nonzero(cells))

        sweep = PdfSweep(value, np.zeros(value.shape), np.zeros(value.shape),
                         dict, solve, lambda: (lower, upper))
        got = sweep.best_blocks(slice(n_rows)).tolist()
        assert got == [next(i for i, v in enumerate(col)
                            if v >= max(col) - 1e-15) for col in value.T]
        # the first batch is the cells whose upper end exceeds their rate's
        # best lower end, and the block rows asked for; after it, a cell is
        # read only once its upper end reaches its rate's max read so far
        # minus 1e-15
        first = upper > lower.max(axis=0)
        first[:n_rows] = True
        read = np.zeros(value.shape, dtype=bool)
        for k, cells in enumerate(reads):
            assert not (cells & read).any()
            if k == 0 and first.any():
                assert np.array_equal(cells, first)
            else:
                best = np.where(read, value, -np.inf).max(axis=0)
                assert np.all((upper >= best - 1e-15)[cells])
            read |= cells


class TestDfInput:
    def test_u_equals_x1(self, rng):
        chan = random_relay_channel(rng, (3, 2, 2, 2))
        joint = rng.dirichlet(np.ones(6))
        q = df_input(chan, Dist(joint))
        assert q.u_size == 3
        # X1 is a deterministic copy of U for every x2
        rows = q.q_x1_given_ux2.rows.reshape(3, 2, 3)
        for u in range(3):
            for x2 in range(2):
                assert rows[u, x2, u] == pytest.approx(1.0, abs=1e-12)

    def test_marginals_match_joint(self, rng):
        chan = random_relay_channel(rng, (2, 2, 2, 2))
        joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
        q = df_input(chan, Dist(joint.reshape(-1)))
        np.testing.assert_allclose(q.q_x2.probs, joint.sum(axis=0), atol=1e-12)
        # Q(u|x2) must reproduce the joint's conditional of x1 given x2
        cond = joint / joint.sum(axis=0, keepdims=True)
        np.testing.assert_allclose(q.q_u_given_x2.rows, cond.T, atol=1e-12)
