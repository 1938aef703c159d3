"""Numerical kernels: loop references and vector-versus-scalar calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayexp._kernels import _PLAN_CACHE_SIZE, _cached_plan, _plan, e0_sum
from relayexp.pdf_exponents import _state_channel, df_input
from relayexp.relay_model import sato_channel


def _random_state_channel(rng, ns=2, nx=3, ny=3):
    qs = rng.dirichlet(np.ones(ns))
    qxs = rng.dirichlet(np.ones(nx), size=ns)
    w = rng.dirichlet(np.ones(ny), size=(ns, nx))
    return qs, qxs, w


def _e0_sum_loop(qs, qxs, w, rho):
    """Scalar-loop reference for e0_sum."""
    ns, nx, ny = w.shape
    ex = 1.0 / (1.0 + rho)
    total = 0.0
    for s in range(ns):
        for y in range(ny):
            inner = 0.0
            for x in range(nx):
                wv = w[s, x, y]
                if wv > 0.0:
                    inner += qxs[s, x] * wv ** ex
            if inner > 0.0:
                total += qs[s] * inner ** (1.0 + rho)
    return total


def _plain(qs, qxs, w, rho):
    """Reference for e0_sum: raise every entry of w, then the full (S, Y)
    array of inner sums.  w is raised flattened, because numpy raises a
    lone (1, 1, 1) entry by pow where it takes the exact square root of a
    broadcast one; e0_sum raises its distinct values in that flat layout."""
    rho = np.asarray(rho, dtype=np.float64)
    ex = (1.0 / (1.0 + rho))[..., None]
    powered = np.power(w.reshape(-1), ex).reshape(rho.shape + w.shape)
    inner = np.einsum("sx,...sxy->...sy", qxs, powered)
    return np.einsum("s,...sy->...", qs,
                     np.power(inner, (1.0 + rho)[..., None, None]))


@st.composite
def _state_channels(draw):
    """(qs, qxs, w) up to shape (6, 40, 9): entries of w from
    {0, 1, 1/2, 1/4} mixed with random ones, or a deterministic channel;
    optionally rows normalised, columns and states duplicated, and zeros
    in qs and qxs."""
    ns, nx, ny = (draw(st.integers(1, 6)), draw(st.integers(1, 40)),
                  draw(st.integers(1, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        w = np.eye(ny)[rng.integers(ny, size=(ns, nx))]
    else:
        w = rng.choice([0.0, 1.0, 0.5, 0.25], size=(ns, nx, ny))
        mixed = rng.random(w.shape) < draw(st.sampled_from([0.0, 0.2, 1.0]))
        w[mixed] = rng.random(mixed.sum())
        if draw(st.booleans()):
            sums = w.sum(axis=-1, keepdims=True)
            w = np.divide(w, sums, out=w, where=sums > 0.0)
    qxs = (rng.choice([0.0, 1.0, 0.5, 0.25], size=(ns, nx))
           if draw(st.booleans()) else rng.dirichlet(np.ones(nx), size=ns))
    qxs[rng.random(qxs.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if draw(st.booleans()):
        w = w[:, :, rng.integers(ny, size=ny)]
    if draw(st.booleans()):
        states = rng.integers(ns, size=ns)
        w, qxs = w[states], qxs[states]
    qs = rng.dirichlet(np.ones(ns))
    qs[rng.random(ns) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    return qs, np.ascontiguousarray(qxs), np.ascontiguousarray(w)


class TestE0Sum:
    def test_oracle(self, rng):
        # [DERIVED] direct evaluation of sum_s,y qs (sum_x qxs w^(1/(1+rho)))^(1+rho)
        qs, qxs, w = _random_state_channel(rng)
        for rho in (0.0, 0.3, 1.0):
            inner = (qxs[:, :, None] * w ** (1.0 / (1.0 + rho))).sum(axis=1)
            want = float((qs[:, None] * inner ** (1.0 + rho)).sum())
            assert e0_sum(qs, qxs, w, rho) == pytest.approx(want, abs=1e-12)

    def test_rho_zero_is_one(self, rng):
        # [TRIVIAL] at rho=0 the sum telescopes to 1 for any stochastic setup
        qs, qxs, w = _random_state_channel(rng)
        assert e0_sum(qs, qxs, w, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_loop_reference(self, rng):
        qs, qxs, w = _random_state_channel(rng, ns=3, nx=2, ny=4)
        for rho in (0.0, 0.17, 0.5, 1.0):
            assert e0_sum(qs, qxs, w, rho) == pytest.approx(
                _e0_sum_loop(qs, qxs, w, rho), abs=1e-12)

    def test_vector_rho_matches_scalar(self, rng):
        # one call over a rho array must equal the scalar calls bit for
        # bit, endpoints included, whatever the array's shape
        for ns, nx, ny in ((1, 6, 3), (2, 3, 3), (6, 3, 3), (3, 2, 4)):
            qs, qxs, w = _random_state_channel(rng, ns, nx, ny)
            w[0, 0, 0] = 0.0
            # 1 + rho rounds to 2 both at 1 and just below it
            rhos = np.concatenate([[0.0, 1.0, np.nextafter(1.0, 0.0), 0.5],
                                   rng.random(60)])
            want = np.array([e0_sum(qs, qxs, w, float(r)) for r in rhos])
            assert all(isinstance(e0_sum(qs, qxs, w, float(r)), float)
                       for r in rhos[:4])
            np.testing.assert_array_equal(e0_sum(qs, qxs, w, rhos), want)
            np.testing.assert_array_equal(
                e0_sum(qs, qxs, w, rhos.reshape(8, 8)), want.reshape(8, 8))

    def test_zero_channel_entries(self):
        # zero probabilities must not produce NaN at fractional exponents
        qs = np.array([1.0])
        qxs = np.array([[0.5, 0.5]])
        w = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        val = e0_sum(qs, qxs, w, 0.5)
        assert np.isfinite(val)
        # [DERIVED] both columns give (0.5)^1.5 each
        assert val == pytest.approx(2 * 0.5 ** 1.5, abs=1e-12)

    def test_repeated_entries_match_plain_power(self, rng):
        # powering only the distinct entries and gathering them must give
        # the same floats as raising every entry of w
        qs, qxs, _ = _random_state_channel(rng, ns=3, nx=2, ny=4)
        w = rng.choice([0.0, 0.25, 0.5, 1.0, 0.125], size=(3, 2, 4))
        w[..., 0] += 0.5
        w /= w.sum(axis=-1, keepdims=True)
        rhos = np.concatenate([[0.0, 0.5], rng.random(30)])
        np.testing.assert_array_equal(e0_sum(qs, qxs, w, rhos),
                                      _plain(qs, qxs, w, rhos))
        for rho in rhos[:6]:
            assert e0_sum(qs, qxs, w, float(rho)) == float(
                _plain(qs, qxs, w, float(rho)))

    @settings(max_examples=300, deadline=None)
    @given(_state_channels(),
           st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
    def test_matches_plain_power_bit_for_bit(self, channel, draws):
        # the plan (distinct values, nonzero terms, distinct columns) gives
        # the floats of raising every entry, for scalar and 2-D rho alike;
        # array entries at 1 + rho = 2 equal the scalar call at rho = 1
        qs, qxs, w = channel
        rhos = np.array([0.0, 1.0, np.nextafter(1.0, 0.0), 0.5] + draws)
        for rho in rhos:
            got = e0_sum(qs, qxs, w, float(rho))
            assert isinstance(got, float)
            assert np.array_equal(got, float(_plain(qs, qxs, w, float(rho))),
                                  equal_nan=True)
        want = np.where(1.0 + rhos == 2.0, _plain(qs, qxs, w, 1.0),
                        _plain(qs, qxs, w, rhos))
        np.testing.assert_array_equal(
            e0_sum(qs, qxs, w, rhos.reshape(3, 4)), want.reshape(3, 4))

    def test_single_column_matches_plain_power(self, rng):
        # with S = Y = 1 numpy raises the lone inner sum at rho = 1 by pow,
        # which differs from the exact square on about one sum in twenty
        for _ in range(100):
            qs, qxs, _ = _random_state_channel(rng, ns=1, nx=5, ny=1)
            w = rng.random((1, 5, 1))
            for rho in (0.0, 1.0, 0.3):
                assert e0_sum(qs, qxs, w, rho) == float(
                    _plain(qs, qxs, w, rho))

    def test_plan_follows_a_channel_changed_in_place(self, rng):
        qs, qxs, w = _random_state_channel(rng, ns=2, nx=3, ny=3)
        before = e0_sum(qs, qxs, w, 0.5)
        w[0, 1] = w[0, 1, ::-1].copy()
        after = e0_sum(qs, qxs, w, 0.5)
        assert after == float(_plain(qs, qxs, w, 0.5)) != before
        qxs[1] = qxs[1, ::-1].copy()
        assert e0_sum(qs, qxs, w, 0.5) == float(_plain(qs, qxs, w, 0.5))

    def test_plan_cache_is_bounded(self, rng):
        for _ in range(_PLAN_CACHE_SIZE + 5):
            e0_sum(*_random_state_channel(rng), 0.3)
        info = _cached_plan.cache_info()
        assert info.maxsize == _PLAN_CACHE_SIZE
        assert info.currsize == _PLAN_CACHE_SIZE

    def test_sato_plans(self):
        # the relay sees x1 noiselessly: its channel is all 0s and 1s, so
        # nothing is raised, and its six (s, y) columns are two distinct
        # nonempty ones; the destination channel has halves
        chan, caid = sato_channel()
        q = df_input(chan, caid)
        raised, *_, col_of = _plan(*_state_channel("relay_F", chan, q)[1:])
        assert raised.size == 0
        assert col_of.shape == (2, 3)
        assert sorted(set(col_of.ravel())) == [1, 2]
        raised = _plan(*_state_channel("decoder_G", chan, q)[1:])[0]
        assert raised.tolist() == [0.5]
