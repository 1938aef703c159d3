"""Numerical kernels: loop references and vector-versus-scalar calls."""

import numpy as np
import pytest

from relayexp._kernels import e0_sum


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
        def plain(qs, qxs, w, rho):
            rho = np.asarray(rho, dtype=np.float64)
            ex = (1.0 / (1.0 + rho))[..., None, None, None]
            inner = np.einsum("sx,...sxy->...sy", qxs, np.power(w, ex))
            return np.einsum("s,...sy->...", qs,
                             np.power(inner, (1.0 + rho)[..., None, None]))

        qs, qxs, _ = _random_state_channel(rng, ns=3, nx=2, ny=4)
        w = rng.choice([0.0, 0.25, 0.5, 1.0, 0.125], size=(3, 2, 4))
        w[..., 0] += 0.5
        w /= w.sum(axis=-1, keepdims=True)
        rhos = np.concatenate([[0.0, 0.5], rng.random(30)])
        np.testing.assert_array_equal(e0_sum(qs, qxs, w, rhos),
                                      plain(qs, qxs, w, rhos))
        for rho in rhos[:6]:
            assert e0_sum(qs, qxs, w, float(rho)) == float(
                plain(qs, qxs, w, float(rho)))
