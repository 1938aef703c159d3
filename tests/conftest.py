"""Shared helpers for the test suite."""

import numpy as np
import pytest

from relayexp import RelayChannelSpec, pdf_exponents


def random_relay_channel(rng, sizes=(2, 2, 2, 2), full_support=True):
    """A seeded random relay channel; full support keeps divergences finite."""
    n_x1, n_x2, n_y2, n_y3 = sizes
    alpha = np.ones(n_y2 * n_y3) * (1.0 if full_support else 0.3)
    w = rng.dirichlet(alpha, size=(n_x1, n_x2)).reshape(sizes)
    if full_support:
        w = 0.95 * w + 0.05 / (n_y2 * n_y3)
        w = w / w.sum(axis=(2, 3), keepdims=True)
    return RelayChannelSpec(w)


def count_solver_calls(monkeypatch):
    """Count the calls of both pdf solvers, `gallager_dual` and
    `alternating_primal`; returns the list of the rate counts handed to
    them, one entry per call."""
    calls = []
    for name in ("gallager_dual", "alternating_primal"):
        real = getattr(pdf_exponents, name)

        def counted(q_s, q_xs, chan, rate, below=None, real=real):
            calls.append(np.size(rate))
            return real(q_s, q_xs, chan, rate, below)

        monkeypatch.setattr(pdf_exponents, name, counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(0)
