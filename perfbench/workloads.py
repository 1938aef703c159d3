"""Workload inputs and command plans for the relayexp benchmark.

A workload is a fixed sequence of ``relayexp`` CLI commands plus the
channel files they read.  The channels are the test-suite fixtures, made by
copies of their generators (``random_relay_channel`` in
``tests/conftest.py`` with ``default_rng(0)``, and ``_skewed_relay_channel``
in ``tests/test_cf_exponents.py``); the benchmark does not import
``tests/``.

The inputs do not depend on the benchmark's seed.  The solvers' work is
erratic in the input: over seeds 0-7, a fresh 3x2x2x3 channel per seed
changed the primal objective evaluations of ``rand3223``'s pdf command from
18,670 to 120,079, a seeded relabelling of the fixture's symbols raised them
to 573,823, and passing the seed to the CLI alone moved ``upper-sato``'s
cutset objective evaluations from 61,821 to 90,691.  Timings taken over
different seeds would then spread far beyond the bounds in BENCHMARK.json.
"""

import json
import os

import numpy as np

#: placeholder in an argv that the child replaces with half the cutset value
#: printed by the workload's earlier ``cutset`` command
HALF_CUTSET = "{half_cutset}"


def random_relay_channel(rng, sizes):
    """Copy of the conftest generator (full support)."""
    n_x1, n_x2, n_y2, n_y3 = sizes
    w = rng.dirichlet(np.ones(n_y2 * n_y3), size=(n_x1, n_x2)).reshape(sizes)
    w = 0.95 * w + 0.05 / (n_y2 * n_y3)
    return w / w.sum(axis=(2, 3), keepdims=True)


def skewed_relay_channel():
    """Copy of the binary test channel with a low-entropy relay observation
    (its default parameters)."""
    qy2_one = 0.08
    py3 = np.array([[0.05, 0.40], [0.95, 0.60]])  # p(y3=1 | x1, y2)
    w = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            for y2 in range(2):
                qq = qy2_one if y2 == 1 else 1.0 - qy2_one
                for y3 in range(2):
                    p = py3[x1, y2] if y3 == 1 else 1 - py3[x1, y2]
                    w[x1, x2, y2, y3] = qq * p
    return w


def write_channel(w, path):
    """Write a channel in the CLI's documented file format."""
    n_x1, n_x2, n_y2, n_y3 = w.shape
    doc = {"x1_size": n_x1, "x2_size": n_x2, "y2_size": n_y2,
           "y3_size": n_y3, "w": w.tolist()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _sato_figures():
    return {}, [("sato-figures", ["sato-figures", "--preset", "sato"])]


def _upper_sato():
    return {}, [("upper", ["upper", "--preset", "sato", "--reff", "0.4:0.8:0.2",
                           "--restarts", "4"])]


def _cf_skew():
    return ({"skew.json": skewed_relay_channel()},
            [("cf", ["cf", "--channel", "skew.json", "--b", "5",
                     "--rate", "0.3", "--r2", "0.3"])])


def _rand3223():
    chan = ["--channel", "rand.json"]
    w = random_relay_channel(np.random.default_rng(0), (3, 2, 2, 3))
    return ({"rand.json": w},
            [("cutset", ["cutset"] + chan),
             ("upper", ["upper"] + chan + ["--rate", HALF_CUTSET,
                                           "--restarts", "1"]),
             ("pdf", ["pdf"] + chan + ["--form", "primal", "--u-size", "2",
                                       "--split", "0.5", "--b", "10",
                                       "--reff", "0.1:0.2:0.1"]),
             ("types-verify", ["types-verify"])])


WORKLOADS = {
    "sato-figures": _sato_figures,
    "upper-sato": _upper_sato,
    "cf-skew": _cf_skew,
    "rand3223": _rand3223,
}


def prepare(workload, workdir):
    """Write the workload's channel files into `workdir`; return its plan.

    The plan is a list of (label, argv) pairs; labels are unique within a
    workload.  Each command writes to ``out/<label>`` under `workdir`; the
    CLI keeps its default ``--seed 0``.
    """
    channels, plan = WORKLOADS[workload]()
    for name, w in channels.items():
        write_channel(w, os.path.join(workdir, name))
    return [(label, argv + ["--out", f"out/{label}"]) for label, argv in plan]
