"""Command-line driver: channel files, validation, determinism, dispatch."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import relayexp
from relayexp import (cf_exponents, cutset_bound, haroutunian_upper,
                      pdf_exponents, pdf_sweep, sato_channel)
from relayexp.cli_sweeps import (COMMAND_FLAGS, CSV_HEADER, FLAGS,
                                 STATE_ENTRY_BUDGET, CliError, SweepSpec,
                                 _parse_argv, _pdf_q, _rate_points, main,
                                 parse_channel, run, write_channel,
                                 write_outputs)
from relayexp.pdf_exponents import SPLIT_GRID, df_input
from conftest import count_solver_calls, random_relay_channel
from reference import parse_reference


# a block count Python parses but no float holds
_HUGE_B = "1" + "0" * 400


def _write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _small_channel_file(tmp_path, rng, name="chan.json"):
    chan = random_relay_channel(rng, (2, 2, 2, 2))
    path = tmp_path / name
    write_channel(chan, str(path))
    return str(path), chan


class TestChannelFiles:
    def test_round_trip_sato(self, tmp_path):
        chan, _ = sato_channel()
        path = tmp_path / "sato.json"
        write_channel(chan, str(path))
        back = parse_channel(str(path))
        np.testing.assert_array_equal(back.w, chan.w)

    def test_near_stochastic_row_accepted(self, tmp_path):
        w = np.full((1, 1, 2, 2), 0.25).tolist()
        w[0][0][0][0] = 0.249999999  # row sums to 0.999999999
        doc = {"x1_size": 1, "x2_size": 1, "y2_size": 2, "y3_size": 2, "w": w}
        spec = parse_channel(_write_doc(tmp_path / "c.json", doc))
        assert spec.w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_negative_probability_rejected_with_index(self, tmp_path):
        w = np.full((1, 1, 2, 2), 0.25)
        w[0, 0, 1, 0] = -0.25
        w[0, 0, 1, 1] = 0.75
        doc = {"x1_size": 1, "x2_size": 1, "y2_size": 2, "y3_size": 2,
               "w": w.tolist()}
        with pytest.raises(CliError) as exc:
            parse_channel(_write_doc(tmp_path / "c.json", doc))
        assert exc.value.code == 3
        assert "(0, 0, 1, 0)" in str(exc.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_probability_rejected_with_index(self, tmp_path, bad):
        # json writes these as NaN and Infinity, which json.load accepts
        w = np.full((1, 2, 2, 2), 0.25)
        w[0, 1, 1, 0] = bad
        doc = {"x1_size": 1, "x2_size": 2, "y2_size": 2, "y3_size": 2,
               "w": w.tolist()}
        path = _write_doc(tmp_path / "c.json", doc)
        assert ("NaN" if bad != bad else "Infinity") in open(path).read()
        with pytest.raises(CliError) as exc:
            parse_channel(path)
        assert exc.value.code == 3
        assert "(0, 1, 1, 0)" in str(exc.value)

    def test_garbage_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CliError) as exc:
            parse_channel(str(path))
        assert exc.value.code == 2
        assert "line" in str(exc.value)

    def test_missing_field_is_parse_error(self, tmp_path):
        doc = {"x1_size": 1, "x2_size": 1, "y2_size": 2,
               "w": np.full((1, 1, 2, 2), 0.25).tolist()}
        with pytest.raises(CliError) as exc:
            parse_channel(_write_doc(tmp_path / "c.json", doc))
        assert exc.value.code == 2

    def test_wrong_shape_rejected(self, tmp_path):
        doc = {"x1_size": 2, "x2_size": 1, "y2_size": 2, "y3_size": 2,
               "w": np.full((1, 1, 2, 2), 0.25).tolist()}
        with pytest.raises(CliError) as exc:
            parse_channel(_write_doc(tmp_path / "c.json", doc))
        assert exc.value.code == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliError) as exc:
            parse_channel(str(tmp_path / "nope.json"))
        assert exc.value.code == 2

    @pytest.mark.parametrize("key,value", [
        ("x1_size", 1.9), ("x1_size", 1.0), ("y3_size", "2"),
        ("x2_size", True), ("y2_size", None)])
    def test_non_integer_size_is_parse_error(self, tmp_path, capsys, key,
                                             value):
        doc = {"x1_size": 1, "x2_size": 1, "y2_size": 2, "y3_size": 2,
               "w": np.full((1, 1, 2, 2), 0.25).tolist()}
        doc[key] = value
        path = _write_doc(tmp_path / "c.json", doc)
        with pytest.raises(CliError) as exc:
            parse_channel(path)
        assert exc.value.code == 2
        assert key in str(exc.value)
        assert main(["cutset", "--channel", path,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("leaf", ["0.25", True, None, {}])
    def test_non_number_probability_is_parse_error(self, tmp_path, capsys,
                                                   leaf):
        w = np.full((1, 1, 2, 2), 0.25).tolist()
        w[0][0][1][0] = leaf
        doc = {"x1_size": 1, "x2_size": 1, "y2_size": 2, "y3_size": 2,
               "w": w}
        path = _write_doc(tmp_path / "c.json", doc)
        with pytest.raises(CliError) as exc:
            parse_channel(path)
        assert exc.value.code == 2
        assert main(["cutset", "--channel", path,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_integer_probabilities_accepted(self, tmp_path):
        doc = {"x1_size": 1, "x2_size": 1, "y2_size": 2, "y3_size": 2,
               "w": [[[[0, 1], [0, 0]]]]}
        spec = parse_channel(_write_doc(tmp_path / "c.json", doc))
        assert spec.w.dtype == np.float64 and spec.w[0, 0, 0, 1] == 1.0

    @pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000,
                                      '{"x1_size": 1' + "0" * 5000 + "}"])
    def test_unreadable_json_is_parse_error(self, tmp_path, text):
        # nesting beyond the decoder's depth and integer literals over
        # Python's digit limit raise plain errors from json.load
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(CliError) as exc:
            parse_channel(str(path))
        assert exc.value.code == 2


class TestSpecValidation:
    def test_bad_step(self):
        with pytest.raises(CliError) as exc:
            SweepSpec("pdf", preset="sato", rate_grid=(1.0, 2.0, 0.0))
        assert exc.value.code == 3

    def test_start_above_stop(self):
        with pytest.raises(CliError) as exc:
            SweepSpec("pdf", preset="sato", rate_grid=(2.0, 1.0, 0.1))
        assert exc.value.code == 3

    def test_small_block_count(self):
        with pytest.raises(CliError) as exc:
            SweepSpec("cf", preset="sato", blocks=(1,))
        assert exc.value.code == 3

    def test_unknown_preset(self):
        with pytest.raises(CliError) as exc:
            run(SweepSpec("cutset", preset="bsc"))
        assert exc.value.code == 3

    def test_rate_points(self):
        assert _rate_points((1.0, 1.2, 0.1)) == [1.0, 1.1, 1.2]
        assert _rate_points((0.5, 0.5, 1.0)) == [0.5]


class TestCommands:
    def test_cutset_sato_value(self):
        # [PAPER] the preset capacity is 1.161878 bits
        res = run(SweepSpec("cutset", preset="sato"))
        assert len(res.rows) == 1
        assert res.rows[0][3] == "cutset"
        assert res.rows[0][4] == pytest.approx(1.161878, abs=1e-3)

    def test_df_cli_matches_library(self, tmp_path):
        # [TRIVIAL] the CLI is a thin shell over the library call
        res = run(SweepSpec("df", preset="sato", blocks=(50,), rate=1.05))
        chan, caid = sato_channel()
        sweep = pdf_sweep(chan, df_input(chan, caid), [50], [1.05], "dual",
                          1.0)
        assert res.rows[0][4] == sweep.value[0, 0]
        # every row of a pdf grid is the library value at its (b, r_eff);
        # the library reads the channel file as the CLI does, because each
        # RelayChannelSpec renormalises and the round trip moves an ulp
        path = tmp_path / "chan.json"
        write_channel(random_relay_channel(np.random.default_rng(0),
                                           (3, 2, 2, 3)), str(path))
        chan = parse_channel(str(path))
        q = _pdf_q(chan, None, 2)
        for form in ("dual", "primal"):
            res = run(SweepSpec("pdf", channel_path=str(path), blocks=(7, 2),
                                rate_grid=(0.0, 0.2, 0.1), form=form,
                                u_size=2))
            assert [row[:2] for row in res.rows] == [
                (b, r) for b in (2, 7) for r in (0.0, 0.1, 0.2)]
            for b, r_eff, r_b, _, value, split, note in res.rows:
                one = pdf_sweep(chan, q, [b], [r_eff], form)
                assert (r_b, value) == (one.r_b[0, 0], one.value[0, 0])
                assert split == f"split={one.split[0, 0]:.9g}"
                assert note == "splits:41"

    def test_upper_single_rate(self, tmp_path, rng):
        path, chan = _small_channel_file(tmp_path, rng)
        res = run(SweepSpec("upper", channel_path=path, rate=0.4, restarts=2))
        assert len(res.rows) == 1
        assert res.rows[0][3] == "ecs_upper"
        assert res.rows[0][1] == 0.4
        # the cutset brackets behind the feasibility decisions are counted
        grids = res.metadata["grids"]
        assert grids["cutset_calls"] >= 1
        assert grids["cutset_iterations"] >= grids["cutset_calls"]

    def test_rand3223_work_counts(self, tmp_path):
        # the benchmark's rand3223 channel: its cutset command, then upper
        # with one restart at half the printed value 0.155884825.  Of the 22
        # cutset decisions 5 reach the iteration cap undecided, and each of
        # the 20 level probes predicts its row bisection's path whole
        path = tmp_path / "rand.json"
        write_channel(random_relay_channel(np.random.default_rng(0),
                                           (3, 2, 2, 3)), str(path))
        res = run(SweepSpec("cutset", channel_path=str(path)))
        assert res.metadata["grids"]["cutset_bracket"]["iterations"] == 259
        assert res.rows[0][4] == pytest.approx(2 * 0.0779424125, abs=1e-9)
        res = run(SweepSpec("upper", channel_path=str(path),
                            rate=0.0779424125, restarts=1))
        grids = res.metadata["grids"]
        assert {key: grids[key] for key in (
            "cutset_calls", "cutset_iterations", "cutset_undecided",
            "level_calls", "level_resumed_steps")} == {
            "cutset_calls": 22, "cutset_iterations": 229,
            "cutset_undecided": 5, "level_calls": 20,
            "level_resumed_steps": 0}

    def test_types_verify_all_pass(self):
        res = run(SweepSpec("types-verify"))
        assert res.rows
        assert all(row[4] == 1.0 for row in res.rows)
        assert {row[3] for row in res.rows} == {"lemma1", "lemma23"}

    def test_types_verify_sidecar_records_checks(self, tmp_path):
        # [DERIVED] binary P = (k, n-k) has (k+1)(n-k+1) V; each (P, V) is
        # checked against 3 channels and against every V' on its joint
        # type, and a joint type with counts c has prod (c+1) V'
        spec = SweepSpec("types-verify", out_dir=str(tmp_path))
        write_outputs(spec, run(spec))
        meta = json.loads((tmp_path / "types_verify.meta.json").read_text())
        want = []
        for n in range(1, 5):
            pv = vp = 0
            for k in range(n + 1):
                for i in range(k + 1):
                    for j in range(n - k + 1):
                        pv += 1
                        vp += (i + 1) * (k - i + 1) * (j + 1) * (n - k - j + 1)
            want.append({"n": n, "lemma1": 3 * pv,
                         "joint_typicality": vp if n >= 2 else 0})
        assert meta["grids"]["types_checks"] == want

    def test_types_verify_output_bytes(self, tmp_path):
        # the CSV and the sidecar counts as written before the lemma cores
        # were batched per blocklength
        spec = SweepSpec("types-verify", out_dir=str(tmp_path))
        write_outputs(spec, run(spec))
        rows = [f"0,{n},{n},{kind},1,exhaustive,n:{n}"
                for n in range(1, 5) for kind in ("lemma1", "lemma23")
                if n >= 2 or kind == "lemma1"]
        assert ((tmp_path / "types_verify.csv").read_bytes()
                == "\n".join([CSV_HEADER] + rows + [""]).encode())
        meta = json.loads((tmp_path / "types_verify.meta.json").read_text())
        assert [tuple(c.values()) for c in meta["grids"]["types_checks"]] == [
            (1, 12, 0), (2, 30, 36), (3, 60, 120), (4, 105, 330)]

    def test_pdf_grid_rows_sorted(self, tmp_path, rng):
        path, _ = _small_channel_file(tmp_path, rng)
        res = run(SweepSpec("pdf", channel_path=path, blocks=(10, 5),
                            rate_grid=(0.1, 0.2, 0.1), restarts=1))
        keys = [(row[0], row[1]) for row in res.rows]
        assert keys == sorted(keys)
        assert len(res.rows) == 4


class TestRateMonotonicity:
    """From a code of rate R' > R, keeping its 2^{nR} best messages gives
    a code of rate R with no larger error, so every achievable exponent
    is nonincreasing in the rate, at R_b = 0 too."""

    @pytest.mark.parametrize("seed, sizes", [
        (None, None), (0, (3, 2, 2, 3)), (0, (2, 2, 2, 2)),
        (1, (2, 2, 2, 2)), (2, (2, 2, 2, 2)), (3, (2, 2, 2, 2))],
        ids=["sato", "rand3223", "2222s0", "2222s1", "2222s2", "2222s3"])
    def test_pdf_and_df_nonincreasing_in_rate(self, tmp_path, seed, sizes):
        if seed is None:
            where, grid = {"preset": "sato"}, (0.0, 1.2, 0.2)
        else:
            path = str(tmp_path / "chan.json")
            write_channel(random_relay_channel(np.random.default_rng(seed),
                                               sizes), path)
            where, grid = {"channel_path": path}, (0.0, 0.1, 0.02)
        blocks = (2, 5, 10)
        for command, form, u_size in (("df", "dual", None),
                                      ("pdf", "dual", None),
                                      ("pdf", "primal", 2)):
            res = run(SweepSpec(command, form=form, u_size=u_size,
                                blocks=blocks, rate_grid=grid, **where))
            for b in blocks:
                values = [row[4] for row in res.rows if row[0] == b]
                assert len(values) in (6, 7)
                assert all(hi >= lo for hi, lo in zip(values, values[1:])), (
                    command, form, b, values)


class TestAchievableBelowUpper:
    """Every achievable exponent is at most the reliability function, and
    `upper` bounds that from above, so at each rate every dual `df` and
    `pdf --u-size 2 --split auto` value is at most `upper`'s.  The rates
    are fractions of C_cs; 0.99 is the one above Sato's R0 = 1 bit, where
    its `upper` is finite."""

    @pytest.mark.parametrize("seed, sizes", [
        (None, None), (0, (3, 2, 2, 3)), (0, (2, 2, 2, 2)),
        (1, (2, 2, 2, 2)), (2, (2, 2, 2, 2)), (3, (2, 2, 2, 2)),
        (100, (2, 2, 2, 2))],
        ids=["sato", "rand3223", "2222s0", "2222s1", "2222s2", "2222s3",
             "2222s100"])
    def test_df_and_pdf_at_most_upper(self, tmp_path, seed, sizes):
        if seed is None:
            where, chan = {"preset": "sato"}, sato_channel()[0]
        else:
            chan = random_relay_channel(np.random.default_rng(seed), sizes)
            path = str(tmp_path / "chan.json")
            write_channel(chan, path)
            where = {"channel_path": path}
        ccs = cutset_bound(chan)[0]
        for rate in (0.05 * ccs, 0.35 * ccs, 0.65 * ccs, 0.99 * ccs):
            upper = run(SweepSpec("upper", rate=rate, restarts=4,
                                  **where)).rows[0][4]
            for command, u_size in (("df", None), ("pdf", 2)):
                res = run(SweepSpec(command, u_size=u_size, blocks=(2, 10, 50),
                                    rate=rate, **where))
                for row in res.rows:
                    assert row[4] <= upper, (command, rate, row, upper)


class TestDeterminism:
    def test_cutset_csv_byte_identical(self, tmp_path):
        paths = []
        for sub in ("a", "b"):
            spec = SweepSpec("cutset", preset="sato",
                             out_dir=str(tmp_path / sub))
            write_outputs(spec, run(spec))
            paths.append(tmp_path / sub / "cutset.csv")
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first.decode().splitlines()[0] == CSV_HEADER


    def test_sato_figures_bytes_match_recorded_hashes(self, tmp_path):
        # SHA-256 of the three figure CSVs as written before the rates of
        # the block sweep were batched (numpy 2.4, x86-64 Linux); batching
        # and the shared curve evaluations must leave every byte in place
        want = {
            "fig_relay.csv": "1ebce9266840628def08e2cec0171f82"
                             "fefdd28cb6db7920c8f6eac6b53e19ca",
            "fig_decoder.csv": "9b415e99ff8fc2691c454c170c44d9f7"
                               "a885d30c87688a58ddf483c2c642407a",
            "fig_blocks.csv": "520668ef4dd2c6d887d4e861edb1da9d"
                              "6a6cca6a5747282689db1d505c183061",
        }
        spec = SweepSpec("sato-figures", preset="sato", out_dir=str(tmp_path))
        write_outputs(spec, run(spec))
        got = {name: hashlib.sha256((tmp_path / name).read_bytes())
               .hexdigest() for name in want}
        assert got == want

    def test_pdf_auto_split_bytes_match_recorded_hashes(self, tmp_path):
        # SHA-256 of two split-scanning pdf CSVs as written before the three
        # pdf paths became one sweep (numpy 2.4, x86-64 Linux), and the work
        # of the first, which pins the refinement grid that the printed
        # values do not show.  decoder_Gtilde's I(Q,W) is 0 with U = X1, so
        # its curve is never evaluated and it is exactly 0 wherever it is
        # active; F and G are then solved only where Gtilde is inactive
        # (split 1), 37 of the 759 cells where they are active, and G only
        # at the 19 of them at or above its I(Q,W): at the other 18 its
        # lower end is above F's value.  The second hash was re-recorded
        # when R_b = 0 began to drop the constituents its split gives no
        # share: only its two r_eff = 0 rows moved, up from 5.1e-17 and
        # 2.6e-17 to 0.00983752792 and 0.00491876396
        chan = random_relay_channel(np.random.default_rng(0), (3, 2, 2, 3))
        write_channel(chan, str(tmp_path / "chan.json"))
        runs = {
            "07909e176a32475b3d6ca09eb75afa12"
            "77ce5e379d3c4cd0a6903eaa1c0dc806":
                SweepSpec("pdf", preset="sato", blocks=(5, 50, 10),
                          rate_grid=(0.9, 1.1, 0.05)),
            "af2fc7049108858368ad27473e152d52"
            "a8902ca056d0c795dd6e29bb2b8f2238":
                SweepSpec("pdf", channel_path=str(tmp_path / "chan.json"),
                          form="primal", u_size=2, blocks=(5, 10),
                          rate_grid=(0.0, 0.1, 0.02)),
        }
        for i, (want, spec) in enumerate(runs.items()):
            spec.out_dir = str(tmp_path / str(i))
            write_outputs(spec, run(spec))
            got = (tmp_path / str(i) / "pdf.csv").read_bytes()
            assert hashlib.sha256(got).hexdigest() == want
        meta = json.loads((tmp_path / "0" / "pdf.meta.json").read_text())
        assert meta["grids"]["exponent_work"] == {
            "relay_F": {"problems": 37, "curve_points": 666, "dominated": 0},
            "decoder_G": {"problems": 19, "curve_points": 0, "dominated": 18},
            "decoder_Gtilde": {"problems": 756, "curve_points": 0,
                               "dominated": 0},
        }

    def test_upper_and_cf_bytes_match_recorded_hashes(self, tmp_path):
        # SHA-256 of seeded-restart upper CSVs and of a cf CSV whose G1 > 0,
        # so that its whole G2 search runs, as written before the search
        # settings became plain arguments (numpy 2.4, x86-64 Linux).  They
        # pin the restart seeds and the support targets beyond the digits a
        # reader checks.  The cf value is G1/b: G2 (0.048 to 0.054 with 0 to
        # 2 exchange-walk rounds) is above G1 (0.0038), so it does not pin
        # the G2 search's value
        rand = tmp_path / "rand3223.json"
        write_channel(random_relay_channel(np.random.default_rng(0),
                                           (3, 2, 2, 3)), str(rand))
        small = tmp_path / "2222s0.json"
        write_channel(random_relay_channel(np.random.default_rng(0),
                                           (2, 2, 2, 2)), str(small))
        upper = dict(channel_path=str(rand), rate_grid=(0.02, 0.14, 0.04),
                     restarts=4)
        runs = [
            ("upper", "8c913a4d3976ea77b26c0e8ff2807049"
                      "aafe87b4182612b800d8d2986f2b5044",
             SweepSpec("upper", seed=0, **upper)),
            ("upper", "8a2c303d36c3c2e52e0994764d39baa4"
                      "d2a8f42cbc0f14477a423bbbc49210c2",
             SweepSpec("upper", seed=3, **upper)),
            ("cf", "cc081211d511f8a012b2afc43f03a8e2"
                   "dcc1a7d84ec01e8b9ef42919e5fdbac0",
             SweepSpec("cf", channel_path=str(small), blocks=(5,), rate=0.05,
                       r2=0.0)),
        ]
        for i, (name, want, spec) in enumerate(runs):
            spec.out_dir = str(tmp_path / str(i))
            write_outputs(spec, run(spec))
            got = (tmp_path / str(i) / f"{name}.csv").read_bytes()
            assert hashlib.sha256(got).hexdigest() == want, spec

    def test_pdf_and_df_never_solve_skipped_cells(self, tmp_path, capsys,
                                                  monkeypatch):
        # the seed-0 3x2x2x3 channel of the benchmark's rand3223 workload.
        # Its fixed-split pdf command has F and G at or above their I(Q,W)
        # (4.4e-16 and 0.0084) at both rates, so both values are 0 and
        # decoder_Gtilde, which evaluated its curve at 44 multipliers, is
        # solved only at the rate above its own I(Q,W).  Under df, F is
        # above its I(Q,W) at every positive rate and G is skipped there.
        # Each command makes one solver call per kind and never solves the
        # cells it skipped, which reading `PdfSweep.parts` would
        chan = random_relay_channel(np.random.default_rng(0), (3, 2, 2, 3))
        path = str(tmp_path / "chan.json")
        write_channel(chan, path)
        calls = count_solver_calls(monkeypatch)
        commands = (
            (["pdf", "--form", "primal", "--u-size", "2", "--split", "0.5"],
             "primal", 2, 0.5, (0.1, 0.2, 0.1), {
                 "relay_F": {"problems": 2, "curve_points": 0,
                             "dominated": 0},
                 "decoder_G": {"problems": 2, "curve_points": 0,
                               "dominated": 0},
                 "decoder_Gtilde": {"problems": 1, "curve_points": 0,
                                    "dominated": 0}}),
            (["df"], "dual", None, 1.0, (0.0, 0.1, 0.02), None))
        for argv, form, u_size, split, grid, want in commands:
            del calls[:]
            reff = ":".join(str(r) for r in grid)
            assert main(argv + ["--channel", path, "--b", "10", "--reff", reff,
                                "--out", str(tmp_path)]) == 0
            meta = json.loads((tmp_path / f"{argv[0]}.meta.json").read_text())
            work = meta["grids"]["exponent_work"]
            assert want is None or work == want
            assert len(calls) == 3
            assert sum(calls) == sum(w["problems"] for w in work.values())
            sweep = pdf_exponents.pdf_sweep(chan, _pdf_q(chan, None, u_size),
                                            [10], _rate_points(grid), form,
                                            split)
            del calls[:]
            assert sweep.parts() and sum(calls) > 0
        capsys.readouterr()

    def test_sato_figures_work_is_pinned(self, tmp_path, monkeypatch):
        # a timing-free guard on the figure sweep: the curve points per kind
        # and the e0_sum calls that evaluate them (88 under the element
        # budget per curve call), plus two calls per kind on the 128-point
        # rho grid, one for the certified ends of `best_blocks` and one for
        # the lower ends of the dominated skip.  Of the 8,159 cells of
        # b = 2..200, only the 2,727 whose upper end reaches their rate's
        # best lower end, or that lie in the three printed block rows, are
        # solved, in one batch: one golden section per kind (741 distinct
        # relay_F rates, 83 decoder_G ones), and decoder_G is not skipped
        # in the printed rows, so reading their parts solves nothing more
        # and no second read is needed
        real, calls = pdf_exponents.e0_sum, []
        golden, sections = pdf_exponents.golden_max, []

        def counted(*args):
            calls.append(np.size(args[-1]))
            return real(*args)

        def sectioned(f, lo, hi):
            sections.append(np.size(lo))
            return golden(f, lo, hi)

        monkeypatch.setattr(pdf_exponents, "e0_sum", counted)
        monkeypatch.setattr(pdf_exponents, "golden_max", sectioned)
        spec = SweepSpec("sato-figures", preset="sato", out_dir=str(tmp_path))
        write_outputs(spec, run(spec))
        meta = json.loads((tmp_path / "sato_figures.meta.json").read_text())
        assert meta["grids"]["exponent_work"] == {
            "relay_F": {"problems": 2727, "curve_points": 18558,
                        "dominated": 0},
            "decoder_G": {"problems": 2065, "curve_points": 1794,
                          "dominated": 662},
        }
        assert meta["grids"]["best_blocks"] == {
            "cells": 8159, "solved": 2727, "rounds": 1}
        assert sections == [741, 83]
        assert sum(calls) == 18558 + 1794 + 4 * 128
        assert len(calls) <= 100

    def test_sidecar_records_exponent_work(self, tmp_path):
        spec = SweepSpec("df", preset="sato", blocks=(10, 50),
                         rate_grid=(1.0, 1.1, 0.05), out_dir=str(tmp_path))
        write_outputs(spec, run(spec))
        meta = json.loads((tmp_path / "df.meta.json").read_text())
        work = meta["grids"]["exponent_work"]
        assert set(work) == {"relay_F", "decoder_G"}
        # G is at or above its I(Q,W) at 2 of the 6 points, and its lower
        # end is above F's value at the other 4
        assert work == {
            "relay_F": {"problems": 6, "curve_points": 153, "dominated": 0},
            "decoder_G": {"problems": 2, "curve_points": 0, "dominated": 4}}


class TestMain:
    @pytest.mark.parametrize("flags, named", [
        (["--preset", "sato", "--channel", "@chan"], "--channel"),
        (["--preset", "sato", "--b", "10"], "--b"),
        (["--preset", "sato", "--reff", "1.0:1.1:0.05"], "--reff"),
        (["--preset", "sato", "--rate", "1.0"], "--rate"),
        (["--preset", "sato", "--r2", "0.1"], "--r2"),
        (["--preset", "sato", "--form", "primal"], "--form"),
        (["--preset", "sato", "--split", "0.5"], "--split"),
        (["--preset", "sato", "--u-size", "2"], "--u-size"),
        (["--preset", "sato", "--seed", "3"], "--seed"),
        (["--preset", "sato", "--restarts", "2"], "--restarts"),
        (["--channel", "@chan"], "--preset sato"),
        (["--preset", "nope"], "--preset sato"),
        ([], "--preset sato"),
    ])
    def test_sato_figures_rejects_flags_it_does_not_read(self, tmp_path,
                                                         capsys, flags,
                                                         named):
        # the figures are Sato's whatever else is given, so any other input
        # exits 3 before any work, naming the flag, and writes nothing
        chan = str(tmp_path / "chan.json")
        write_channel(random_relay_channel(np.random.default_rng(0),
                                           (2, 2, 2, 2)), chan)
        argv = [chan if f == "@chan" else f for f in flags]
        out = tmp_path / "out"
        assert main(["sato-figures", *argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: sato-figures") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["pdf", "--channel", "@missing", "--r2", "0.1"], "--r2"),
        (["df", "--preset", "sato", "--b", "10", "--reff", "1.05",
          "--split", "0.3", "--u-size", "2"], "--split"),
        (["df", "--preset", "sato", "--b", "10", "--reff", "1.0",
          "--rate", "1.1"], "--rate"),
        (["cf", "--channel", "@missing", "--form", "primal"], "--form"),
        (["cutset", "--preset", "sato", "--channel", "@missing"],
         "--channel"),
        (["upper", "--channel", "@missing", "--u-size", "2"], "--u-size"),
        (["types-verify", "--channel", "@missing", "--b", "5",
          "--form", "primal"], "--channel"),
    ])
    def test_flag_a_command_does_not_read_exits_3(self, tmp_path, capsys,
                                                  argv, named):
        # a flag the command would ignore, or one that conflicts with
        # another, is refused before any channel is read: the missing
        # channel file would exit 2
        paths = {"@missing": str(tmp_path / "none.json")}
        out = tmp_path / "out"
        argv = [paths.get(tok, tok) for tok in argv]
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv[0]} ") and named in err
        assert err.count("error:") == 1 and not out.exists()

    def test_flags_at_their_defaults_are_accepted(self, tmp_path, capsys):
        assert main(["cutset", "--preset", "sato", "--form", "dual",
                     "--split", "auto", "--r2", "0.3", "--seed", "0",
                     "--out", str(tmp_path)]) == 0

    def test_success_exit_code(self, tmp_path, capsys):
        code = main(["cutset", "--preset", "sato", "--out", str(tmp_path)])
        assert code == 0
        assert "cutset" in capsys.readouterr().out

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["cutset", "--channel", str(bad), "--out", str(tmp_path)])
        assert code == 2

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        code = main(["cutset", "--preset", "nope", "--out", str(tmp_path)])
        assert code == 3

    def test_bad_block_list_exit_code(self, tmp_path, capsys):
        code = main(["df", "--preset", "sato", "--b", "ten",
                     "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        # empty values, which exited 0 at b = 10 when --b and --reff read
        # them as absent
        ["df", "--preset", "sato", "--b=", "--out", "@out"],
        ["df", "--preset", "sato", "--reff=", "--out", "@out"],
        ["df", "--preset", "sato", "--b", "", "--out", "@out"],
        ["cutset", "--preset=", "--out", "@out"],
        # flag names match exactly: no abbreviation of --restarts
        ["upper", "--preset", "sato", "--res", "2", "--out", "@out"],
        # a token starting with -- is a flag, never a value
        ["cutset", "--preset", "sato", "--out", "--rate", "1"],
        ["cutset", "--preset", "sato", "--out"],
        ["--preset", "sato", "cutset", "--out", "@out"],
        ["cutset", "--preset", "sato", "stray", "--out", "@out"],
        [],
        ["relay", "--out", "@out"],
        ["df", "--preset", "sato", "--form", "exact", "--out", "@out"],
        ["df", "--preset", "sato", "--reff", "0:1", "--out", "@out"],
    ])
    def test_malformed_command_line_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main([str(out) if tok == "@out" else tok for tok in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["-h"], ["--help"],
                                      ["cutset", "--preset", "sato", "-h"]])
    def test_help_exits_0(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert "Flags each command reads" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_help_names_every_command_and_flag(self):
        out = _fresh_python(["-m", "relayexp.cli_sweeps", "--help"])
        assert out.returncode == 0
        assert set(COMMAND_FLAGS) | set(FLAGS) <= set(out.stdout.split())

    def test_cli_imports_no_argparse(self, tmp_path):
        # the command line is parsed from the flag table; argparse's first
        # use in a process (import locale, a gettext catalog lookup per
        # help string) took longer than the cf-skew benchmark command
        code = ("import sys\n"
                "from relayexp.cli_sweeps import main\n"
                "code = main(['cutset', '--preset', 'sato', '--out',\n"
                "             sys.argv[1]])\n"
                "print(sorted({'argparse', 'gettext', 'locale'}\n"
                "             & set(sys.modules)), code)\n")
        out = _fresh_python(["-c", code, str(tmp_path)])
        assert out.returncode == 0
        assert out.stdout.splitlines()[-1] == "[] 0"

    @pytest.mark.parametrize("flags", [
        ["df", "--preset", "sato", "--u-size", "0"],
        ["pdf", "--preset", "sato", "--u-size", "0"],
        ["df", "--preset", "sato", "--rate", "-1"],
        ["df", "--preset", "sato", "--rate", "nan"],
        ["cutset", "--preset", "sato", "--restarts", "0"],
        ["upper", "--preset", "sato", "--restarts", "0"],
        ["df", "--preset", "sato", "--reff=-0.1:0.2:0.1"],
        ["cf", "--preset", "sato", "--r2", "-1"],
        ["cf", "--preset", "sato", "--r2", "nan"],
        ["pdf", "--preset", "sato", "--split", "2"],
        ["pdf", "--preset", "sato", "--split", "nan"],
        ["cutset", "--preset", "sato", "--seed", "-1"],
        ["pdf", "--preset", "sato", "--b", _HUGE_B, "--rate", "1.05"],
        ["cf", "--preset", "sato", "--b", _HUGE_B, "--rate", "1.05"],
    ])
    def test_bad_flag_value_exit_code(self, tmp_path, capsys, flags):
        code = main(flags + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("error:") == 1
        assert err.startswith("error:") and "Traceback" not in err

    def test_cf_over_budget_exits_4(self, tmp_path, capsys):
        # at R2 = 0 Sato's G1 is positive, so the G2 search is needed; it is
        # sized before it starts and refused
        start = time.perf_counter()
        code = main(["cf", "--preset", "sato", "--r2", "0",
                     "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 4
        assert elapsed < 5.0
        assert err.startswith("error:") and "budget" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_cf_sato_default_r2_skips_g2(self, tmp_path, capsys):
        # at the default R2 Sato's G1 is 0, which settles the value without
        # the over-budget G2 search
        start = time.perf_counter()
        code = main(["cf", "--preset", "sato", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 5.0
        assert "Traceback" not in capsys.readouterr().err
        lines = (tmp_path / "cf.csv").read_text().splitlines()
        assert lines[1].split(",")[4] == "0"
        meta = json.loads((tmp_path / "cf.meta.json").read_text())
        assert meta["grids"]["cf_g2"] == [
            {"b": 10, "r_eff": 0.0, "g1": 0.0, "g2_skipped": True,
             "grid_note": None, "v_grid_points": None}]

    def test_zero_above_mutual_information_prints_zero(self, tmp_path,
                                                       monkeypatch):
        # R2 = 1 is above this channel's I(X2;Y3), so G1 is exactly 0 and
        # no G2 search runs (a G1 of 1.6e-16 from -log2 S(0) would start
        # one and print 3.2e-17)
        def refuse(*args, **kwargs):
            raise AssertionError("cf_G2 called although G1 = 0")

        monkeypatch.setattr(cf_exponents, "cf_G2", refuse)
        chan = random_relay_channel(np.random.default_rng(1), (2, 2, 2, 2))
        path = tmp_path / "cf.json"
        write_channel(chan, str(path))
        out = tmp_path / "cf"
        assert main(["cf", "--b", "5", "--rate", "0.05", "--r2", "1.0",
                     "--channel", str(path), "--out", str(out)]) == 0
        rows = (out / "cf.csv").read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["0"] * len(rows)
        meta = json.loads((tmp_path / "cf" / "cf.meta.json").read_text())
        assert meta["grids"]["cf_g2"] == [
            {"b": 5, "r_eff": 0.05, "g1": 0.0, "g2_skipped": True,
             "grid_note": None, "v_grid_points": None}]

    def test_cutset_5x5_input_pair_certified(self, tmp_path, capsys):
        # a 5x5 input pair is certified within the time limit
        chan = random_relay_channel(np.random.default_rng(5), (5, 5, 3, 3))
        path = tmp_path / "big.json"
        write_channel(chan, str(path))
        start = time.perf_counter()
        code = main(["cutset", "--channel", str(path),
                     "--out", str(tmp_path / "out")])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 5.0
        assert "Traceback" not in capsys.readouterr().err
        meta = json.loads((tmp_path / "out" / "cutset.meta.json").read_text())
        bracket = meta["grids"]["cutset_bracket"]
        assert bracket["lo"] <= bracket["hi"] <= bracket["lo"] + 1e-6
        assert bracket["lo"] == pytest.approx(0.270405, abs=1e-6)
        row = (tmp_path / "out" / "cutset.csv").read_text().splitlines()[1]
        value, note = row.split(",")[4], row.split(",")[6]
        assert float(value) == pytest.approx(bracket["lo"], abs=1e-9)
        assert note.startswith("gap:")
        assert float(note[4:]) == pytest.approx(
            bracket["hi"] - bracket["lo"], rel=1e-6)

    def test_rate_grid_over_budget_exits_4(self, tmp_path, capsys):
        # the points are counted, not built, and the count is printed short
        for command, grid in (("upper", "0:1e9:1e-9"),    # 10^18 points
                              ("df", "0:1e308:1e-10"),    # overflows to inf
                              ("pdf", "0:1:1e-300")):     # a 301-digit count
            start = time.perf_counter()
            code = main([command, "--preset", "sato", "--reff", grid,
                         "--out", str(tmp_path / "out")])
            elapsed = time.perf_counter() - start
            err = capsys.readouterr().err
            assert code == 4
            assert elapsed < 5.0
            assert err.count("error:") == 1
            assert err.startswith("error:") and "budget" in err
            assert "Traceback" not in err
            assert len(err) < 100

    @pytest.mark.parametrize("flags,count", [
        # 99,001 rates below the cutset value 0.1559, 16 restarts each
        (["--reff", "0.001:0.1:0.000001"], "33462338 cutset decisions"),
        # one rate, 100,000 restarts
        (["--rate", "0.0779424125", "--restarts", "100000"],
         "2100002 cutset decisions")])
    def test_upper_work_over_budget_exits_4(self, tmp_path, capsys,
                                            monkeypatch, flags, count):
        # the rates that can run restarts are counted once R0 and W's own
        # feasibility are known, and no restart draws its target
        path = tmp_path / "rand.json"
        write_channel(random_relay_channel(np.random.default_rng(0),
                                           (3, 2, 2, 3)), str(path))
        monkeypatch.setattr(haroutunian_upper, "_support_target", None)
        start = time.perf_counter()
        code = main(["upper", "--channel", str(path), *flags, "--out",
                     str(tmp_path / "out")])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 4
        assert elapsed < 1.0
        assert err.count("error:") == 1 and "Traceback" not in err
        assert count in err and "over the budget of 1e+08" in err

    @pytest.mark.parametrize("flags", [
        # 2 block counts x 50,001 rates; at 5,000,100 points x 41 splits the
        # split grid alone would take 1.5 GiB
        ["df", "--b", "2,3", "--reff", "0:1:0.00002"],
        ["cf", "--b", "2,3", "--reff", "0:1:0.00002"],
        # a state channel of 1.8e10 entries
        ["pdf", "--u-size", "1000000000"]])
    def test_sweep_over_budget_exits_4_at_once(self, tmp_path, capsys,
                                               flags):
        start = time.perf_counter()
        code = main(flags + ["--preset", "sato", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 4
        assert elapsed < 5.0
        assert err.startswith("error:") and "budget" in err
        assert "100002 points" in err or "|U| = 1000000000 times 18" in err
        assert not list(tmp_path.iterdir())

    def test_primal_split_scan_over_budget_exits_4(self, tmp_path, capsys):
        # 4,004 (b, r_eff) points x 41 splits x 36 dummy-channel entries
        # would be held at once; the count is checked before any solve
        chan = random_relay_channel(np.random.default_rng(0), (3, 2, 2, 3))
        path = tmp_path / "chan.json"
        write_channel(chan, str(path))
        flags = ["pdf", "--channel", str(path), "--form", "primal",
                 "--u-size", "2", "--split", "auto", "--b", "2,3,4,5"]
        tracemalloc.start()
        try:
            code = main(flags + ["--reff", "0:1:0.001",
                                 "--out", str(tmp_path / "big")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 4
        assert 4004 * SPLIT_GRID * 36 > STATE_ENTRY_BUDGET
        assert err.startswith("error:") and "budget" in err
        assert "164164 dummy channels of 36 entries" in err
        assert peak < 2**20
        assert not (tmp_path / "big").exists()
        # 404 points x 41 x 36 entries are within the budget and run
        assert main(flags + ["--reff", "0:1:0.01",
                             "--out", str(tmp_path / "ok")]) == 0
        rows = (tmp_path / "ok" / "pdf.csv").read_text().splitlines()
        assert len(rows) == 1 + 404

    @pytest.mark.parametrize("command", ["cutset", "types-verify"])
    def test_unwritable_out_exits_3(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "out")
        # types-verify reads no channel, so it takes no --preset
        source = ["--preset", "sato"] if command == "cutset" else []
        code = main([command, *source, "--out", out])
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"error: cannot write output to {out}: Not a directory\n"

    def test_cf_alphabet_over_limit_exits_3(self, tmp_path, capsys):
        chan = random_relay_channel(np.random.default_rng(0), (4, 2, 2, 2))
        path = tmp_path / "wide.json"
        write_channel(chan, str(path))
        code = main(["cf", "--channel", str(path), "--rate", "0.1",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("error:") == 1
        assert err.startswith("error:") and "alphabets" in err
        assert "Traceback" not in err

    def test_cf_sidecar_records_g2_grids(self, tmp_path, rng):
        # at R2 = 0 this channel's G1 is positive, so the G2 search runs
        path, _ = _small_channel_file(tmp_path, rng)
        spec = SweepSpec("cf", channel_path=path, blocks=(5,), rate=0.3,
                         r2=0.0, out_dir=str(tmp_path / "out"))
        result = run(spec)
        write_outputs(spec, result)
        assert [row[6] for row in result.rows] == ["grid:coarse"]
        meta = json.loads((tmp_path / "out" / "cf.meta.json").read_text())
        assert meta["grids"]["cf_g2"] == [
            {"b": 5, "r_eff": 0.3, "g1": pytest.approx(0.0037615, abs=1e-7),
             "g2_skipped": False, "grid_note": "qy2:5,test:3,qtilde:3,v:3",
             "v_grid_points": 3}]

    def test_non_finite_channel_exit_code(self, tmp_path, capsys):
        w = np.full((1, 1, 2, 2), 0.25).tolist()
        w[0][0][1][1] = float("nan")
        doc = {"x1_size": 1, "x2_size": 1, "y2_size": 2, "y3_size": 2, "w": w}
        code = main(["cutset", "--channel", _write_doc(tmp_path / "n.json", doc),
                     "--out", str(tmp_path)])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err


def _fresh_python(args):
    """Run `python args` in a fresh interpreter that imports relayexp from
    this checkout."""
    src = str(Path(relayexp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


_SIZE_KEYS = ("x1_size", "x2_size", "y2_size", "y3_size")


def _leaf_paths(w, prefix=()):
    if not isinstance(w, list):
        return [prefix]
    return [p for i, sub in enumerate(w)
            for p in _leaf_paths(sub, prefix + (i,))]


def _set_at(w, path, value):
    for i in path[:-1]:
        w = w[i]
    w[path[-1]] = value


@st.composite
def _malformed_channel_doc(draw):
    """A valid channel document with exactly one defect drawn into it."""
    sizes = [draw(st.integers(1, 3)) for _ in _SIZE_KEYS]
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.random.default_rng(seed).dirichlet(
        np.ones(sizes[2] * sizes[3]), size=sizes[:2])
    doc = dict(zip(_SIZE_KEYS, sizes), w=rows.reshape(sizes).tolist())
    leaves = _leaf_paths(doc["w"])
    defect = draw(st.sampled_from(["missing_key", "wrong_size", "ragged",
                                   "negative", "non_numeric", "row_sum",
                                   "not_object"]))
    if defect == "missing_key":
        del doc[draw(st.sampled_from(_SIZE_KEYS + ("w",)))]
    elif defect == "wrong_size":
        key = draw(st.sampled_from(_SIZE_KEYS))
        doc[key] = draw(st.one_of(
            st.integers(-3, 10).filter(lambda n: n != doc[key]),
            st.none(), st.text("abc"), st.lists(st.integers(1, 3)),
            st.sampled_from([float("inf"), float("-inf"), float("nan")])))
    elif defect == "ragged":
        path = draw(st.sampled_from(leaves))[:draw(st.integers(1, 4))]
        node = doc["w"]
        for i in path[:-1]:
            node = node[i]
        if draw(st.booleans()):
            node.append(node[path[-1]])
        else:
            del node[path[-1]]
    elif defect == "negative":
        _set_at(doc["w"], draw(st.sampled_from(leaves)),
                draw(st.floats(-10.0, -1e-6)))
    elif defect == "non_numeric":
        _set_at(doc["w"], draw(st.sampled_from(leaves)),
                draw(st.one_of(st.none(), st.text("xyz"), st.just({}),
                               st.just([0.5]))))
    elif defect == "row_sum":
        x1 = draw(st.integers(0, sizes[0] - 1))
        x2 = draw(st.integers(0, sizes[1] - 1))
        scale = draw(st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 10.0)))
        doc["w"][x1][x2] = (np.asarray(doc["w"][x1][x2]) * scale).tolist()
    else:
        doc = draw(st.one_of(st.just(doc["w"]), st.integers(), st.text("abc"),
                             st.none()))
    return doc


class TestMalformedChannelFiles:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_malformed_channel_doc())
    def test_malformed_document_exits_2_or_3(self, tmp_path, capsys, doc):
        path = _write_doc(tmp_path / "chan.json", doc)
        code = main(["cutset", "--channel", path,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (2, 3)
        assert err.startswith("error:") and "Traceback" not in err


_COMMANDS = ("pdf", "df", "cf", "cutset", "upper", "types-verify",
             "sato-figures")
_EDGE = ("nan", "inf", "-inf", "-1", "0", "1e308", "", "x")
# (flag, values a run accepts, edge values); valid grids have <= 3 points
_FLAGS = (("--b", ("2", "2,3", "5"), _EDGE + ("1", "2,,3", _HUGE_B)),
          ("--reff", ("0.1:0.3:0.1", "0:1:0.5", "0.2"),
           _EDGE + ("0:1e308:1e-10", "0:1:1e-300", "0:1e9:1e-9", "1:0:0.1",
                    "0:1", "a:b", "0:1:0", "::")),
          ("--rate", ("0", "0.3", "1"), _EDGE),
          ("--r2", ("0", "0.3", "1"), _EDGE),
          ("--split", ("auto", "0.5", "1"), _EDGE + ("2",)),
          ("--u-size", ("1", "2"), _EDGE + ("1000000000",)),
          ("--seed", ("0", "3"), _EDGE),
          ("--restarts", ("1", "2"), _EDGE),
          ("--form", ("primal", "dual"), ("x", "")))
# the Sato preset runs every command in well under a second; the channel
# files are placeholders the test replaces by paths under its tmp_path
_SOURCES = (("--preset", "sato"), (), ("--preset", "nope"),
            ("--channel", "@missing"), ("--channel", "@garbage"))


@st.composite
def _argv(draw):
    """A command line: one command, a channel source, each option absent,
    valid or an edge value, and a writable or an unwritable --out."""
    argv = [draw(st.sampled_from(_COMMANDS))]
    argv += draw(st.sampled_from(_SOURCES))
    for flag, valid, edge in _FLAGS:
        kind = draw(st.sampled_from(("absent", "absent", "valid", "edge")))
        if kind != "absent":
            value = draw(st.sampled_from(valid if kind == "valid" else edge))
            argv.append(f"{flag}={value}")
    return argv + ["--out", draw(st.sampled_from(["@out", "@blocked"]))]


class TestArgumentFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_argv())
    @example(argv=["df", "--preset", "sato", "--reff=0:1e308:1e-10",
                   "--out", "@out"])
    @example(argv=["types-verify", "--out", "@blocked"])
    @example(argv=["pdf", "--preset", "sato", f"--b={_HUGE_B}", "--rate=1.05",
                   "--out", "@out"])
    def test_exit_code_without_traceback(self, tmp_path, capsys, argv):
        (tmp_path / "garbage.json").write_text("{broken")
        paths = {"@missing": str(tmp_path / "none.json"),
                 "@garbage": str(tmp_path / "garbage.json"),
                 "@out": str(tmp_path / "out"),
                 "@blocked": str(tmp_path / "garbage.json" / "out")}
        code = main([paths.get(tok, tok) for tok in argv])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in capsys.readouterr().err


def _space_separated(argv):
    """`argv` with each --flag=value token split into --flag value."""
    return [part for tok in argv
            for part in (tok.split("=", 1) if tok.startswith("--") else [tok])]


def _known_divergence(argv):
    """Whether `argv` holds an empty --b or --reff value, which the
    argparse front end read as absent, or a prefix of a flag name, which it
    expanded; the flag table refuses both with exit 2."""
    names = [tok.partition("=")[0] for tok in argv if tok.startswith("--")]
    return "--b=" in argv or "--reff=" in argv or any(
        name not in FLAGS and any(flag.startswith(name) for flag in FLAGS)
        for name in names)


class TestReferenceParser:
    @settings(max_examples=300, deadline=None)
    @given(argv=_argv(), spaced=st.booleans())
    @example(argv=["df", "--preset", "sato", "--b=", "--reff=", "--out",
                   "@out"], spaced=False)
    @example(argv=["upper", "--preset", "sato", "--res=2", "--out", "@out"],
             spaced=True)
    @example(argv=["df", "--preset", "sato", "--rate=-inf", "--out", "@out"],
             spaced=True)
    def test_builds_the_reference_spec(self, argv, spaced):
        # where argparse built a spec the flag table builds an equal one,
        # and where it refused the flag table refuses too
        divergent = _known_divergence(argv)
        if spaced:
            argv = _space_separated(argv)
        try:
            expected = parse_reference(argv)
        except (SystemExit, CliError):
            expected = None
        try:
            spec = _parse_argv(argv)
        except CliError as exc:
            assert exc.code in ((2,) if divergent else (2, 3))
            spec = None
        if divergent:
            assert spec is None
        else:
            assert spec == expected
