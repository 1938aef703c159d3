"""Correctness checks on the CSVs each benchmark command writes.

Every command is one operation.  It fails when its exit code is not 0, when
its output breaks the invariant of the acceptance criterion that covers it,
or when a value moves from the one recorded for the same workload in
``reference.json`` by more than that criterion's tolerance.  The value
compared is ``value_bits`` times the row's block count ``b`` (1 for rows
without one): per-block rows hold an exponent divided by b, and the
tolerances bound exponents.  Bytes are not compared: solver changes may
move witnesses and low-order digits.
"""

import csv
import math
import os

import numpy as np

SATO_CAPACITY = 1.161878  # bits; criterion 1's anchor

OUTPUT_FILES = {
    "sato-figures": ("fig_relay.csv", "fig_decoder.csv", "fig_blocks.csv"),
    "upper": ("upper.csv",),
    "cf": ("cf.csv",),
    "cutset": ("cutset.csv",),
    "pdf": ("pdf.csv",),
    "types-verify": ("types_verify.csv",),
}

# tolerance on value_bits against the reference: 5e-3 for exponents
# (criterion 3), 0.02 for compress-forward (criterion 7), 1e-3 for the
# cutset value (criterion 1)
TOLERANCE = {"sato-figures": 5e-3, "upper": 5e-3, "pdf": 5e-3,
             "cf": 0.02, "cutset": 1e-3, "types-verify": 0.0}


def read_rows(outdir, command):
    rows = []
    for name in OUTPUT_FILES[command]:
        with open(os.path.join(outdir, name), newline="") as fh:
            for rec in csv.DictReader(fh):
                rec["file"] = name
                rec["value"] = float(rec["value_bits"])
                rows.append(rec)
    return rows


def values(rows):
    """{row key: value_bits * max(b, 1)}.  A row is keyed by file, kind,
    block count and its rank by rate within that group, so a rate that is
    itself derived from an earlier output (rand3223's upper rate) keeps its
    key."""
    groups = {}
    for rec in rows:
        # the best block count is a result, so it does not group rows
        b = "" if rec["kind"] == "df_opt_b" else rec["b"]
        groups.setdefault((rec["file"], rec["kind"], b), []).append(rec)
    out = {}
    for (name, kind, b), recs in groups.items():
        recs.sort(key=lambda rec: float(rec["r_eff"]))
        for rank, rec in enumerate(recs):
            out[f"{name}|{kind}|{b}|{rank}"] = (rec["value"]
                                                * max(int(rec["b"]), 1))
    return out


def _entropy(p):
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def cutset_value(w, joint):
    """min{I(X1X2;Y3), I(X1;Y2Y3|X2)} at a joint over X1 x X2."""
    full = joint.reshape(w.shape[0], w.shape[1])[:, :, None, None] * w
    h_x = _entropy(full.sum(axis=(2, 3)).ravel())
    i_multi = (h_x + _entropy(full.sum(axis=(0, 1, 2)))
               - _entropy(full.sum(axis=2).ravel()))
    i_relay = (h_x + _entropy(full.sum(axis=0).ravel())
               - _entropy(full.sum(axis=(0, 2, 3))) - _entropy(full.ravel()))
    return min(i_multi, i_relay)


def _sato_figures(rows, ctx):
    problems = []
    curves = {"relay_F_over_b": {}, "decoder_G_over_b": {}}
    for rec in rows:
        if rec["kind"] in curves:
            curves[rec["kind"]][(rec["b"], float(rec["r_eff"]))] = rec["value"]
    relay, decoder = curves.values()
    if not relay or relay.keys() != decoder.keys():
        problems.append("relay and decoder curves cover different points")
    above = [k for k in relay if relay[k] > decoder.get(k, math.inf) + 1e-12]
    if above:
        problems.append(f"relay curve above decoder curve at {above[:3]}")
    best = sorted((float(rec["r_eff"]), int(rec["b"])) for rec in rows
                  if rec["kind"] == "df_opt_b" and rec["value"] > 0.0)
    if any(b1 > b2 for (_, b1), (_, b2) in zip(best, best[1:])):
        problems.append(f"best_b decreases with the rate: {best}")
    return problems


def _upper(rows, ctx):
    problems = []
    pts = sorted((float(rec["r_eff"]), rec["value"], rec["witness"])
                 for rec in rows)
    vals = [v for _, v, _ in pts]
    if any(a < b - 1e-6 for a, b in zip(vals, vals[1:])):
        problems.append(f"upper bound increases with the rate: {vals}")
    for r, v, wit in pts:
        if float(wit.split("=", 1)[1]) > 1e-4:
            problems.append(f"feasibility gap {wit} at rate {r}")
        capacity = ctx.get("capacity")
        if capacity is not None and r > capacity and v > 1e-6:
            problems.append(f"bound {v} above capacity at rate {r}")
    return problems


def _cutset(rows, ctx):
    (rec,) = rows
    joint = np.array([float(t) for t in rec["witness"].split(";")])
    at_witness = cutset_value(ctx["channel"], joint / joint.sum())
    if abs(at_witness - rec["value"]) > 1e-6:
        return [f"cutset {rec['value']} is not attained at its witness "
                f"({at_witness})"]
    return []


def _types(rows, ctx):
    if len(rows) != 7 or any(rec["value"] != 1.0 for rec in rows):
        return ["a type-lemma row is not 1.0"]
    return []


INVARIANTS = {"sato-figures": _sato_figures, "upper": _upper,
              "cutset": _cutset, "types-verify": _types}


def check_command(command, rc, outdir, ctx, reference):
    """Problems found in one command's output (empty when it passed).

    `ctx` carries what the invariants need besides the CSV: the channel
    array for ``cutset`` and the capacity for ``upper``.  `reference` maps
    row keys to recorded values, or is None when none were recorded.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        rows = read_rows(outdir, command)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if not rows:
        return ["no rows"]
    bad = [rec["value"] for rec in rows
           if math.isnan(rec["value"]) or rec["value"] < 0.0]
    if bad:
        return [f"negative or NaN value_bits {bad[:3]}"]
    try:
        problems = INVARIANTS.get(command, lambda rows, ctx: [])(rows, ctx)
    except (IndexError, KeyError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
    if reference is not None:
        got = values(rows)
        if got.keys() != reference.keys():
            problems.append("rows differ from the reference rows")
        for key in got.keys() & reference.keys():
            a, b = got[key], reference[key]
            if (a != b and not abs(a - b) <= TOLERANCE[command]):
                problems.append(f"{key}: {a} vs reference {b}")
    return problems
