"""Command-line driver: channel ingestion, presets, sweeps and CSV output.

Usage: relayexp COMMAND [--flag VALUE | --flag=VALUE]..., or relayexp --help

Commands
--------
pdf           partial-decode-forward exponent over a (b, r_eff) grid
df            decode-forward specialization (U = X1, full split)
cf            compress-forward exponent over a (b, r_eff) grid
cutset        certified bracket on the cutset value of the channel
upper         dummy-channel upper bound over a rate grid
types-verify  small-blocklength method-of-types verification sweep
sato-figures  the Sato-channel exponent curves and best-block-count data

The command comes first.  Flag names match exactly, a repeated flag's last
value wins, and a token starting with -- is never a value.  --b takes
comma-separated block counts, --reff start:stop:step or one rate in bits.

Channel files are JSON documents with fields x1_size, x2_size, y2_size,
y3_size and w, a 4-dimensional array indexed [x1][x2][y2][y3].

Exit codes: 0 success, 2 parse failure (of the command line or a channel
file), 3 validation failure, 4 budget exceeded.  Output CSVs are
byte-identical across repeated runs with the same flags; wall time lives
only in the metadata sidecar.
"""

import gc
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cf_exponents import _check_scale, cf_G1, cf_overall_witness
from .haroutunian_upper import ecs_upper_sweep
from .pdf_exponents import SPLIT_GRID, df_input, pdf_sweep
from .prob_core import CondDist, Dist
from .relay_model import (CfInput, PdfInput, RelayChannelSpec, cutset_bound,
                          sato_channel)
from .types_toolkit import (EnumBudgetError, TypeN, enum_cond_types,
                            enum_types, joint_typicality_batch, lemma1_batch)

CSV_HEADER = "b,r_eff,r_b,kind,value_bits,witness,grid_note"
#: points a --reff grid, or the (b, r_eff) grid of pdf, df and cf, may hold;
#: larger grids exit 4 before any work
RATE_POINT_BUDGET = 10**5
#: entries the largest pdf state channel may hold (Sato with --u-size
#: 100000 has 1.8e6), and the dummy channels of one primal split stage
#: ((b, r_eff) points x splits x those entries); larger inputs exit 4
#: before any array is built
STATE_ENTRY_BUDGET = 4 * 10**6
#: the flags each command reads; a command line that gives any other flag a
#: value other than its default exits 3, as do --preset with --channel and
#: --rate with --reff, and sato-figures without --preset sato
COMMAND_FLAGS = {
    "pdf": "--preset --channel --b --reff --rate --form --split --u-size --out",
    "df": "--preset --channel --b --reff --rate --form --out",
    "cf": "--preset --channel --b --reff --rate --r2 --out",
    "cutset": "--preset --channel --out",
    "upper": "--preset --channel --reff --rate --seed --restarts --out",
    "types-verify": "--out",
    "sato-figures": "--preset --out",
}


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


@dataclass
class SweepSpec:
    command: str
    preset: str = None
    channel_path: str = None
    rate_grid: tuple = None        # (start, stop, step)
    blocks: tuple = ()
    form: str = "dual"
    split: object = "auto"         # float or "auto"
    u_size: int = None
    rate: float = None
    r2: float = 0.3
    out_dir: str = "."
    seed: int = 0
    restarts: int = None

    def __post_init__(self):
        if self.rate_grid is not None:
            start, stop, step = self.rate_grid
            if step <= 0 or start > stop:
                raise CliError(3, "rate grid requires step > 0 and start <= stop")
            if start < 0 or not all(map(math.isfinite, self.rate_grid)):
                raise CliError(3, "rate grid must be finite and nonnegative")
        if any(b < 2 for b in self.blocks):
            raise CliError(3, "all block counts must be >= 2")
        try:
            finite = all(map(math.isfinite, self.blocks))
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise CliError(3, "--b block counts must convert to finite floats")
        for flag, value in (("--rate", self.rate), ("--r2", self.r2)):
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise CliError(3, f"{flag} must be finite and nonnegative, "
                                  f"got {value!r}")
        if self.split != "auto" and not 0 <= self.split <= 1:
            raise CliError(3, f"--split must lie in [0, 1], got {self.split!r}")
        if self.u_size is not None and self.u_size < 1:
            raise CliError(3, f"--u-size must be >= 1, got {self.u_size}")
        if self.restarts is not None and self.restarts < 1:
            raise CliError(3, f"--restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise CliError(3, f"--seed must be >= 0, got {self.seed}")


def _row_key(row):
    return row[0], row[1], row[3]


@dataclass
class SweepResult:
    tables: dict                   # {CSV file stem: rows}
    metadata: dict

    @property
    def rows(self):
        """Every table's rows, sorted by (b, r_eff, kind)."""
        return sorted((row for rows in self.tables.values() for row in rows),
                      key=_row_key)


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _snippet(value):
    """`value` as JSON, cut to one short line for an error message."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def parse_channel(path) -> RelayChannelSpec:
    """Read and validate a channel file; raises CliError on bad input."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(2, f"cannot read channel file: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(2, f"channel file parse error at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        # an integer literal over Python's digit limit, or nesting too deep
        raise CliError(2, f"channel file parse error: {exc}")
    keys = ("x1_size", "x2_size", "y2_size", "y3_size")
    try:
        sizes = tuple(doc[k] for k in keys)
        leaves = [doc["w"]]
    except (KeyError, TypeError) as exc:
        raise CliError(2, f"channel file is missing or malformed: {exc}")
    for key, size in zip(keys, sizes):
        if not (isinstance(size, int) and not isinstance(size, bool)):
            raise CliError(2, f"{key} must be a JSON integer, got "
                              f"{_snippet(size)}")
    while leaves:
        node = leaves.pop()
        if isinstance(node, list):
            leaves.extend(node)
        elif not (isinstance(node, (int, float))
                  and not isinstance(node, bool)):
            raise CliError(2, f"w entries must be JSON numbers, got "
                              f"{_snippet(node)}")
    try:
        w = np.asarray(doc["w"], dtype=np.float64)
    except (ValueError, OverflowError) as exc:
        raise CliError(2, f"channel file is missing or malformed: {exc}")
    if w.shape != sizes:
        raise CliError(3, f"w has shape {w.shape}, expected {sizes}")
    bad = np.argwhere(~np.isfinite(w))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise CliError(3, f"non-finite probability {float(w[idx])} at index {idx}")
    neg = np.argwhere(w < 0.0)
    if neg.size:
        idx = tuple(int(i) for i in neg[0])
        raise CliError(3, f"negative probability at index {idx}")
    sums = w.sum(axis=(2, 3))
    bad = np.argwhere(np.abs(sums - 1.0) > 1e-9)
    if bad.size:
        x1, x2 = bad[0]
        raise CliError(3, f"row (x1={x1}, x2={x2}) sums to {sums[x1, x2]!r}")
    return RelayChannelSpec(w)


def write_channel(spec: RelayChannelSpec, path):
    """Emit a channel in the documented file format."""
    n_x1, n_x2, n_y2, n_y3 = spec.sizes
    doc = {"x1_size": n_x1, "x2_size": n_x2, "y2_size": n_y2,
           "y3_size": n_y3, "w": spec.w.tolist()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _load_channel(spec: SweepSpec):
    """(channel, caid-or-None) from the preset or file."""
    if spec.preset:
        if spec.preset != "sato":
            raise CliError(3, f"unknown preset {spec.preset!r}")
        return sato_channel()
    if not spec.channel_path:
        raise CliError(3, "either --preset or --channel is required")
    return parse_channel(spec.channel_path), None


def _default_joint(chan: RelayChannelSpec, caid):
    if caid is not None:
        return caid
    n = chan.sizes[0] * chan.sizes[1]
    return Dist(np.full(n, 1.0 / n))


def _state_entries(chan, u_size):
    """Entries of the largest pdf state channel; exits 4 over
    STATE_ENTRY_BUDGET."""
    n_x1, n_x2, n_y2, n_y3 = chan.sizes
    # relay_F's state channel has u * x2 * y2 entries, decoder_Gtilde's
    # u * x2 * x1 * y3 and decoder_G's fewer; the product is not printed,
    # since a --u-size of thousands of digits would not convert to a float
    u, per_u = u_size or n_x1, n_x2 * max(n_y2, n_x1 * n_y3)
    if u * per_u > STATE_ENTRY_BUDGET:
        raise CliError(4, f"a state channel has |U| = {u} times {per_u} "
                          f"entries, over the budget of {STATE_ENTRY_BUDGET}")
    return u * per_u


def _pdf_q(chan, caid, u_size) -> PdfInput:
    n_x1, n_x2, _, _ = chan.sizes
    _state_entries(chan, u_size)
    if u_size is None or u_size == n_x1:
        return df_input(chan, _default_joint(chan, caid))
    q_x2 = Dist(np.full(n_x2, 1.0 / n_x2))
    q_u = CondDist(np.full((n_x2, u_size), 1.0 / u_size))
    q_x1 = CondDist(np.full((u_size * n_x2, n_x1), 1.0 / n_x1))
    return PdfInput(q_x2, q_u, q_x1, u_size)


def _cf_input(chan, caid) -> CfInput:
    n_x1, n_x2, n_y2, _ = chan.sizes
    joint = _default_joint(chan, caid).probs.reshape(n_x1, n_x2)
    q_x1 = Dist(joint.sum(axis=1) / joint.sum())
    q_x2 = Dist(joint.sum(axis=0) / joint.sum())
    yhat = min(n_y2, 2)
    test = np.zeros((n_y2 * n_x2, yhat))
    for y2 in range(n_y2):
        for x2 in range(n_x2):
            test[y2 * n_x2 + x2, min(y2, yhat - 1)] = 1.0
    wq1_y2 = np.einsum("x,xay->ay", q_x1.probs, chan.y2_marginal())
    realized = CondDist(wq1_y2 / wq1_y2.sum(axis=1, keepdims=True))
    return CfInput(q_x1, q_x2, yhat, CondDist(test), realized)


def _rate_points(grid, blocks=1):
    """The rates of a --reff grid; exits 4, before any rate is built, when
    the grid times `blocks` block counts has over RATE_POINT_BUDGET points."""
    start, stop, step = grid
    span = (stop - start) / step  # inf when the quotient overflows
    n = round(span) + 1 if math.isfinite(span) else math.inf
    if n * blocks > RATE_POINT_BUDGET:
        raise CliError(4, f"grid has {float(n) * blocks:.6g} points, over the "
                          f"budget of {RATE_POINT_BUDGET}")
    return [round(start + i * step, 12) for i in range(n)
            if start + i * step <= stop + 1e-12]


def _block_grid(spec):
    """(sorted block counts, rates) of a pdf, df or cf sweep, counted
    against RATE_POINT_BUDGET before either is used; without --reff the
    rate is one point."""
    blocks = sorted(spec.blocks or (10,))
    points = _rate_points(spec.rate_grid or (0.0, 0.0, 1.0), len(blocks))
    return blocks, points if spec.rate_grid else [spec.rate or 0.0]


def run(spec: SweepSpec) -> SweepResult:
    """Execute one sweep command and return rows plus metadata."""
    t0 = time.perf_counter()
    rows = []
    tables = {spec.command.replace("-", "_"): rows}
    grids = {}
    chan, caid = (None, None)
    if spec.command not in ("types-verify", "sato-figures"):
        chan, caid = _load_channel(spec)

    if spec.command == "cutset":
        stats = {}
        lo, hi, witness = cutset_bound(chan, candidate=caid, stats=stats)
        wit = ";".join(_fmt(p) for p in witness.probs)
        rows.append((0, 0.0, 0.0, "cutset", lo, wit, f"gap:{_fmt(hi - lo)}"))
        grids["cutset_bracket"] = {"lo": lo, "hi": hi,
                                   "iterations": stats["cutset_iterations"]}

    elif spec.command in ("pdf", "df"):
        split = 1.0 if spec.command == "df" else spec.split
        split = None if split == "auto" else float(split)
        blocks, points = _block_grid(spec)
        u_size = None if spec.command == "df" else spec.u_size
        if spec.form == "primal":
            # a primal split stage keeps one dummy channel per (point, split)
            n = len(blocks) * len(points) * (SPLIT_GRID if split is None else 1)
            entries = _state_entries(chan, u_size)
            if n * entries > STATE_ENTRY_BUDGET:
                raise CliError(4, f"a primal split stage holds {n} dummy "
                                  f"channels of {entries} entries, over the "
                                  f"budget of {STATE_ENTRY_BUDGET}")
        q = _pdf_q(chan, caid, u_size)
        work = {}
        sweep = pdf_sweep(chan, q, blocks, points, spec.form, split, work)
        grids["split_grid"] = SPLIT_GRID if split is None else "fixed"
        for i, b in enumerate(blocks):
            for j, r_eff in enumerate(points):
                rows.append((b, r_eff, sweep.r_b[i, j],
                             f"{spec.command}_overall", sweep.value[i, j],
                             f"split={_fmt(sweep.split[i, j])}",
                             f"splits:{grids['split_grid']}"))
        grids["exponent_work"] = work

    elif spec.command == "cf":
        cin = _cf_input(chan, caid)
        try:
            _check_scale(chan, cin.yhat_size)
        except ValueError as exc:
            raise CliError(3, str(exc))
        blocks, points = _block_grid(spec)
        # G1 depends only on R2 and the input; when it is 0 no G2 search
        # runs.  The G2 grids go to the sidecar only: v_grid_points 0 marks
        # the seeded Dirichlet sample that replaces a V lattice over budget
        g1 = cf_G1(chan, cin, spec.r2).value
        grids["cf_g2"] = []
        for b in blocks:
            for r_eff in points:
                val, g2 = cf_overall_witness(chan, cin, b, r_eff, spec.r2,
                                             g1=g1)
                r_b = b / (b - 1) * r_eff
                rows.append((b, r_eff, r_b, "cf_overall", val,
                             f"r2={_fmt(spec.r2)}", "grid:coarse"))
                grids["cf_g2"].append({
                    "b": b, "r_eff": r_eff, "g1": g1,
                    "g2_skipped": g2["g2_skipped"],
                    "grid_note": g2["grid_note"],
                    "v_grid_points": g2["v_grid_points"]})

    elif spec.command == "upper":
        if spec.rate_grid:
            points = _rate_points(spec.rate_grid)
        elif spec.rate is not None:
            points = [spec.rate]
        else:
            points = _rate_points((0.2, 1.2, 0.2))
        stats = {}
        # without --restarts the library's default count applies
        given = {} if spec.restarts is None else {"restarts": spec.restarts}
        results, violations = ecs_upper_sweep(points, chan, seed=spec.seed,
                                              stats=stats, **given)
        for r, res in zip(points, results):
            rows.append((0, r, r, "ecs_upper", res.value,
                         f"gap={_fmt(res.feasibility_gap)}",
                         f"restarts:{res.restarts_used}"))
        grids["running_min_violations"] = violations
        grids.update(stats)

    elif spec.command == "types-verify":
        failures, grids["types_checks"] = _types_sweep(rows)
        if failures:
            raise CliError(3, f"{failures} type-lemma checks failed")

    elif spec.command == "sato-figures":
        tables = _sato_figures(grids)

    else:
        raise CliError(3, f"unknown command {spec.command!r}")

    for table in tables.values():
        table.sort(key=_row_key)
    metadata = {"version": __version__, "seed": spec.seed,
                "grids": grids, "wall_time_s": time.perf_counter() - t0}
    return SweepResult(tables, metadata)


def _types_sweep(rows, n_max=4):
    """Check every binary type-lemma instance up to n_max against BSC(0.1),
    BSC(0.3) and the identity; returns (failed rows, per-n counts)."""
    channels = [CondDist(np.array([[1 - e, e], [e, 1 - e]]))
                for e in (0.1, 0.3, 0.0)]
    failures, checks = 0, []
    for n in range(1, n_max + 1):
        pvs = [(p, v) for p in enum_types(n, 2) for v in enum_cond_types(p, 2)]
        cases = [(p, v, enum_cond_types(TypeN(sum(v.counts, ()), n), 2))
                 for p, v in pvs if n >= 2]
        lemma1 = lemma1_batch(n, pvs, channels)
        joint = joint_typicality_batch(n, cases)
        checks.append({"n": n, "lemma1": sum(map(len, lemma1)),
                       "joint_typicality": sum(map(len, joint))})
        for kind, batch in (("lemma1", lemma1), ("lemma23", joint)):
            if batch:
                passed = all(rep.all_ok for reps in batch for rep in reps)
                rows.append((0, float(n), float(n), kind, float(passed),
                             "exhaustive", f"n:{n}"))
                failures += 0 if passed else 1
    return failures, checks


def _sato_figures(grids):
    """The three figure tables from one decode-forward sweep over b = 2..200:
    F/b and G/b at b = 10, 50, 100, and the best block count per rate."""
    chan, caid = sato_channel()
    points = _rate_points((1.00, 1.20, 0.005))
    grids["r_eff_grid"] = "1.00:1.20:0.005"
    work = {}
    sweep = pdf_sweep(chan, df_input(chan, caid), range(2, 201), points,
                      "dual", 1.0, work)
    grids["exponent_work"] = work
    tables = {"fig_relay": [], "fig_decoder": []}
    blocks = (10, 50, 100)
    # the printed rows are solved in the same batch as the cells that can
    # hold a best block count, so each kind runs one golden section
    rows, grids["best_blocks"] = [b - 2 for b in blocks], {}
    best = sweep.best_blocks(rows, grids["best_blocks"])
    parts = sweep.parts(rows)
    for name, kind in zip(tables, ("relay_F", "decoder_G")):
        _, _, value, rho = parts[kind]
        for i, b in enumerate(blocks):
            for j, r_eff in enumerate(points):
                tables[name].append((b, r_eff, sweep.r_b[b - 2, j],
                                     f"{kind}_over_b", value[i, j] / b,
                                     f"rho={_fmt(rho[i, j])}", "dual"))
    tables["fig_blocks"] = [
        (i + 2, r_eff, sweep.r_b[i, j], "df_opt_b", value, f"best_b={i + 2}",
         "b:2..200") for j, (r_eff, i, value) in enumerate(
            zip(points, best, sweep.at((best, np.arange(len(points))))))]
    return tables


def _write_csv(path, rows):
    lines = [CSV_HEADER]
    for b, r_eff, r_b, kind, value, witness, note in rows:
        lines.append(",".join([str(b), _fmt(float(r_eff)), _fmt(float(r_b)),
                               kind, _fmt(float(value)), witness, note]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_outputs(spec: SweepSpec, result: SweepResult):
    import os
    os.makedirs(spec.out_dir, exist_ok=True)
    for name, rows in result.tables.items():
        path = os.path.join(spec.out_dir, f"{name}.csv")
        _write_csv(path, rows)
    meta_path = os.path.join(spec.out_dir, f"{spec.command.replace('-', '_')}.meta.json")
    with open(meta_path, "w") as fh:
        json.dump(result.metadata, fh, indent=1, default=str)
        fh.write("\n")


def _blocks(text):
    return tuple(int(tok) for tok in text.split(","))


def _rate_grid(text):
    parts = tuple(float(tok) for tok in text.split(":"))
    if len(parts) not in (1, 3):
        raise ValueError(text)
    return parts if len(parts) == 3 else (parts[0], parts[0], 1.0)


def _form(text):
    if text not in ("primal", "dual"):
        raise ValueError(text)
    return text


def _split(text):
    return text if text == "auto" else float(text)


#: each flag's SweepSpec field, in field order, and the parser of its value;
#: a value the parser refuses with ValueError exits 2.  The defaults are
#: SweepSpec's
FLAGS = {"--preset": ("preset", str), "--channel": ("channel_path", str),
         "--reff": ("rate_grid", _rate_grid), "--b": ("blocks", _blocks),
         "--form": ("form", _form), "--split": ("split", _split),
         "--u-size": ("u_size", int), "--rate": ("rate", float),
         "--r2": ("r2", float), "--out": ("out_dir", str),
         "--seed": ("seed", int), "--restarts": ("restarts", int)}


def _parse_argv(argv):
    """The SweepSpec of a command line, or None when it asks for --help.

    Raises CliError(2) on a malformed command line, and CliError(3) where
    SweepSpec refuses a value."""
    if argv[:1] in (["-h"], ["--help"]):
        return None
    if not argv or argv[0] not in COMMAND_FLAGS:
        raise CliError(2, f"the first argument must be a command, one of "
                          f"{', '.join(COMMAND_FLAGS)}")
    values, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        flag, eq, text = token.partition("=")
        if flag not in FLAGS:
            raise CliError(2, f"unknown argument {token!r}")
        if not eq:
            text = next(tokens, "")
            if text.startswith("--"):  # a flag, not a value
                text = ""
        if not text:
            raise CliError(2, f"{flag} needs a value")
        field, parse = FLAGS[flag]
        try:
            values[field] = parse(text)
        except ValueError:
            raise CliError(2, f"cannot parse {flag} {text!r}")
    return SweepSpec(argv[0], **values)


def _check_flags(spec):
    """Refuse, with exit 3, a flag the command does not read given at a
    value other than its default, and a pair of flags that conflict."""
    plain, reads = SweepSpec(spec.command), COMMAND_FLAGS[spec.command].split()
    given = [flag for flag, (field, _) in FLAGS.items()
             if getattr(spec, field) != getattr(plain, field)]
    unread = [flag for flag in given if flag not in reads]
    if spec.command == "sato-figures":
        # the figures are Sato's, so the preset is required
        reads = ["--preset sato", "--out"]
        unread = ["--preset"] * (spec.preset != "sato") + unread
    if unread:
        *rest, last = reads
        listing = f"{', '.join(rest)} and {last}" if rest else last
        raise CliError(3, f"{spec.command} takes only {listing} "
                          f"(check {unread[0]})")
    for pair in (("--preset", "--channel"), ("--reff", "--rate")):
        if set(pair) <= set(given):
            raise CliError(3, f"{spec.command} takes {' or '.join(pair)}, "
                              f"not both")


def _help():
    rows = [f"{command:<13} {flags}"
            for command, flags in COMMAND_FLAGS.items()]
    # python -OO strips the docstring; the table still names the commands
    return "\n".join([(__doc__ or "").strip(), "", "Flags each command reads",
                      "-----------------------", *rows])


def main(argv=None):
    try:
        spec = _parse_argv(sys.argv[1:] if argv is None else argv)
        if spec is None:
            print(_help())
            return 0
        _check_flags(spec)
        result = run(spec)
        try:
            write_outputs(spec, result)
        except OSError as exc:
            raise CliError(3, f"cannot write output to {spec.out_dir}: "
                              f"{exc.strerror or exc}")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except EnumBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for row in result.rows[:20]:
        print(",".join(str(c) if not isinstance(c, float) else _fmt(c)
                       for c in row))
    return 0


# Everything alive once the package is imported lives as long as the
# process, so no collection a command triggers needs to traverse it; and
# the first command's collections then do not depend on how many objects
# the imports happened to allocate
gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
