"""Layer tracing from outside the package.

`install` replaces each wrapped relayexp function, in every relayexp module
that holds a reference to it, by a wrapper that records a span (name,
start, end, parent) and the counts the benchmark reports.  Nothing under
``src/`` changes.  Spans live in flat arrays in memory, because
``sato-figures`` makes about 750k of them, and are written out once at the
end.  Self time is a span's duration minus the durations of its direct
children.
"""

import math
import sys
import time
from array import array

import numpy as np

# (module, function, span name).  Span names are the metric prefixes; the
# ``_kernels`` module appears as ``kernels`` because a metric name must
# start with a letter.
WRAPPED = [
    ("_kernels", "e0_sum", "kernels.e0_sum"),
    ("_kernels", "batch_cond_mi", "kernels.batch_cond_mi"),
    ("prob_core", "cond_mi_from_joint", "prob_core.cond_mi_from_joint"),
    ("prob_core", "maximize_over_simplex", "prob_core.maximize_over_simplex"),
    ("relay_model", "cutset_bound", "relay_model.cutset_bound"),
    ("relay_model", "cf_aux_channels", "relay_model.cf_aux_channels"),
    ("pdf_exponents", "golden_max", "pdf_exponents.golden_max"),
    ("pdf_exponents", "pdf_dual_exponent", "pdf_exponents.pdf_dual_exponent"),
    ("pdf_exponents", "pdf_primal_exponent",
     "pdf_exponents.pdf_primal_exponent"),
    ("pdf_exponents", "pdf_overall", "pdf_exponents.pdf_overall"),
    ("pdf_exponents", "optimize_blocks", "pdf_exponents.optimize_blocks"),
    ("cf_exponents", "cf_G1", "cf_exponents.cf_G1"),
    ("cf_exponents", "cf_G2", "cf_exponents.cf_G2"),
    ("cf_exponents", "_inner_min", "cf_exponents._inner_min"),
    ("haroutunian_upper", "ecs_upper", "haroutunian_upper.ecs_upper"),
    ("haroutunian_upper", "ecs_upper_sweep",
     "haroutunian_upper.ecs_upper_sweep"),
    ("types_toolkit", "verify_lemma1", "types_toolkit.verify_lemma1"),
    ("types_toolkit", "verify_joint_typicality",
     "types_toolkit.verify_joint_typicality"),
    ("cli_sweeps", "parse_channel", "cli_sweeps.parse_channel"),
    ("cli_sweeps", "run", "cli_sweeps.run"),
    ("cli_sweeps", "write_outputs", "cli_sweeps.write_outputs"),
]


class Tracer:
    """Span and count recorder shared by all wrappers of one process."""

    def __init__(self):
        self.names = []
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {}

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def counter(self, key, fn):
        """`fn` wrapped to count its calls under `key` (no span)."""
        def counted(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def wrap(self, name, fn, before=None, after=None):
        """`fn` wrapped in a span; `before` may rewrite the arguments and
        `after` sees the result."""
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack, name_of, parent = self.stack, self.name_of, self.parent
        start, end = self.start, self.end

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def per_name(self):
        """{span name: (calls, total self seconds)}."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=len(dur))
        name_of = np.frombuffer(self.name_of, dtype=np.uint16)
        calls = np.bincount(name_of, minlength=len(self.names))
        own = np.bincount(name_of, weights=dur - covered,
                          minlength=len(self.names))
        return {name: (float(c), float(s))
                for name, c, s in zip(self.names, calls, own)}

    def summary(self):
        """Every per-layer metric of the benchmark for this process."""
        out = {key: float(val) for key, val in self.counts.items()}
        for name, (calls, secs) in self.per_name().items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = secs
        calls = out["cf_exponents._inner_min.calls"]
        finite = out.pop("cf_exponents._inner_min.finite", 0.0)
        out["cf_exponents._inner_min.finite_frac"] = (finite / calls
                                                      if calls else 0.0)
        out["types_toolkit.self_s"] = (
            out["types_toolkit.verify_lemma1.self_s"]
            + out["types_toolkit.verify_joint_typicality.self_s"])
        for key in ("kernels.batch_cond_mi.joints",
                    "kernels.batch_cond_mi.bytes_in",
                    "relay_model.cutset_bound.cheap_calls",
                    "prob_core.maximize_over_simplex.obj_evals",
                    "pdf_exponents.golden_max.obj_evals",
                    "pdf_exponents.pdf_primal_exponent.obj_evals",
                    "haroutunian_upper.ecs_upper_sweep.violations"):
            out.setdefault(key, 0.0)
        return out

    def dump(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name_of, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def _hooks(tracer):
    """Per-function argument rewrites and result counters."""
    add = tracer.add

    def batch_in(args, kwargs):
        joints = args[0]
        add("kernels.batch_cond_mi.joints", joints.shape[0])
        add("kernels.batch_cond_mi.bytes_in", joints.size * 8)
        return args, kwargs

    def objective_first(key):
        def before(args, kwargs):
            if args:  # every caller passes the objective positionally
                args = (tracer.counter(key, args[0]),) + args[1:]
            return args, kwargs
        return before

    def cutset_in(args, kwargs):
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        if cfg is not None and cfg.coarse_grid_points == 5:
            add("relay_model.cutset_bound.cheap_calls")
        return args, kwargs

    def inner_min_out(result):
        if math.isfinite(result[0]):
            add("cf_exponents._inner_min.finite")

    def sweep_out(result):
        add("haroutunian_upper.ecs_upper_sweep.violations", result[1])

    return {
        "kernels.batch_cond_mi": (batch_in, None),
        "prob_core.maximize_over_simplex": (
            objective_first("prob_core.maximize_over_simplex.obj_evals"), None),
        "pdf_exponents.golden_max": (
            objective_first("pdf_exponents.golden_max.obj_evals"), None),
        "relay_model.cutset_bound": (cutset_in, None),
        "cf_exponents._inner_min": (None, inner_min_out),
        "haroutunian_upper.ecs_upper_sweep": (None, sweep_out),
    }


def install():
    """Wrap every function in `WRAPPED`; return the recording Tracer.

    A function the package no longer has is skipped, so its metrics read 0
    instead of the traced run failing.
    """
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "relayexp" or name.startswith("relayexp.")]
    tracer = Tracer()
    hooks = _hooks(tracer)
    for mod_name, fn_name, span in WRAPPED:
        before, after = hooks.get(span, (None, None))
        original = getattr(sys.modules.get("relayexp." + mod_name), fn_name,
                           None)
        wrapper = tracer.wrap(span, original, before, after)
        for mod in modules if original is not None else ():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    # primal objective evaluations: the objective is built per call by
    # _primal_objective, so count through its result.  Only the
    # pdf_exponents binding is replaced, which leaves cf_G1's own primal
    # descent out of this count.
    pdf = sys.modules["relayexp.pdf_exponents"]
    build = getattr(pdf, "_primal_objective", None)
    if build is not None:
        def primal_objective(*args, **kwargs):
            return tracer.counter(
                "pdf_exponents.pdf_primal_exponent.obj_evals",
                build(*args, **kwargs))

        pdf._primal_objective = primal_objective
    return tracer
