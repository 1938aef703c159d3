"""Benchmark of the relayexp CLI: end-to-end metrics and a traced layer run.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]

Each iteration of a workload runs its CLI commands in a fresh child
interpreter (closed loop, one client: an iteration starts when the previous
one ends; one more is started only while it fits in --seconds).  With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
``wall_s`` (first command start to last command end, median over
iterations), ``setup_s`` (spawn until ``relayexp.cli_sweeps`` is imported,
median over set-up samples) and ``peak_rss_mb`` (the child's ``ru_maxrss``,
median).  With ``--trace 1`` each traced iteration follows an untraced twin,
and the run reports the per-layer metrics.  Every command's output is checked
(see checks.py); failures are counted against attempts.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = 2      # set-up-only children before each iteration and after
                       # the last, spreading the samples over the run
RUN_LIMIT_S = 170.0    # a run must end within 180 s


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed command)."""


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # the program is single-threaded; OpenBLAS would start a spare thread
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def spawn(workdir, job, deadline):
    """Run child.py on `job` in `workdir`; returns its result dict."""
    with open(workdir / "job.json", "w") as fh:
        json.dump(job, fh)
    result_path = workdir / "result.json"
    if result_path.exists():
        result_path.unlink()
    spawned = _clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "job.json"],
            cwd=workdir, env=_child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("a child did not finish within the run's time limit")
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"child exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-1500:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    result["elapsed_s"] = _clock() - spawned
    return result


def _context(argv, workdir, capacities):
    """What the output invariants need besides the CSV: the channel array
    and, for ``upper``, the capacity (Sato's, or the cutset value printed
    for the same channel file earlier in the iteration)."""
    ctx = {}
    if "--preset" in argv:
        ctx["capacity"] = checks.SATO_CAPACITY
    if "--channel" in argv:
        path = argv[argv.index("--channel") + 1]
        with open(workdir / path) as fh:
            ctx["channel"] = np.array(json.load(fh)["w"])
        ctx["capacity"] = capacities.get(path)
    return ctx


def iterate(workdir, plan, trace, reference, deadline):
    """One iteration: (child result, list of failure descriptions)."""
    shutil.rmtree(workdir / "out", ignore_errors=True)
    result = spawn(workdir, {"setup_only": False, "trace": trace,
                             "plan": plan}, deadline)
    failures, capacities = [], {}
    for cmd in result["commands"]:
        argv, outdir = cmd["argv"], workdir / "out" / cmd["label"]
        ref = reference.get(cmd["label"]) if reference is not None else None
        problems = checks.check_command(argv[0], cmd["rc"], outdir,
                                        _context(argv, workdir, capacities),
                                        ref)
        if argv[0] == "cutset" and not problems:
            (rec,) = checks.read_rows(outdir, "cutset")
            capacities[argv[argv.index("--channel") + 1]] = rec["value"]
        if problems:
            last_err = cmd["stderr"].strip().splitlines()[-1:]
            failures.append(f"{cmd['label']}: {'; '.join(problems)} "
                            f"{' '.join(last_err)}".rstrip())
    return result, failures


def output_values(result, workdir):
    """{label: {row key: value}} of one iteration (for the reference)."""
    return {cmd["label"]: checks.values(checks.read_rows(
                workdir / "out" / cmd["label"], cmd["argv"][0]))
            for cmd in result["commands"]}


def prepare_workdir(workload, trace):
    workdir = WORK / f"{workload}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir, workloads.prepare(workload, workdir)


def _git_sha():
    """HEAD of the checkout's git repository, or None outside one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "relayexp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(child_env, seed):
    return dict(child_env, seed=seed, git_sha=_git_sha(),
                src_sha256=_source_sha256(), nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)),
                threads="OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1")


def high_percentile(samples):
    """(q, value) for the highest percentile with at least ten samples
    beyond it, or None with fewer than eleven samples."""
    k = len(samples) - 10  # rank of the value, counted from the smallest
    if k < 1:
        return None
    return 100 * k // len(samples), sorted(samples)[k - 1]


def run_workload(workload, seed, seconds, trace, reference):
    """Run one workload; returns its summary (samples, failures, env)."""
    started = _clock()
    deadline = started + RUN_LIMIT_S
    workdir, plan = prepare_workdir(workload, trace)
    ref = reference.get(workload)
    setups = []

    def sample_setup():
        setups.extend(spawn(workdir, {"setup_only": True}, deadline)
                      for _ in range(SETUP_SAMPLES))

    runs, baselines, failures = [], [], []
    loop_start = _clock()
    while True:
        step_start = _clock()
        sample_setup()
        if trace:  # an untraced twin of each traced iteration
            result, failed = iterate(workdir, plan, False, ref, deadline)
            baselines.append(result)
            failures += failed
        result, failed = iterate(workdir, plan, bool(trace), ref, deadline)
        runs.append(result)
        failures += failed
        if _clock() - loop_start + (_clock() - step_start) > seconds:
            break
    sample_setup()

    iterations = runs + baselines
    attempted = sum(len(r["commands"]) for r in iterations)
    summary = {
        "workload": workload,
        "env": environment(setups[0]["env"], seed),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "samples": {
            "wall_s": [r["wall_s"] for r in runs],
            "setup_s": [r["setup_s"] for r in setups + iterations],
            "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in runs],
        },
        "run_s": _clock() - started,
    }
    if trace:
        summary["layers"] = _layer_metrics(runs, baselines, failures)
        summary["failed"] = len(failures)
    with open(workdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def _layer_metrics(runs, baselines, failures):
    """Per-layer metrics: exact counts from the first traced iteration (they
    must repeat in every other one), median times, and the tracing overhead
    as the median of traced minus untraced wall_s over the paired
    iterations."""
    layers = [r["layers"] for r in runs]
    out = {}
    for key in layers[0]:
        vals = [layer[key] for layer in layers]
        if key.endswith(".self_s"):
            out[key] = statistics.median(vals)
        else:
            out[key] = vals[0]
            if any(v != vals[0] for v in vals):
                failures.append(f"trace count {key} did not repeat: {vals}")
    out["trace.overhead_s"] = statistics.median(
        r["wall_s"] - b["wall_s"] for r, b in zip(runs, baselines))
    return out


def metrics_of(summary, spec):
    """The BENCHMARK.json metrics `spec` as {name: {value, unit}}."""
    if "layers" in summary:
        source = summary["layers"]
    else:
        source = {k: statistics.median(v)
                  for k, v in summary["samples"].items()}
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
            for m in spec}


def report(summary):
    """Human-readable lines: environment, each metric with unit and count."""
    name = summary["workload"]
    env = summary["env"]
    print(f"[{name}] env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    for key, samples in summary["samples"].items():
        high = high_percentile(samples)
        tail = (f"p{high[0]}={high[1]:.4f}" if high
                else "no percentile (needs >= 11 samples)")
        print(f"[{name}] {key}: median {statistics.median(samples):.4f} "
              f"{units[key]}, {tail}, n={len(samples)}")
    frac = summary["failed"] / summary["attempted"]
    print(f"[{name}] fail_frac: {frac:.4f} ({summary['failed']} of "
          f"{summary['attempted']} commands), n={summary['attempted']}")
    for failure in summary["failures"]:
        print(f"[{name}] FAILED {failure}")
    if "layers" in summary:
        for key, val in sorted(summary["layers"].items()):
            print(f"[{name}] {key} = {val:.6g}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "relayexp" / "cli_sweeps.py").is_file():
        print(f"error: no relayexp sources under {SRC}", file=sys.stderr)
        return 3
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])

    results = {}
    try:
        for name in names:
            summary = run_workload(name, args.seed, seconds, args.trace,
                                   reference)
            report(summary)
            results[name] = summary
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, summary in results.items():
        for key, val in metrics_of(summary, spec).items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = val
    attempted = sum(s["attempted"] for s in results.values())
    failed = sum(s["failed"] for s in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
