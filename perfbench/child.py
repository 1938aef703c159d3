"""Run one iteration of a workload in this fresh interpreter.

Usage: ``python3 child.py job.json`` with the working directory holding the
job file and the workload's channel files; ``relayexp`` must be importable.
The commands run through ``relayexp.cli_sweeps.main`` one after another, as
a user would type them, and the timings, exit codes, captured output, peak
memory and (when the job asks for it) the layer trace are written to
``result.json`` next to the job file.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _clock():
    # CLOCK_MONOTONIC is shared between processes, so the parent can
    # subtract its spawn time from the ready time taken here
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_command(cli_sweeps, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_sweeps.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error is a failed command, not a crash
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def _half_cutset(stdout):
    for line in stdout.splitlines():
        fields = line.split(",")
        if len(fields) > 4 and fields[3] == "cutset":
            return repr(float(fields[4]) / 2.0)
    return None


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    from relayexp import cli_sweeps
    ready = _clock()

    import numpy
    import relayexp
    kernels = sys.modules.get("relayexp._kernels")  # the backend in use
    use_numba = bool(getattr(kernels, "USE_NUMBA", False))
    result = {"ready": ready,
              "env": {"python": sys.version.split()[0],
                      "numpy": numpy.__version__,
                      "relayexp": relayexp.__version__,
                      "use_numba": use_numba}}
    if job["setup_only"]:
        _write(result)
        return 0

    from workloads import HALF_CUTSET
    tracer = None
    if job["trace"]:
        from tracing import install
        tracer = install()

    commands = []
    half_cutset = None
    start = _clock()
    for label, argv in job["plan"]:
        if HALF_CUTSET in argv and half_cutset is None:
            commands.append({"label": label, "argv": argv, "rc": None,
                             "stdout": "", "stderr": "no cutset value to "
                             "derive the rate from", "seconds": 0.0})
            continue
        argv = [half_cutset if a == HALF_CUTSET else a for a in argv]
        t0 = _clock()
        rc, out, err = _run_command(cli_sweeps, argv)
        commands.append({"label": label, "argv": argv, "rc": rc,
                         "stdout": out, "stderr": err[-2000:],
                         "seconds": _clock() - t0})
        if argv[0] == "cutset" and rc == 0:
            half_cutset = _half_cutset(out)
    result["wall_s"] = _clock() - start
    result["commands"] = commands
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump("spans.npz")
        result["layers"] = tracer.summary()
    _write(result)
    return 0


def _write(result):
    with open("result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
