"""Record the reference values the benchmark checks command outputs against.

    python3 perfbench/record_reference.py

Runs one untraced iteration of every workload and writes the
``value_bits`` of every output row to ``perfbench/reference.json``.  Run it
only on sources whose numbers are trusted (they pass
tests/test_acceptance.py), and say in the change which values moved.
"""

import json
import sys

import run
import workloads


def main():
    reference = {}
    for name in workloads.WORKLOADS:
        workdir, plan = run.prepare_workdir(name, False)
        result, failures = run.iterate(workdir, plan, False, None,
                                       run._clock() + 600.0)
        if failures:
            print(f"error: {name}: {failures}", file=sys.stderr)
            return 1
        reference[name] = run.output_values(result, workdir)
        print(f"{name}: {result['wall_s']:.2f} s", flush=True)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
