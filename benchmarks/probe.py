"""One fresh interpreter's set-up: import the program, build a workload's
inputs, report when it was ready.

    python3 benchmarks/probe.py <workload> <seed> <scratch-dir>

Prints one JSON line: the CLOCK_MONOTONIC time at which the inputs were
ready, and the import time.
"""

import time

_start = time.monotonic()

import legendreflow.cli  # noqa: E402,F401  the whole program, as the CLI loads it

_imported = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main(workload, seed, scratch):
    scratch = Path(scratch)
    if workload == "cusp_tracking":
        workloads.build_cusp_tracking(seed)
    elif workload == "flow_eval":
        workloads.build_flow_eval(seed)
    else:
        workloads.build_cli_inputs(seed, scratch)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "import_s": _imported - _start}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
