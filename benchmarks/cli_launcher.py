"""Run the legendreflow CLI in-process with the benchmark's spans installed.

    python3 benchmarks/cli_launcher.py <trace-stem> <cli arguments...>

Writes ``<trace-stem>.json`` (per-function totals in raw seconds and the
import time) and ``<trace-stem>.npz`` (the spans), then exits with the CLI's
exit code.
"""

import time

_start = time.perf_counter()

import legendreflow.cli  # noqa: E402

_import_s = time.perf_counter() - _start

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main(stem, argv):
    tracer = spans.Tracer()
    tracer.install()
    tracer.begin_op()
    try:
        code = legendreflow.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stem + ".json", "w") as fh:
            json.dump({"op": tracer.take_op(), "import_s": _import_s}, fh)
        tracer.write_spans(stem + ".npz")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
