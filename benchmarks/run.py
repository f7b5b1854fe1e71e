"""Benchmark of legendreflow: one workload, one seed, one run.

    python3 benchmarks/run.py --workload cusp_tracking --seed 1 --seconds 25 --trace 0

Run it from the repository root; it uses the sources under ``src/``. The
workloads are ``cusp_tracking``, ``flow_eval`` and ``cli_runs`` (README).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run instead. Times are in reference seconds (``refclock``). A
result file with the raw wall times, per-operation samples and the machine
description goes to ``benchmarks/_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cusp_tracking", "flow_eval", "cli_runs")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 5          # fresh interpreters timed, after one discarded warm-up
KERNELS = 3             # reference kernels on each side of an in-process operation


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')} "
                    f"({blas.get('openblas configuration', '').strip()})",
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "platform": platform.platform(), "threads_env": SINGLE_THREAD}


def measure_setup(workload, seed, root, env, scratch):
    """Samples of the time from a fresh interpreter to ready inputs."""
    import refclock
    samples = []
    before = refclock.process_seconds(env, root)
    for i in range(1 + SETUP_RUNS):
        spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed),
             str(scratch / f"probe{i}")],
            cwd=root, env=env, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.splitlines()[-1])
        raw = report["ready"] - spawn
        after = refclock.process_seconds(env, root)
        if i:  # the first interpreter compiles .pyc files and warms the page cache
            samples.append({
                "raw_s": raw, "import_raw_s": report["import_s"],
                "s": refclock.to_reference(raw, before, after, refclock.C_PROC),
                "import_s": refclock.to_reference(report["import_s"], before, after,
                                                  refclock.C_PROC)})
        before = after
    return samples


def run(args, root):
    import refclock
    import spans
    import workloads

    out = HERE / "_out"
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    scratch = out / "scratch" / run_id
    trace_dir = out / "traces" / run_id
    for path in (scratch, trace_dir, out / "results"):
        path.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])

    setup = measure_setup(args.workload, args.seed, root, env, scratch)

    in_process = args.workload != "cli_runs"
    if args.workload == "cusp_tracking":
        ops = workloads.build_cusp_tracking(args.seed)
    elif args.workload == "flow_eval":
        ops = workloads.build_flow_eval(args.seed)
    else:
        ctx = workloads.CliContext(root=root, scratch=scratch / "main", env=env,
                                   trace_dir=trace_dir)
        ops = workloads.build_cli_runs(args.seed, ctx)

    if in_process:  # first call of each kind pays lazy imports and allocations
        for kind in dict.fromkeys(op.kind for op in ops if not op.known_fault):
            next(op for op in ops if op.kind == kind).run(False)

    tracer = spans.Tracer() if args.trace and in_process else None
    totals = spans.LayerTotals()
    samples, failures, wrong = [], [], []
    max_child_rss = 0
    last_ref = None     # reference process time after the previous subprocess
    rounds = 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        if tracer is not None and traced:
            tracer.install()
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            if in_process:
                before = refclock.kernel_seconds(KERNELS)
                if traced:
                    tracer.begin_op()
            elif last_ref is None:
                last_ref = refclock.process_seconds(env, root)
            t0 = time.perf_counter()
            try:
                result = op.run(traced)
            except Exception as exc:  # the program failed this operation
                result = exc
            raw = time.perf_counter() - t0
            if in_process:
                ref = refclock.to_reference(raw, before, refclock.kernel_seconds(KERNELS))
                layer_op = tracer.take_op() if traced else None
            else:
                after = refclock.process_seconds(env, root)
                ref = refclock.to_reference(raw, last_ref, after, refclock.C_PROC)
                last_ref = after
            if op.known_fault and not isinstance(result, Exception):
                try:
                    op.check(result)
                except workloads.CheckFailed as exc:  # the fault the input is kept for
                    result = exc
            if isinstance(result, Exception):
                failures.append(f"{op.kind}: {type(result).__name__}: {result}")
                continue
            samples.append({"kind": op.kind, "round": rounds, "traced": traced,
                            "raw_s": raw, "s": ref})
            if traced and not in_process:
                summary = json.loads(Path(str(result[1]) + ".json").read_text())
                layer_op = summary["op"]
                totals.import_s.append(summary["import_s"] * ref / raw)
            if traced:
                totals.add(layer_op, ref / raw)
            elif not in_process:
                max_child_rss = max(max_child_rss, result[0])
            try:
                op.check(result)
            except Exception as exc:  # wrong output, or output missing
                wrong.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        if tracer is not None and traced:
            tracer.uninstall()
        rounds += 1
        if time.perf_counter() - start >= args.seconds and (not args.trace or rounds % 2 == 0):
            break
    elapsed = time.perf_counter() - start

    untraced = [s["s"] for s in samples if not s["traced"]]
    raw_untraced = [s["raw_s"] for s in samples if not s["traced"]]
    if len(untraced) < 2:
        raise RuntimeError(f"too few operations succeeded to measure: {failures[:3]}")
    if args.trace:
        traced_s = [s["s"] for s in samples if s["traced"]]
        overhead = 100.0 * (statistics.fmean(traced_s) / statistics.fmean(untraced) - 1.0)
        if in_process:
            totals.import_s = [s["import_s"] for s in setup]
            tracer.write_spans(trace_dir / "spans.npz")
        metrics = totals.metrics(overhead)
    else:
        if in_process:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kib = max_child_rss
        metrics = end_to_end(untraced, [s["s"] for s in setup], rss_kib)
    raw = end_to_end(raw_untraced, [s["raw_s"] for s in setup], 0)
    del raw["peak_rss_mb"]

    attempted = len(samples) + len(failures)
    result = {"correct": not wrong, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "ops_per_round": len(ops),
              "elapsed_s": elapsed, "c_ref_s": refclock.C_REF, "c_proc_s": refclock.C_PROC,
              "machine": machine(),
              "result": result, "raw_wall": raw, "setup": setup,
              "failures": failures[:20], "wrong": wrong[:20], "samples": samples}
    (out / "results" / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(scratch, ignore_errors=True)
    if not os.listdir(trace_dir):
        trace_dir.rmdir()
    for message in (failures + wrong)[:5]:
        print("problem:", message)
    print("raw wall (not normalized):",
          ", ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in raw.items()))
    print(json.dumps(result))
    return 0


def end_to_end(op_seconds, setup_seconds, rss_kib):
    deciles = statistics.quantiles(op_seconds, n=10)
    return {
        "setup_s": {"value": statistics.median(setup_seconds), "unit": "s"},
        "ops_per_s": {"value": len(op_seconds) / sum(op_seconds), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(op_seconds), "unit": "s"},
        "op_p90_s": {"value": deciles[8], "unit": "s"},
        "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
    }


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "legendreflow" / "__init__.py").is_file():
        print("error: src/legendreflow not found; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)    # before numpy loads OpenBLAS
    # one CPU for this process and its children: a subprocess and the
    # reference timed next to it then run where the parent does
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(root / "src"), str(HERE)]
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
