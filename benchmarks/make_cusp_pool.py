"""Rebuild ``cusp_pool.json``: the numbered cusp_tracking candidates sorted
into strata, minus those the program fails on.

Each candidate runs the cusp_tracking operation and its check once. A
candidate whose check fails is left out and listed with the reason, so that
no seed can draw an input that fails on some seeds only; a few left-out
candidates, fixed and not drawn, run in every round instead
(``workloads.KNOWN_FAULT_CANDIDATES``; README, "Left out").

    PYTHONPATH=src:benchmarks python3 benchmarks/make_cusp_pool.py 3000
"""

import json
import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import workloads  # noqa: E402


def main(size):
    strata = {}
    left_out = []
    detail = []
    for index in range(size):
        n, a, b = workloads.cusp_candidate(index)
        key = ",".join(map(str, workloads.cusp_stratum(n, a, b)))
        op = workloads.cusp_op(n, a, b)
        start = time.perf_counter()
        try:
            out = op.run(False)
            seconds = time.perf_counter() - start
            op.check(out)
        except Exception as exc:  # a failure of any kind leaves the candidate out
            left_out.append({"index": index, "stratum": key,
                             "reason": f"{type(exc).__name__}: {exc}"[:200]})
            print("left out", left_out[-1], flush=True)
            continue
        strata.setdefault(key, []).append(index)
        detail.append({"index": index, "stratum": key, "seconds": seconds,
                       "events": len(out[1]), "zeros": sum(z for _, z in out[0])})
    pool = {"key": workloads.CUSP_POOL_KEY, "size": size,
            "strata": dict(sorted(strata.items())), "left_out": left_out}
    workloads.CUSP_POOL.write_text(json.dumps(pool, separators=(",", ":")) + "\n")
    out_dir = workloads.HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "cusp_pool_detail.json").write_text(json.dumps(detail))
    print(f"{size} candidates, {len(left_out)} left out")


if __name__ == "__main__":
    main(int(sys.argv[1]))
