"""cpnet benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload train_stock --seed 1 --seconds 30 --trace 0

Workloads: train_stock, eval_stock, train_grid16 (see workloads.py).  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run.  Every metric is printed with its
unit, then the correctness checks, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` next to this directory with
``CPNET_THREADS=1``.  Scratch files go under ``.bench_build/perfbench/`` of
the checkout; a traced run leaves its spans there as CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOAD_NAMES = ("train_stock", "eval_stock", "train_grid16")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cpnet():
    """Import cpnet from this checkout only, single-threaded BLAS."""
    if not os.path.isfile(os.path.join(SRC, "cpnet", "__init__.py")):
        raise SystemExit(f"error: no cpnet sources under {SRC}")
    os.environ["CPNET_THREADS"] = "1"
    sys.path.insert(0, SRC)
    import cpnet  # applies the thread cap before numpy is loaded

    if not os.path.abspath(cpnet.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported cpnet from {cpnet.__file__}, not {SRC}")
    return cpnet


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "CPNET_THREADS": os.environ.get("CPNET_THREADS"),
        "git_commit": git_commit(),
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tune=None) -> tuple[dict, dict]:
    """Run one workload and print its report; returns the result object
    printed as the last line, and the full report.  ``tune`` may replace the
    workload definition (the self-test shrinks it)."""
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload]
    if tune is not None:
        wl = tune(wl)
    print("env " + json.dumps(environment(seed), sort_keys=True))
    print(f"workload {wl.name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    try:
        bench = workloads.Run(wl, seed, seconds, trace, work)
        setup = bench.execute()
        rep = bench.report(setup)
        if trace:
            path = os.path.join(OUT, f"trace-{wl.name}-seed{seed}.csv.gz")
            bench.tracer.write_csv(path)
            print(f"spans: {len(bench.tracer)} written to {os.path.relpath(path, ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    item = "train.samples_per_s" if wl.kind == "train" else "eval.scenes_per_s"
    for name, value in rep["e2e"].items():
        alias = f" (= {item})" if name == "throughput" else ""
        print(f"  {name + alias:44s} {value:14.6g} {workloads.END_TO_END_UNITS[name]:6s}"
              f" {rep['e2e_notes'][name]}")
    if trace:
        for name, value in rep["layer"].items():
            print(f"  {name:44s} {value:14.6g} {spans.layer_unit(name):6s}"
                  f" {rep['layer_src'][name]}")
        split = rep["split"]
        if split:
            step = split.pop("step")
            shares = ", ".join(f"{k} {v:.2f} ms ({100 * v / step:.0f}%)" for k, v in split.items())
            print(f"  step split (traced, {step:.2f} ms/step): {shares}")
        bwd, total = rep["coverage"]
        print(f"  per-op backward spans cover {bwd:.1f} of {total:.1f} ms in Graph.backward")
    for name, ok, detail in bench.checks:
        print(f"check {name}: {'ok' if ok else 'FAIL'} - {detail}")

    if trace:
        metrics = {n: {"value": v, "unit": spans.layer_unit(n)} for n, v in rep["layer"].items()}
    else:
        metrics = {n: {"value": v, "unit": workloads.END_TO_END_UNITS[n]}
                   for n, v in rep["e2e"].items()}
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    return result, rep


def main(argv=None) -> int:
    args = parse_args(argv)
    import_cpnet()
    result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
