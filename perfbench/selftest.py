"""Self-test of the benchmark at tiny sizes; exits non-zero on any failure.

    python3 perfbench/selftest.py

Runs every workload briefly (evaluation on 4 scenes) untraced and traced,
and checks that every metric is printed with its unit, that the names and
units match BENCHMARK.json, that the correctness checks pass, and that on
the train workloads the traced per-op backward self times add up to the
measured Graph.backward time of their steps within 10%.  eval_stock measures
no step: its backward is the batch-1 preparation run, where the sweep's own
gradient accumulation is a larger share, so its coverage is only printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import replace

import run

SECONDS = 0.5


def main() -> int:
    run.import_cpnet()
    import spans
    import workloads

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    names = [w["name"] for w in spec["workloads"]]
    expect(sorted(names) == sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS),
           f"workloads in BENCHMARK.json {names} match the benchmark's")
    expect(set(want[0].values()) <= set(workloads.END_TO_END_UNITS.values()),
           "end-to-end units are the benchmark's")

    for name in names:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                result, rep = run.run(name, 0, SECONDS, bool(trace),
                                      tune=lambda wl: replace(wl, eval_scenes=4))
            text = out.getvalue()
            tag = f"{name} trace={trace}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: checks pass ({result['attempted']} attempted, "
                   f"{result['failed']} failed)")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want[trace], f"{tag}: metric names and units equal BENCHMARK.json"
                   + ("" if got == want[trace] else
                      f" (missing {sorted(set(want[trace]) - set(got))}, "
                      f"extra {sorted(set(got) - set(want[trace]))})"))
            unprinted = [m for m, unit in got.items()
                         if not any(m in ln and f" {unit} " in ln for ln in text.splitlines())]
            expect(not unprinted, f"{tag}: every metric printed with its unit {unprinted or ''}")
            if trace:
                bwd, total = rep["coverage"]
                coverage = (f"{tag}: per-op backward self times {bwd:.1f} ms "
                            f"vs Graph.backward {total:.1f} ms")
                if workloads.WORKLOADS[name].kind == "train":
                    expect(total > 0 and abs(bwd - total) <= 0.1 * total,
                           coverage + " (within 10%)")
                else:
                    print(f"info {coverage}")
                units = {m: spans.layer_unit(m) for m in rep["layer"]}
                expect(units == want[1], f"{tag}: per-layer units")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
