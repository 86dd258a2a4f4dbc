"""Record the loss reference that the train workloads' loss check compares to.

    python3 perfbench/record_reference.py

For each train workload, trains its benchmark configuration once per seed
in SEEDS and stores the mean loss of its last steps in
perfbench/reference.json.  It also confirms that on every seed the last
steps' loss lies below the first steps', which the benchmark checks per run,
and exits non-zero if not.  Re-record only when the training arithmetic is
meant to change; the check exists to catch changes that were not meant to.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run

SEEDS = range(24)

# (steps averaged, loss columns summed).  At crop 128 the stock learning rate
# makes single-step seg losses (L_s) spike into the hundreds, so their mean
# over the last steps spreads over two orders of magnitude across seeds; the
# grid16 check uses the unary affinity loss, the one term that falls on every
# seed within 20 steps (the aux loss L_a rose on 1 of 64 seeds tried).
CHECKED = {"train_stock": (10, ["total"]), "train_grid16": (5, ["L_u"])}


def main() -> int:
    run.import_cpnet()
    from cpnet import train

    import workloads

    out = {}
    no_progress = []
    os.makedirs(run.OUT, exist_ok=True)
    for name, (window, columns) in CHECKED.items():
        wl = workloads.WORKLOADS[name]
        values, first = [], []
        for seed in SEEDS:
            tmp = tempfile.mkdtemp(dir=run.OUT)
            try:
                with open(train.train(wl.config(seed), tmp)["loss_csv"], encoding="utf-8") as f:
                    text = f.read()
            finally:
                shutil.rmtree(tmp)
            head, tail = workloads.window_losses(text, window, columns)
            first.append(head)
            values.append(tail)
            if not tail < head:
                no_progress.append(f"{name} seed {seed}")
            print(f"{name} seed {seed}: first {head:.4f} last {tail:.4f}", flush=True)
        lo, hi = workloads.loss_band(values)
        gap = min(h - t for h, t in zip(first, values))
        print(f"{name}: accepted [{lo:.4f}, {hi:.4f}]; first-window losses "
              f"[{min(first):.4f}, {max(first):.4f}]; smallest first-last drop {gap:.4f}")
        out[name] = {"steps": wl.steps, "window": window, "columns": columns,
                     "seeds": list(SEEDS), "values": values}
    if no_progress:
        print("loss did not decrease on: " + ", ".join(no_progress))
        return 1
    with open(os.path.join(workloads.HERE, "reference.json"), "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
