#!/usr/bin/env python3
"""Digest of every output the package writes on a fixed set of runs.

Imports cpnet from this checkout's ``src/`` and works in a temporary
directory, single-threaded.  It prints ``sha256  path`` for each file
written by:

- a 60-step stock training run (seed 7; eval every 20 steps on 8
  validation scenes at the stock scales 2/2.5/3 with flip; a checkpoint
  every 20 steps);
- a 6-step crop-128 run at batch 4 (seed 9; 48-96 px shapes, eval and a
  checkpoint every 3 steps on 2 validation scenes);
- ``cpnet gen-data --count 3`` on the stock config;
- ``cpnet dump-prior --scene 3`` on the stock run's final checkpoint;

then the result line of ``cpnet eval`` of that checkpoint on the
``gen-data`` scenes at the config's defaults, ``sha256  grad <run> <name>``
for every Parameter gradient of one recorded forward and backward at each
run's config (freshly built model, fixed random image and labels), the
relative error of every ``gradcheck.CHECKS`` entry and that of
``gradcheck.full_model_check``.  Running it on two checkouts and diffing
the two outputs shows whether a change moved any output byte, any
gradient bit, the evaluation or any gradient check.  Takes about ten
seconds on one core.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

os.environ["CPNET_THREADS"] = "1"  # byte-reproducible runs are single-threaded
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from cpnet.cli import entry  # noqa: E402
from cpnet.config import TrainConfig, serialize_config  # noqa: E402
from cpnet.gradcheck import CHECKS, full_model_check  # noqa: E402
from cpnet.network import cpnet_forward, total_loss  # noqa: E402
from cpnet.rng import bulk_uniform  # noqa: E402
from cpnet.tensor import Graph, Tensor  # noqa: E402
from cpnet.train import build_model, train  # noqa: E402

STOCK = TrainConfig(seed=7, total_iterations=60, val_scenes=8, eval_every=20,
                    checkpoint_every=20)
CROP128 = TrainConfig(seed=9, total_iterations=6, crop=128, scene_size=128, batch_size=4,
                      min_shape=48, max_shape=96, val_scenes=2, eval_every=3,
                      checkpoint_every=3)


def _cli(*argv: str) -> str:
    """Run one command; returns its output, which callers print only where
    it does not name the temporary directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = entry(list(argv))
    if code != 0:
        raise SystemExit(f"cpnet {' '.join(argv)} exited {code}")
    return out.getvalue()


def _digests(root: str) -> list[str]:
    lines = []
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, root)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def _gradient_digests(run: str, cfg: TrainConfig) -> list[str]:
    """sha256 of each Parameter gradient of one training forward and backward."""
    model = build_model(cfg)
    shape = (cfg.batch_size, cfg.crop, cfg.crop)
    image = Tensor(bulk_uniform(cfg.seed, (shape[0], 3) + shape[1:]).astype(np.float32))
    labels = (bulk_uniform(cfg.seed + 1, shape) * cfg.num_classes).astype(np.int32)
    with Graph() as g:
        terms = total_loss(*cpnet_forward(model, image, labels), labels, cfg)
    grads = g.backward(terms.total)
    return [f"{hashlib.sha256(grads[p].tobytes()).hexdigest()}  grad {run} {p.name}"
            for p in model.parameters()]


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        stock = os.path.join(root, "stock")
        train(STOCK, stock)
        train(CROP128, os.path.join(root, "crop128"))
        config = os.path.join(root, "stock.cfg")
        with open(config, "w", encoding="utf-8") as f:
            f.write(serialize_config(TrainConfig()))
        data = os.path.join(root, "data")
        _cli("gen-data", "--config", config, "--out", data, "--count", "3")
        ckpt = os.path.join(stock, "ckpt_final")
        _cli("dump-prior", "--ckpt", ckpt, "--scene", "3", "--out", os.path.join(root, "prior"))
        evaluated = _cli("eval", "--ckpt", ckpt, "--data", data).splitlines()[-1]
        for line in _digests(root):
            print(line)
        print(f"eval {evaluated}")
    for line in _gradient_digests("stock", STOCK) + _gradient_digests("crop128", CROP128):
        print(line)
    for name in sorted(CHECKS):
        print(f"gradcheck {name} rel err {CHECKS[name]()!r}")
    print(f"gradcheck full_model rel err {full_model_check()!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
