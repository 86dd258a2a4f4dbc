"""The benchmark workloads: configuration, set-up, the measured loop, checks.

Every workload is a closed loop with one client in one process: the next
call starts when the previous one returns.  The package is driven only
through its public functions (``train.train``, ``train.evaluate``,
``train.load_model``, ``train.build_model``, ``train.val_scenes``,
``fileio.save_dataset`` / ``load_dataset``).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from cpnet import fileio, train
from cpnet import tensor as T
from cpnet.config import TrainConfig, serialize_config
from cpnet.context_prior import AggregationModule, macs_fully_separable, macs_standard_conv
from cpnet.layers import Conv2d
from cpnet.rng import bulk_uniform

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
STOCK_EVAL_SCALES = (2.0, 2.5, 3.0)
SETUP_REPEATS = 9
EVAL_CHECK_SCENES = 3

# in-run evaluation of the train workloads: a few val scenes, scale 1, no
# flip, and no periodic eval or checkpoints, so a call is dominated by steps
TRIMMED = dict(val_scenes=4, eval_scales=(1.0,), eval_flip=False, eval_every=0,
               checkpoint_every=0)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train": measure train(); "eval": measure evaluate()
    steps: int  # iterations per train() call (the preparation run for "eval")
    overrides: dict = field(default_factory=dict)
    eval_scenes: int = 64

    def config(self, seed: int) -> TrainConfig:
        return TrainConfig(seed=seed, total_iterations=self.steps, **self.overrides)


WORKLOADS = {
    # stock config: crop 32, batch 8, 4x4 grid (N=16); conv backward and
    # scene synthesis dominate a step
    "train_stock": Workload("train_stock", "train", 40, dict(TRIMMED)),
    # stock `cpnet eval`: 64 scenes, scales 2/2.5/3, flip; 44 batch-1
    # forwards per scene, no backward, no synthesis, no optimizer.  The
    # checkpoint is trained at batch 1, so the preparation's memory peak
    # stays below that of loading and evaluating
    "eval_stock": Workload("eval_stock", "eval", 40, dict(TRIMMED, batch_size=1)),
    # the paper's regime: 16x16 grid (N=256), where the N x N prior map,
    # its affinity targets and losses and full-resolution softmax-CE cost
    "train_grid16": Workload("train_grid16", "train", 20, dict(
        TRIMMED, crop=128, scene_size=128, batch_size=4, min_shape=48, max_shape=96)),
}

END_TO_END_UNITS = {"throughput": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        return json.load(f)


def loss_band(values: list[float]) -> tuple[float, float]:
    """Accepted range for a run's final loss: mean +- 5 standard deviations
    of the recorded seeds, wide enough that an unseen seed fails it with
    negligible probability."""
    mean, sd = statistics.fmean(values), statistics.stdev(values)
    return mean - 5 * sd, mean + 5 * sd


def window_losses(csv_text: str, window: int, columns: list[str]) -> tuple[float, float]:
    """Mean over the first and over the last ``window`` logged steps of the
    sum of ``columns``."""
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    idx = [header.index(c) for c in columns]
    sums = [sum(float(r[i]) for i in idx) for r in (ln.split(",") for ln in lines[1:])]
    return statistics.fmean(sums[:window]), statistics.fmean(sums[-window:])


class Run:
    """State of one benchmark invocation: counts, checks, timings, trace."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 work_dir: str):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.tracer = spans.Tracer() if trace else None
        self.inst = spans.Instrumentation(self.tracer) if trace else None
        # (items, seconds) of every measured call, untraced and traced
        self.calls: dict[str, list[tuple[int, float]]] = {"untraced": [], "traced": []}
        # (phase, ru_maxrss in MB at its end): shows which phase set the peak
        self.rss: list[tuple[str, float]] = []

    def mark_rss(self, phase: str) -> None:
        self.rss.append((phase, peak_rss_mb()))

    # -- tracing helpers ---------------------------------------------------

    def _root(self, name: str, fn, *args):
        """Call fn under a benchmark root span while tracing is installed."""
        if self.tracer is None or not self.inst.installed:
            return fn(*args)
        sid = self.tracer.begin(self.tracer.intern(name))
        try:
            return fn(*args)
        finally:
            self.tracer.finish(sid)

    def check(self, name: str, fn) -> None:
        self.attempted += 1
        try:
            ok, detail = self._root("bench.check", fn)
        except Exception:  # a check that crashes is a failed check
            ok, detail = False, traceback.format_exc(limit=3).strip().splitlines()[-1]
            traceback.print_exc(file=sys.stderr)
        if not ok:
            self.failed += 1
        self.checks.append((name, ok, detail))

    def measure(self, label: str, seconds: float, op, minimum: int = 1) -> list:
        """Closed loop: call op() until `seconds` have passed (at least
        `minimum` calls); op returns (result, items, seconds of the measured
        library call)."""
        results = []
        t_end = perf_counter() + seconds
        while perf_counter() < t_end or len(results) < minimum:
            self.attempted += 1
            try:
                res, items, elapsed = self._root("bench.measure", op)
            except Exception:  # count the failure and stop the loop
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                break
            self.calls[label].append((items, elapsed))
            results.append(res)
        return results

    def measure_halves(self, op, minimum: int) -> list:
        """Untraced run for the whole time; with tracing, half untraced and
        half traced, so the two rates give the tracing overhead."""
        if self.tracer is None:
            return self.measure("untraced", self.seconds, op, minimum)
        self.inst.remove()
        first = self.measure("untraced", self.seconds / 2, op, 1)
        self.inst.install()
        return first + self.measure("traced", self.seconds / 2, op, max(1, minimum - len(first)))

    def setup_times(self, fn) -> tuple[list[float], object]:
        times, out = [], None
        for _ in range(SETUP_REPEATS):
            out = None  # hold one set-up's objects at a time, as a user would
            t0 = perf_counter()
            out = self._root("bench.setup", fn)
            times.append(perf_counter() - t0)
        return times, out

    # -- workloads ----------------------------------------------------------

    def execute(self) -> list[float]:
        """Run the workload; returns the set-up times."""
        if self.inst is not None:
            self.inst.install()
        try:
            setup = self._train() if self.wl.kind == "train" else self._eval()
        finally:
            if self.inst is not None:
                self.inst.remove()
        return setup

    def _train(self) -> list[float]:
        cfg = self.wl.config(self.seed)
        times, _ = self.setup_times(lambda: (train.build_model(cfg), train.val_scenes(cfg)))
        self.mark_rss("set-up")
        # warm-up: fills the conv index and interpolation caches
        self._root("bench.warmup", train.train, replace(cfg, total_iterations=2),
                   os.path.join(self.work_dir, "warmup"))
        samples = cfg.total_iterations * cfg.batch_size
        calls = itertools.count()
        previous = []

        def op():
            # a fresh run directory per call: rewriting the files of an old
            # checkpoint in place makes ext4 flush them, which costs more
            # than the training steps on some disks
            out_dir = os.path.join(self.work_dir, f"train{next(calls)}")
            t0 = perf_counter()
            res = train.train(cfg, out_dir)
            elapsed = perf_counter() - t0
            with open(res["loss_csv"], encoding="utf-8") as f:
                text = f.read()
            if previous:
                shutil.rmtree(previous.pop())
            previous.append(out_dir)
            return (res, text), samples, elapsed
        runs = self.measure_halves(op, minimum=2)
        self.mark_rss("train() calls")
        if runs:
            self._train_checks(cfg, runs)
        return times

    def _train_checks(self, cfg: TrainConfig, runs) -> None:
        csvs = [text for _res, text in runs]

        def finite():
            rows = [r.split(",")[2:] for text in csvs for r in text.strip().splitlines()[1:]]
            bad = sum(not np.isfinite(float(v)) for row in rows for v in row)
            return bad == 0 and len(rows) > 0, f"{len(rows)} logged steps, {bad} non-finite losses"
        self.check("losses_finite", finite)

        def identical():
            same = all(t == csvs[0] for t in csvs)
            return same and len(csvs) >= 2, f"{len(csvs)} same-seed calls, loss.csv identical={same}"
        self.check("loss_csv_identical", identical)

        ref = load_reference()[self.wl.name]
        first, last = window_losses(csvs[0], ref["window"], ref["columns"])
        checked = f"mean {'+'.join(ref['columns'])} of"

        def reference():
            if ref["steps"] != cfg.total_iterations:
                return False, f"reference recorded at {ref['steps']} steps, run has {cfg.total_iterations}"
            lo, hi = loss_band(ref["values"])
            return lo <= last <= hi, (f"{checked} last {ref['window']} steps {last:.4f}, "
                                      f"accepted [{lo:.4f}, {hi:.4f}] from "
                                      f"{len(ref['values'])} seeds")
        self.check("loss_reference", reference)

        def progress():
            return last < first, (f"{checked} last {ref['window']} steps {last:.4f} below "
                                  f"first {ref['window']} steps {first:.4f}")
        self.check("loss_decreases", progress)

        res = runs[-1][0]

        def round_trip():
            model, cfg2, step = train.load_model(res["checkpoint"])
            data_dir = os.path.join(self.work_dir, "val")
            fileio.save_dataset(data_dir, train.val_scenes(cfg))
            scenes = fileio.load_dataset(data_dir)
            got = train.evaluate(model, scenes, cfg2.crop, cfg2.eval_scales, cfg2.eval_flip)
            want = (res["pix_acc"], res["miou"])
            ok = (step == cfg.total_iterations and got == want
                  and serialize_config(cfg2) == serialize_config(cfg))
            return ok, f"reloaded step {step}, eval {got} vs in-run {want}"
        self.check("checkpoint_round_trip", round_trip)

    def _eval(self) -> list[float]:
        cfg = self.wl.config(self.seed)
        prep_dir = os.path.join(self.work_dir, "prep")
        data_dir = os.path.join(self.work_dir, "val")

        def prepare():
            ckpt = train.train(cfg, prep_dir)["checkpoint"]
            stock = TrainConfig(seed=self.seed, val_scenes=self.wl.eval_scenes)
            fileio.save_dataset(data_dir, train.val_scenes(stock))
            return ckpt
        ckpt = self._root("bench.prep", prepare)
        self.mark_rss("preparation")
        times, (model, scenes) = self.setup_times(
            lambda: (train.load_model(ckpt)[0], fileio.load_dataset(data_dir)))
        self.mark_rss("set-up")
        window = cfg.crop
        self._root("bench.warmup", train.evaluate, model, scenes[:2], window,
                   STOCK_EVAL_SCALES, True)

        def op():
            t0 = perf_counter()
            res = train.evaluate(model, scenes, window, STOCK_EVAL_SCALES, True)
            return res, len(scenes), perf_counter() - t0
        runs = self.measure_halves(op, minimum=1)
        self.mark_rss("evaluate() calls")
        if runs:
            def repeatable():
                same = all(r == runs[0] for r in runs)
                return same, f"{len(runs)} evaluate() calls, (pixAcc, mIoU) identical={same}"
            self.check("eval_repeatable", repeatable)
            self.check("confusion_matches_per_window",
                       lambda: self._confusion_check(model, scenes, window))
        return times

    def _confusion_check(self, model, scenes, window):
        pick = sorted(random.Random(self.seed).sample(range(len(scenes)),
                                                      min(EVAL_CHECK_SCENES, len(scenes))))
        subset = [scenes[i] for i in pick]
        made = []

        class Recording(train.ConfusionMatrix):
            def __init__(self, num_classes):
                super().__init__(num_classes)
                made.append(self)
        saved = train.ConfusionMatrix
        train.ConfusionMatrix = Recording
        try:
            train.evaluate(model, subset, window, STOCK_EVAL_SCALES, True)
        finally:
            train.ConfusionMatrix = saved
        want = sum(reference_counts(model, s, window, STOCK_EVAL_SCALES, True) for s in subset)
        got = made[0].counts
        return bool(np.array_equal(got, want)), (
            f"scenes {pick}: {int(want.sum())} pixels, {int((want.sum(axis=0) > 0).sum())} "
            f"classes predicted, evaluate() counts equal "
            f"batch-1 reference={np.array_equal(got, want)}")

    # -- report -------------------------------------------------------------

    def rate(self, label: str) -> float:
        """Items per second over all measured calls of one kind."""
        calls = self.calls[label]
        seconds = sum(t for _, t in calls)
        return sum(n for n, _ in calls) / seconds if seconds else 0.0

    def report(self, setup_times: list[float]) -> dict:
        untraced = self.calls["untraced"]
        out = {
            "e2e": {
                "throughput": self.rate("untraced"),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb(),
            },
            "e2e_notes": {
                "throughput": (f"{sum(n for n, _ in untraced)} items in {len(untraced)} calls, "
                               f"{sum(t for _, t in untraced):.2f} s; per-call items/s "
                               + " ".join(f"{n / t:.4g}" for n, t in untraced)),
                "setup_s": f"median of {len(setup_times)}",
                "peak_rss_mb": "ru_maxrss; after " + ", after ".join(
                    f"{phase} {mb:.1f}" for phase, mb in self.rss),
            },
        }
        if self.tracer is not None:
            layer, src = spans.layer_metrics(self.tracer, self.wl.kind == "train")
            base, traced = self.rate("untraced"), self.rate("traced")
            layer["trace.overhead_pct"] = 100.0 * (1.0 - traced / base) if base else 0.0
            src["trace.overhead_pct"] = (f"items/s traced {traced:.4g} ({len(self.calls['traced'])} "
                                         f"calls) vs untraced {base:.4g} ({len(untraced)} calls)")
            row = timed_mac_row(self.wl.config(self.seed), self.wl.kind == "eval", self.seed)
            layer.update(row)
            src.update({k: "micro-benchmark, fwd+bwd median" for k in row})
            out["layer"], out["layer_src"] = layer, src
            out["split"] = spans.phase_split(self.tracer)
            out["coverage"] = spans.backward_coverage(self.tracer)
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_counts(model, scene, window, scales, flip) -> np.ndarray:
    """Confusion counts of one scene from batch-1 eval-mode forwards, one per
    window: the inference contract evaluate() must keep."""
    from cpnet.data import resize_image

    image = scene.image
    c = model.num_classes
    _, h0, w0 = image.shape
    acc = np.zeros((c, h0, w0))
    passes = 0
    for s in scales:
        hs, ws = max(int(round(h0 * s)), 1), max(int(round(w0 * s)), 1)
        resized = (hs, ws) != (h0, w0)
        scaled = resize_image(image, hs, ws).astype(np.float32) if resized else image
        for do_flip in ((False, True) if flip else (False,)):
            inp = np.ascontiguousarray(scaled[:, :, ::-1] if do_flip else scaled)
            probs = _tiled_probs(model, inp, window)
            if do_flip:
                probs = probs[:, :, ::-1]
            if resized:
                probs = resize_image(probs, h0, w0)
                probs /= probs.sum(axis=0, keepdims=True)
            acc += probs
            passes += 1
    pred = (acc / passes).argmax(axis=0)
    gt = scene.labels.labels
    keep = gt != scene.labels.ignore_index
    idx = gt[keep].astype(np.int64) * c + pred[keep]
    return np.bincount(idx, minlength=c * c).reshape(c, c)


def _tiled_probs(model, img: np.ndarray, window: int) -> np.ndarray:
    _, h, w = img.shape
    hp = max(window, -(-h // window) * window)
    wp = max(window, -(-w // window) * window)
    padded = np.zeros((3, hp, wp), dtype=img.dtype)
    padded[:, :h, :w] = img
    probs = np.zeros((model.num_classes, hp, wp))
    for y0 in range(0, hp, window):
        for x0 in range(0, wp, window):
            tile = padded[:, y0:y0 + window, x0:x0 + window]
            logits = model.forward(T.Tensor(tile[None].astype(np.float32)), mode="eval")[0]
            z = logits.data[0].astype(np.float64)
            z = z - z.max(axis=0, keepdims=True)
            e = np.exp(z)
            probs[:, y0:y0 + window, x0:x0 + window] = e / e.sum(axis=0, keepdims=True)
    return probs[:, :h, :w]


def timed_mac_row(cfg: TrainConfig, batch_one: bool, seed: int) -> dict:
    """fwd+bwd time of the separable aggregation next to a standard k x k conv
    with the same channels, plus the analytic MAC ratio of the two."""
    b = 1 if batch_one else cfg.batch_size
    c0, c1, k, hw = cfg.widths[-1], cfg.c1, cfg.k, cfg.crop // 8
    x = T.Tensor(bulk_uniform(seed, (b, c0, hw, hw)).astype(np.float32))
    agg = AggregationModule("bench.agg", c0, c1, k, seed=seed)
    kxk = Conv2d("bench.kxk", c0, c1, k, padding=k // 2, bias=False, seed=seed)

    def fwd_bwd_ms(fn) -> float:
        times = []
        t_end = perf_counter() + 0.75
        while len(times) < 3 or (perf_counter() < t_end and len(times) < 15):
            t0 = perf_counter()
            with T.Graph() as g:
                loss = T.sum_all(fn(x))
            g.backward(loss)
            times.append(perf_counter() - t0)
        return 1e3 * statistics.median(times)

    sep = macs_fully_separable(b, hw, hw, k, c0, c1) + macs_fully_separable(b, hw, hw, k, c1, c1)
    return {
        "context_prior.agg_ms": fwd_bwd_ms(lambda t: agg(t, "train")),
        "context_prior.kxk_ms": fwd_bwd_ms(kxk),
        "context_prior.agg_mac_ratio": sep / (b * macs_standard_conv(hw, hw, k, c0, c1)),
    }
