"""Span tracer for the traced benchmark run, and the per-layer metrics it yields.

The tracer wraps cpnet's public functions from outside the package: module
functions are replaced by timing wrappers, block classes get a timing
``__call__``, and every backward closure handed to ``tensor.record`` is
wrapped so the reverse sweep is timed op by op.  ``Instrumentation.remove``
puts every original back, so the untraced half of a traced run executes the
package exactly as shipped.

A span is (name, parent, start, end) plus two counters ``a`` and ``b`` whose
meaning depends on the span name (see ``COUNTERS``).  Spans are kept in
flat arrays and written out as gzip-compressed CSV when the run ends.
Spans come in two kinds: tape ops (``tensor.*`` and the fused affinity
losses) and modules (everything else).  A span's self time is its duration
minus the time of its nearest descendants of the same kind, so a backbone
stage keeps the time of the conv, BN and ReLU it runs, while an op keeps
only its own.
"""

from __future__ import annotations

import gzip
from array import array
from math import prod
from time import perf_counter

import numpy as np

OP, MODULE = 0, 1

# tape ops timed individually; every other recording op counts as "other"
MAIN_OPS = ("conv2d", "batch_norm", "softmax_cross_entropy", "bilinear_upsample", "bmm", "sigmoid")
OTHER_OPS = (
    "add", "sub", "mul", "div", "neg", "scale", "add_const", "log", "clamp",
    "sum_all", "mean_all", "sum_axis", "relu", "reshape", "transpose", "concat",
    "matmul", "full", "zeros",
)
FUSED_OPS = ("affinity.unary", "affinity.global")

BLOCKS = tuple(f"network.backbone.stage{i}" for i in range(1, 6)) + (
    "network.seg_head", "network.aux_head",
)
CP_PARTS = ("context_prior.agg", "context_prior.prior_head", "context_prior.gather")

# meaning of the two per-span counters, by span name
COUNTERS = {
    "tensor.conv2d": ("forward MACs, computed from shapes", "bytes of input+weight+output, computed"),
    "tensor.backward": ("tape nodes", ""),
    "network.forward": ("windows in the batch (eval mode only)", ""),
    "data.scene": ("scalar RNG draws", ""),
    "data.augment": ("scalar RNG draws", ""),
    "train.train": ("training steps", ""),
}

# subtrees of a train() call that are not per-step work
NOT_PER_STEP = ("train.evaluate", "train.val_scenes", "train.build_model", "fileio.save_checkpoint")


class Tracer:
    """In-memory span store; ``begin``/``finish`` must nest properly."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._kinds: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # sparse per-span fields, keyed by span id
        self.child: dict[int, float] = {}  # time of nearest same-kind descendants
        self.scope: dict[int, int] = {}  # backward spans: module that recorded the op
        self.a: dict[int, float] = {}
        self.b: dict[int, float] = {}
        self.stack: list[int] = []
        self.kind_stack: tuple[list[int], list[int]] = ([], [])

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._ids[name] = nid
            is_op = name.startswith("tensor.") or name.startswith(FUSED_OPS)
            self._kinds.append(OP if is_op else MODULE)
        return nid

    def __len__(self) -> int:
        return len(self.name)

    def begin(self, nid: int) -> int:
        sid = len(self.name)
        stack = self.stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(sid)
        self.kind_stack[self._kinds[nid]].append(sid)
        self.start.append(perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        t = perf_counter()
        self.end[sid] = t
        self.stack.pop()
        ks = self.kind_stack[self._kinds[self.name[sid]]]
        ks.pop()
        if ks:
            top = ks[-1]
            self.child[top] = self.child.get(top, 0.0) + t - self.start[sid]

    def self_time(self, sid: int) -> float:
        return self.end[sid] - self.start[sid] - self.child.get(sid, 0.0)

    def innermost(self, kind: int) -> int:
        ks = self.kind_stack[kind]
        return self.name[ks[-1]] if ks else -1

    def write_csv(self, path: str) -> None:
        """One line per span, gzip-compressed; times in microseconds from the
        first span."""
        t0 = self.start[0] if len(self) else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("# counters a/b by span name: "
                    + "; ".join(f"{k}: a={v[0]}, b={v[1] or '-'}" for k, v in COUNTERS.items())
                    + "\n")
            f.write("id,parent,name,start_us,end_us,self_us,a,b,scope\n")
            for i in range(len(self)):
                sc = self.scope.get(i)
                f.write(
                    f"{i},{self.parent[i]},{names[self.name[i]]},"
                    f"{(self.start[i] - t0) * 1e6:.1f},{(self.end[i] - t0) * 1e6:.1f},"
                    f"{self.self_time(i) * 1e6:.1f},{self.a.get(i, 0):g},{self.b.get(i, 0):g},"
                    f"{'' if sc is None else names[sc]}\n"
                )


class Instrumentation:
    """Installs the tracer's wrappers on cpnet and removes them again."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self._undo: list[tuple] = []
        self._blocks: dict[int, tuple[object, int]] = {}

    def _patch(self, owner, attr: str, wrapped) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapped(orig))

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def remove(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def register_model(self, model) -> None:
        """Name the blocks of a freshly built model so their calls are scoped."""
        named = [(f"network.backbone.stage{i + 1}", s) for i, s in enumerate(model.backbone.stages)]
        named.append(("network.seg_head", model.seg_head))
        for name, block in named:
            self._blocks[id(block)] = (block, self.tr.intern(name))

    def _span(self, name: str, counter=None):
        tr, nid = self.tr, self.tr.intern(name)

        def wrap(fn):
            def traced(*args, **kwargs):
                sid = tr.begin(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tr.finish(sid)
                if counter is not None:
                    counter(sid, args, kwargs, out)
                return out
            return traced
        return wrap

    def _block_call(self, fn):
        tr, blocks = self.tr, self._blocks

        def traced(block, *args, **kwargs):
            hit = blocks.get(id(block))
            if hit is None:
                return fn(block, *args, **kwargs)
            sid = tr.begin(hit[1])
            try:
                return fn(block, *args, **kwargs)
            finally:
                tr.finish(sid)
        return traced

    def _record(self, fn):
        """Wrap each backward closure in a span named after the recording op."""
        from cpnet import tensor as T

        tr = self.tr
        bwd_ids: dict[int, int] = {}
        other = tr.intern("tensor.other")

        def traced(inputs, out, bwd):
            if T.active_graph() is None:
                return fn(inputs, out, bwd)
            op = tr.innermost(OP)
            op = other if op < 0 else op
            bid = bwd_ids.get(op)
            if bid is None:
                bid = bwd_ids[op] = tr.intern(tr.names[op] + ".bwd")
            scope = tr.innermost(MODULE)

            def timed_bwd(g):
                sid = tr.begin(bid)
                if scope >= 0:
                    tr.scope[sid] = scope
                try:
                    return bwd(g)
                finally:
                    tr.finish(sid)
            return fn(inputs, out, timed_bwd)
        return traced

    def install(self) -> None:
        from cpnet import affinity, context_prior, data, fileio, layers, network, optim, rng, train
        from cpnet import tensor as T

        tr = self.tr

        def set_a(value_fn):
            def counter(sid, args, kwargs, out):
                tr.a[sid] = value_fn(args, kwargs, out)
            return counter

        def conv_counts(sid, args, kwargs, out):
            x, w = args[0], args[1].value  # weights always arrive as Parameters
            tr.a[sid] = out.size * prod(w.shape[1:])
            tr.b[sid] = out.data.itemsize * (x.size + w.size + out.size)

        # tape ops (callers look them up as module attributes at call time)
        for op in MAIN_OPS:
            self._patch(T, op, self._span(f"tensor.{op}", conv_counts if op == "conv2d" else None))
        for op in OTHER_OPS:
            self._patch(T, op, self._span("tensor.other"))
        record = self._record
        self._patch(T, "record", record)
        self._patch(affinity, "record", record)
        self._patch(T.Graph, "backward", self._span(
            "tensor.backward", set_a(lambda args, kw, out: len(args[0].nodes))))

        # model blocks
        self._patch(layers.ConvBnRelu, "__call__", self._block_call)
        self._patch(layers.Conv2d, "__call__", self._block_call)
        self._patch(network.AuxHead, "__call__", self._span("network.aux_head"))

        def eval_windows(args, kwargs, out):
            mode = kwargs.get("mode", args[2] if len(args) > 2 else "train")
            return args[1].shape[0] if mode == "eval" else 0
        self._patch(network.CPNet, "forward", self._span("network.forward", set_a(eval_windows)))
        self._patch(context_prior.AggregationModule, "__call__", self._span("context_prior.agg"))
        self._patch(context_prior.ContextPriorLayer, "prior_head",
                    self._span("context_prior.prior_head"))
        self._patch(context_prior.ContextPriorLayer, "__call__", self._span("context_prior.gather"))

        # affinity supervision
        self._patch(network, "affinity_targets", self._span("affinity.targets"))
        self._patch(affinity, "unary_affinity_loss", self._span("affinity.unary"))
        self._patch(affinity, "global_affinity_loss", self._span("affinity.global"))

        # data, rng, optimizer, file formats
        self._patch(train, "gen_synthetic_scene", self._span("data.scene"))
        self._patch(train, "augment", self._span("data.augment"))
        self._patch(train, "resize_image", self._span("data.resize_image"))
        self._patch(data, "resize_image", self._span("data.resize_image"))
        self._patch(data.ConfusionMatrix, "update", self._span("data.confusion"))
        draws, stack = tr.a, tr.stack

        def count_draw(fn):
            def traced(self_rng):
                if stack:
                    top = stack[-1]
                    draws[top] = draws.get(top, 0.0) + 1
                return fn(self_rng)
            return traced
        self._patch(rng.Rng, "u64", count_draw)
        self._patch(optim.SgdMomentum, "step", self._span("optim.step"))
        self._patch(train, "save_checkpoint", self._span("fileio.save_checkpoint"))
        self._patch(train, "load_checkpoint", self._span("fileio.load_checkpoint"))
        self._patch(fileio, "load_dataset", self._span("fileio.load_dataset"))

        # training and inference entry points
        def built(fn):
            def traced(*args, **kwargs):
                model = fn(*args, **kwargs)
                self.register_model(model)
                return model
            return traced
        self._patch(train, "build_model", lambda fn: self._span("train.build_model")(built(fn)))
        self._patch(train, "val_scenes", self._span("train.val_scenes"))
        self._patch(train, "cpnet_forward", self._span("train.forward"))
        self._patch(train, "total_loss", self._span("train.loss"))
        self._patch(train, "predict_scene_probs", self._span("train.predict_scene"))
        self._patch(train, "evaluate", self._span("train.evaluate"))
        self._patch(train, "load_model", self._span("train.load_model"))

        self._patch(train, "train", self._span(
            "train.train", set_a(lambda args, kw, out: args[0].total_iterations)))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

NONE, STEP, SCENE = 0, 1, 2


class _Stats:
    __slots__ = ("self_s", "incl_s", "count", "a", "b", "durations")

    def __init__(self):
        self.self_s = self.incl_s = self.a = self.b = 0.0
        self.count = 0
        self.durations: list[float] = []


class View:
    """Spans of one context (per-step or per-scene work) under one root."""

    def __init__(self):
        self.by_name: dict[str, _Stats] = {}
        self.bwd_by_scope: dict[str, float] = {}
        self.units = 0.0
        self.not_per_step_s = 0.0  # NOT_PER_STEP subtrees directly under train()

    def stats(self, name: str) -> _Stats | None:
        return self.by_name.get(name)

    def has(self, name: str) -> bool:
        return name in self.by_name


def build_views(tr: Tracer) -> dict[tuple[str, int], View]:
    """Group spans by (benchmark root, context); STEP units are training steps,
    SCENE units are scenes predicted."""
    names = tr.names
    n = len(tr)
    root = [""] * n
    ctx = [NONE] * n
    views: dict[tuple[str, int], View] = {}
    predict = tr.intern("train.predict_scene")
    for i in range(n):
        nm = names[tr.name[i]]
        p = tr.parent[i]
        r, c = (root[p], ctx[p]) if p >= 0 else ("", NONE)
        if nm.startswith("bench."):
            r, c = nm, NONE
        elif nm == "train.train":
            c = STEP
        elif nm == "train.evaluate":
            c = SCENE
        elif nm in NOT_PER_STEP:
            if c == STEP:
                views.setdefault((r, STEP), View()).not_per_step_s += tr.end[i] - tr.start[i]
            c = NONE
        root[i], ctx[i] = r, c
        if nm == "train.train" and p >= 0:
            views.setdefault((r, STEP), View()).units += tr.a.get(i, 0.0)
        if c == NONE:
            continue
        v = views.setdefault((r, c), View())
        dur = tr.end[i] - tr.start[i]
        st = v.by_name.get(nm)
        if st is None:
            st = v.by_name[nm] = _Stats()
        st.self_s += dur - tr.child.get(i, 0.0)
        st.incl_s += dur
        st.count += 1
        st.a += tr.a.get(i, 0.0)
        st.b += tr.b.get(i, 0.0)
        if tr.name[i] == predict:
            st.durations.append(dur)
            v.units += 1
        sc = tr.scope.get(i)
        if sc is not None:
            key = names[sc]
            v.bwd_by_scope[key] = v.bwd_by_scope.get(key, 0.0) + dur
    return views


def calls(tr: Tracer, name: str) -> list[float]:
    """Durations of every span with this name, under any root."""
    nid = tr.intern(name)
    return [tr.end[i] - tr.start[i] for i in range(len(tr)) if tr.name[i] == nid]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def layer_metrics(tr: Tracer, primary_is_step: bool) -> tuple[dict, dict]:
    """Per-layer metrics from a finished trace.

    Per-step metrics (backward, losses, data synthesis, optimizer) come from
    the measured train() calls, or from the preparation training when the
    workload measures evaluation only.  Per-scene metrics come from the
    evaluate() calls.  Forward metrics use the workload's own unit (step or
    scene) and fall back to the other context for an op that unit never runs.
    Returns (metrics, provenance) where provenance names the source of each.
    """
    views = build_views(tr)
    step = views.get(("bench.measure", STEP)) or views.get(("bench.prep", STEP)) or View()
    step_src = "measure" if ("bench.measure", STEP) in views else "prep"
    scene = views.get(("bench.measure", SCENE)) or View()
    primary, secondary = (step, scene) if primary_is_step else (scene, step)

    out: dict[str, float] = {}
    src: dict[str, str] = {}

    def per(view: View, total: float) -> float:
        return total / view.units if view.units else 0.0

    def put(name, value, source):
        out[name] = value
        src[name] = source

    def fwd(metric, span, field="self_s", scale=1e3):
        v = primary if primary.has(span) else secondary
        st = v.stats(span)
        put(metric, per(v, getattr(st, field) * scale) if st else 0.0,
            f"step/{step_src}" if v is step else "scene")

    def from_step(metric, total):
        put(metric, per(step, total), f"step/{step_src}")

    def step_self(span):
        st = step.stats(span)
        return st.self_s * 1e3 if st else 0.0

    for op in MAIN_OPS + ("other",):
        fwd(f"tensor.{op}.fwd_ms", f"tensor.{op}")
        from_step(f"tensor.{op}.bwd_ms", step_self(f"tensor.{op}.bwd"))
    bk = step.stats("tensor.backward")
    from_step("tensor.backward_ms", bk.incl_s * 1e3 if bk else 0.0)
    from_step("tensor.tape_nodes", bk.a if bk else 0.0)
    fwd("tensor.conv2d.macs", "tensor.conv2d", "a", 1.0)
    fwd("tensor.conv2d.bytes", "tensor.conv2d", "b", 1.0)

    for block in BLOCKS + CP_PARTS:
        fwd(f"{block}.fwd_ms", block)
        from_step(f"{block}.bwd_ms", step.bwd_by_scope.get(block, 0.0) * 1e3)

    from_step("affinity.targets_ms", step_self("affinity.targets"))
    for part in ("unary", "global"):
        from_step(f"affinity.{part}.fwd_ms", step_self(f"affinity.{part}"))
        from_step(f"affinity.{part}.bwd_ms", step_self(f"affinity.{part}.bwd"))

    from_step("data.scene_ms", step_self("data.scene"))
    from_step("data.augment_ms", step_self("data.augment"))
    draws = sum(st.a for nm in ("data.scene", "data.augment") if (st := step.stats(nm)))
    from_step("rng.scalar_draws", draws)
    fwd("data.resize_image_ms", "data.resize_image")
    from_step("optim.step_ms", step_self("optim.step"))

    conf = scene.stats("data.confusion")
    put("data.confusion_ms", per(scene, conf.self_s * 1e3) if conf else 0.0, "scene")
    fw = scene.stats("network.forward")
    put("train.window_forwards", per(scene, fw.a) if fw else 0.0, "scene")
    put("train.forward_batch_mean", fw.a / fw.count if fw and fw.count else 0.0, "scene")
    ps = scene.stats("train.predict_scene")
    durs = [d * 1e3 for d in ps.durations] if ps else []
    put("train.predict_scene_ms.p50", percentile(durs, 50), f"scene n={len(durs)}")
    put("train.predict_scene_ms.p90", percentile(durs, 90), f"scene n={len(durs)}")

    for name in ("save_checkpoint", "load_checkpoint", "load_dataset"):
        d = calls(tr, f"fileio.{name}")
        put(f"fileio.{name}_ms", 1e3 * sum(d) / len(d) if d else 0.0, f"per call n={len(d)}")
    return out, src


def phase_split(tr: Tracer) -> dict[str, float]:
    """Per-step ms of data / forward / backward / optimizer in measured train() calls."""
    step = build_views(tr).get(("bench.measure", STEP))
    if step is None or not step.units:
        return {}

    def ms(name, field="incl_s"):
        st = step.stats(name)
        return 1e3 * getattr(st, field) / step.units if st else 0.0

    return {
        "step": ms("train.train") - 1e3 * step.not_per_step_s / step.units,
        "data": ms("data.scene") + ms("data.augment"),
        "forward": ms("train.forward") + ms("train.loss"),
        "backward": ms("tensor.backward"),
        "optimizer": ms("optim.step"),
    }


def backward_coverage(tr: Tracer) -> tuple[float, float]:
    """(sum of per-op backward span times, Graph.backward time), in ms, over
    every backward pass in the trace."""
    bwd = total = 0.0
    names = tr.names
    for i in range(len(tr)):
        nm = names[tr.name[i]]
        if nm == "tensor.backward":
            total += tr.end[i] - tr.start[i]
        elif nm.endswith(".bwd"):
            bwd += tr.self_time(i)
    return bwd * 1e3, total * 1e3


_UNITS = {
    "tensor.conv2d.macs": "MAC",
    "tensor.conv2d.bytes": "B",
    "context_prior.agg_mac_ratio": "ratio",
    "trace.overhead_pct": "%",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    return _UNITS.get(name, "count")
