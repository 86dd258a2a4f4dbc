"""Training loop, tiled multi-scale evaluation, and prior-map export.

Every source of randomness is derived from the run seed with a distinct
tag (weight init, augmentation stream, per-step scene seeds, validation
scenes), so a single integer pins the whole run and the loss CSV is
byte-reproducible single-threaded.
"""

from __future__ import annotations

import os

import numpy as np

from . import tensor as T
from .affinity import affinity_image, downsample_labels, ideal_affinity_map
from .config import TrainConfig, parse_config, serialize_config
from .data import (
    ConfusionMatrix,
    SyntheticScene,
    augment,
    gen_synthetic_scene,
    gen_synthetic_scenes,
    labels_to_rgb,
    resize_image,
    resize_labels,
)
from .fileio import FormatError, load_checkpoint, save_checkpoint, write_pgm, write_ppm
from .labelmap import LabelMap
from .network import CPNet, cpnet_forward, total_loss
from .optim import SgdMomentum, poly_lr
from .rng import Rng, derive
from .tensor import NumericError

TAG_INIT = 0x10
TAG_AUG = 0x11
TAG_TRAIN_SCENES = 0x12
TAG_VAL_SCENES = 0x13


def build_model(cfg: TrainConfig) -> CPNet:
    return CPNet(
        num_classes=cfg.num_classes,
        feat_hw=cfg.crop // 8,
        widths=cfg.widths,
        c1=cfg.c1,
        k=cfg.k,
        use_context_prior=cfg.use_context_prior,
        seed=derive(cfg.seed, TAG_INIT),
    )


def val_scene(cfg: TrainConfig, i: int) -> SyntheticScene:
    """Scene ``i`` of the config's validation stream."""
    return gen_synthetic_scene(derive(derive(cfg.seed, TAG_VAL_SCENES), i), cfg)


def val_scenes(cfg: TrainConfig) -> list[SyntheticScene]:
    return [val_scene(cfg, i) for i in range(cfg.val_scenes)]


def model_tensors(model: CPNet) -> dict[str, np.ndarray]:
    out = {p.name: p.value.data for p in model.parameters()}
    for bn in model.bn_layers():
        out[bn.state_name + ".mean"] = bn.state.running_mean
        out[bn.state_name + ".var"] = bn.state.running_var
    return out


def save_model(path: str, model: CPNet, cfg: TrainConfig, step: int, rng_state) -> None:
    save_checkpoint(path, model_tensors(model), step, rng_state, serialize_config(cfg))


def load_model(path: str) -> tuple[CPNet, TrainConfig, int]:
    tensors, step, _rng, config_text = load_checkpoint(path)
    cfg = parse_config(config_text)
    model = build_model(cfg)
    want = model_tensors(model)
    missing = sorted(set(want) - set(tensors))
    extra = sorted(set(tensors) - set(want))
    if missing or extra:
        raise FormatError(f"checkpoint mismatch: missing {missing}, extra {extra}")
    for name, dst in want.items():
        src = tensors[name]
        if src.shape != dst.shape:
            raise FormatError(f"{name}: checkpoint {src.shape} vs model {dst.shape}")
        dst[...] = src
    return model, cfg, step


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the class axis of (..., C, H, W) logits, in place on ``z``."""
    z -= z.max(axis=-3, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-3, keepdims=True)
    return z


def predict_probs(model: CPNet, img: np.ndarray, window: int) -> np.ndarray:
    """Tile images of shape (..., C, H, W) with non-overlapping crop-sized windows.

    The prior head fixes the window size, so images are zero-padded up to
    a multiple of the window and cut into tiles.  The tiles of all images
    go through one eval-mode forward (a tile's output does not depend on
    its batch mates) and are reassembled and cropped back to
    (..., classes, H, W).
    """
    *lead, c, h, w = img.shape
    ny, nx = max(1, -(-h // window)), max(1, -(-w // window))
    hp, wp = ny * window, nx * window
    padded = np.pad(img, [(0, 0)] * (img.ndim - 2) + [(0, hp - h), (0, wp - w)])
    tiles = padded.reshape(-1, c, ny, window, nx, window).transpose(0, 2, 4, 1, 3, 5)
    tiles = tiles.reshape(-1, c, window, window).astype(np.float32, copy=False)
    logits, _aux, _p = model.forward(T.Tensor(tiles), mode="eval")
    probs = _softmax(logits.data.astype(np.float64))
    probs = probs.reshape(-1, ny, nx, *probs.shape[1:]).transpose(0, 3, 1, 4, 2, 5)
    return probs.reshape(*lead, -1, hp, wp)[..., :h, :w]


def predict_scene_probs(
    model: CPNet,
    image: np.ndarray,
    window: int,
    scales=(1.0,),
    flip: bool = False,
) -> np.ndarray:
    """Average probabilities over scaled (and optionally flipped) passes. A scaled
    image and its mirror share one forward; the unflipped pass is summed first."""
    _, h0, w0 = image.shape
    acc = np.zeros((model.num_classes, h0, w0))
    for s in scales:
        hs = max(int(round(h0 * s)), 1)
        ws = max(int(round(w0 * s)), 1)
        scaled = image if (hs, ws) == (h0, w0) else resize_image(image, hs, ws).astype(np.float32)
        variants = np.stack([scaled, scaled[:, :, ::-1]]) if flip else scaled[None]
        for do_flip, probs in enumerate(predict_probs(model, variants, window)):
            if do_flip:
                probs = probs[:, :, ::-1]
            if (hs, ws) != (h0, w0):
                probs = resize_image(probs, h0, w0)
                probs /= probs.sum(axis=0, keepdims=True)
            acc += probs
    return acc / (len(scales) * (2 if flip else 1))


def predict_labels(model, image, window, scales=(1.0,), flip=False) -> LabelMap:
    probs = predict_scene_probs(model, image, window, scales, flip)
    return LabelMap(probs.argmax(axis=0).astype(np.int32))


def evaluate(
    model: CPNet,
    scenes,
    window: int,
    scales=(1.0,),
    flip: bool = False,
) -> tuple[float, float]:
    """(pixel accuracy, mean IoU) over a list of scenes."""
    cm = ConfusionMatrix(model.num_classes)
    for scene in scenes:
        pred = predict_labels(model, scene.image, window, scales, flip)
        cm.update(pred, scene.labels)
    return cm.pix_acc(), cm.mean_iou()


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _format_loss(v: float) -> str:
    return f"{v:.8f}"


def _append_line(path: str, line: str) -> None:
    """Add one row to a log, on disk before the run goes on."""
    with open(path, "a", encoding="utf-8") as f:
        f.write(line + "\n")


def train(cfg: TrainConfig, out_dir: str, progress=None) -> dict:
    """Run the configured training; returns paths and final metrics.

    Writes ``loss.csv`` (per-step losses), ``eval.csv`` (periodic and
    final metrics), periodic checkpoints, and ``ckpt_final``.  Each log
    starts with its header and gains each row as it is made, so a run
    that stops early keeps the rows of the steps it finished.
    """
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    model = build_model(cfg)
    params = model.parameters()
    opt = SgdMomentum(params, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    aug_rng = Rng(derive(cfg.seed, TAG_AUG))
    scene_base = derive(cfg.seed, TAG_TRAIN_SCENES)
    vset = val_scenes(cfg)

    csv_path = os.path.join(out_dir, "loss.csv")
    eval_path = os.path.join(out_dir, "eval.csv")
    for path, header in ((csv_path, "step,lr,L_s,L_a,L_u,L_g,total"),
                         (eval_path, "step,pix_acc,miou")):
        with open(path, "w", encoding="utf-8") as f:
            f.write(header + "\n")

    if cfg.total_iterations == 0:
        save_model(os.path.join(out_dir, "ckpt_final"), model, cfg, 0, aug_rng.state())

    final_metrics = None
    for it in range(cfg.total_iterations):
        step = it + 1
        seeds = [derive(scene_base, it * cfg.batch_size + i) for i in range(cfg.batch_size)]
        batch = [augment(s, aug_rng, cfg) for s in gen_synthetic_scenes(seeds, cfg)]
        image = T.Tensor(np.stack([b.image for b in batch]))
        gts = [b.labels for b in batch]

        for p in params:
            p.zero_grad()
        with T.Graph() as g:
            logits, aux, prior, targets = cpnet_forward(model, image, gts)
            terms = total_loss(logits, aux, prior, targets, gts, cfg)
        total = terms.total.item()
        if not np.isfinite(total):
            raise NumericError(
                f"non-finite loss {total} at step {step}; batch scene seeds: "
                + ", ".join(str(s) for s in seeds)
            )
        g.backward(terms.total)
        lr = poly_lr(it, cfg.total_iterations, cfg.base_lr, cfg.poly_power)
        opt.step(params, lr)

        if cfg.log_every and step % cfg.log_every == 0:
            _append_line(csv_path, ",".join([
                str(step), repr(lr),
                _format_loss(terms.seg.item()), _format_loss(terms.aux.item()),
                _format_loss(terms.prior_unary), _format_loss(terms.prior_global),
                _format_loss(total),
            ]))
        if progress is not None and (step % 100 == 0 or step == 1):
            progress(f"step {step}/{cfg.total_iterations} lr {lr:.4f} total {total:.4f}")

        is_last = step == cfg.total_iterations
        if is_last or (cfg.eval_every and step % cfg.eval_every == 0):
            pa, miou = evaluate(model, vset, cfg.crop, cfg.eval_scales, cfg.eval_flip)
            _append_line(eval_path, f"{step},{_format_loss(pa)},{_format_loss(miou)}")
            final_metrics = (pa, miou)
            if progress is not None:
                progress(f"step {step}: pixAcc {pa:.4f} mIoU {miou:.4f}")
        if cfg.checkpoint_every and step % cfg.checkpoint_every == 0 and not is_last:
            save_model(os.path.join(out_dir, f"ckpt_{step:06d}"), model, cfg, step,
                       aug_rng.state())
        if is_last:
            save_model(os.path.join(out_dir, "ckpt_final"), model, cfg, step,
                       aug_rng.state())

    return {
        "loss_csv": csv_path,
        "eval_csv": eval_path,
        "checkpoint": os.path.join(out_dir, "ckpt_final"),
        "pix_acc": final_metrics[0] if final_metrics else None,
        "miou": final_metrics[1] if final_metrics else None,
    }


def affinity_series(csv_path: str) -> list[tuple[int, float]]:
    """(step, L_u + L_g) pairs from a loss CSV."""
    out = []
    with open(csv_path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        iu, ig = header.index("L_u"), header.index("L_g")
        for line in f:
            parts = line.strip().split(",")
            if len(parts) < len(header):
                continue
            out.append((int(parts[0]), float(parts[iu]) + float(parts[ig])))
    return out


# ---------------------------------------------------------------------------
# Prior-map export
# ---------------------------------------------------------------------------

def dump_prior(model: CPNet, scene: SyntheticScene, out_dir: str) -> list[str]:
    """Write P, 1-P, the affinity target, and input/prediction images."""
    os.makedirs(out_dir, exist_ok=True)
    crop = model.feat_hw * 8
    img = scene.image
    if img.shape[1] != crop or img.shape[2] != crop:
        img = np.clip(resize_image(img, crop, crop), 0, 1).astype(np.float32)
        lab = resize_labels(scene.labels.labels, crop, crop)
    else:
        lab = scene.labels.labels
    gt = LabelMap(lab)

    logits, _aux, p = model.forward(T.Tensor(img[None]), mode="eval")
    paths = []

    def emit(name, writer, payload):
        path = os.path.join(out_dir, name)
        writer(path, payload)
        paths.append(path)

    if p is not None:
        pm = p.data[0].astype(np.float64)
        emit("prior.pgm", write_pgm, np.round(pm * 255).astype(np.uint8))
        emit("prior_inv.pgm", write_pgm, np.round((1 - pm) * 255).astype(np.uint8))
    small = downsample_labels(gt, model.feat_hw, model.feat_hw)
    amap = ideal_affinity_map(small, model.num_classes)
    emit("affinity.pgm", write_pgm, affinity_image(amap))
    emit("input.ppm", write_ppm,
         np.round(img.transpose(1, 2, 0) * 255).astype(np.uint8))
    pred = LabelMap(_softmax(logits.data[0]).argmax(axis=0).astype(np.int32))
    emit("pred.ppm", write_ppm, labels_to_rgb(pred))
    emit("gt.ppm", write_ppm, labels_to_rgb(gt))
    return paths
