"""Training loop, tiled evaluation, checkpoint wiring, prior export."""

import hashlib
import os

import numpy as np
import pytest

from conftest import tiny_config
from cpnet.config import TrainConfig
from cpnet.data import ConfusionMatrix, SyntheticScene, gen_synthetic_scene, resize_image
from cpnet.fileio import load_checkpoint
from cpnet.labelmap import LabelMap
from cpnet.network import CPNet
from cpnet.tensor import BN_EPS, NumericError, Tensor
from cpnet.train import (
    affinity_series,
    build_model,
    dump_prior,
    evaluate,
    load_model,
    model_tensors,
    predict_labels,
    predict_scene_probs,
    predict_probs,
    save_model,
    train,
    val_scenes,
)


def read_tree(root):
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One tiny training run shared by the read-only tests below."""
    cfg = tiny_config()
    out = str(tmp_path_factory.mktemp("tiny_run"))
    result = train(cfg, out)
    return cfg, out, result


def test_zero_iterations_writes_initial_checkpoint_only(tmp_path):
    cfg = tiny_config(total_iterations=0)
    result = train(cfg, str(tmp_path))

    assert result["pix_acc"] is None and result["miou"] is None
    with open(result["loss_csv"], encoding="utf-8") as f:
        assert f.read() == "step,lr,L_s,L_a,L_u,L_g,total\n"
    with open(result["eval_csv"], encoding="utf-8") as f:
        assert f.read() == "step,pix_acc,miou\n"

    model, loaded_cfg, step = load_model(result["checkpoint"])
    assert step == 0
    assert loaded_cfg == cfg
    # fresh weights, untouched by any update
    assert all(
        np.array_equal(a, b)
        for a, b in zip(model_tensors(model).values(),
                        model_tensors(build_model(cfg)).values())
    )
    assert not [n for n in os.listdir(tmp_path) if n.startswith("ckpt_0")]


def test_fixed_seed_runs_are_byte_identical(tiny_run, tmp_path):
    cfg, out, _ = tiny_run
    again = train(tiny_config(), str(tmp_path))
    for name in ("loss.csv", "eval.csv"):
        with open(os.path.join(out, name), "rb") as f:
            first = f.read()
        with open(os.path.join(tmp_path, name), "rb") as f:
            second = f.read()
        assert first == second, name
    assert read_tree(os.path.join(out, "ckpt_final")) == read_tree(again["checkpoint"])


def test_loss_csv_has_one_row_per_logged_step(tiny_run):
    cfg, out, _ = tiny_run
    with open(os.path.join(out, "loss.csv"), encoding="utf-8") as f:
        lines = f.read().splitlines()
    assert lines[0] == "step,lr,L_s,L_a,L_u,L_g,total"
    assert len(lines) == 1 + cfg.total_iterations  # log_every=1
    for step, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        assert int(parts[0]) == step
        assert all(np.isfinite(float(p)) for p in parts[1:])


def test_eval_csv_rows_and_result_metrics_agree(tiny_run):
    cfg, out, result = tiny_run
    with open(os.path.join(out, "eval.csv"), encoding="utf-8") as f:
        lines = f.read().splitlines()
    assert lines[0] == "step,pix_acc,miou"
    steps = [int(line.split(",")[0]) for line in lines[1:]]
    assert steps == [2, 4]  # eval_every=2, final step included
    last = lines[-1].split(",")
    assert result["pix_acc"] == pytest.approx(float(last[1]), abs=1e-8)
    assert result["miou"] == pytest.approx(float(last[2]), abs=1e-8)


def test_periodic_and_final_checkpoints(tiny_run):
    cfg, out, result = tiny_run
    assert os.path.isdir(os.path.join(out, "ckpt_000002"))
    # the last step's periodic slot is absorbed into ckpt_final
    assert not os.path.exists(os.path.join(out, "ckpt_000004"))

    _model, loaded_cfg, step = load_model(result["checkpoint"])
    assert step == cfg.total_iterations
    assert loaded_cfg == cfg
    _m2, _c2, step2 = load_model(os.path.join(out, "ckpt_000002"))
    assert step2 == 2


def test_checkpoint_restores_identical_predictions(tiny_run, tmp_path):
    """Load -> save must round-trip byte-for-byte and predict identically."""
    cfg, out, result = tiny_run
    model, loaded_cfg, step = load_model(result["checkpoint"])
    _tensors, _step, rng_words, _text = load_checkpoint(result["checkpoint"])

    resaved = os.path.join(tmp_path, "resaved")
    save_model(resaved, model, loaded_cfg, step, rng_words)
    assert read_tree(result["checkpoint"]) == read_tree(resaved)

    other, _, _ = load_model(result["checkpoint"])
    scene = gen_synthetic_scene(777, cfg)
    pa = predict_scene_probs(model, scene.image, cfg.crop)
    pb = predict_scene_probs(other, scene.image, cfg.crop)
    assert np.array_equal(pa, pb)


# sha256 of the stock model's inventory: the ordered names, shapes and dtypes
# of its checkpoint tensors (parameters in optimizer order, then BN running
# statistics), followed by the BN layers' state names.  Recorded while each
# layer class still listed its parameters and BN layers by hand.
STOCK_INVENTORY_SHA = {
    True: "522eb6ec4768bb4f8525831a1c35f736f8b9240e7b1dcbc8e9b6231d4e4f757d",
    False: "856242e526ff010912c378d1e497162c128024cba43c9ec846cdc40b2c2a5b49",
}


@pytest.mark.parametrize("prior", [True, False])
def test_stock_model_inventory_is_pinned(prior):
    model = build_model(TrainConfig(use_context_prior=prior))
    lines = [f"{name} {arr.shape} {arr.dtype}" for name, arr in model_tensors(model).items()]
    lines += [bn.state_name for bn in model.bn_layers()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == STOCK_INVENTORY_SHA[prior]

def test_single_window_eval_equals_direct_forward():
    cfg = tiny_config()
    model = build_model(cfg)
    scene = val_scenes(cfg)[0]

    probs = predict_scene_probs(model, scene.image, cfg.crop)
    direct = predict_probs(model, scene.image, cfg.crop)
    assert np.array_equal(probs, direct)

    labels = predict_labels(model, scene.image, cfg.crop)
    assert isinstance(labels, np.ndarray)
    assert labels.shape == scene.image.shape[1:] and labels.dtype == np.int32
    assert np.array_equal(labels, direct.argmax(axis=0))


def test_duplicate_scales_average_to_single_pass():
    cfg = tiny_config()
    model = build_model(cfg)
    scene = val_scenes(cfg)[1]
    once = predict_scene_probs(model, scene.image, cfg.crop, scales=(1.0,))
    twice = predict_scene_probs(model, scene.image, cfg.crop, scales=(1.0, 1.0))
    assert np.array_equal(once, twice)  # (P + P) / 2 is exact


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_flip_averaging_is_flip_equivariant(seed):
    """Mirroring the input mirrors the flip-averaged output exactly.

    The two passes swap roles under mirroring and float addition
    commutes, so this holds bitwise for any weights.
    """
    cfg = tiny_config(seed=seed)
    model = build_model(cfg)
    scene = gen_synthetic_scene(seed + 50, cfg)
    flipped = np.ascontiguousarray(scene.image[:, :, ::-1])

    a = predict_scene_probs(model, scene.image, cfg.crop, flip=True)
    b = predict_scene_probs(model, flipped, cfg.crop, flip=True)
    assert np.array_equal(a[:, :, ::-1], b)


def test_tiling_pads_and_crops_back():
    cfg = tiny_config()
    model = build_model(cfg)
    rng_img = gen_synthetic_scene(5, cfg).image
    img = np.tile(rng_img, (1, 2, 2))[:, :20, :20]  # not a window multiple

    probs = predict_probs(model, img, cfg.crop)
    assert probs.shape == (cfg.num_classes, 20, 20)
    assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-6)
    # padding only grows bottom/right, so the first tile is untouched input
    direct = predict_probs(model, img[:, :16, :16], cfg.crop)
    assert np.array_equal(probs[:, :16, :16], direct)


def count_forwards(monkeypatch):
    """Record the batch size of every CPNet.forward call."""
    batches = []
    forward = CPNet.forward

    def counted(self, image, mode="train"):
        batches.append(image.shape[0])
        return forward(self, image, mode)

    monkeypatch.setattr(CPNet, "forward", counted)
    return batches


def test_multiscale_flip_eval_runs_one_forward_per_scale(monkeypatch):
    cfg = tiny_config(crop=32, scene_size=32)
    model = build_model(cfg)
    scene = val_scenes(cfg)[0]
    batches = count_forwards(monkeypatch)
    predict_scene_probs(model, scene.image, cfg.crop, scales=(2.0, 2.5, 3.0), flip=True)
    assert batches == [8, 18, 18]  # 64, 80, 96 px: 2x2, 3x3, 3x3 windows per flip


def test_multiscale_flip_eval_equals_one_pass_per_scale_and_flip():
    """Stacking the flip pair into one forward changes no bit of the average."""
    cfg = tiny_config(crop=32, scene_size=32)
    model = build_model(cfg)
    image = val_scenes(cfg)[0].image
    scales = (2.0, 2.5, 3.0)

    acc = np.zeros((cfg.num_classes,) + image.shape[1:])
    for s in scales:
        scaled = resize_image(image, int(32 * s), int(32 * s)).astype(np.float32)
        for do_flip in (False, True):
            inp = np.ascontiguousarray(scaled[:, :, ::-1]) if do_flip else scaled
            probs = predict_probs(model, inp, cfg.crop)
            probs = resize_image(probs[:, :, ::-1] if do_flip else probs, 32, 32)
            probs /= probs.sum(axis=0, keepdims=True)
            acc += probs
    got = predict_scene_probs(model, image, cfg.crop, scales=scales, flip=True)
    assert np.array_equal(got, acc / (2 * len(scales)))


def test_predict_probs_takes_leading_axes():
    cfg = tiny_config()
    model = build_model(cfg)
    imgs = np.stack([np.tile(val_scenes(cfg)[i].image, (1, 2, 2))[:, :20, :28] for i in range(4)])
    stacked = predict_probs(model, imgs.reshape(2, 2, 3, 20, 28), cfg.crop)
    assert stacked.shape == (2, 2, cfg.num_classes, 20, 28)
    for i, img in enumerate(imgs):
        assert np.array_equal(stacked[i // 2, i % 2], predict_probs(model, img, cfg.crop))


def test_tiled_prediction_is_one_forward(monkeypatch):
    cfg = tiny_config()
    model = build_model(cfg)
    img = np.tile(val_scenes(cfg)[0].image, (1, 2, 2))
    batches = count_forwards(monkeypatch)
    predict_probs(model, img, cfg.crop)
    assert batches == [4]


def test_evaluate_matches_manual_confusion_accumulation():
    cfg = tiny_config()
    model = build_model(cfg)
    scenes = val_scenes(cfg)[:2]

    cm = ConfusionMatrix(cfg.num_classes)
    for scene in scenes:
        cm.update(predict_labels(model, scene.image, cfg.crop), scene.labels.labels)
    pa, miou = evaluate(model, scenes, cfg.crop)
    assert pa == cm.pix_acc()
    assert miou == cm.mean_iou()


def test_affinity_series_reads_columns_by_name(tmp_path):
    path = os.path.join(tmp_path, "loss.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("step,L_u,lr,L_s,L_a,L_g,total\n")
        f.write("1,0.5,0.05,0.1,0.2,0.25,1.05\n")
        f.write("7,0.125,0.04,0.1,0.2,0.25,0.675\n")
    assert affinity_series(path) == [(1, 0.75), (7, 0.375)]


def test_affinity_series_on_real_log(tiny_run):
    cfg, out, _ = tiny_run
    series = affinity_series(os.path.join(out, "loss.csv"))
    assert [s for s, _ in series] == list(range(1, cfg.total_iterations + 1))
    assert all(np.isfinite(v) and v >= 0 for _, v in series)


def test_dump_prior_untrained_head_is_uniform_gray(tmp_path):
    """Zeroed prior weights give P = sigmoid(0) = 0.5, i.e. flat gray."""
    cfg = tiny_config()
    model = build_model(cfg)
    model.cp_layer.prior_conv.weight.data[...] = 0.0
    scene = val_scenes(cfg)[0]

    paths = dump_prior(model, scene, str(tmp_path))
    names = [os.path.basename(p) for p in paths]
    assert names == ["prior.pgm", "prior_inv.pgm", "affinity.pgm",
                     "input.ppm", "pred.ppm", "gt.ppm"]

    n = model.feat_hw * model.feat_hw
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    for name in ("prior.pgm", "prior_inv.pgm"):
        with open(os.path.join(tmp_path, name), "rb") as f:
            blob = f.read()
        assert blob[:len(header)] == header
        assert set(blob[len(header):]) == {128}, name


def test_dump_prior_rows_are_query_pixels(tmp_path):
    # the head hand-wired as in test_prior_rows_index_query_pixels: key c
    # reads aggregated channel c % c1, so P[q, c] is a sigmoid of that
    # channel at query q, and row q of prior.pgm must be query q
    cfg = tiny_config(crop=32, scene_size=32)
    model = build_model(cfg)
    cp = model.cp_layer
    scene = val_scenes(cfg)[0]
    _stage4, stage5 = model.backbone(Tensor(scene.image[None]), mode="eval")
    xa = cp.aggregation(stage5, mode="eval").data.reshape(cp.c1, cp.n).astype(np.float64)
    gain = np.float32(4.0 / np.abs(xa).max())  # spread P over (0, 1)
    cp.prior_conv.weight.data[...] = 0.0
    for key in range(cp.n):
        cp.prior_conv.weight.data[key, key % cp.c1, 0, 0] = gain
    dump_prior(model, scene, str(tmp_path))

    scale = gain / np.sqrt(1.0 + BN_EPS)  # eval BN with fresh running stats
    p = 1.0 / (1.0 + np.exp(-xa[np.arange(cp.n) % cp.c1].T * scale))  # (query, key)
    want = np.round(p * 255)
    with open(os.path.join(tmp_path, "prior.pgm"), "rb") as f:
        blob = f.read()
    header = f"P5\n{cp.n} {cp.n}\n255\n".encode("ascii")
    assert blob[:len(header)] == header
    got = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(cp.n, cp.n)
    assert np.abs(got - want).max() <= 1  # float32 rounding may cross a .5
    assert np.abs(got - want.T).max() > 1  # P is not symmetric: the test sees a transpose


def test_dump_prior_constant_scene_affinity_all_white(tmp_path):
    cfg = tiny_config()
    model = build_model(cfg)
    # 24 px scene exercises the resize path; constant labels survive it
    image = np.full((3, 24, 24), 0.25, dtype=np.float32)
    scene = SyntheticScene(image, LabelMap(np.ones((24, 24), dtype=np.int32)), 0)

    dump_prior(model, scene, str(tmp_path))
    n = model.feat_hw * model.feat_hw
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    with open(os.path.join(tmp_path, "affinity.pgm"), "rb") as f:
        blob = f.read()
    assert blob[:len(header)] == header
    assert set(blob[len(header):]) == {255}


def test_dump_prior_without_prior_branch_omits_prior_maps(tmp_path):
    cfg = tiny_config(use_context_prior=False)
    paths = dump_prior(build_model(cfg), val_scenes(cfg)[0], str(tmp_path))
    names = [os.path.basename(p) for p in paths]
    assert names == ["affinity.pgm", "input.ppm", "pred.ppm", "gt.ppm"]


def test_runaway_step_size_raises_numeric_error(tmp_path):
    cfg = tiny_config(base_lr=1e25, total_iterations=6,
                      eval_every=0, checkpoint_every=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="non-finite loss"):
            train(cfg, str(tmp_path))


def test_interrupted_run_keeps_the_log_rows_it_made(tmp_path):
    for name in ("loss.csv", "eval.csv"):  # an earlier run's logs are replaced
        (tmp_path / name).write_text("stale\n", encoding="utf-8")
    cfg = TrainConfig(base_lr=1e25, total_iterations=6, batch_size=2, val_scenes=1,
                      eval_every=0, checkpoint_every=0, eval_scales=(1.0,), eval_flip=False)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="at step 2"):
            train(cfg, str(tmp_path))
    rows = (tmp_path / "loss.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "step,lr,L_s,L_a,L_u,L_g,total"
    assert [row.split(",")[0] for row in rows[1:]] == ["1"]
    assert (tmp_path / "eval.csv").read_text(encoding="utf-8") == "step,pix_acc,miou\n"
