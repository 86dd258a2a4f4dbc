"""Full network assembly: shapes, loss composition, training signal."""

import numpy as np
import pytest

from cpnet import tensor as T
from cpnet.config import TrainConfig
from cpnet.network import (
    DILATIONS,
    OUTPUT_STRIDE,
    STRIDES,
    AuxHead,
    CPNet,
    affinity_targets,
    cpnet_forward,
    total_loss,
)
from cpnet.optim import SgdMomentum
from cpnet.rng import Rng, bulk_uniform
from cpnet.tensor import Graph, ShapeError, Tensor, conv2d
from cpnet.train import build_model


# the five loss weights; lambda_p, lambda_u and lambda_g differ from the stock 1.0
WEIGHTS = TrainConfig(lambda_s=1.0, lambda_a=0.4, lambda_p=0.7, lambda_u=1.3, lambda_g=0.5)
# the paper's 16x16 grid (N = 256): the train_grid16 benchmark's model overrides
GRID16 = dict(crop=128, scene_size=128, batch_size=4, min_shape=48, max_shape=96)


def rnd_image(seed, batch, side):
    return Tensor(bulk_uniform(seed, (batch, 3, side, side)).astype(np.float32))


def rnd_labels(seed, batch, side, classes=3):
    return (bulk_uniform(seed, (batch, side, side)) * classes).astype(np.int32)


def small_model(use_context_prior=True, seed=0, side=16):
    return CPNet(
        num_classes=3,
        feat_hw=side // OUTPUT_STRIDE,
        widths=(4, 4, 8, 8, 8),
        c1=4,
        k=3,
        use_context_prior=use_context_prior,
        seed=seed,
    )


def test_stride_and_dilation_schedule():
    assert STRIDES == (2, 2, 2, 1, 1)
    assert DILATIONS == (1, 1, 1, 2, 4)
    assert int(np.prod(STRIDES)) == OUTPUT_STRIDE == 8


def test_backbone_grid_is_one_eighth_of_the_input():
    model = small_model()
    s4, s5 = model.backbone(rnd_image(1, 2, 16), mode="train")
    assert s4.shape == (2, 8, 2, 2)
    assert s5.shape == (2, 8, 2, 2)


def test_forward_shapes_with_prior():
    model = small_model()
    logits, aux, p = model.forward(rnd_image(2, 2, 16), mode="train")
    assert logits.shape == (2, 3, 16, 16)
    assert aux.shape == (2, 3, 16, 16)
    assert p.shape == (2, 4, 4)


def test_forward_shapes_without_prior():
    model = small_model(use_context_prior=False)
    logits, aux, p = model.forward(rnd_image(3, 1, 16), mode="train")
    assert logits.shape == (1, 3, 16, 16)
    assert p is None


def test_aux_head_runs_only_in_train_mode(monkeypatch):
    """Only the training loss reads the aux logits: eval skips the head."""
    calls = []
    call = AuxHead.__call__

    def counted(self, x, mode):
        calls.append(mode)
        return call(self, x, mode)

    monkeypatch.setattr(AuxHead, "__call__", counted)
    model = small_model()
    logits, aux, p = model.forward(rnd_image(7, 2, 16), mode="eval")
    assert calls == [] and aux is None
    assert logits.shape == (2, 3, 16, 16) and p.shape == (2, 4, 4)
    _, aux, _ = model.forward(rnd_image(7, 2, 16), mode="train")
    assert calls == ["train"] and aux.shape == (2, 3, 16, 16)


def test_seg_head_width_depends_on_the_context_branch():
    with_prior = small_model()
    without = small_model(use_context_prior=False)
    c0 = with_prior.c0
    assert with_prior.seg_head.weight.shape == (3, c0 + 2 * with_prior.c1, 1, 1)
    assert without.seg_head.weight.shape == (3, c0, 1, 1)


def test_parameter_names_are_unique_and_bn_is_decay_exempt():
    model = small_model()
    params = model.parameters()
    names = [p.name for p in params]
    assert len(names) == len(set(names))
    for p in params:
        if p.name.endswith((".gamma", ".beta", ".bias")):
            assert not p.decay, p.name
        else:
            assert p.decay, p.name


def test_same_seed_same_init_different_seed_different_init():
    a, b, c = small_model(seed=1), small_model(seed=1), small_model(seed=2)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)
    assert any(
        not np.array_equal(pa.data, pc.data)
        for pa, pc in zip(a.parameters(), c.parameters())
    )


def test_eval_forward_is_deterministic_and_frozen():
    model = small_model()
    img = rnd_image(4, 1, 16)
    before = [bn.state.running_mean.copy() for bn in model.bn_layers()]
    l1, _, p1 = model.forward(img, mode="eval")
    l2, _, p2 = model.forward(img, mode="eval")
    assert np.array_equal(l1.data, l2.data)
    assert np.array_equal(p1.data, p2.data)
    for bn, prev in zip(model.bn_layers(), before):
        assert np.array_equal(bn.state.running_mean, prev)


def test_eval_forward_is_batch_invariant():
    """A window's eval-mode logits and prior map do not depend on the other
    windows stacked with it.  Stock widths on 32 px windows leave stage 3
    with 16 GEMM rows per sample, where one GEMM over the whole batch would
    pick a different BLAS kernel than a batch-1 forward."""
    model = CPNet(num_classes=4, feat_hw=4, c1=16, k=11, seed=3)
    windows = rnd_image(9, 6, 32)
    logits, _aux, p = model.forward(windows, mode="eval")
    for i in range(windows.shape[0]):
        li, _ai, pi = model.forward(Tensor(windows.data[i:i + 1]), mode="eval")
        assert np.array_equal(li.data[0], logits.data[i])
        assert np.array_equal(pi.data[0], p.data[i])


def test_conv2d_is_batch_invariant():
    x = bulk_uniform(21, (9, 32, 8, 8)).astype(np.float32) - 0.5
    w = bulk_uniform(22, (64, 32, 3, 3)).astype(np.float32) - 0.5
    out = conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
    assert out.shape == (9, 64, 4, 4)
    for i in range(9):
        one = conv2d(Tensor(x[i:i + 1]), Tensor(w), stride=2, padding=1).data
        assert np.array_equal(one[0], out[i])


def test_train_forward_updates_running_statistics():
    model = small_model()
    img = rnd_image(5, 2, 16)
    before = [bn.state.running_mean.copy() for bn in model.bn_layers()]
    model.forward(img, mode="train")
    changed = [
        not np.array_equal(bn.state.running_mean, prev)
        for bn, prev in zip(model.bn_layers(), before)
    ]
    assert all(changed)


# ---------------------------------------------------------------------------
# Targets and loss composition
# ---------------------------------------------------------------------------

def test_affinity_targets_downsample_then_compare():
    gts = rnd_labels(6, 2, 16)
    target = affinity_targets(gts, 3, 2)
    assert target.values.shape == (2, 4, 4)
    # the target is built from the top-left pixel of each 8x8 cell
    for b in range(2):
        anchors = gts[b, ::8, ::8].reshape(-1)
        same = anchors[:, None] == anchors[None, :]
        assert np.array_equal(target.values[b], same.astype(float))


def test_cpnet_forward_validates_batch_agreement():
    model = small_model()
    with pytest.raises(ShapeError, match="do not match"):  # batch sizes differ
        cpnet_forward(model, rnd_image(8, 2, 16), rnd_labels(9, 1, 16))
    with pytest.raises(ShapeError, match="do not match"):  # H and W differ
        cpnet_forward(model, rnd_image(10, 1, 16), rnd_labels(11, 1, 8))
    with pytest.raises(ShapeError, match="do not match"):  # W alone differs
        cpnet_forward(model, rnd_image(10, 1, 16), rnd_labels(11, 1, 16)[:, :, :8])


def test_total_loss_is_the_stated_weighted_sum():
    model = small_model()
    img = rnd_image(12, 2, 16)
    gts = rnd_labels(13, 2, 16)
    logits, aux, p, a = cpnet_forward(model, img, gts)
    terms = total_loss(logits, aux, p, a, gts, WEIGHTS)
    assert terms.prior_unary > 0.0 and terms.prior_global > 0.0
    want = (1.0 * terms.seg.item() + 0.4 * terms.aux.item()
            + 0.7 * (1.3 * terms.prior_unary + 0.5 * terms.prior_global))
    assert terms.total.item() == pytest.approx(want, rel=1e-6)


def test_total_loss_without_prior_branch():
    model = small_model(use_context_prior=False)
    img = rnd_image(14, 1, 16)
    gts = rnd_labels(15, 1, 16)
    logits, aux, p, a = cpnet_forward(model, img, gts)
    assert p is None and a is None
    terms = total_loss(logits, aux, p, a, gts, WEIGHTS)
    assert terms.prior_unary == 0.0 and terms.prior_global == 0.0
    want = terms.seg.item() + 0.4 * terms.aux.item()
    assert terms.total.item() == pytest.approx(want, rel=1e-6)


def test_stock_step_records_52_nodes_and_no_transpose():
    # the prior map stays key-major from the head through both loss terms,
    # so a training step records no transpose
    cfg = TrainConfig()
    model = build_model(cfg)
    img = rnd_image(18, cfg.batch_size, cfg.crop)
    gts = rnd_labels(19, cfg.batch_size, cfg.crop, cfg.num_classes)
    with Graph() as g:
        total_loss(*cpnet_forward(model, img, gts), gts, cfg)
    ops = [bwd.__qualname__.split(".")[0] for _inputs, _out, bwd in g.nodes]
    assert len(ops) == 52
    assert "transpose" not in ops


def test_loss_sees_every_parameter():
    # gradient reaches all trainable tensors in one forward/backward
    model = small_model()
    img = rnd_image(16, 2, 16)
    gts = rnd_labels(17, 2, 16)
    with Graph() as g:
        logits, aux, p, a = cpnet_forward(model, img, gts)
        terms = total_loss(logits, aux, p, a, gts, TrainConfig())
    grads = g.backward(terms.total)
    silent = [q.name for q in model.parameters() if not grads.get(q, np.zeros(1)).any()]
    assert silent == []


@pytest.mark.parametrize("overrides", [
    {},
    GRID16,
    dict(use_context_prior=False),
], ids=["stock", "crop128", "plain"])
def test_backward_returns_each_parameter_its_gradient_in_its_shape_and_dtype(overrides):
    # the optimizer adds these into its velocities as they come, so none
    # may reach it in another shape or dtype than its parameter's
    cfg = TrainConfig(**overrides)
    model = build_model(cfg)
    img = rnd_image(20, cfg.batch_size, cfg.crop)
    gts = rnd_labels(21, cfg.batch_size, cfg.crop, cfg.num_classes)
    with Graph() as g:
        terms = total_loss(*cpnet_forward(model, img, gts), gts, cfg)
    grads = g.backward(terms.total)
    for q in model.parameters():
        assert q in grads, q.name
        assert (grads[q].shape, grads[q].dtype) == (q.shape, q.data.dtype), q.name


def test_grid16_step_differentiates_the_parameters_only_and_keeps_no_scatter_index():
    # nothing reads the image's gradient, so stage 1's conv builds none
    cfg = TrainConfig(**GRID16)
    model = build_model(cfg)
    img = rnd_image(22, cfg.batch_size, cfg.crop)
    gts = rnd_labels(23, cfg.batch_size, cfg.crop, cfg.num_classes)
    with Graph() as g:
        terms = total_loss(*cpnet_forward(model, img, gts), gts, cfg)
    grads = g.backward(terms.total)
    for q in model.parameters():
        assert (grads[q].shape, grads[q].dtype) == (q.shape, q.data.dtype), q.name
    assert img not in grads
    assert len(g.nodes) == 52


def test_plain_tensors_get_no_gradient_and_record_nothing():
    a, b = Tensor(np.arange(3.0)), Tensor(np.ones(3))
    w = T.Parameter("w", np.full(3, 2.0))
    with Graph() as g:
        prod = T.mul(a, b)
        assert g.nodes == []
        loss = T.sum_all(T.mul(prod, w))
    grads = g.backward(loss)
    assert len(g.nodes) == 2
    assert a not in grads and b not in grads and prod not in grads
    assert np.array_equal(grads[w], a.data)


def test_single_step_decreases_the_loss_in_at_least_95_of_100_trials():
    wins = 0
    trials = 100
    for trial in range(trials):
        model = small_model(seed=trial)
        img = rnd_image(1000 + trial, 2, 16)
        gts = rnd_labels(2000 + trial, 2, 16)
        params = model.parameters()
        opt = SgdMomentum(params, momentum=0.9, weight_decay=0.0)
        with Graph() as g:
            logits, aux, pr, a = cpnet_forward(model, img, gts)
            before = total_loss(logits, aux, pr, a, gts, TrainConfig())
        opt.step(g.backward(before.total), lr=1e-4)
        logits, aux, pr, a = cpnet_forward(model, img, gts)
        after = total_loss(logits, aux, pr, a, gts, TrainConfig())
        if after.total.item() < before.total.item():
            wins += 1
    assert wins >= 95, f"loss decreased in only {wins}/{trials} trials"
