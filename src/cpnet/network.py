"""Toy segmentation network wiring the prior layer into a dilated backbone.

Five conv-BN-ReLU stages at strides (2,2,2,1,1) give output stride 8; the
last two stages trade stride for dilation (2, then 4) so the receptive
field keeps growing at constant resolution.  Stage 5 feeds the context
prior layer and the 1x1 segmentation head; stage 4 feeds an auxiliary
head whose loss regularizes the lower stages in training (eval skips it).
Both logit maps are upsampled x8 back to input resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import affinity
from . import tensor as T
from .config import TrainConfig
from .context_prior import ContextPriorLayer
from .labelmap import LabelMap
from .layers import Conv2d, ConvBnRelu, Module
from .tensor import ShapeError

STRIDES = (2, 2, 2, 1, 1)
DILATIONS = (1, 1, 1, 2, 4)
OUTPUT_STRIDE = 8


class ToyBackbone(Module):
    def __init__(self, widths=(16, 32, 64, 64, 64), seed: int = 0, dtype: str = "float32"):
        if len(widths) != 5:
            raise ShapeError(f"backbone wants 5 stage widths, got {len(widths)}")
        self.widths = tuple(int(c) for c in widths)
        self.stages = []
        cin = 3
        for i, (cout, s, d) in enumerate(zip(self.widths, STRIDES, DILATIONS)):
            self.stages.append(
                ConvBnRelu(f"backbone.stage{i + 1}", cin, cout, 3,
                           stride=s, dilation=d, seed=seed, dtype=dtype)
            )
            cin = cout

    def __call__(self, image: T.Tensor, mode: str) -> tuple[T.Tensor, T.Tensor]:
        if image.data.ndim != 4 or image.shape[1] != 3:
            raise ShapeError(f"backbone expects [B,3,H,W], got {image.shape}")
        h, w = image.shape[2], image.shape[3]
        if h % OUTPUT_STRIDE or w % OUTPUT_STRIDE:
            raise ShapeError(f"input {h}x{w} not divisible by {OUTPUT_STRIDE}")
        x = image
        stage4 = None
        for i, stage in enumerate(self.stages):
            x = stage(x, mode)
            if i == 3:
                stage4 = x
        return stage4, x


class AuxHead(Module):
    """3x3 conv + BN + ReLU + 1x1 conv on the penultimate stage."""

    def __init__(self, name, cin, num_classes, seed=0, dtype="float32"):
        self.block = ConvBnRelu(name + ".block", cin, cin, 3, seed=seed, dtype=dtype)
        self.proj = Conv2d(name + ".proj", cin, num_classes, 1, 1, seed=seed, dtype=dtype)

    def __call__(self, x, mode):
        return self.proj(self.block(x, mode))


class CPNet(Module):
    """Backbone + context prior layer + segmentation and auxiliary heads.

    ``feat_hw`` fixes the feature-map side length the prior head is built
    for (input side / 8), and ``c1`` is the width of the aggregated context
    (``TrainConfig.c1``).  ``use_context_prior=False`` drops the prior
    layer entirely: the seg head then reads the backbone features
    directly, everything else unchanged (the ablation arm).
    """

    def __init__(
        self,
        num_classes: int,
        feat_hw: int,
        c1: int,
        widths=(16, 32, 64, 64, 64),
        k: int = 11,
        use_context_prior: bool = True,
        seed: int = 0,
        dtype: str = "float32",
    ):
        self.num_classes = int(num_classes)
        self.feat_hw = int(feat_hw)
        self.backbone = ToyBackbone(widths, seed, dtype)
        c0 = self.backbone.widths[-1]
        self.c0 = c0
        self.c1 = int(c1)
        n = self.feat_hw * self.feat_hw
        if use_context_prior:
            self.cp_layer = ContextPriorLayer("cp", c0, self.c1, n, k, seed, dtype)
            seg_in = c0 + 2 * self.c1
        else:
            self.cp_layer = None
            seg_in = c0
        self.seg_head = Conv2d("seg_head", seg_in, num_classes, 1, 1, seed=seed, dtype=dtype)
        self.aux_head = AuxHead("aux_head", self.backbone.widths[3], num_classes, seed, dtype)

    def forward(self, image: T.Tensor, mode: str = "train"):
        """Returns (logits, aux_logits, P); P is None without the prior layer,
        aux_logits in eval mode, since only the training loss reads them."""
        stage4, stage5 = self.backbone(image, mode)
        if self.cp_layer is not None:
            feats, p = self.cp_layer(stage5, mode)
        else:
            feats, p = stage5, None
        logits = T.bilinear_upsample(self.seg_head(feats), OUTPUT_STRIDE)
        aux = (T.bilinear_upsample(self.aux_head(stage4, mode), OUTPUT_STRIDE)
               if mode == "train" else None)
        return logits, aux, p


@dataclass
class TotalLossTerms:
    seg: T.Tensor
    aux: T.Tensor
    prior_unary: float
    prior_global: float
    total: T.Tensor


def affinity_targets(gt_batch, num_classes: int, feat_hw: int) -> list[affinity.IdealAffinityMap]:
    """Downsample each ground-truth map to the feature grid and build targets."""
    return [
        affinity.ideal_affinity_map(affinity.downsample_labels(gt, feat_hw, feat_hw), num_classes)
        for gt in gt_batch
    ]


def cpnet_forward(model: CPNet, image: T.Tensor, gt_batch: list[LabelMap]):
    """Forward pass plus affinity targets for the batch."""
    if len(gt_batch) != image.shape[0]:
        raise ShapeError(f"{image.shape[0]} images but {len(gt_batch)} label maps")
    for gt in gt_batch:
        if (gt.height, gt.width) != (image.shape[2], image.shape[3]):
            raise ShapeError(
                f"labels {gt.height}x{gt.width} do not match image "
                f"{image.shape[2]}x{image.shape[3]}"
            )
    logits, aux, p = model.forward(image, mode="train")
    a = affinity_targets(gt_batch, model.num_classes, model.feat_hw) if p is not None else None
    return logits, aux, p, a


def total_loss(
    logits: T.Tensor,
    aux_logits: T.Tensor,
    p: T.Tensor | None,
    a: list[affinity.IdealAffinityMap] | None,
    gt_batch: list[LabelMap],
    cfg: TrainConfig,
) -> TotalLossTerms:
    """L = lambda_s*L_s + lambda_a*L_a + lambda_p*(lambda_u*L_u + lambda_g*L_g),
    with the weights of ``cfg``; without the prior layer the prior terms read 0."""
    labels = np.stack([gt.labels for gt in gt_batch])
    seg = T.softmax_cross_entropy(logits, labels)
    aux = T.softmax_cross_entropy(aux_logits, labels)
    total = T.add(T.scale(seg, cfg.lambda_s), T.scale(aux, cfg.lambda_a))
    pu = pg = 0.0
    if p is not None:
        # called through the module, so wrappers installed on it see each term
        unary = affinity.unary_affinity_loss(p, a)
        glob, _ = affinity.global_affinity_loss(p, a)
        prior = T.add(T.scale(unary, cfg.lambda_u), T.scale(glob, cfg.lambda_g))
        total = T.add(total, T.scale(prior, cfg.lambda_p))
        pu, pg = unary.item(), glob.item()
    return TotalLossTerms(seg=seg, aux=aux, prior_unary=pu, prior_global=pg, total=total)
