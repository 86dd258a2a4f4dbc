"""Release gate: the numbered requirements this package must meet.

Each test prints one [PASS]/[FAIL] line with the measured value next to
its threshold (run with -s to watch them stream; pytest shows the lines
for any failing test regardless).  Requirements 6, 7 and 9 share six
reference trainings (three seeds, with and without the prior branch) at
the stock configuration; the fixture takes a few minutes once per run.
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from cpnet.affinity import (
    downsample_labels,
    global_affinity_loss,
    ideal_affinity_map,
    unary_affinity_loss,
)
from cpnet.config import TrainConfig
from cpnet.context_prior import (
    AggregationModule,
    ContextPriorLayer,
    macs_spatial_separable,
    macs_standard_conv,
)
from cpnet.fileio import load_checkpoint
from cpnet.gradcheck import CHECKS, TOLERANCE, full_model_check
from cpnet.labelmap import IGNORE_INDEX
from cpnet.optim import SgdMomentum, poly_lr
from cpnet.rng import Rng, bulk_uniform
from cpnet.tensor import Parameter, Tensor
from cpnet.train import (
    affinity_series,
    load_model,
    save_model,
    train,
    val_scenes,
)

SEEDS = (0, 1, 2)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


@pytest.fixture(scope="module")
def six_runs(tmp_path_factory):
    """Three seeds x {prior, no-prior} at the stock configuration.

    The runs are independent and one seed pins every byte of each, so they
    train in a pool of worker processes (spawned, so no state is inherited).
    """
    root = tmp_path_factory.mktemp("reference_runs")
    jobs = {}
    workers = min(2, os.cpu_count() or 1)
    spawn = multiprocessing.get_context("spawn")
    # one BLAS thread per worker: the pool supplies the parallelism, and
    # workers read the cap from the environment they start with
    with pytest.MonkeyPatch.context() as env:
        env.setenv("CPNET_THREADS", "1")
        with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
            for seed in SEEDS:
                for use_cp in (True, False):
                    cfg = TrainConfig(seed=seed, use_context_prior=use_cp)
                    out = str(root / f"{'cp' if use_cp else 'plain'}_{seed}")
                    jobs[(seed, use_cp)] = (cfg, out, pool.submit(train, cfg, out))
    return {key: {"cfg": cfg, "dir": out, **job.result()}
            for key, (cfg, out, job) in jobs.items()}


def read_tree(root):
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def test_criterion_1_affinity_map_matches_brute_force():
    rng = Rng(101)
    cases = []
    for _ in range(500):
        h = 1 + rng.randint(8)
        w = 1 + rng.randint(8)
        classes = 2 + rng.randint(4)
        labs = np.empty((h, w), dtype=np.int32)
        for i in range(h):
            for j in range(w):
                if rng.uniform() < 0.15:
                    labs[i, j] = IGNORE_INDEX
                else:
                    labs[i, j] = rng.randint(classes)
        labs.flat[0] = 0  # keep at least one valid pixel
        cases.append((labs, classes))

    t0 = time.perf_counter()
    maps = [ideal_affinity_map(labs, classes) for labs, classes in cases]
    elapsed = time.perf_counter() - t0

    bad = 0
    for (labs, _classes), amap in zip(cases, maps):
        flat = labs.reshape(-1)
        valid = flat != IGNORE_INDEX
        n = flat.size
        want = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if valid[i] and valid[j] and flat[i] == flat[j]:
                    want[i, j] = 1.0
        if not (np.array_equal(amap.values, want)
                and np.array_equal(amap.valid, valid)):
            bad += 1

    ok = bad == 0 and elapsed < 5.0
    report(1, ok, f"{bad}/500 maps differ from brute force, "
                  f"built in {elapsed:.2f}s (need 0 and < 5s)")
    assert bad == 0
    assert elapsed < 5.0


def test_criterion_2_loss_zero_points():
    # a prior map equal to its target should score (numerically) zero
    rng = Rng(202)
    worst_u = worst_g = 0.0
    for _ in range(10):
        labs = np.empty((3, 3), dtype=np.int32)
        for idx in range(9):
            if rng.uniform() < 0.2:
                labs.flat[idx] = IGNORE_INDEX
            else:
                labs.flat[idx] = rng.randint(3)
        labs.flat[0] = 0
        amap = ideal_affinity_map(labs[None], 3)
        p = Tensor(amap.values.astype(np.float64))
        worst_u = max(worst_u, unary_affinity_loss(p, amap).item())
        lg, _terms = global_affinity_loss(p, amap)
        worst_g = max(worst_g, lg.item())

    # the uninformative prior on a two-column two-class map has a
    # closed-form score: ln 2 per binary term
    labs2 = np.array([[0, 1], [0, 1]], dtype=np.int32)
    amap2 = ideal_affinity_map(labs2[None], 2)
    p_half = Tensor(np.full((1, 4, 4), 0.5))
    lu = unary_affinity_loss(p_half, amap2).item()
    lg2, _ = global_affinity_loss(p_half, amap2)
    ln2 = math.log(2.0)
    du = abs(lu - ln2)
    dg = abs(lg2.item() - 3.0 * ln2)

    ok = worst_u <= 3e-6 and worst_g <= 3e-6 and du <= 1e-9 and dg <= 1e-9
    report(2, ok, f"perfect-prior losses {worst_u:.2e}/{worst_g:.2e} "
                  f"(<= 3e-6), flat-prior offsets {du:.2e}/{dg:.2e} (<= 1e-9)")
    assert worst_u <= 3e-6 and worst_g <= 3e-6
    assert du <= 1e-9 and dg <= 1e-9


def test_criterion_3_gradients_match_finite_differences():
    t0 = time.perf_counter()
    errs = {name: CHECKS[name]() for name in sorted(CHECKS)}
    full = full_model_check()
    elapsed = time.perf_counter() - t0

    worst_name, worst = max(errs.items(), key=lambda kv: kv[1])
    ok = worst < TOLERANCE and full < TOLERANCE and elapsed < 600.0
    report(3, ok, f"worst op {worst_name} rel err {worst:.2e}, full model "
                  f"{full:.2e} (< {TOLERANCE:g}), {elapsed:.0f}s (< 600s)")
    assert worst < TOLERANCE
    assert full < TOLERANCE
    assert elapsed < 600.0


def test_criterion_4_aggregation_support_and_cost():
    bad_support = []
    for k in (3, 5, 7, 11):
        agg = AggregationModule("agg", 1, 1, k, seed=9)
        for p in agg.parameters():
            if p.name.endswith(".weight"):
                p.value.data[...] = np.abs(p.value.data) + 0.1
        side = k + 4
        c = side // 2
        x = np.zeros((1, 1, side, side), dtype=np.float32)
        x[0, 0, c, c] = 1.0
        out = agg(Tensor(x), mode="eval").data[0, 0]
        r = (k - 1) // 2
        want = np.zeros_like(out, dtype=bool)
        want[c - r:c + r + 1, c - r:c + r + 1] = True
        if not np.array_equal(out != 0, want):
            bad_support.append(k)

    ratios = {
        k: macs_standard_conv(6, 6, k, 16, 16) / macs_spatial_separable(6, 6, k, 16)
        for k in (3, 5, 7, 11)
    }
    bad_ratio = [k for k, r in ratios.items() if r != k / 2]

    ok = not bad_support and not bad_ratio
    report(4, ok, f"support exact for k in (3, 5, 7, 11) minus {bad_support}, "
                  f"cost ratios {sorted(ratios.values())} (need k/2 each)")
    assert not bad_support, bad_support
    assert not bad_ratio, ratios


def test_criterion_5_context_blocks_partition_totals():
    rng = Rng(55)
    worst = 0.0
    for _ in range(100):
        c0 = 2 + rng.randint(3)
        c1 = 2 + rng.randint(4)
        hw = 2 + rng.randint(2)
        n = hw * hw
        layer = ContextPriorLayer("cp", c0, c1, n, k=3, seed=rng.randint(1 << 31))
        x = Tensor(bulk_uniform(rng.u64(), (1, c0, hw, hw)).astype(np.float32))
        out, _p = layer(x, mode="eval")
        totals = layer.aggregation(x, mode="eval").data.sum(axis=(2, 3))
        combined = out.data[:, c0:c0 + c1] + out.data[:, c0 + c1:]
        diff = np.abs(combined - totals[:, :, None, None]).max()
        worst = max(worst, float(diff))

    ok = worst <= 1e-5
    report(5, ok, f"worst |(Y + Ybar) - channel totals| = {worst:.2e} "
                  f"over 100 random layers (<= 1e-5)")
    assert worst <= 1e-5


def test_criterion_6_prior_branch_quality(six_runs):
    cp = sorted(six_runs[(s, True)]["miou"] for s in SEEDS)
    plain = sorted(six_runs[(s, False)]["miou"] for s in SEEDS)
    cp_med, plain_med = cp[1], plain[1]

    ratios = {}
    for s in SEEDS:
        run = six_runs[(s, True)]
        series = dict(affinity_series(os.path.join(run["dir"], "loss.csv")))
        ratios[s] = series[run["cfg"].total_iterations] / series[10]

    ok = (cp_med >= 0.90
          and cp_med >= plain_med - 0.01
          and all(r < 0.5 for r in ratios.values()))
    report(6, ok, f"median mIoU {cp_med:.4f} (>= 0.90), no-prior gap "
                  f"{cp_med - plain_med:+.4f} (>= -0.01), affinity ratios "
                  f"{[round(ratios[s], 3) for s in SEEDS]} (each < 0.5)")
    assert cp_med >= 0.90
    assert cp_med >= plain_med - 0.01
    for s in SEEDS:
        assert ratios[s] < 0.5, (s, ratios[s])


def test_criterion_7_learned_prior_agrees_with_target(six_runs):
    run = six_runs[(0, True)]
    model, cfg, _step = load_model(run["checkpoint"])

    agree = total = 0
    for scene in val_scenes(cfg):
        _logits, _aux, p = model.forward(Tensor(scene.image[None]), mode="eval")
        small = downsample_labels(scene.labels.labels, model.feat_hw, model.feat_hw)
        amap = ideal_affinity_map(small, cfg.num_classes)
        mask = amap.pair_mask()
        pred = p.data[0] > 0.5
        want = amap.values > 0.5
        agree += int((pred[mask] == want[mask]).sum())
        total += int(mask.sum())

    frac = agree / total
    ok = frac >= 0.80
    report(7, ok, f"thresholded prior agrees with the affinity target on "
                  f"{frac:.4f} of {total} held-out pairs (>= 0.80)")
    assert frac >= 0.80


def test_criterion_8_schedule_and_update_rule():
    base = 0.173
    sched_err = abs(poly_lr(500, 1000, base, 0.9) - base * 0.5**0.9) / (base * 0.5**0.9)

    rng = Rng(2024)
    worst = 0.0
    for _ in range(50):
        m = rng.uniform()
        wd = rng.uniform() * 0.1
        gamma0 = 0.01 + rng.uniform()
        power = 0.5 + rng.uniform()
        steps = 5 + rng.randint(10)
        theta = rng.uniform() * 4 - 2
        grads = [rng.uniform() * 2 - 1 for _ in range(steps)]

        p = Parameter("w", Tensor(np.array([theta], dtype=np.float64)))
        opt = SgdMomentum([p], momentum=m, weight_decay=wd)
        v, ref = 0.0, theta
        for s, g in enumerate(grads):
            lr = poly_lr(s, steps, gamma0, power)
            opt.step({p: np.array([g])}, lr=lr)
            v = m * v + (g + wd * ref)
            ref = ref - lr * v
        worst = max(worst, abs(p.value.data[0] - ref) / max(abs(ref), 1e-12))

    ok = sched_err <= 1e-12 and worst <= 1e-12
    report(8, ok, f"half-way schedule rel err {sched_err:.2e}, worst update "
                  f"deviation {worst:.2e} over 50 settings (each <= 1e-12)")
    assert sched_err <= 1e-12
    assert worst <= 1e-12


def test_criterion_9_reproducibility(six_runs, tmp_path):
    ref = six_runs[(0, True)]
    again = train(TrainConfig(seed=0, use_context_prior=True),
                  str(tmp_path / "again"))

    identical_csvs = True
    for name in ("loss.csv", "eval.csv"):
        with open(os.path.join(ref["dir"], name), "rb") as f:
            first = f.read()
        with open(os.path.join(str(tmp_path / "again"), name), "rb") as f:
            second = f.read()
        identical_csvs = identical_csvs and first == second

    model, cfg, step = load_model(ref["checkpoint"])
    _tensors, _step, rng_words, _text = load_checkpoint(ref["checkpoint"])
    resaved = str(tmp_path / "resaved")
    save_model(resaved, model, cfg, step, rng_words)
    roundtrip = read_tree(ref["checkpoint"]) == read_tree(resaved)

    ok = identical_csvs and roundtrip
    report(9, ok, f"rerun CSVs byte-identical: {identical_csvs}, checkpoint "
                  f"load/save byte-identical: {roundtrip} (need both)")
    assert identical_csvs
    assert roundtrip
    assert again["checkpoint"] != ref["checkpoint"]
