"""End-to-end command-line behavior, run in-process through entry()."""

import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import cpnet
from conftest import tiny_config
from cpnet import _threads
from cpnet.cli import entry
from cpnet.config import serialize_config
from cpnet.data import gen_synthetic_scene
from cpnet.fileio import load_checkpoint, load_dataset, save_checkpoint, write_cpt
from cpnet.labelmap import IGNORE_INDEX
from cpnet.rng import derive
from cpnet.train import TAG_VAL_SCENES


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """Config file, a finished training run, and a dataset directory."""
    root = tmp_path_factory.mktemp("cli")
    cfg = tiny_config()
    cfg_path = str(root / "run.cfg")
    with open(cfg_path, "w", encoding="utf-8") as f:
        f.write(serialize_config(cfg))

    run_dir = str(root / "run")
    assert entry(["train", "--config", cfg_path, "--out", run_dir, "--quiet"]) == 0

    data_dir = str(root / "data")
    assert entry(["gen-data", "--config", cfg_path, "--out", data_dir,
                  "--count", "3"]) == 0
    return {
        "cfg": cfg,
        "config": cfg_path,
        "run": run_dir,
        "ckpt": os.path.join(run_dir, "ckpt_final"),
        "data": data_dir,
    }


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        entry([])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        entry(["frobnicate"])
    assert exc.value.code == 1


def test_gen_data_writes_the_validation_stream(cli_run):
    scenes = load_dataset(cli_run["data"])
    assert len(scenes) == 3
    cfg = cli_run["cfg"]
    base = derive(cfg.seed, TAG_VAL_SCENES)
    for i, scene in enumerate(scenes):
        want = gen_synthetic_scene(derive(base, i), cfg)
        assert np.array_equal(scene.image, want.image)
        assert np.array_equal(scene.labels.labels, want.labels.labels)


def test_train_quiet_prints_summary_only(cli_run, capsys, tmp_path):
    rc = entry(["train", "--config", cli_run["config"],
                "--out", str(tmp_path), "--quiet"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "final pixAcc" in out and "checkpoint:" in out
    assert "step 1/" not in out
    assert os.path.exists(os.path.join(tmp_path, "loss.csv"))


def test_train_progress_lines_without_quiet(cli_run, capsys, tmp_path):
    rc = entry(["train", "--config", cli_run["config"], "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "step 1/4" in out  # first-step progress callback


def test_eval_uses_config_defaults(cli_run, capsys):
    rc = entry(["eval", "--ckpt", cli_run["ckpt"], "--data", cli_run["data"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scenes 3 scales 1.0 flip off" in out
    assert "pixAcc" in out and "mIoU" in out


def test_eval_flag_overrides(cli_run, capsys, tmp_path):
    rc = entry(["eval", "--ckpt", cli_run["ckpt"], "--data", cli_run["data"],
                "--scales", "1.0,1.5", "--flip", "true"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scales 1.0,1.5 flip on" in out
    # a checkpoint whose config turns flipping on can still evaluate without it
    ckpt = str(tmp_path / "ckpt")
    tensors, step, rng_state, _text = load_checkpoint(cli_run["ckpt"])
    save_checkpoint(ckpt, tensors, step, rng_state,
                    serialize_config(replace(cli_run["cfg"], eval_flip=True)))
    assert entry(["eval", "--ckpt", ckpt, "--data", cli_run["data"]]) == 0
    assert "flip on" in capsys.readouterr().out
    assert entry(["eval", "--ckpt", ckpt, "--data", cli_run["data"], "--flip", "false"]) == 0
    assert "flip off" in capsys.readouterr().out
    assert entry(["eval", "--ckpt", ckpt, "--data", cli_run["data"], "--flip", "maybe"]) == 1
    assert "--flip" in capsys.readouterr().err


def test_checkpoint_tensor_of_another_dtype_exits_3(cli_run, capsys, tmp_path):
    # manifest and blob agree on int32, but the model's weight is float32
    ckpt = str(tmp_path / "ckpt")
    tensors, step, rng_state, text = load_checkpoint(cli_run["ckpt"])
    w = tensors["seg_head.weight"]
    tensors["seg_head.weight"] = np.arange(w.size, dtype=np.int32).reshape(w.shape) + 101
    save_checkpoint(ckpt, tensors, step, rng_state, text)
    assert entry(["eval", "--ckpt", ckpt, "--data", cli_run["data"]]) == 3
    err = capsys.readouterr().err
    assert "i/o error:" in err
    assert "seg_head.weight" in err and "int32" in err and "float32" in err


def test_grad_check_single_op(capsys):
    assert entry(["grad-check", "--op", "relu"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok")
    assert "relu" in out and "rel err" in out


def test_grad_check_unknown_op(capsys):
    assert entry(["grad-check", "--op", "quux"]) == 1
    assert "unknown op" in capsys.readouterr().err


def test_grad_check_failure_exits_2(capsys, monkeypatch):
    from cpnet import gradcheck

    monkeypatch.setitem(gradcheck.CHECKS, "always_bad", lambda: 1.0)
    assert entry(["grad-check", "--op", "always_bad"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_bad_config_exits_1(capsys, tmp_path):
    path = str(tmp_path / "bad.cfg")
    with open(path, "w", encoding="utf-8") as f:
        f.write("batch_sise = 8\n")
    assert entry(["gen-data", "--config", path, "--out", str(tmp_path / "d")]) == 1
    assert "config error:" in capsys.readouterr().err


def _run_cli(*args):
    src = os.path.dirname(os.path.dirname(cpnet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "cpnet.cli", *args],
                          env=env, capture_output=True, text=True, timeout=120)


def _run_cli_with_config(tmp_path, line, *args):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    return _run_cli(args[0], "--config", str(path), *args[1:])


@pytest.mark.parametrize("line", ["eval_scales =", "base_lr = nan", "crop = 0",
                                  "max_shape = 100000000000000000000",
                                  "crop = 800000000000000000000", "seed = -1"])
def test_unusable_config_exits_1_without_a_traceback(tmp_path, line):
    proc = _run_cli_with_config(tmp_path, line, "train", "--out", str(tmp_path / "run"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: " + line.split()[0])
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "run").exists()


def test_oversized_scene_exits_1_from_gen_data(tmp_path):
    # scene generation used to end in a bare ValueError from np.empty
    line = "scene_size = 800000000000000000000"
    proc = _run_cli_with_config(tmp_path, line, "gen-data", "--out", str(tmp_path / "d"),
                                "--count", "1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: scene_size")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("flag,value", [
    ("--scales", "abc"), ("--scales", "nan"), ("--scales", "inf"), ("--scales", "0"),
    ("--scales", "-1"), ("--scales", ","), ("--scales", "1e308"), ("--scales", "1e30"),
    ("--count", "-5"), ("--count", "0"),
])
def test_bad_numeric_flag_exits_1_without_a_traceback(cli_run, tmp_path, flag, value):
    # --scales used to end in a ValueError or OverflowError traceback (also at
    # 1e30 and 1e308, in resizing), evaluate a 1 px image or exit 1 silently;
    # --count -5 used to report 5 scenes written
    if flag == "--scales":
        proc = _run_cli("eval", "--ckpt", cli_run["ckpt"], "--data", cli_run["data"],
                        f"--scales={value}")
        key = "eval_scales"
    else:
        proc = _run_cli("gen-data", "--config", cli_run["config"],
                        "--out", str(tmp_path / "d"), f"--count={value}")
        key = "val_scenes"
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"config error: {flag}: ")
    assert key in proc.stderr and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "d").exists()


@pytest.mark.parametrize("command", ["train", "gen-data"])
def test_undecodable_config_exits_1(capsys, tmp_path, command):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"crop = 32\nseed = \xff\xfe\n")
    out = tmp_path / "out"
    assert entry([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "not UTF-8" in err
    assert not out.exists()


@pytest.mark.parametrize("target", ["ckpt/manifest.txt", "ckpt/config.txt",
                                    "data/manifest.txt"])
def test_undecodable_text_file_exits_3(cli_run, capsys, tmp_path, target):
    ckpt, data = str(tmp_path / "ckpt"), str(tmp_path / "data")
    shutil.copytree(cli_run["ckpt"], ckpt)
    shutil.copytree(cli_run["data"], data)
    with open(tmp_path / target, "ab") as f:
        f.write(b"\xc3\x28\n")  # a lead byte whose continuation is missing
    assert entry(["eval", "--ckpt", ckpt, "--data", data]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "not UTF-8" in err
    assert os.path.basename(target) in err


def test_missing_config_exits_3(capsys, tmp_path):
    missing = str(tmp_path / "nope.cfg")
    assert entry(["train", "--config", missing, "--out", str(tmp_path / "r")]) == 3
    assert "i/o error:" in capsys.readouterr().err


def test_missing_checkpoint_exits_3(cli_run, capsys, tmp_path):
    assert entry(["eval", "--ckpt", str(tmp_path / "nope"),
                  "--data", cli_run["data"]]) == 3
    assert "i/o error:" in capsys.readouterr().err


@pytest.mark.parametrize("message,shown", [
    ("Unable to allocate 7.45 TiB for an array", "Unable to allocate 7.45 TiB for an array"),
    ("", "an allocation failed"),
])
def test_out_of_memory_exits_3_without_a_traceback(cli_run, capsys, tmp_path, monkeypatch,
                                                  message, shown):
    # a batch_size of 10,000,000 fails this way in scene synthesis; raising
    # it directly allocates nothing
    from cpnet import train

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(train, "train", out_of_memory)
    assert entry(["train", "--config", cli_run["config"], "--out", str(tmp_path / "r")]) == 3
    assert capsys.readouterr().err == f"out of memory: {shown}\n"


@pytest.mark.parametrize("command", ["eval", "dump-prior"])
def test_corrupt_checkpoint_blob_exits_3(cli_run, capsys, tmp_path, command):
    ckpt = str(tmp_path / "ckpt")
    shutil.copytree(cli_run["ckpt"], ckpt)
    blob = sorted(os.listdir(os.path.join(ckpt, "tensors")))[0]
    with open(os.path.join(ckpt, "tensors", blob), "wb") as f:
        f.write(b"garbage")
    if command == "eval":
        argv = ["eval", "--ckpt", ckpt, "--data", cli_run["data"]]
    else:
        argv = ["dump-prior", "--ckpt", ckpt, "--scene", "0", "--out", str(tmp_path / "out")]
    assert entry(argv) == 3
    err = capsys.readouterr().err
    assert "i/o error:" in err and "not a CPT1" in err


@pytest.mark.parametrize("command", ["eval", "dump-prior"])
@pytest.mark.parametrize("edit", [
    ("step = ", "step = abc"),
    ("tensor ", "{} float33 {}"),
    ("tensor ", "{} float32 {} extra"),
    ("rng = ", "rng = 1 2 3"),
    ("step = ", "step = -7"),
], ids=["step", "dtype", "fields", "rng_3_words", "step_negative"])
def test_unparsable_manifest_value_exits_3(cli_run, capsys, tmp_path, command, edit):
    ckpt = str(tmp_path / "ckpt")
    shutil.copytree(cli_run["ckpt"], ckpt)
    manifest = os.path.join(ckpt, "manifest.txt")
    lines = open(manifest, encoding="utf-8").read().splitlines()
    prefix, template = edit
    i = next(n for n, ln in enumerate(lines) if ln.startswith(prefix))
    if prefix == "tensor ":
        _, name, _dtype, shape = lines[i].split(" ")
        lines[i] = "tensor " + template.format(name, shape)
    else:
        lines[i] = template
    with open(manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    if command == "eval":
        argv = ["eval", "--ckpt", ckpt, "--data", cli_run["data"]]
    else:
        argv = ["dump-prior", "--ckpt", ckpt, "--scene", "0", "--out", str(tmp_path / "out")]
    assert entry(argv) == 3
    err = capsys.readouterr().err
    assert "i/o error:" in err and "manifest" in err


def test_eval_scene_id_outside_the_dataset_exits_3(cli_run, capsys, tmp_path):
    # the entry names a real scene, but by a path that leaves the directory
    data = str(tmp_path / "data")
    shutil.copytree(cli_run["data"], data)
    manifest = os.path.join(data, "manifest.txt")
    lines = open(manifest, encoding="utf-8").read().splitlines()
    lines[1] = "../data/" + lines[1]
    with open(manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    assert entry(["eval", "--ckpt", cli_run["ckpt"], "--data", data]) == 3
    err = capsys.readouterr().err
    assert "i/o error:" in err and "../data/00001" in err


def test_eval_repeated_scene_id_exits_3(cli_run, capsys, tmp_path):
    # scored twice, the scene would weigh double in pixAcc and mIoU
    data = str(tmp_path / "data")
    shutil.copytree(cli_run["data"], data)
    manifest = os.path.join(data, "manifest.txt")
    lines = open(manifest, encoding="utf-8").read().splitlines()
    with open(manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(lines + [lines[1]]) + "\n")
    assert entry(["eval", "--ckpt", cli_run["ckpt"], "--data", data]) == 3
    err = capsys.readouterr().err
    assert "i/o error:" in err and "'00001' repeats an earlier entry" in err


def _malformed_dataset(cli_run, tmp_path, part, array):
    data = str(tmp_path / "data")
    shutil.copytree(cli_run["data"], data)
    write_cpt(os.path.join(data, f"00001.{part}.cpt"), array)
    return data


@pytest.mark.parametrize("defect", ["label_shape", "label_class", "label_dtype", "image_dtype",
                                    "empty_side"])
def test_eval_malformed_dataset_exits_3_before_evaluating(cli_run, capsys, tmp_path,
                                                          monkeypatch, defect):
    import cpnet.train

    size = cli_run["cfg"].scene_size
    part, array = "lbl", np.zeros((size, size), dtype=np.int32)
    if defect == "label_shape":
        array = np.zeros((size // 2, size // 2), dtype=np.int32)
    elif defect == "label_class":
        array[3, 5] = cli_run["cfg"].num_classes + 6
    elif defect == "label_dtype":  # would truncate to class 1
        array = np.full((size, size), 1.7, dtype=np.float32)
    elif defect == "empty_side":  # image and labels agree, but resizing has no row to read
        array = np.zeros((0, size), dtype=np.int32)
    else:  # 8-bit intensities, not the [0, 1] floats the model reads
        part, array = "img", np.full((3, size, size), 200, dtype=np.uint8)
    data = _malformed_dataset(cli_run, tmp_path, part, array)
    if defect == "empty_side":
        write_cpt(os.path.join(data, "00001.img.cpt"), np.zeros((3, 0, size), dtype=np.float32))

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate() ran on a malformed dataset")

    monkeypatch.setattr(cpnet.train, "evaluate", refuse)
    assert entry(["eval", "--ckpt", cli_run["ckpt"], "--data", data]) == 3
    err = capsys.readouterr().err
    assert "i/o error:" in err and data in err


def test_eval_dataset_with_pixels_outside_the_unit_interval_exits_3(cli_run, tmp_path):
    # a NaN block in one scene and 50.0 everywhere in another used to score
    # pixAcc 0.3047 and exit 0
    size = cli_run["cfg"].scene_size
    image = np.full((3, size, size), 0.5, dtype=np.float32)
    image[:, 2:6, 3:7] = np.nan
    data = _malformed_dataset(cli_run, tmp_path, "img", image)
    write_cpt(os.path.join(data, "00002.img.cpt"), np.full((3, size, size), 50.0, np.float32))
    proc = _run_cli("eval", "--ckpt", cli_run["ckpt"], "--data", data)
    assert proc.returncode == 3
    assert proc.stderr.startswith("i/o error: ") and proc.stderr.count("\n") == 1
    assert "scene 00001" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("defect", ["no_scenes", "no_labelled_pixel"])
def test_eval_dataset_with_nothing_to_score_exits_3(cli_run, capsys, tmp_path,
                                                    monkeypatch, defect):
    import cpnet.train

    data = str(tmp_path / "data")
    shutil.copytree(cli_run["data"], data)
    if defect == "no_scenes":
        open(os.path.join(data, "manifest.txt"), "w", encoding="utf-8").close()
    else:
        size = cli_run["cfg"].scene_size
        for name in os.listdir(data):
            if name.endswith(".lbl.cpt"):
                write_cpt(os.path.join(data, name),
                          np.full((size, size), IGNORE_INDEX, dtype=np.int32))

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate() ran on a dataset with nothing to score")

    monkeypatch.setattr(cpnet.train, "evaluate", refuse)
    assert entry(["eval", "--ckpt", cli_run["ckpt"], "--data", data]) == 3
    err = capsys.readouterr().err
    assert "i/o error:" in err and data in err


def test_dump_prior_writes_images(cli_run, capsys, tmp_path):
    rc = entry(["dump-prior", "--ckpt", cli_run["ckpt"], "--scene", "0",
                "--out", str(tmp_path)])
    printed = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert [os.path.basename(p) for p in printed] == [
        "prior.pgm", "prior_inv.pgm", "affinity.pgm",
        "input.ppm", "pred.ppm", "gt.ppm",
    ]
    for path in printed:
        assert os.path.getsize(path) > 0


@pytest.mark.parametrize("scene", ["-1", str(1 << 64)])
def test_dump_prior_scene_outside_the_stream_exits_1(cli_run, capsys, tmp_path, scene):
    # the stream index is 64-bit: -1 would alias 2**64 - 1, and 2**64 scene 0
    out = tmp_path / "out"
    assert entry(["dump-prior", "--ckpt", cli_run["ckpt"], "--scene", scene,
                  "--out", str(out)]) == 1
    assert "--scene" in capsys.readouterr().err
    assert not out.exists()


def test_thread_cap_seeds_blas_knobs(monkeypatch):
    monkeypatch.setenv("CPNET_THREADS", "7")
    for knob in _threads._KNOBS:
        monkeypatch.delenv(knob, raising=False)
    _threads.apply_thread_cap()
    assert all(os.environ[k] == "7" for k in _threads._KNOBS)


def test_thread_cap_noop_when_unset(monkeypatch):
    monkeypatch.delenv("CPNET_THREADS", raising=False)
    for knob in _threads._KNOBS:
        monkeypatch.setenv(knob, "sentinel")
    _threads.apply_thread_cap()
    assert all(os.environ[k] == "sentinel" for k in _threads._KNOBS)


HEAP_PROBE = """
import resource
import numpy as np
import cpnet

def one_round():
    # 16 arrays of 2 MiB (below numpy's 4 MiB hugepage cutoff), written and freed
    arrays = [np.ones(2 << 20, dtype=np.uint8) for _ in range(16)]
    del arrays

one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(4):
    one_round()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds only")
def test_import_keeps_freed_heap_resident():
    """Rounds 2-5 reuse round 1's pages instead of faulting them in again."""
    src = os.path.dirname(os.path.dirname(cpnet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", HEAP_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    one_round_pages = 16 * (2 << 20) // resource.getpagesize()
    assert int(out) < one_round_pages // 8
