"""Binary container, image writers, checkpoint and dataset directories."""

import math
import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cpnet import fileio
from cpnet.config import TrainConfig
from cpnet.data import gen_synthetic_scene
from cpnet.fileio import (
    MAGIC,
    FormatError,
    cpt_bytes,
    load_checkpoint,
    load_dataset,
    read_cpt,
    save_checkpoint,
    save_dataset,
    write_cpt,
    write_pgm,
    write_ppm,
)
from cpnet.labelmap import IGNORE_INDEX
from cpnet.rng import bulk_uniform
from cpnet.tensor import ShapeError

DTYPES = [np.float32, np.float64, np.int32, np.uint8]


def sample(dtype, shape, seed=0):
    u = bulk_uniform(seed, shape if shape else (1,)) * 200
    arr = u.astype(dtype)
    return arr.reshape(shape)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("shape", [(), (4,), (2, 3), (2, 3, 4), (1, 2, 3, 4)])
def test_cpt_roundtrip_every_dtype_and_rank(tmp_path, dtype, shape):
    arr = sample(dtype, shape)
    path = str(tmp_path / "a.cpt")
    write_cpt(path, arr)
    back = read_cpt(path)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_cpt_bytes_are_canonical():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    fortran = np.asfortranarray(arr)
    assert cpt_bytes(arr) == cpt_bytes(fortran)
    # golden header: magic, dtype code 0, rank 2, dims 2x2 little-endian
    want_head = MAGIC + bytes([0, 2]) + (2).to_bytes(4, "little") * 2
    assert cpt_bytes(arr).startswith(want_head)
    assert cpt_bytes(arr)[len(want_head):] == arr.tobytes()


def test_cpt_rejects_unsupported_dtype():
    with pytest.raises(ShapeError):
        cpt_bytes(np.zeros(3, dtype=np.int64))


def test_cpt_read_rejects_corruption(tmp_path):
    arr = sample(np.float32, (3, 3))
    path = str(tmp_path / "a.cpt")
    write_cpt(path, arr)
    blob = open(path, "rb").read()

    bad_magic = str(tmp_path / "m.cpt")
    with open(bad_magic, "wb") as f:
        f.write(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="not a CPT1"):
        read_cpt(bad_magic)

    truncated = str(tmp_path / "t.cpt")
    with open(truncated, "wb") as f:
        f.write(blob[:-5])
    with pytest.raises(ValueError, match="size"):
        read_cpt(truncated)

    padded = str(tmp_path / "p.cpt")
    with open(padded, "wb") as f:
        f.write(blob + b"\x00")
    with pytest.raises(ValueError, match="size"):
        read_cpt(padded)

    bad_code = str(tmp_path / "c.cpt")
    with open(bad_code, "wb") as f:
        f.write(blob[:4] + bytes([9]) + blob[5:])
    with pytest.raises(ValueError, match="dtype code"):
        read_cpt(bad_code)


def test_cpt_read_short_header_is_a_format_error(tmp_path):
    path = str(tmp_path / "h.cpt")
    for blob in (b"", b"CPT1", MAGIC + bytes([0])):
        with open(path, "wb") as f:
            f.write(blob)
        with pytest.raises(FormatError, match="not a CPT1"):
            read_cpt(path)


def test_cpt_read_rank_above_numpy_limit_is_a_format_error(tmp_path):
    path = str(tmp_path / "r.cpt")
    with open(path, "wb") as f:
        f.write(MAGIC + bytes([0, 70]) + (1).to_bytes(4, "little") * 70 + bytes(4))
    with pytest.raises(FormatError, match="rank 70"):
        read_cpt(path)


VALID_BLOBS = [cpt_bytes(sample(dt, shape)) for dt in DTYPES for shape in [(), (3,), (2, 3)]]


@st.composite
def cpt_headers(draw):
    """MAGIC, any dtype code and rank, small dims, and a payload of about the right size."""
    code, rank = draw(st.integers(0, 5)), draw(st.integers(0, 255))
    dims = draw(st.lists(st.sampled_from([0, 1, 1, 1, 2]), min_size=rank, max_size=rank))
    size = math.prod(dims) * (4, 8, 4, 1, 1, 1)[code]
    size = min(size, 64) + draw(st.sampled_from([-1, 0, 0, 1]))
    head = MAGIC + bytes([code, rank]) + b"".join(d.to_bytes(4, "little") for d in dims)
    return head + draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))


@st.composite
def damaged_blobs(draw):
    """A valid blob cut short, or with one byte overwritten."""
    blob = draw(st.sampled_from(VALID_BLOBS))
    i = draw(st.integers(0, len(blob) - 1))
    if draw(st.booleans()):
        return blob[:i]
    return blob[:i] + bytes([draw(st.integers(0, 255))]) + blob[i + 1:]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "blob.cpt")


@given(blob=st.one_of(st.binary(max_size=80), cpt_headers(), damaged_blobs()))
def test_cpt_read_fuzzed_blob_is_format_error_or_exact(fuzz_path, blob):
    """Garbage raises FormatError (or OSError), never a numpy exception; a
    blob that does load is exactly the canonical encoding of what it yields."""
    with open(fuzz_path, "wb") as f:
        f.write(blob)
    try:
        arr = read_cpt(fuzz_path)
    except (FormatError, OSError):
        return
    assert cpt_bytes(arr) == blob


def test_pgm_golden_bytes(tmp_path):
    img = np.array([[0, 128], [255, 7]], dtype=np.uint8)
    path = str(tmp_path / "g.pgm")
    write_pgm(path, img)
    assert open(path, "rb").read() == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7])
    with pytest.raises(ShapeError):
        write_pgm(path, img.astype(np.int32))
    with pytest.raises(ShapeError):
        write_pgm(path, img[None])


def test_ppm_golden_bytes(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    path = str(tmp_path / "c.ppm")
    write_ppm(path, img)
    assert open(path, "rb").read() == b"P6\n2 2\n255\n" + bytes(range(12))
    with pytest.raises(ShapeError):
        write_ppm(path, img[..., :2])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def ckpt_fixture():
    tensors = {
        "layer.weight": sample(np.float32, (2, 3), seed=1),
        "layer.running": sample(np.float64, (3,), seed=2),
        "meta.count": np.int32(7).reshape(()),
    }
    return tensors, 123, (1, 2, 3, (1 << 64) - 1), "num_classes = 4\n"


def read_tree(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


def test_checkpoint_roundtrip(tmp_path):
    tensors, step, rng_state, text = ckpt_fixture()
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, tensors, step, rng_state, text)
    got, got_step, got_rng, got_text = load_checkpoint(path)
    assert got_step == step
    assert got_rng == rng_state
    assert got_text == text
    assert set(got) == set(tensors)
    for name in tensors:
        assert np.array_equal(got[name], tensors[name])
        assert got[name].dtype == tensors[name].dtype


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    tensors, step, rng_state, text = ckpt_fixture()
    first = str(tmp_path / "first")
    save_checkpoint(first, tensors, step, rng_state, text)
    loaded = load_checkpoint(first)
    second = str(tmp_path / "second")
    save_checkpoint(second, loaded[0], loaded[1], loaded[2], loaded[3])
    assert read_tree(first) == read_tree(second)


def test_checkpoint_detects_manifest_tampering(tmp_path):
    tensors, step, rng_state, text = ckpt_fixture()
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, tensors, step, rng_state, text)
    manifest = os.path.join(path, "manifest.txt")
    lines = open(manifest, encoding="utf-8").read().splitlines()

    with open(manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(lines + ["mystery entry"]) + "\n")
    with pytest.raises(ValueError, match="unrecognized"):
        load_checkpoint(path)

    # manifest/blob disagreement on shape
    tampered = [
        ln.replace("2x3", "3x2") if "layer.weight" in ln else ln for ln in lines
    ]
    with open(manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(tampered) + "\n")
    with pytest.raises(ValueError, match="layer.weight"):
        load_checkpoint(path)

    # and on dtype
    tampered = [
        ln.replace("float32", "float64") if "layer.weight" in ln else ln for ln in lines
    ]
    with open(manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(tampered) + "\n")
    with pytest.raises(ValueError, match="layer.weight"):
        load_checkpoint(path)

    with open(manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(ln for ln in lines if not ln.startswith("step")) + "\n")
    with pytest.raises(ValueError, match="missing step"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad_line", [
    "step = abc",
    "rng = 1 2 zz 4",
    "tensor layer.weight float33 2x3",
    "tensor layer.weight float32 2x3 extra",
    "tensor layer.weight float32 2xq",
], ids=["step", "rng", "dtype", "fields", "shape"])
def test_checkpoint_unparsable_manifest_value_is_a_format_error(tmp_path, bad_line):
    tensors, step, rng_state, text = ckpt_fixture()
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, tensors, step, rng_state, text)
    manifest = os.path.join(path, "manifest.txt")
    key = bad_line.split(" ")[0]
    lines = [
        ln for ln in open(manifest, encoding="utf-8").read().splitlines()
        if not ln.startswith(key if key != "tensor" else "tensor layer.weight ")
    ]
    with open(manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(lines + [bad_line]) + "\n")
    with pytest.raises(FormatError, match="manifest"):
        load_checkpoint(path)


def test_checkpoint_overwrite_replaces_the_directory(tmp_path):
    tensors, step, rng_state, text = ckpt_fixture()
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, tensors, step, rng_state, text)
    newer = {name: arr + 1 for name, arr in tensors.items() if name != "meta.count"}
    save_checkpoint(path, newer, step + 1, rng_state, text)
    got, got_step, _rng, _text = load_checkpoint(path)
    assert got_step == step + 1 and set(got) == set(newer)
    assert all(np.array_equal(got[name], newer[name]) for name in newer)
    assert os.listdir(tmp_path) == ["ckpt"]
    assert not os.path.exists(os.path.join(path, "tensors", "meta.count.cpt"))


def fail_on_second_write(monkeypatch):
    written = []
    real = fileio.write_cpt

    def write_cpt(path, arr):
        if written:
            raise OSError("disk full")
        written.append(path)
        real(path, arr)

    monkeypatch.setattr(fileio, "write_cpt", write_cpt)


def test_checkpoint_write_failing_midway_keeps_the_old_one(tmp_path, monkeypatch):
    tensors, step, rng_state, text = ckpt_fixture()
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, tensors, step, rng_state, text)
    before = read_tree(path)

    fail_on_second_write(monkeypatch)
    newer = {name: arr + 1 for name, arr in tensors.items()}
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, newer, step + 1, rng_state, text)

    assert read_tree(path) == before
    got, got_step, _rng, _text = load_checkpoint(path)
    assert got_step == step
    assert all(np.array_equal(got[name], tensors[name]) for name in tensors)
    assert os.listdir(tmp_path) == ["ckpt"]


def test_checkpoint_write_failing_midway_leaves_no_new_directory(tmp_path, monkeypatch):
    tensors, step, rng_state, text = ckpt_fixture()
    fail_on_second_write(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(str(tmp_path / "ckpt"), tensors, step, rng_state, text)
    assert os.listdir(tmp_path) == []


def test_checkpoint_requires_all_blobs(tmp_path):
    tensors, step, rng_state, text = ckpt_fixture()
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, tensors, step, rng_state, text)
    os.remove(os.path.join(path, "tensors", "layer.weight.cpt"))
    with pytest.raises(OSError):
        load_checkpoint(path)


def leaves_its_directory(name):
    """Whether a manifest name could name a file outside its directory."""
    return (name in ("", ".", "..") or os.path.isabs(name)
            or any(sep and sep in name for sep in ("/", os.sep, os.altsep)))


@pytest.mark.parametrize("name", ["../tensors/layer.weight", "../../outside", "/tmp/x",
                                  "tensors/layer.weight", ".", ".."])
def test_checkpoint_tensor_name_outside_tensors_is_a_format_error(tmp_path, name):
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, *ckpt_fixture())
    write_cpt(str(tmp_path / "outside.cpt"), np.zeros(3, dtype=np.float32))
    manifest = os.path.join(path, "manifest.txt")
    with open(manifest, "a", encoding="utf-8") as f:
        f.write(f"tensor {name} float32 3\n")
    with pytest.raises(FormatError, match="plain file name"):
        load_checkpoint(path)


@pytest.mark.parametrize("extra", ["tensor layer.weight float32 2x3", "step = 124",
                                   "rng = 5 6 7 8"], ids=["tensor", "step", "rng"])
def test_checkpoint_repeated_manifest_entry_is_a_format_error(tmp_path, extra):
    # a second line must not silently replace the first
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, *ckpt_fixture())
    with open(os.path.join(path, "manifest.txt"), "a", encoding="utf-8") as f:
        f.write(extra + "\n")
    with pytest.raises(FormatError, match="repeats an earlier entry"):
        load_checkpoint(path)


def fuzzed(*plausible):
    """A plausible token, or any short text."""
    return st.one_of(st.sampled_from(plausible), st.text(max_size=12))


def manifests(*lines):
    """Up to eight lines drawn from ``lines`` or any text, joined by newlines."""
    return st.lists(st.one_of(*lines, st.text(max_size=16)), max_size=8).map("\n".join)


@st.composite
def as_bytes(draw, texts):
    """Text encoded as UTF-8 with a few raw bytes spliced in (often not UTF-8)."""
    raw = draw(texts).encode("utf-8")
    i = draw(st.integers(0, len(raw)))
    return raw[:i] + draw(st.binary(min_size=1, max_size=4)) + raw[i:]


CKPT_MANIFESTS = manifests(
    fuzzed("0", "123", "-4", " 7", "1e3", "0x10", "").map("step = {}".format),
    st.lists(fuzzed("0000000000000001", "ffffffffffffffff", "zz", "-1"), max_size=5).map(
        lambda toks: "rng = " + " ".join(toks)),
    st.tuples(
        fuzzed("layer.weight", "layer.running", "meta.count", "", "../tensors/layer.weight"),
        fuzzed("float32", "float64", "int32", "uint8", "float33"),
        fuzzed("2x3", "3", "scalar", "3x2", "2xq", "-1", "0"),
    ).map(lambda t: "tensor {} {} {}".format(*t)),
)


@pytest.fixture(scope="module")
def fuzz_ckpt(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "ckpt")
    save_checkpoint(path, *ckpt_fixture())
    return path


@given(manifest=st.one_of(CKPT_MANIFESTS, as_bytes(CKPT_MANIFESTS), st.binary(max_size=80)))
@example(manifest="step = 1\nrng = 1 2 3 4\ntensor ../tensors/layer.weight float32 2x3")
@example(manifest="step = 1\nrng = 1 2 3 4\ntensor meta.count int32 scalar\n"
                  "tensor meta.count int32 scalar")
@example(manifest="step = 1\nrng = 1 2 3 4\nstep = 2")
def test_checkpoint_fuzzed_manifest_is_format_error_or_loads(fuzz_ckpt, manifest):
    """Fuzzed step, rng and tensor lines, as text and as raw bytes: only
    FormatError or OSError escapes, and a manifest that loads names each
    entry once and gives typed values read from files inside its
    ``tensors/`` directory."""
    if isinstance(manifest, str):
        manifest = manifest.encode("utf-8")
    with open(os.path.join(fuzz_ckpt, "manifest.txt"), "wb") as f:
        f.write(manifest)
    try:
        tensors, step, rng_state, _text = load_checkpoint(fuzz_ckpt)
    except (FormatError, OSError):
        return
    assert isinstance(step, int)
    assert all(isinstance(word, int) for word in rng_state)
    assert all(isinstance(arr, np.ndarray) for arr in tensors.values())
    assert not any(leaves_its_directory(name) for name in tensors)
    keys = [ln.strip().split(" ")[0] for ln in manifest.decode("utf-8").split("\n")
            if ln.strip()]
    assert keys.count("step") == keys.count("rng") == 1
    assert keys.count("tensor") == len(tensors)


# ---------------------------------------------------------------------------
# Dataset directories
# ---------------------------------------------------------------------------

def test_dataset_roundtrip(tmp_path):
    cfg = TrainConfig(scene_size=16, min_shape=4, max_shape=8)
    scenes = [gen_synthetic_scene(seed, cfg) for seed in (5, 6, 7)]
    path = str(tmp_path / "data")
    save_dataset(path, scenes)
    back = load_dataset(path)
    assert len(back) == 3
    for a, b in zip(scenes, back):
        assert np.array_equal(a.image, b.image)
        assert a.image.dtype == b.image.dtype
        assert np.array_equal(a.labels.labels, b.labels.labels)
        assert a.seed == b.seed


def test_dataset_manifest_lists_every_pair(tmp_path):
    cfg = TrainConfig(scene_size=8, min_shape=3, max_shape=5)
    path = str(tmp_path / "data")
    save_dataset(path, [gen_synthetic_scene(1, cfg)])
    names = sorted(os.listdir(path))
    assert names == ["00000.img.cpt", "00000.lbl.cpt", "manifest.txt"]
    assert open(os.path.join(path, "manifest.txt")).read() == "00000 seed=1\n"


def test_dataset_rejects_image_label_shape_mismatch(tmp_path):
    cfg = TrainConfig(scene_size=16, min_shape=4, max_shape=8)
    path = str(tmp_path / "data")
    save_dataset(path, [gen_synthetic_scene(3, cfg)])
    write_cpt(os.path.join(path, "00000.lbl.cpt"), np.zeros((8, 8), dtype=np.int32))
    with pytest.raises(FormatError, match="00000"):
        load_dataset(path)
    write_cpt(os.path.join(path, "00000.lbl.cpt"), np.zeros(16 * 16, dtype=np.int32))
    with pytest.raises(FormatError, match="00000"):
        load_dataset(path)


def test_dataset_reads_uint8_labels_as_int32_and_keeps_a_float64_image(tmp_path):
    cfg = TrainConfig(scene_size=16, min_shape=4, max_shape=8)
    scene = gen_synthetic_scene(3, cfg)
    path = str(tmp_path / "data")
    save_dataset(path, [scene])
    labels = scene.labels.labels.copy()
    labels[0, 0] = IGNORE_INDEX
    write_cpt(os.path.join(path, "00000.lbl.cpt"), labels.astype(np.uint8))
    write_cpt(os.path.join(path, "00000.img.cpt"), scene.image.astype(np.float64))
    (back,) = load_dataset(path)
    assert back.labels.labels.dtype == np.int32
    assert np.array_equal(back.labels.labels, labels)
    assert back.image.dtype == np.float64
    assert np.array_equal(back.image, scene.image)


@pytest.mark.parametrize("entry", ["00000 seed=abc", "00000 seed", "00000 key=1",
                                   "00000 seed=1 seed=2", "00000 seed=1 extra"])
def test_dataset_unparsable_manifest_seed_is_a_format_error(tmp_path, entry):
    cfg = TrainConfig(scene_size=8, min_shape=3, max_shape=5)
    path = str(tmp_path / "data")
    save_dataset(path, [gen_synthetic_scene(1, cfg)])
    with open(os.path.join(path, "manifest.txt"), "w", encoding="utf-8") as f:
        f.write(entry + "\n")
    with pytest.raises(FormatError, match="manifest entry"):
        load_dataset(path)


@pytest.mark.parametrize("sid", ["../data/00000", "../00000", "/tmp/00000", ".."])
def test_dataset_scene_id_outside_the_directory_is_a_format_error(tmp_path, sid):
    cfg = TrainConfig(scene_size=8, min_shape=3, max_shape=5)
    path = str(tmp_path / "data")
    save_dataset(path, [gen_synthetic_scene(1, cfg)])
    save_dataset(str(tmp_path), [gen_synthetic_scene(2, cfg)])  # a loadable ../00000
    with open(os.path.join(path, "manifest.txt"), "w", encoding="utf-8") as f:
        f.write(f"{sid} seed=1\n")
    with pytest.raises(FormatError, match="plain file name"):
        load_dataset(path)


@pytest.mark.parametrize("manifest", ["00000 seed=1\n00000 seed=1\n",
                                      "00000 seed=1\n00001 seed=2\n00000 seed=7\n"])
def test_dataset_repeated_scene_id_is_a_format_error(tmp_path, manifest):
    cfg = TrainConfig(scene_size=8, min_shape=3, max_shape=5)
    path = str(tmp_path / "data")
    save_dataset(path, [gen_synthetic_scene(seed, cfg) for seed in (1, 2)])
    with open(os.path.join(path, "manifest.txt"), "w", encoding="utf-8") as f:
        f.write(manifest)
    with pytest.raises(FormatError, match="'00000' repeats an earlier entry"):
        load_dataset(path)


DATASET_MANIFESTS = manifests(
    st.tuples(fuzzed("00000", "00001", "00002", "", "../data/00000"),
              fuzzed("seed=1", "seed=-3", "seed=", "seed", "seed=0x1", "1", "key=1",
                     "seed=1 seed=2", "seed=1 x")).map(" ".join),
)


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    cfg = TrainConfig(scene_size=8, min_shape=3, max_shape=5)
    path = str(tmp_path_factory.mktemp("fuzz") / "data")
    save_dataset(path, [gen_synthetic_scene(seed, cfg) for seed in (1, 2)])
    return path


@given(manifest=st.one_of(DATASET_MANIFESTS, as_bytes(DATASET_MANIFESTS), st.binary(max_size=80)))
@example(manifest="00000 seed=1\n../data/00001 seed=2")
@example(manifest="00000 seed=1\n00000 seed=1")
@example(manifest="00000 key=1\n00001 seed=2 seed=3")
def test_dataset_fuzzed_manifest_is_format_error_or_loads(fuzz_dataset, manifest):
    """Fuzzed scene entries, as text and as raw bytes: only FormatError or
    OSError escapes, and a manifest that loads names each scene once, with
    at most a ``seed=`` field, and only files of its own directory, each
    scene an image with its labels."""
    if isinstance(manifest, str):
        manifest = manifest.encode("utf-8")
    with open(os.path.join(fuzz_dataset, "manifest.txt"), "wb") as f:
        f.write(manifest)
    try:
        scenes = load_dataset(fuzz_dataset)
    except (FormatError, OSError):
        return
    entries = [ln.split() for ln in manifest.decode("utf-8").split("\n") if ln.strip()]
    ids = [parts[0] for parts in entries]
    assert not any(leaves_its_directory(sid) for sid in ids)
    assert len(set(ids)) == len(ids) == len(scenes)
    for (_sid, *fields), scene in zip(entries, scenes):
        assert fields == [] or (len(fields) == 1 and fields[0].startswith("seed="))
        assert scene.image.shape == (3, 8, 8) and scene.labels.labels.shape == (8, 8)
        assert scene.seed == (int(fields[0][5:]) if fields else 0)
