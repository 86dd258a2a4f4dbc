"""Run-configuration text format: lossless round-trips, helpful failures."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpnet.config import (
    MAX_CLASSES,
    MAX_SIDE,
    ConfigError,
    TrainConfig,
    load_config,
    parse_config,
    serialize_config,
)


def test_default_config_is_valid_and_roundtrips():
    cfg = TrainConfig()
    cfg.validate()
    assert parse_config(serialize_config(cfg)) == cfg


def test_roundtrip_preserves_every_field_type():
    cfg = TrainConfig(
        num_classes=6,
        widths=(8, 16, 24, 24, 32),
        c1=12,
        k=7,
        use_context_prior=False,
        base_lr=1 / 3,
        weight_decay=2.5e-5,
        aug_scales=(0.5, 1.0),
        eval_scales=(1.25,),
        eval_flip=True,
        total_iterations=0,
    )
    back = parse_config(serialize_config(cfg))
    assert back == cfg
    assert isinstance(back.widths, tuple)
    assert isinstance(back.eval_flip, bool)
    assert back.base_lr == cfg.base_lr  # repr round-trip, not approximate


@given(st.floats(min_value=1e-8, max_value=10.0, allow_nan=False))
def test_float_fields_roundtrip_exactly(lr):
    cfg = TrainConfig(base_lr=lr)
    assert parse_config(serialize_config(cfg)).base_lr == lr


def test_comments_and_blank_lines_are_ignored():
    text = serialize_config(TrainConfig())
    noisy = "# leading comment\n\n" + text.replace(
        "batch_size = 8", "batch_size = 8  # why not"
    )
    assert parse_config(noisy) == TrainConfig()


def test_unknown_key_error_names_the_line():
    text = "num_classes = 4\nbatch_sise = 8\n"
    with pytest.raises(ConfigError, match="line 2.*batch_sise"):
        parse_config(text)


def test_malformed_line_error_names_the_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")


def test_bad_value_types_are_reported():
    with pytest.raises(ConfigError, match="batch_size"):
        parse_config("batch_size = many\n")
    with pytest.raises(ConfigError, match="true/false"):
        parse_config("eval_flip = yes\n")


def test_tuple_fields_parse_comma_lists():
    cfg = parse_config("aug_scales = 0.5, 1.0, 2.0\nwidths = 4, 4, 8, 8, 8\n")
    assert cfg.aug_scales == (0.5, 1.0, 2.0)
    assert cfg.widths == (4, 4, 8, 8, 8)


@pytest.mark.parametrize(
    "field,value",
    [
        ("crop", 20),
        ("scene_size", 12),
        ("widths", (4, 4, 8)),
        ("base_lr", 0.0),
        ("base_lr", -0.1),
        ("momentum", -0.5),
        ("batch_size", 0),
        ("total_iterations", -1),
        ("num_classes", 1),
        ("k", 4),
        # each below used to pass validation; training then reported the
        # all-background score, stopped on a non-finite loss, or escaped as a
        # raw traceback instead of a ConfigError
        ("eval_scales", ()),
        ("base_lr", float("nan")),
        ("crop", 0),
        ("crop", -8),
        ("scene_size", 0),
        ("aug_scales", ()),
        ("min_shape", 25),
        ("val_scenes", 0),
        ("widths", (4, 4, 0, 8, 8)),
        ("c1", 0),
        # non-positive or non-finite where no value of that kind makes sense
        ("base_lr", float("inf")),
        ("eval_scales", (2.0, 0.0)),
        ("aug_scales", (1.0, float("nan"))),
        ("aug_scales", (-0.5,)),
        ("momentum", float("nan")),
        ("weight_decay", -1e-4),
        ("poly_power", float("inf")),
        ("noise_std", -0.1),
        ("lambda_a", float("nan")),
        ("flip_prob", 1.5),
        ("shadow_prob", float("nan")),
        ("k", -1),
        ("min_shape", 0),
        ("shapes_per_image", -1),
        ("eval_every", -1),
        # larger than any shape a scene can hold; scene generation used to
        # raise a bare OverflowError on it
        ("max_shape", 10 ** 20),
        ("max_shape", 33),
        # sides above MAX_SIDE; at 8e20 scene generation used to raise a
        # bare ValueError from np.empty
        ("scene_size", 8 * 10 ** 20),
        ("crop", 8 * 10 ** 20),
        ("scene_size", MAX_SIDE + 8),
        ("crop", MAX_SIDE + 8),
        # the rng reads seeds modulo 2**64: these trained the runs of seeds
        # 2**64 - 1 and 0
        ("seed", -1),
        ("seed", 2 ** 64),
        # class 8 would be drawn in the background's colour (PALETTE wraps)
        ("num_classes", 9),
    ],
)
def test_validation_rejects_bad_settings(field, value):
    cfg = dataclasses.replace(TrainConfig(), **{field: value})
    with pytest.raises(ConfigError):
        cfg.validate()


def test_large_finite_values_stay_valid():
    dataclasses.replace(TrainConfig(), base_lr=1e25, momentum=0.0, noise_std=0.0,
                        flip_prob=1.0, shadow_prob=0.0, min_shape=24,
                        seed=2 ** 64 - 1).validate()


_KEYS = [f.name for f in dataclasses.fields(TrainConfig)]
_NUMBER_TEXT = st.one_of(
    st.integers(-(10 ** 30), 10 ** 30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "1e400", "0x10", "1_000", "true"]),
)
_VALUE_TEXT = st.one_of(
    _NUMBER_TEXT,
    st.lists(_NUMBER_TEXT, max_size=6).map(", ".join),
    st.text(max_size=12),
)


@given(st.lists(st.tuples(st.sampled_from(_KEYS), _VALUE_TEXT), max_size=6))
def test_fuzzed_config_text_is_a_config_error_or_a_valid_config(lines):
    text = "".join(f"{key} = {value}\n" for key, value in lines)
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    cfg.validate()
    assert parse_config(serialize_config(cfg)) == cfg


def test_parse_validates_the_result():
    with pytest.raises(ConfigError):
        parse_config("crop = 20\n")


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(TrainConfig(batch_size=2)), encoding="utf-8")
    assert load_config(str(path)).batch_size == 2


def test_every_field_appears_in_the_serialized_text():
    text = serialize_config(TrainConfig())
    for f in dataclasses.fields(TrainConfig):
        assert f"{f.name} = " in text
