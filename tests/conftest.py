"""Shared test configuration.

The hypothesis profile disables deadlines because the run time of some
properties (the brute-force affinity-map oracle among them) grows with
the drawn sizes and varies with machine load; a deadline would flake
without finding anything.
"""

from hypothesis import HealthCheck, settings

from cpnet.config import TrainConfig

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def tiny_config(**overrides) -> TrainConfig:
    """A complete but very small run configuration for trainer-level tests.

    16 px scenes through the stride-8 backbone give a 2x2 feature grid,
    which keeps every train/eval path exercised at interactive speed.
    """
    values = dict(
        num_classes=3,
        widths=(4, 4, 8, 8, 8),
        c1=4,
        k=3,
        crop=16,
        batch_size=2,
        total_iterations=4,
        base_lr=0.05,
        scene_size=16,
        min_shape=6,
        max_shape=12,
        aug_scales=(0.75, 1.0, 1.5),
        val_scenes=4,
        eval_scales=(1.0,),
        eval_flip=False,
        log_every=1,
        eval_every=2,
        checkpoint_every=2,
    )
    values.update(overrides)
    cfg = TrainConfig(**values)
    cfg.validate()
    return cfg
