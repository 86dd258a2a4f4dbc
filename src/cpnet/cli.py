"""Command-line surface.

Subcommands: gen-data, train, eval, grad-check, dump-prior.  Exit codes:
0 success, 1 usage or configuration problems, 2 numeric failures
(non-finite loss, failed gradient check), 3 I/O failures and running out
of memory.
"""

from __future__ import annotations

import argparse
import sys


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this project reserves
    2 for numeric failures, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cpnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="write the validation split as a dataset directory")
    p.add_argument("--config", required=True, help="config file")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--count", type=int, default=None,
                   help="number of scenes (default: config val_scenes)")

    p = sub.add_parser("train", help="train from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="run directory for CSVs and checkpoints")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset directory")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--scales", default=None,
                   help="comma-separated scale factors (default: config eval_scales)")
    p.add_argument("--flip", default=None,
                   help="true or false: average flipped passes too (default: config eval_flip)")

    p = sub.add_parser("grad-check", help="compare tape gradients to finite differences")
    p.add_argument("--op", default=None, help="check a single named operation")
    p.add_argument("--full", action="store_true", help="check the whole network")

    p = sub.add_parser("dump-prior", help="export prior/affinity images for a scene")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scene", type=int, required=True,
                   help="index into the checkpoint config's validation stream")
    p.add_argument("--out", required=True)
    return parser


def _override(cfg, key: str, value: str, flag: str):
    """``cfg`` with ``key`` set from a flag's text, under the config file's rules."""
    from .config import ConfigError, override

    try:
        return override(cfg, key, value)
    except ConfigError as e:
        raise ConfigError(f"{flag}: {e}") from None


def _cmd_gen_data(args) -> int:
    from .config import load_config
    from .fileio import save_dataset
    from .train import val_scenes

    cfg = load_config(args.config)
    if args.count is not None:
        cfg = _override(cfg, "val_scenes", str(args.count), "--count")
    save_dataset(args.out, val_scenes(cfg))
    print(f"wrote {cfg.val_scenes} scenes to {args.out}")
    return 0


def _cmd_train(args) -> int:
    from .config import load_config
    from .train import train

    cfg = load_config(args.config)
    progress = None if args.quiet else lambda msg: print(msg, flush=True)
    result = train(cfg, args.out, progress=progress)
    if result["miou"] is not None:
        print(f"final pixAcc {result['pix_acc']:.4f} mIoU {result['miou']:.4f}")
    print(f"checkpoint: {result['checkpoint']}")
    return 0


def _cmd_eval(args) -> int:
    from .fileio import FormatError, load_dataset
    from .labelmap import IGNORE_INDEX, check_classes
    from .train import evaluate, load_model

    model, cfg, _step = load_model(args.ckpt)
    scenes = load_dataset(args.data)
    for i, scene in enumerate(scenes):
        try:
            check_classes(scene.labels.labels, cfg.num_classes)
        except ValueError as e:
            raise FormatError(f"{args.data}: scene {i}: {e}") from e
    if not any((scene.labels.labels != IGNORE_INDEX).any() for scene in scenes):
        raise FormatError(f"{args.data}: no labelled pixel to evaluate")
    if args.scales is not None:
        cfg = _override(cfg, "eval_scales", args.scales, "--scales")
    if args.flip is not None:
        cfg = _override(cfg, "eval_flip", args.flip, "--flip")
    pa, miou = evaluate(model, scenes, cfg.crop, cfg.eval_scales, cfg.eval_flip)
    print(f"scenes {len(scenes)} scales {','.join(str(s) for s in cfg.eval_scales)} "
          f"flip {'on' if cfg.eval_flip else 'off'}")
    print(f"pixAcc {pa:.4f} mIoU {miou:.4f}")
    return 0


def _cmd_grad_check(args) -> int:
    from .gradcheck import CHECKS, TOLERANCE, full_model_check

    failed = False
    if args.full:
        err = full_model_check(progress=lambda msg: print("  " + msg, flush=True))
        ok = err < TOLERANCE
        failed = not ok
        print(f"{'ok' if ok else 'FAIL'} full-model rel err {err:.3e}")
    else:
        names = [args.op] if args.op else sorted(CHECKS)
        for name in names:
            if name not in CHECKS:
                print(f"unknown op {name!r}; available: {', '.join(sorted(CHECKS))}",
                      file=sys.stderr)
                return 1
            err = CHECKS[name]()
            ok = err < TOLERANCE
            failed = failed or not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name:24s} rel err {err:.3e}")
    return 2 if failed else 0


def _cmd_dump_prior(args) -> int:
    from .config import ConfigError
    from .train import dump_prior, load_model, val_scene

    if not 0 <= args.scene < 1 << 64:  # the stream index derive() takes, checked before any I/O
        raise ConfigError(f"--scene: {args.scene} is outside [0, 2**64)")
    model, cfg, _step = load_model(args.ckpt)
    paths = dump_prior(model, val_scene(cfg, args.scene), args.out)
    for path in paths:
        print(path)
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "grad-check": _cmd_grad_check,
    "dump-prior": _cmd_dump_prior,
}


def entry(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from .config import ConfigError
    from .fileio import FormatError
    from .tensor import NumericError

    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except (OSError, FormatError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # numpy's carries the size it could not allocate
        print(f"out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(entry())
