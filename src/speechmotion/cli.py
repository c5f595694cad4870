"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/format error. FF_LOG selects the
log level (quiet|info|debug). All randomness flows from --seed flags or the
seed configuration key.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import synthetic
from .config import build_configs
from .decoder import autoregress
from .encoder import AudioInput, check_feature_width, infer_motion_len
from .errors import (
    AudioError,
    ConfigError,
    DivergenceError,
    ShapeError,
    SpeechMotionError,
    UsageError,
)
from .formats import (
    CHECKPOINT_MAGIC,
    MATRIX_MAGIC,
    check_unchanged,
    checkpoint_summary,
    load_checkpoint,
    load_matrix,
    load_motion,
    matrix_header,
    parse_config_lines,
    read_lip_indices,
    read_text,
    read_wav,
    save_checkpoint,
    save_matrix,
    atomic_write_text,
)
from .params import init_params
from .training import export_attention, lip_error, train

log = logging.getLogger("speechmotion")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_F32_MAX = float(np.finfo(np.float32).max)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1
        raise UsageError(message)


def _setup_logging() -> None:
    level = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("FF_LOG", "info").lower()
    if name not in level:
        raise UsageError(f"FF_LOG must be quiet|info|debug, got {name!r}")
    logging.basicConfig(level=level[name], format="%(levelname)s %(name)s: %(message)s")


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    """argparse type for seeds, which must be at least 0."""
    return _int_at_least(text, 0)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on first use and then reused: parsing
    does not change it."""
    parser = _Parser(prog="speechmotion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="write a deterministic synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--identities", type=positive_int, default=2)
    p.add_argument("--sequences", type=positive_int, default=8)
    p.add_argument("--frames", type=positive_int, default=20)
    p.add_argument("--vertices", type=positive_int, default=10)
    p.add_argument("--feature-dim", type=positive_int, default=8)
    p.add_argument("--seed", type=non_negative_int, default=0)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--config", required=True, help="key = value configuration file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--loss-csv", help="loss history CSV (default: <out>.loss.csv)")

    p = sub.add_parser("infer", help="synthesize motion from audio")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--audio", required=True, help=".f32mat features or 16-bit mono .wav")
    p.add_argument("--identity", type=int, required=True)
    p.add_argument("--frames", type=positive_int,
                   help="motion frames (default: from audio length)")
    p.add_argument("--out", required=True, help="motion matrix output path")

    p = sub.add_parser("eval-lip", help="print the lip error between two motion files")
    p.add_argument("pred")
    p.add_argument("truth")
    p.add_argument("lips", help="newline-separated 0-based lip vertex indices")

    p = sub.add_parser("export-attn", help="run one inference and dump attention CSVs")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--audio", required=True)
    p.add_argument("--identity", type=int, required=True)
    p.add_argument("--frames", type=positive_int)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("inspect", help="print matrix/checkpoint header information")
    p.add_argument("path")
    return parser


def _check_out_dirs(*paths) -> None:
    """Fail before any work if an output file's directory does not exist."""
    for path in paths:
        if not Path(path).parent.is_dir():
            raise SpeechMotionError(f"{path}: no such directory to write into")


def _load_audio(path: str, cfg) -> AudioInput:
    path = Path(path)
    try:
        if path.suffix.lower() == ".wav":
            samples, rate = read_wav(path)
            return AudioInput.from_waveform(samples, rate)
        features = load_matrix(path)
        check_feature_width(features.shape[1], cfg.feature_dim)
        return AudioInput.from_features(features, cfg.feature_rate)
    except AudioError as exc:
        raise AudioError(f"{path}: {exc}") from None


def _synthesize(args, capture=None):
    """Motion for ``args.audio`` from the ``args.ckpt`` model. A frame that is
    non-finite or outside the float32 range of the output file is an error
    naming the checkpoint, and a failed allocation one naming the audio file
    and the frame count, raised before anything is written. So is a
    checkpoint rewritten in place while its payloads were mapped. An
    ``--identity`` that the checkpoint has no style row for is an error
    naming the flag and the checkpoint, raised before the audio is read."""
    params, cfg = load_checkpoint(args.ckpt, for_inference=True)
    if not 0 <= args.identity < cfg.identities:
        raise SpeechMotionError(
            f"--identity {args.identity} is out of range: {args.ckpt} has "
            f"{cfg.identities} identities (0 to {cfg.identities - 1})"
        )
    audio = _load_audio(args.audio, cfg)
    try:
        with np.errstate(all="ignore"):  # an overflow is reported below, by frame
            motion = autoregress(audio, args.identity, args.frames, params, cfg, capture)
    except MemoryError:
        frames = args.frames or infer_motion_len(audio.feature_rows, audio.rate, cfg)
        raise SpeechMotionError(
            f"{args.audio}: not enough memory to decode {frames} frames"
        ) from None
    check_unchanged(args.ckpt, params)
    if not (-_F32_MAX <= motion.min() and motion.max() <= _F32_MAX):  # or NaN
        bad = np.flatnonzero(~(np.abs(motion) <= _F32_MAX).all(axis=1))[0]
        raise DivergenceError(
            f"{args.ckpt}: motion frame {bad} is non-finite or outside "
            f"the float32 range"
        )
    return motion


def _cmd_gen_synthetic(args) -> int:
    written = synthetic.gen_synthetic(
        args.out, args.identities, args.sequences, args.frames,
        args.vertices, args.feature_dim, args.seed,
    )
    log.info("wrote %d files to %s", len(written), args.out)
    return EXIT_OK


def _cmd_train(args) -> int:
    loss_csv = args.loss_csv or f"{args.out}.loss.csv"
    _check_out_dirs(args.out, loss_csv)
    try:  # load_dataset reports its own errors as FormatErrors naming its files
        values = parse_config_lines(read_text(args.config))
        dataset, meta = synthetic.load_dataset(args.data)
        cfg, tc = build_configs(values, meta, args.data)
    except ConfigError as exc:
        raise ConfigError(f"{args.config}: {exc}") from None
    log.info("model config: %s", cfg)
    log.info("training config: %s", tc)
    params = init_params(cfg, tc.seed)
    params, history = train(dataset, params, cfg, **asdict(tc))
    save_checkpoint(args.out, params, cfg)
    lines = ["step,epoch,sample,loss,rmse"]
    lines += [
        f"{h.step},{h.epoch},{h.sample},{h.loss:.17g},{h.rmse:.17g}" for h in history
    ]
    atomic_write_text(loss_csv, "\n".join(lines) + "\n")
    if history:
        log.info(
            "trained %d steps; final loss %.6g, rollout rmse %.6g",
            len(history), history[-1].loss, history[-1].rmse,
        )
    log.info("checkpoint written to %s", args.out)
    return EXIT_OK


def _cmd_infer(args) -> int:
    _check_out_dirs(args.out)
    motion = _synthesize(args)
    save_matrix(args.out, motion)
    log.info("wrote %dx%d motion to %s", motion.shape[0], motion.shape[1], args.out)
    return EXIT_OK


def _cmd_eval_lip(args) -> int:
    pred = load_motion(args.pred)
    truth = load_motion(args.truth)
    lips = read_lip_indices(args.lips)
    blame = args.lips if pred.shape == truth.shape else f"{args.pred} vs {args.truth}"
    try:
        error = lip_error(pred, truth, lips)
    except ShapeError as exc:
        raise ShapeError(f"{blame}: {exc}") from None
    print(format(error, ".12g"))
    return EXIT_OK


def _cmd_export_attn(args) -> int:
    records = []
    _synthesize(args, capture=records)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_module: dict[str, list] = {}
    for rec in records:
        by_module.setdefault(rec.module, []).append(rec)
    for module, recs in by_module.items():
        path = out_dir / f"{module.replace('.', '_')}.csv"
        export_attention(recs, path)
        log.info("wrote %s (%d record(s))", path, len(recs))
    return EXIT_OK


def _cmd_inspect(args) -> int:
    path = Path(args.path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == MATRIX_MAGIC:
        version, rows, cols = matrix_header(path)
        print(f"matrix file version {version}: {rows}x{cols} float32")
    elif magic == CHECKPOINT_MAGIC:
        for line in checkpoint_summary(path):
            print(line)
    else:
        print(f"{path}: unrecognized magic {magic!r}")
        return EXIT_DATA
    return EXIT_OK


_COMMANDS = {
    "gen-synthetic": _cmd_gen_synthetic,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval-lip": _cmd_eval_lip,
    "export-attn": _cmd_export_attn,
    "inspect": _cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpeechMotionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
