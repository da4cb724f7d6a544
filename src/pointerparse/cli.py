"""Command-line surface: import, generate, train, eval, predict, linearize,
validate.

Configuration is one JSON file of flat dotted keys (``{"model.d_model": 128,
"train.max_steps": 2000}``); environment variables prefixed ``POINTERPARSE_``
(dots spelled ``__``, e.g. ``POINTERPARSE_TRAIN__MAX_STEPS``) override the
file, and explicit command-line flags override both.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime error.  Every
failure also prints a single machine-parseable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import checkpoint as ckpt
from .data import (
    DataError,
    corpus_stats,
    default_grammar,
    example_from_json,
    generate_synthetic,
    import_bio,
    import_top,
    read_jsonl,
    write_jsonl,
)
from .decoding import BeamConfig, beam_search
from .linearize import (
    LinearizeError,
    Query,
    Style,
    TargetSequence,
    linearize,
    validate,
)
from .metrics import LengthMismatch, evaluate
from .model import ModelConfig
from .training import TrainConfig, prepare_corpus, train_loop
from .vocab import EmptyCorpus, UnknownSymbol

ENV_PREFIX = "POINTERPARSE_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

_DATA_ERRORS = (
    DataError,
    LinearizeError,
    EmptyCorpus,
    UnknownSymbol,
    LengthMismatch,
    ckpt.CheckpointError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    json.JSONDecodeError,
    KeyError,
)

_MODEL_KEYS = {
    f.name for f in fields(ModelConfig)
} - {"vocab_size", "src_vocab_size", "max_src_len"}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}


def _coerce(raw):
    if isinstance(raw, str):
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            return raw
    return raw


def load_flat_config(path: Optional[str]) -> dict:
    """Dotted-key JSON config file plus POINTERPARSE_* environment overrides."""
    flat: dict = {}
    if path:
        obj = json.loads(Path(path).read_text())
        if not isinstance(obj, dict):
            raise DataError("config file must hold a JSON object of dotted keys")
        flat.update(obj)
    for name, value in sorted(os.environ.items()):
        if name.startswith(ENV_PREFIX):
            key = name[len(ENV_PREFIX) :].lower().replace("__", ".")
            flat[key] = _coerce(value)
    return flat


def _section(flat: dict, name: str, allowed: set[str]) -> dict:
    out = {}
    for key, value in flat.items():
        head, _, field_name = key.partition(".")
        if head != name:
            continue
        if field_name not in allowed:
            raise DataError(f"unknown config key {key!r}")
        out[field_name] = _coerce(value)
    return out


def build_configs(flat: dict, overrides: dict):
    """Split a flat config into (model kwargs, TrainConfig)."""
    for key in flat:
        head = key.partition(".")[0]
        if head not in ("model", "train"):
            raise DataError(f"unknown config section in key {key!r}")
    model_kwargs = _section(flat, "model", _MODEL_KEYS)
    train_kwargs = _section(flat, "train", _TRAIN_KEYS)
    for key, value in overrides.items():
        if value is None:
            continue
        section, _, field_name = key.partition(".")
        {"model": model_kwargs, "train": train_kwargs}[section][field_name] = value
    return model_kwargs, TrainConfig(**train_kwargs)


def _print(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def cmd_generate(args) -> int:
    splits = generate_synthetic(default_grammar(), args.count, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, examples in splits.items():
        write_jsonl(out / f"{name}.jsonl", examples)
    run_config = {"command": "generate", "count": args.count, "seed": args.seed}
    (out / "generate.json").write_text(json.dumps(run_config, sort_keys=True, indent=2) + "\n")
    stats = corpus_stats([ex for s in splits.values() for ex in s])
    stats["splits"] = {k: len(v) for k, v in splits.items()}
    _print(stats)
    return EXIT_OK


def cmd_import(args) -> int:
    if args.format == "bio":
        if not (args.tokens and args.tags and args.labels):
            raise UsageError("--format bio needs --tokens, --tags and --labels")
        examples = import_bio(args.tokens, args.tags, args.labels, policy=args.bio_policy)
    else:
        if not args.tsv:
            raise UsageError("--format top needs --tsv")
        examples = import_top(args.tsv, utterance_col=args.utterance_col, parse_col=args.parse_col)
    write_jsonl(args.out, examples)
    _print(corpus_stats(examples))
    return EXIT_OK


def cmd_train(args) -> int:
    corpus_dir = Path(args.corpus)
    train_path = corpus_dir / "train.jsonl" if corpus_dir.is_dir() else corpus_dir
    train_examples = read_jsonl(train_path)
    dev_examples = None
    if corpus_dir.is_dir() and (corpus_dir / "dev.jsonl").exists():
        dev_examples = read_jsonl(corpus_dir / "dev.jsonl")

    flat = load_flat_config(args.config)
    model_kwargs, train_config = build_configs(
        flat,
        {"train.seed": args.seed, "train.max_steps": args.max_steps},
    )
    symtab, source_vocab = prepare_corpus(train_examples, max_src_len=args.max_src_len)
    model_config = ModelConfig(
        vocab_size=symtab.vocab_size,
        src_vocab_size=source_vocab.size,
        max_src_len=symtab.max_src_len,
        **model_kwargs,
    )
    result = train_loop(
        train_examples,
        dev_examples,
        model_config,
        train_config,
        symtab,
        source_vocab,
        checkpoint_dir=args.checkpoint,
        resume_from=args.resume,
        quiet=args.quiet,
    )
    _print(
        {
            "final_step": result.final_step,
            "best_dev_em": result.best_dev_em,
            "checkpoint": str(result.checkpoint_dir),
        }
    )
    return EXIT_OK


def _latest_checkpoint(path: Path) -> Path:
    path = Path(path)
    if (path / "manifest.json").exists():
        return path
    best = path / "best"
    if (best / "manifest.json").exists():
        return best
    steps = sorted(path.glob("step_*"), key=lambda p: int(p.name.split("_")[1]))
    if steps:
        return steps[-1]
    raise ckpt.CheckpointError(f"no checkpoint found under {path}")


def _beam_config(args) -> BeamConfig:
    if args.beam < 1:
        raise UsageError(f"--beam must be at least 1, got {args.beam}")
    return BeamConfig(beam_size=args.beam)


def _predict_batch(model, symtab, source_vocab, examples, beam_config):
    """Decode each input; returns rows of (query, sequence, score, truncated)."""
    rows = []
    for query, style in examples:
        n = len(query.tokens)
        if n == 0 or n > model.config.max_src_len:
            rows.append((query, style, None, float("-inf"), False))
            continue
        src = np.asarray(source_vocab.encode(query.tokens), dtype=np.int64)
        best = beam_search(model, src, beam_config)[0]
        rows.append((query, style, symtab.decode(best.ids), best.score, best.truncated))
    return rows


def _load_prediction_inputs(path, default_style: Optional[str]):
    items = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            style_name = obj.get("style", default_style)
            style = Style(style_name) if style_name else None
            items.append((Query.from_text(obj["query"]), style, obj))
    return items


def cmd_predict(args) -> int:
    beam_config = _beam_config(args)
    loaded = ckpt.load_checkpoint(_latest_checkpoint(args.checkpoint))
    model = loaded.build_model()
    inputs = _load_prediction_inputs(args.input, args.style)
    rows = _predict_batch(
        model, loaded.symtab, loaded.source_vocab, [(q, s) for q, s, _ in inputs], beam_config
    )
    sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for query, style, seq, score, _ in rows:
            if seq is None:
                record = {"query": query.raw, "prediction": None, "score": None, "well_formed": False}
            else:
                well_formed = (
                    validate(seq, len(query.tokens), style).ok if style is not None else None
                )
                record = {
                    "query": query.raw,
                    "prediction": seq.to_string(),
                    "score": score,
                    "well_formed": well_formed,
                }
            sink.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if args.out:
            sink.close()
    return EXIT_OK


def cmd_eval(args) -> int:
    beam_config = _beam_config(args)
    loaded = ckpt.load_checkpoint(_latest_checkpoint(args.checkpoint))
    model = loaded.build_model()
    examples = read_jsonl(args.input)
    rows = _predict_batch(
        model,
        loaded.symtab,
        loaded.source_vocab,
        [(ex.query, ex.style) for ex in examples],
        beam_config,
    )
    predictions = [seq if seq is not None else TargetSequence(()) for _, _, seq, _, _ in rows]
    references = [linearize(ex.parse, ex.query) for ex in examples]
    lengths = [len(ex.query.tokens) for ex in examples]
    styles = [ex.style for ex in examples]
    report = evaluate(predictions, references, lengths, styles)

    report_dir = Path(args.report_dir) if args.report_dir else _latest_checkpoint(args.checkpoint) / "eval"
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / "report.json").write_text(json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")
    with open(report_dir / "details.jsonl", "w", encoding="utf-8") as fh:
        for record, (_, _, seq, score, _) in zip(report.records, rows):
            detail = record.to_json()
            detail["prediction"] = seq.to_string() if seq is not None else None
            detail["score"] = score if score != float("-inf") else None
            fh.write(json.dumps(detail, sort_keys=True) + "\n")
    _print(report.to_json())
    return EXIT_OK


def cmd_linearize(args) -> int:
    source = open(args.input, encoding="utf-8") if args.input else sys.stdin
    try:
        for line in source:
            line = line.strip()
            if not line:
                continue
            example = example_from_json(json.loads(line))
            seq = linearize(example.parse, example.query)
            sys.stdout.write(seq.to_string() + "\n")
    finally:
        if args.input:
            source.close()
    return EXIT_OK


def cmd_validate(args) -> int:
    source = open(args.input, encoding="utf-8") if args.input else sys.stdin
    try:
        for line in source:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            seq = TargetSequence.from_string(obj["target"])
            report = validate(seq, int(obj["n"]), Style(obj["style"]))
            _print(
                {
                    "well_formed": report.ok,
                    "violations": [v.value for v in report.violations],
                    "detail": report.detail,
                }
            )
    finally:
        if args.input:
            source.close()
    return EXIT_OK


class UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointerparse",
        description="Semantic parsing as sequence generation with source pointers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic corpus (train/dev/test JSONL)")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=17)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("import", help="convert BIO triples or bracketed TSV to canonical JSONL")
    p.add_argument("--format", choices=["bio", "top"], required=True)
    p.add_argument("--tokens")
    p.add_argument("--tags")
    p.add_argument("--labels")
    p.add_argument("--bio-policy", choices=["reject", "repair"], default="reject")
    p.add_argument("--tsv")
    p.add_argument("--utterance-col", type=int, default=0)
    p.add_argument("--parse-col", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("train", help="train on a canonical corpus directory")
    p.add_argument("--corpus", required=True, help="directory with train.jsonl (and dev.jsonl)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--max-src-len", type=int)
    p.add_argument("--resume")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a canonical corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--report-dir")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="decode queries from a JSONL file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--style", choices=[s.value for s in Style])
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("linearize", help="canonical JSONL on stdin to target strings on stdout")
    p.add_argument("--input")
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("validate", help='check {"target","n","style"} JSONL for well-formedness')
    p.add_argument("--input")
    p.set_defaults(func=cmd_validate)
    return parser


def _fail(code: int, exc: BaseException) -> int:
    summary = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(summary, sort_keys=True) + "\n")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        return _fail(EXIT_USAGE, exc)
    except _DATA_ERRORS as exc:
        return _fail(EXIT_DATA, exc)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        return _fail(EXIT_RUNTIME, exc)


if __name__ == "__main__":
    sys.exit(main())
