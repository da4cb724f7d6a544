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
import time
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from . import checkpoint as ckpt
from .data import (
    DataError,
    corpus_stats,
    default_grammar,
    enum_from_json,
    example_from_json,
    generate_synthetic,
    import_bio,
    import_top,
    json_field,
    json_lines,
    read_jsonl,
    write_jsonl,
)
# ``beam_search`` is not called here; perfbench's tracer patches it by this name.
from .decoding import BeamConfig, beam_search, beam_search_batch, decode_sources  # noqa: F401
from .linearize import (
    LinearizeError,
    Query,
    Style,
    TargetSequence,
    validate,
)
from .metrics import LengthMismatch, evaluate
from .model import ConfigValueError, ModelConfig
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
    FileExistsError,
    IsADirectoryError,
    NotADirectoryError,
    json.JSONDecodeError,
    UnicodeDecodeError,
    KeyError,
    ConfigValueError,
)

_MODEL_KEYS = {
    f.name for f in fields(ModelConfig)
} - {"vocab_size", "src_vocab_size", "max_src_len"}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}


def _decode_env(raw: str):
    """An environment value as JSON, or as the plain string when it is not."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def load_flat_config(path: Optional[str]) -> dict:
    """Dotted-key JSON config file plus POINTERPARSE_* environment overrides.
    File values keep their JSON types; each environment value is decoded once."""
    flat: dict = {}
    if path:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(obj, dict):
            raise DataError("config file must hold a JSON object of dotted keys")
        flat.update(obj)
    for name, value in sorted(os.environ.items()):
        if name.startswith(ENV_PREFIX):
            key = name[len(ENV_PREFIX) :].lower().replace("__", ".")
            flat[key] = _decode_env(value)
    return flat


def _config(section: str, cls, kwargs: dict):
    """``cls(**kwargs)``; a bad value is a data error naming its dotted key."""
    try:
        return cls(**kwargs)
    except ConfigValueError as exc:
        raise DataError(f"{section}.{exc}") from None


def build_configs(flat: dict, overrides: dict):
    """Split a flat config, with the non-None ``overrides`` on top, into
    (model kwargs, TrainConfig).  Values keep the types they arrive with."""
    allowed = {"model": _MODEL_KEYS, "train": _TRAIN_KEYS}
    kwargs: dict = {"model": {}, "train": {}}
    for key, value in {**flat, **{k: v for k, v in overrides.items() if v is not None}}.items():
        section, _, field_name = key.partition(".")
        if section not in allowed:
            raise DataError(f"unknown config section in key {key!r}")
        if field_name not in allowed[section]:
            raise DataError(f"unknown config key {key!r}")
        kwargs[section][field_name] = value
    return kwargs["model"], _config("train", TrainConfig, kwargs["train"])


def _print(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def cmd_generate(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
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
        if min(args.utterance_col, args.parse_col) < 0:
            raise UsageError("--utterance-col and --parse-col must not be negative")
        examples = import_top(args.tsv, utterance_col=args.utterance_col, parse_col=args.parse_col)
    write_jsonl(args.out, examples)
    _print(corpus_stats(examples))
    return EXIT_OK


def cmd_train(args) -> int:
    if args.max_src_len is not None and args.max_src_len < 1:
        raise UsageError(f"--max-src-len must be at least 1, got {args.max_src_len}")
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
    model_config = _config("model", ModelConfig, dict(
        vocab_size=symtab.vocab_size,
        src_vocab_size=source_vocab.size,
        max_src_len=symtab.max_src_len,
        **model_kwargs,
    ))
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


def _beam_config(args) -> BeamConfig:
    """``eval`` and ``predict`` read only each query's best result, so the
    search keeps only that one and stops a query once it is final."""
    try:
        return BeamConfig(beam_size=args.beam, n_best=1)
    except ValueError as exc:
        raise UsageError(f"--beam: {exc}") from None


def _predict_batch(model, loaded, queries, beam_config) -> list:
    """The best beam result for each query, with its symbols, as a
    ``(sequence, DecodeResult)`` pair; ``None`` for a query that cannot be
    decoded."""
    pools = decode_sources(model,
                           [loaded.source_vocab.encode(q.tokens) for q in queries],
                           partial(beam_search_batch, config=beam_config),
                           beam_config.beam_size)
    return [None if pool is None else (loaded.symtab.decode(pool[0].ids), pool[0])
            for pool in pools]


def _load_prediction_inputs(path, default_style: Optional[str]):
    items = []
    for obj in json_lines(path):
        style_name = obj.get("style", default_style)
        style = enum_from_json(Style, style_name) if style_name else None
        items.append((Query.from_text(json_field(obj, "query", str)), style))
    return items


def cmd_predict(args) -> int:
    beam_config = _beam_config(args)
    loaded = ckpt.load_checkpoint(ckpt.latest_checkpoint(args.checkpoint), moments=False)
    model = loaded.build_model()
    inputs = _load_prediction_inputs(args.input, args.style)
    best = _predict_batch(model, loaded, [query for query, _ in inputs], beam_config)
    sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for (query, style), parse in zip(inputs, best):
            if parse is None:
                record = {"query": query.raw, "prediction": None, "score": None,
                          "well_formed": None if style is None else False}
            else:
                seq, result = parse
                well_formed = (
                    validate(seq, len(query.tokens), style).ok if style is not None else None
                )
                record = {
                    "query": query.raw,
                    "prediction": seq.to_string(),
                    "score": result.score,
                    "well_formed": well_formed,
                }
            sink.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if args.out:
            sink.close()
    return EXIT_OK


def cmd_eval(args) -> int:
    beam_config = _beam_config(args)
    checkpoint = ckpt.latest_checkpoint(args.checkpoint)
    loaded = ckpt.load_checkpoint(checkpoint, moments=False)
    model = loaded.build_model()
    examples = read_jsonl(args.input)
    start = time.perf_counter()
    best = _predict_batch(model, loaded, [ex.query for ex in examples], beam_config)
    seconds = time.perf_counter() - start
    decoded = [parse for parse in best if parse is not None]
    predictions = [None if parse is None else parse[0] for parse in best]
    references = [ex.target for ex in examples]
    lengths = [len(ex.query.tokens) for ex in examples]
    styles = [ex.style for ex in examples]
    report = evaluate(predictions, references, lengths, styles)
    emitted = [len(seq.symbols) for seq, _ in decoded]
    gold = [len(ref.strip_framing().symbols)
            for ref, parse in zip(references, best) if parse is not None]
    headline = dict(report.to_json(), decode={
        "beam_size": beam_config.beam_size,
        "truncated": sum(result.truncated for _, result in decoded),
        "emitted_len_mean": sum(emitted) / len(emitted) if emitted else 0.0,
        "gold_len_mean": sum(gold) / len(gold) if gold else 0.0,
    })

    report_dir = Path(args.report_dir) if args.report_dir else checkpoint / "eval"
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / "report.json").write_text(json.dumps(headline, sort_keys=True, indent=2) + "\n")
    # Times vary from run to run, so they stay out of the reproducible report.
    timing = {"decode": {"seconds": seconds, "queries_per_s": len(best) / seconds}}
    (report_dir / "timing.json").write_text(json.dumps(timing, sort_keys=True, indent=2) + "\n")
    with open(report_dir / "details.jsonl", "w", encoding="utf-8") as fh:
        for record, parse in zip(report.records, best):
            detail = record.to_json()
            detail["prediction"] = None if parse is None else parse[0].to_string()
            detail["score"] = None if parse is None else parse[1].score
            detail["truncated"] = parse is not None and parse[1].truncated
            fh.write(json.dumps(detail, sort_keys=True) + "\n")
    _print(headline)
    return EXIT_OK


def cmd_linearize(args) -> int:
    for obj in json_lines(args.input):
        sys.stdout.write(example_from_json(obj).target.to_string() + "\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    for obj in json_lines(args.input):
        seq = TargetSequence.from_string(json_field(obj, "target", str))
        report = validate(seq, json_field(obj, "n", int), enum_from_json(Style, obj["style"]))
        _print(
            {
                "well_formed": report.ok,
                "violations": [v.value for v in report.violations],
                "detail": report.detail,
            }
        )
    return EXIT_OK


class UsageError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that raises a bad command line as ``UsageError``,
    so it is reported as one JSON line like every other failure.  Its
    subcommand parsers are of this class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        return _fail(EXIT_USAGE, exc)
    except SystemExit:  # only ``--help`` ends the parser, once its text is printed
        return EXIT_OK
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
