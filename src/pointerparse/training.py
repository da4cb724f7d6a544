"""Label-smoothed cross-entropy training with Adam and the noam schedule.

The training loop is deterministic on a single thread: batch composition is
a pure function of (seed, epoch), dropout masks come from a counter-based
stream, and checkpoints carry optimizer moments plus that counter, so a
resumed run is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import checkpoint as ckpt
from .autodiff import DropoutRng, Tape
from .data import CorpusExample
from .decoding import decode_sources, greedy_batch, pad_sources
from .linearize import TargetSequence, linearize
from .model import ModelConfig, PointerGeneratorModel
from .training_ops import (
    AdamState,
    GoldOutOfRange,
    NonFiniteGradient,
    adam_step,
    label_smoothed_ce,
    noam_lr,
)
from .vocab import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    SourceVocab,
    SymbolTable,
    build_source_vocab,
    build_symbol_table,
)

__all__ = [
    "TrainConfig",
    "TrainResult",
    "noam_lr",
    "label_smoothed_ce",
    "adam_step",
    "AdamState",
    "NonFiniteGradient",
    "GoldOutOfRange",
    "prepare_corpus",
    "encode_corpus",
    "make_batch",
    "epoch_plan",
    "train_loop",
    "exact_match_rate",
]


@dataclass
class TrainConfig:
    epsilon_ls: float = 0.1
    warmup_steps: int = 600
    batch_size: int = 32
    max_steps: int = 4000
    seed: int = 0
    log_every: int = 50
    eval_every: int = 250
    checkpoint_every: int = 1000
    keep_checkpoints: int = 3
    early_stop_dev_em: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.epsilon_ls < 1.0:
            raise ValueError("epsilon_ls must be in [0, 1)")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be at least 1")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class EncodedExample:
    src_ids: np.ndarray
    tgt_ids: np.ndarray
    gold: TargetSequence


def prepare_corpus(examples: Sequence[CorpusExample], max_src_len: Optional[int] = None):
    """Linearize a corpus and build both vocabularies from it."""
    targets = [linearize(ex.parse, ex.query) for ex in examples]
    lengths = [len(ex.query.tokens) for ex in examples]
    symtab = build_symbol_table(targets, lengths, max_src_len=max_src_len)
    source_vocab = build_source_vocab(ex.query.tokens for ex in examples)
    return symtab, source_vocab


def encode_corpus(
    examples: Sequence[CorpusExample], symtab: SymbolTable, source_vocab: SourceVocab
) -> list[EncodedExample]:
    out = []
    for ex in examples:
        gold = linearize(ex.parse, ex.query)
        out.append(
            EncodedExample(
                src_ids=np.asarray(source_vocab.encode(ex.query.tokens), dtype=np.int64),
                tgt_ids=np.asarray(symtab.encode(gold), dtype=np.int64),
                gold=gold,
            )
        )
    return out


@dataclass
class Batch:
    src_ids: np.ndarray      # [B, n]
    src_mask: np.ndarray     # [B, n] bool
    tgt_in: np.ndarray       # [B, T], BOS-prefixed gold
    gold: np.ndarray         # [B, T], gold shifted left plus EOS
    step_mask: np.ndarray    # [B, T] bool, real target positions
    support_mask: np.ndarray  # [B, |V|+n] bool, smoothing support per example


def make_batch(examples: Sequence[EncodedExample], vocab_size: int) -> Batch:
    batch = len(examples)
    src, mask = pad_sources([ex.src_ids for ex in examples])
    n = src.shape[1]
    t = max(len(ex.tgt_ids) for ex in examples) + 1  # room for EOS / BOS shift
    tgt_in = np.full((batch, t), PAD_ID, dtype=np.int64)
    gold = np.full((batch, t), PAD_ID, dtype=np.int64)
    support = np.zeros((batch, vocab_size + n), dtype=bool)
    for b, ex in enumerate(examples):
        k = len(ex.src_ids)
        m = len(ex.tgt_ids)
        tgt_in[b, 0] = BOS_ID
        tgt_in[b, 1 : m + 1] = ex.tgt_ids
        gold[b, :m] = ex.tgt_ids
        gold[b, m] = EOS_ID
        support[b, :vocab_size] = True
        support[b, PAD_ID] = False
        support[b, vocab_size : vocab_size + k] = True
    step_mask = gold != PAD_ID
    return Batch(src, mask, tgt_in, gold, step_mask, support)


def epoch_plan(
    n_examples: int, batch_size: int, seed: int, epoch: int, lengths: Sequence[int]
) -> list[np.ndarray]:
    """Deterministic batch composition: shuffle, then bucket by source length
    inside windows so batches waste little padding."""
    rng = np.random.default_rng((seed, epoch))
    perm = rng.permutation(n_examples)
    window = max(batch_size * 8, batch_size)
    bucketed: list[int] = []
    for w in range(0, n_examples, window):
        chunk = perm[w : w + window]
        order = np.argsort([lengths[i] for i in chunk], kind="stable")
        bucketed.extend(int(i) for i in chunk[order])
    return [
        np.asarray(bucketed[i : i + batch_size])
        for i in range(0, n_examples, batch_size)
    ]


def exact_match_rate(
    model: PointerGeneratorModel,
    examples: Sequence[CorpusExample],
    symtab: SymbolTable,
    source_vocab: SourceVocab,
) -> float:
    """Greedy-decoding exact match over a corpus (used for dev tracking)."""
    if not examples:
        return 0.0
    # A source that cannot be decoded has no result and scores 0.
    results = decode_sources(model, [source_vocab.encode(ex.query.tokens) for ex in examples],
                             greedy_batch)
    hits = sum(res is not None
               and symtab.decode(res.ids).symbols == linearize(ex.parse, ex.query).symbols
               for res, ex in zip(results, examples))
    return hits / len(examples)


@dataclass
class TrainResult:
    model: PointerGeneratorModel
    symtab: SymbolTable
    source_vocab: SourceVocab
    history: list[dict] = field(default_factory=list)
    best_dev_em: Optional[float] = None
    final_step: int = 0
    checkpoint_dir: Optional[Path] = None


# Fields of a metrics record that read the clock, so differ between twin runs.
TIMING_FIELDS = ("wall_s", "examples_per_s", "tgt_tokens_per_s")


def train_loop(
    train_examples: Sequence[CorpusExample],
    dev_examples: Optional[Sequence[CorpusExample]],
    model_config: ModelConfig,
    train_config: TrainConfig,
    symtab: SymbolTable,
    source_vocab: SourceVocab,
    checkpoint_dir=None,
    resume_from=None,
    quiet: bool = True,
) -> TrainResult:
    """Teacher-forced training over linearized targets.

    Writes ``step_NNNNNN`` checkpoints plus a ``best`` copy selected by dev
    exact match, and appends one JSON object per log interval to
    ``metrics.jsonl`` in the checkpoint directory: ``step``, ``loss``,
    ``lr``, ``dev_em`` (null between dev evaluations), and that step's
    global gradient norm before clipping (``grad_norm``) and clip factor
    (``clip_factor``, 1.0 when unclipped).  Each record also carries
    ``TIMING_FIELDS``: seconds since this call started (``wall_s``), and
    training examples and target tokens per second over the interval since
    the previous record, dev evaluation and checkpoint saves included.  They
    are kept out of checkpoint manifests, which twin runs write identically.
    A resumed run whose checkpoint records another ``checkpoint.provenance``
    (thread variables, numpy, mask stream) first logs one ``warning`` record
    with both, and carries on.
    """
    cfg = train_config
    encoded = encode_corpus(train_examples, symtab, source_vocab)
    lengths = [len(ex.src_ids) for ex in encoded]
    batches_per_epoch = max(1, math.ceil(len(encoded) / cfg.batch_size))

    start_step = 0
    adam = AdamState()
    dropout_rng = DropoutRng(seed=cfg.seed)
    best_dev_em: Optional[float] = None
    warning = None
    if resume_from is not None:
        loaded = ckpt.load_checkpoint(resume_from)
        model = loaded.build_model()
        adam = AdamState(step=loaded.opt_step, m=loaded.opt_m or {}, v=loaded.opt_v or {})
        dropout_rng = DropoutRng(seed=cfg.seed, counter=loaded.dropout_counter)
        start_step = loaded.step
        best_dev_em = loaded.best_dev_em
        current = ckpt.provenance()
        if loaded.provenance is not None and loaded.provenance != current:
            warning = {"step": start_step,
                       "warning": "checkpoint provenance differs from this run's",
                       "checkpoint": loaded.provenance, "current": current}
    else:
        model = PointerGeneratorModel(model_config, seed=cfg.seed)

    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    log_path = None
    if checkpoint_dir is not None:
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
        log_path = checkpoint_dir / "metrics.jsonl"

    history: list[dict] = []
    started = logged_at = time.perf_counter()
    examples = tgt_tokens = 0  # since the previous record

    def log(record: dict) -> None:
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        if not quiet:
            print(json.dumps(record, sort_keys=True))

    def emit(record: dict) -> None:
        history.append(record)
        log(record)

    if warning is not None:
        log(warning)  # not a metrics record: kept out of history and manifests

    def save(step: int, tag: Optional[str] = None) -> Path:
        target = checkpoint_dir / (tag or f"step_{step:06d}")
        ckpt.save_checkpoint(
            target,
            model,
            symtab,
            source_vocab,
            cfg.to_json(),
            step=step,
            opt_m=adam.m,
            opt_v=adam.v,
            opt_step=adam.step,
            dropout_counter=dropout_rng.counter,
            metrics={k: v for k, v in history[-1].items() if k not in TIMING_FIELDS} if history else {},
            best_dev_em=best_dev_em,
        )
        return target

    plan_epoch = -1
    plan: list[np.ndarray] = []
    step = start_step
    stop = False
    while step < cfg.max_steps and not stop:
        step += 1
        epoch, offset = divmod(step - 1, batches_per_epoch)
        if epoch != plan_epoch:
            plan = epoch_plan(len(encoded), cfg.batch_size, cfg.seed, epoch, lengths)
            plan_epoch = epoch
        batch = make_batch([encoded[i] for i in plan[offset]], symtab.vocab_size)
        examples += len(plan[offset])
        tgt_tokens += int(batch.step_mask.sum())

        model.zero_grad()
        with Tape() as tape:
            logits = model.forward_teacher_forced(
                batch.src_ids, batch.src_mask, batch.tgt_in, train=True, rng=dropout_rng
            )
            loss = label_smoothed_ce(
                logits, batch.gold, batch.step_mask, batch.support_mask, cfg.epsilon_ls
            )
            tape.backward(loss)
        lr = noam_lr(step, model_config.d_model, cfg.warmup_steps)
        try:
            grad_norm, clip_factor = adam_step(model.parameters(), adam, lr)
        except NonFiniteGradient:
            emit({"step": step, "error": "non_finite_gradient"})
            raise

        dev_em = None
        if dev_examples is not None and (step % cfg.eval_every == 0 or step == cfg.max_steps):
            dev_em = exact_match_rate(model, dev_examples, symtab, source_vocab)
            if best_dev_em is None or dev_em > best_dev_em:
                best_dev_em = dev_em
                if checkpoint_dir is not None:
                    save(step, tag="best")
            if cfg.early_stop_dev_em is not None and dev_em >= cfg.early_stop_dev_em:
                stop = True
        if step % cfg.log_every == 0 or dev_em is not None or step == cfg.max_steps or stop:
            now = time.perf_counter()
            elapsed = now - logged_at
            emit({"step": step, "loss": loss.item(), "lr": lr, "dev_em": dev_em,
                  "grad_norm": grad_norm, "clip_factor": clip_factor, "wall_s": now - started,
                  "examples_per_s": examples / elapsed, "tgt_tokens_per_s": tgt_tokens / elapsed})
            logged_at, examples, tgt_tokens = now, 0, 0
        if checkpoint_dir is not None and (
            step % cfg.checkpoint_every == 0 or step == cfg.max_steps or stop
        ):
            save(step)
            ckpt.prune_checkpoints(checkpoint_dir, cfg.keep_checkpoints)

    return TrainResult(
        model=model,
        symtab=symtab,
        source_vocab=source_vocab,
        history=history,
        best_dev_em=best_dev_em,
        final_step=step,
        checkpoint_dir=checkpoint_dir,
    )
