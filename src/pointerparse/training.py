"""Label-smoothed cross-entropy training with Adam and the noam schedule.

The training loop is deterministic on a single thread: batch composition is
a pure function of (seed, epoch), dropout masks come from a counter-based
stream, and checkpoints carry optimizer moments plus that counter, so a
resumed run is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import checkpoint as ckpt
from .autodiff import DropoutRng, Tape
from .data import CorpusExample, DataError
from .decoding import decode_sources, greedy_batch, pad_sources
from .metrics import exact_match
from .model import ModelConfig, PointerGeneratorModel, require_fraction, require_int
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
        require_fraction(self, "epsilon_ls")
        for name in ("warmup_steps", "batch_size", "max_steps", "log_every", "eval_every",
                     "checkpoint_every"):
            require_int(self, name, 1)
        require_int(self, "seed", 0)
        require_int(self, "keep_checkpoints", 0)  # 0 prunes nothing
        if self.early_stop_dev_em is not None:
            require_fraction(self, "early_stop_dev_em", upto_one=True)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class EncodedExample:
    src_ids: np.ndarray
    tgt_ids: np.ndarray


def prepare_corpus(examples: Sequence[CorpusExample], max_src_len: Optional[int] = None):
    """Both vocabularies of a corpus: the symbols of its targets, and its words."""
    lengths = [len(ex.query.tokens) for ex in examples]
    symtab = build_symbol_table([ex.target for ex in examples], lengths, max_src_len=max_src_len)
    source_vocab = build_source_vocab(ex.query.tokens for ex in examples)
    return symtab, source_vocab


def encode_corpus(
    examples: Sequence[CorpusExample], symtab: SymbolTable, source_vocab: SourceVocab
) -> list[EncodedExample]:
    """Source and target ids of each example.  An example with an empty
    query, or one longer than the symbol table's ``max_src_len``, is refused
    (DataError, naming its index): the model has no source token to encode
    for the first, and no position for the second's tokens past the limit."""
    for i, ex in enumerate(examples):
        n = len(ex.query.tokens)
        if not n:
            raise DataError(f"training example {i} has an empty query")
        if n > symtab.max_src_len:
            raise DataError(f"training example {i} has {n} query tokens, "
                            f"above max_src_len {symtab.max_src_len}")
    return [EncodedExample(
        src_ids=np.asarray(source_vocab.encode(ex.query.tokens), dtype=np.int64),
        tgt_ids=np.asarray(symtab.encode(ex.target), dtype=np.int64),
    ) for ex in examples]


@dataclass
class Batch:
    src_ids: np.ndarray      # [B, n]
    src_mask: np.ndarray     # [B, n] bool
    tgt_in: np.ndarray       # [B, T], BOS-prefixed gold
    gold: np.ndarray         # [B, T], gold shifted left plus EOS
    step_mask: np.ndarray    # [B, T] bool, real target positions
    support_mask: np.ndarray  # [B, |V|+n] bool, smoothing support per example


def make_batch(examples: Sequence[EncodedExample], vocab_size: int) -> Batch:
    """Pad examples into one teacher-forced batch of T = longest target + 1
    steps.  ``tgt_in`` is BOS followed by the PAD-padded targets; ``gold`` is
    the padded targets with EOS at each row's own length; ``step_mask`` is
    ``gold != PAD``; ``support_mask`` is every vocabulary id but PAD,
    followed by the source mask (the pointers inside that query)."""
    src, src_mask = pad_sources([ex.src_ids for ex in examples])
    tgt, tgt_mask = pad_sources([ex.tgt_ids for ex in examples])  # padded with 0 == PAD_ID
    batch, t = tgt.shape[0], tgt.shape[1] + 1
    tgt_in = np.full((batch, t), BOS_ID, dtype=np.int64)
    tgt_in[:, 1:] = tgt
    gold = np.full((batch, t), PAD_ID, dtype=np.int64)
    gold[:, :-1] = tgt
    gold[np.arange(batch), tgt_mask.sum(axis=1)] = EOS_ID
    support = np.zeros((batch, vocab_size + src.shape[1]), dtype=bool)
    support[:, :vocab_size] = np.arange(vocab_size) != PAD_ID
    support[:, vocab_size:] = src_mask
    return Batch(src, src_mask, tgt_in, gold, gold != PAD_ID, support)


def epoch_plan(
    n_examples: int, batch_size: int, seed: int, epoch: int, lengths: Sequence[int]
) -> list[np.ndarray]:
    """Deterministic batch composition: shuffle, then stable-sort by source
    length inside windows of ``8 * batch_size`` so batches waste little
    padding."""
    perm = np.random.default_rng((seed, epoch)).permutation(n_examples)
    lengths = np.asarray(lengths)
    window = 8 * batch_size
    windows = np.split(perm, range(window, n_examples, window))
    bucketed = np.concatenate([w[np.argsort(lengths[w], kind="stable")] for w in windows])
    return np.split(bucketed, range(batch_size, n_examples, batch_size))


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
                             greedy_batch, beam_size=1)
    hits = sum(res is not None
               and exact_match(symtab.decode(res.ids), ex.target)
               for res, ex in zip(results, examples))
    return hits / len(examples)


def _drop_records_after(log_path: Path, step: int) -> None:
    """Rewrite a metrics log without its records after ``step``, through a
    fsynced temporary file, so a crash leaves either the old log or the new
    one.  A line that does not parse goes too: a run killed partway through
    a write can leave one, as its last line."""
    kept = []
    for line in log_path.read_text(encoding="utf-8").splitlines():
        with contextlib.suppress(json.JSONDecodeError):
            if json.loads(line)["step"] <= step:
                kept.append(line + "\n")
    partial = log_path.with_name(log_path.name + ".partial")
    with open(partial, "w", encoding="utf-8") as fh:
        fh.writelines(kept)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(partial, log_path)


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


def _forward_backward(model: PointerGeneratorModel, batch: Batch, rng: DropoutRng,
                      epsilon_ls: float) -> float:
    """Teacher-forced training forward, label-smoothed loss and backward of
    one batch on a tape of its own; returns the loss's value.  The backward
    frees the graph, and the tape, which still lists the nodes and so their
    outputs, goes with this frame, so the optimizer step, dev decoding and
    the next forward run with none of this step's activations held."""
    with Tape() as tape:
        logits = model.forward_teacher_forced(
            batch.src_ids, batch.src_mask, batch.tgt_in, train=True, rng=rng
        )
        loss = label_smoothed_ce(logits, batch.gold, batch.step_mask, batch.support_mask, epsilon_ls)
        tape.backward(loss)
    return loss.item()


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
    An example whose target, after BOS, is longer than the model's
    ``max_tgt_len`` is refused (DataError, naming its index) before anything
    is loaded or written.
    A fresh run (no ``resume_from``) refuses (FileExistsError) a
    ``checkpoint_dir`` that holds a run already: a ``metrics.jsonl``, a
    ``best`` or a ``step_<digits>`` checkpoint.
    A resumed run refuses (CheckpointError) a checkpoint whose ``symtab``,
    ``source_vocab`` or ``model_config`` differs from the arguments.  It
    rewrites ``metrics.jsonl`` without the records after the checkpoint's
    step.  If the checkpoint records another ``checkpoint.provenance``
    (thread variables, BLAS kernel core, numpy, mask stream), it logs one ``warning`` record
    with both, and carries on.  Then it logs one ``resumed_from`` record
    with the checkpoint's step.
    """
    cfg = train_config
    encoded = encode_corpus(train_examples, symtab, source_vocab)
    for i, ex in enumerate(encoded):
        if len(ex.tgt_ids) + 1 > model_config.max_tgt_len:  # BOS, then the target
            raise DataError(f"training example {i} has {len(ex.tgt_ids)} target symbols; with "
                            f"BOS they exceed max_tgt_len {model_config.max_tgt_len}")
    lengths = [len(ex.src_ids) for ex in encoded]
    batches_per_epoch = max(1, math.ceil(len(encoded) / cfg.batch_size))

    start_step = 0
    adam = AdamState()
    dropout_rng = DropoutRng(seed=cfg.seed)
    best_dev_em: Optional[float] = None
    warning = None
    if resume_from is not None:
        loaded = ckpt.load_checkpoint(resume_from, moments=True)
        differs = [name for name, ours in (("symtab", symtab), ("source_vocab", source_vocab),
                                           ("model_config", model_config))
                   if ours != getattr(loaded, name)]
        if differs:
            raise ckpt.CheckpointError(f"{resume_from} differs from this run in its "
                                       f"{', '.join(differs)}")
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
        log_path = checkpoint_dir / "metrics.jsonl"
        if resume_from is None and (log_path.exists() or (checkpoint_dir / "best").exists()
                                    or ckpt.step_dirs(checkpoint_dir)):
            raise FileExistsError(f"{checkpoint_dir} holds a training run already: resume it, "
                                  "or train into another directory")
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
        if resume_from is not None and log_path.exists():
            _drop_records_after(log_path, start_step)

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

    # Neither is a metrics record: both are kept out of history and manifests.
    if warning is not None:
        log(warning)
    if resume_from is not None:
        log({"step": start_step, "resumed_from": str(resume_from)})

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
        loss = _forward_backward(model, batch, dropout_rng, cfg.epsilon_ls)
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
            emit({"step": step, "loss": loss, "lr": lr, "dev_em": dev_em,
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
