"""Greedy and beam-search inference over the joint vocab+pointer distribution.

Both decoders work on symbol-table ids: ids below ``vocab_size`` are parse
symbols, the rest are pointers.  PAD and BOS are banned outright, pointers at
or beyond the query length are banned per example, and argmax ties break
toward the lowest id so decoding is deterministic.  Generation stops at EOS
or at ``2n + 16`` emitted symbols, whichever comes first; hitting the cap
marks the result truncated.

Decoding is incremental: each ``model.step`` feeds one new symbol per row
to a ``DecoderCache`` built once per batch of queries.  Greedy drops
finished rows from the cache; beam search reorders its rows by parent
hypothesis after every step, and all hypotheses share one encoded query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import PointerGeneratorModel
from .vocab import BOS_ID, EOS_ID, PAD_ID


@dataclass
class BeamConfig:
    beam_size: int = 4
    max_target_len: Optional[int] = None  # default: 2n + 16 per query
    length_normalize: bool = False

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be at least 1")


@dataclass
class Hypothesis:
    """Partial or finished decode: BOS-rooted id sequence plus its score."""

    ids: list[int]  # decoder input ids, ids[0] == BOS
    log_prob: float
    truncated: bool = False

    @property
    def emitted(self) -> list[int]:
        """Output ids without BOS (EOS is never appended to ids)."""
        return self.ids[1:]


@dataclass
class DecodeResult:
    ids: list[int]
    score: float
    truncated: bool = False


def target_cap(n: int) -> int:
    # A tree parse emits at most one open+close pair per node plus n
    # pointers, so 2n + 16 bounds any sane output.
    return 2 * n + 16


def _ban(log_probs: np.ndarray, vocab_size: int, lengths: Sequence[int]) -> np.ndarray:
    out = log_probs.astype(np.float64, copy=True)
    out[:, PAD_ID] = -np.inf
    out[:, BOS_ID] = -np.inf
    for b, n in enumerate(lengths):
        out[b, vocab_size + n :] = -np.inf
    return out


def greedy_batch(
    model: PointerGeneratorModel,
    src_ids: np.ndarray,
    src_mask: np.ndarray,
    max_target_len: Optional[int] = None,
) -> list[DecodeResult]:
    """Argmax decoding for a whole batch at once."""
    src_ids = np.atleast_2d(np.asarray(src_ids))
    src_mask = np.atleast_2d(np.asarray(src_mask, dtype=bool))
    batch = src_ids.shape[0]
    lengths = src_mask.sum(axis=1).astype(int)
    caps = [max_target_len if max_target_len is not None else target_cap(n) for n in lengths]
    cache = model.start_decoding(model.encode(src_ids, src_mask), src_mask)
    v = model.config.vocab_size

    emitted: list[list[int]] = [[] for _ in range(batch)]
    scores = np.zeros(batch, dtype=np.float64)
    truncated = np.zeros(batch, dtype=bool)
    alive = np.arange(batch if min(caps) > 0 else 0)  # batch row of each cache row
    tokens = np.full(alive.size, BOS_ID, dtype=np.int64)
    while alive.size:
        log_probs = _ban(model.step(cache, tokens).log_probs, v, lengths[alive])
        tokens = np.argmax(log_probs, axis=1)
        keep = []
        for r, b in enumerate(alive):
            scores[b] += log_probs[r, tokens[r]]
            if tokens[r] == EOS_ID:
                continue
            emitted[b].append(int(tokens[r]))
            if len(emitted[b]) >= caps[b]:
                truncated[b] = True
            else:
                keep.append(r)
        if len(keep) < alive.size:
            cache.select(keep)
            alive, tokens = alive[keep], tokens[keep]
    return [
        DecodeResult(ids=emitted[b], score=float(scores[b]), truncated=bool(truncated[b]))
        for b in range(batch)
    ]


def greedy(model: PointerGeneratorModel, src_ids: Sequence[int]) -> DecodeResult:
    src = np.asarray(src_ids)[None, :]
    return greedy_batch(model, src, np.ones_like(src, dtype=bool))[0]


def beam_search(
    model: PointerGeneratorModel, src_ids: Sequence[int], config: Optional[BeamConfig] = None
) -> list[DecodeResult]:
    """Beam search over summed log-probabilities; up to beam_size results,
    best first.

    A beam of one follows the argmax path and stops at EOS, which makes it
    greedy decoding by definition.  Wider beams complete liberally: at every
    step each active hypothesis deposits its EOS-closed continuation into
    the finished pool while the top ``beam_size`` non-EOS continuations stay
    active, so stopping never competes with exploring for beam slots (and
    the pool always dominates the greedy stopping point it would have
    taken).  Hypotheses that reach the length cap retire with a truncation
    flag.  Search ends when the beam empties or no active partial score can
    improve on the ``beam_size`` best finished scores (scores only
    decrease).
    """
    config = config or BeamConfig()
    src = np.asarray(src_ids)
    n = src.shape[0]
    cap = config.max_target_len if config.max_target_len is not None else target_cap(n)
    mask = np.ones((1, n), dtype=bool)
    cache = model.start_decoding(model.encode(src[None, :], mask), mask)
    v = model.config.vocab_size
    k = config.beam_size

    active = [Hypothesis(ids=[BOS_ID], log_prob=0.0)]
    finished: list[Hypothesis] = []
    while active:
        dist = model.step(cache, [h.ids[-1] for h in active])
        log_probs = _ban(dist.log_probs, v, [n] * len(active))
        totals = np.asarray([h.log_prob for h in active])[:, None] + log_probs
        if k >= 2:
            for i, hyp in enumerate(active):
                closure = float(totals[i, EOS_ID])
                if closure > -np.inf:
                    finished.append(Hypothesis(hyp.ids, closure))
            totals[:, EOS_ID] = -np.inf  # retired above; slots go to exploration
        flat = totals.reshape(-1)
        # Stable sort on the flattened (hypothesis, token) grid: ties resolve
        # to the earlier hypothesis, then the lower token id.
        order = np.argsort(-flat, kind="stable")[:k]
        next_active: list[Hypothesis] = []
        parents: list[int] = []
        for pos in order:
            hyp_idx, token = divmod(int(pos), totals.shape[1])
            score = float(flat[pos])
            if score == -np.inf:
                continue
            parent = active[hyp_idx]
            if token == EOS_ID:  # only reachable at beam size 1
                finished.append(Hypothesis(parent.ids, score))
                continue
            child = Hypothesis(parent.ids + [token], score)
            if len(child.emitted) >= cap:
                child.truncated = True
                finished.append(child)
            else:
                next_active.append(child)
                parents.append(hyp_idx)
        # The pool only ever needs its best beam_size entries; insertion
        # order is kept among ties so earlier closures win.
        finished.sort(key=lambda h: -h.log_prob)
        del finished[max(k, 1) :]
        active = next_active
        cache.select(parents)
        if len(finished) >= k and active:
            if max(h.log_prob for h in active) <= finished[k - 1].log_prob:
                break
    if config.length_normalize:  # the pool is already in raw-score order
        finished.sort(key=lambda h: -h.log_prob / (len(h.emitted) + 1))
    return [
        DecodeResult(ids=h.emitted, score=h.log_prob, truncated=h.truncated)
        for h in finished[:k]
    ]
