"""Batched beam search over the joint vocab+pointer distribution.

One decoder, ``beam_search_batch``, serves every caller: a beam of one is
greedy decoding, and ``beam_search`` and ``greedy`` are batches of one query.
It works on symbol-table ids: ids below ``vocab_size`` are parse symbols, the
rest are pointers.  PAD and BOS are banned outright, pointers at or beyond a
query's length are banned per query, and ties break toward the earlier
hypothesis, then the lower id, so decoding is deterministic.  Generation
stops at EOS or at ``2n + 16`` emitted symbols, whichever comes first;
hitting the cap marks the result truncated.

Decoding is incremental: each ``model.step`` feeds one new symbol for every
live hypothesis of every query in the batch to one ``DecoderCache``.  Its
rows are laid out ``[Q, h]``: every live query has h consecutive rows, and
its source-side state is held once, not per row.  After each step
``cache.select(rows, h)`` reorders the rows by parent hypothesis, and a
query that stops gives its rows up; only then does the source-side state of
the queries after it move down.
Corpus callers decode with ``decode_sources``, which alone decides which
sources can be decoded and pads them in chunks of at most ``DECODE_ROWS``
decoder rows: a beam of k runs ``DECODE_ROWS // k`` queries at a time, and
no beam is wider than ``DECODE_ROWS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import PointerGeneratorModel, target_cap
from .vocab import BOS_ID, EOS_ID, PAD_ID


DECODE_ROWS = 256  # decoder rows per padded batch in decode_sources, and the widest beam


def _check_beam_size(beam_size: int) -> None:
    if not 1 <= beam_size <= DECODE_ROWS:
        raise ValueError(f"beam_size must be 1 to {DECODE_ROWS}, got {beam_size}")


@dataclass
class BeamConfig:
    beam_size: int = 4
    max_target_len: Optional[int] = None  # default: 2n + 16 per query

    def __post_init__(self):
        _check_beam_size(self.beam_size)
        if self.max_target_len is not None and self.max_target_len < 1:
            raise ValueError("max_target_len must be at least 1")


@dataclass
class DecodeResult:
    ids: list[int]  # emitted ids, without BOS and EOS
    score: float
    truncated: bool = False


def pad_sources(sources: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad source id sequences into a [B, n] batch and its mask."""
    src = np.zeros((len(sources), max(len(s) for s in sources)), dtype=np.int64)
    mask = np.zeros(src.shape, dtype=bool)
    for b, ids in enumerate(sources):
        src[b, : len(ids)] = ids
        mask[b, : len(ids)] = True
    return src, mask


def decode_sources(model: PointerGeneratorModel, sources: Sequence[Sequence[int]],
                   decode: Callable, beam_size: int) -> list:
    """Results of ``decode(model, src_ids, src_mask)`` on padded chunks of
    ``DECODE_ROWS // beam_size`` decodable sources, one per source, in input
    order; a ``beam_size`` outside ``1..DECODE_ROWS`` raises ValueError.

    ``decode`` runs at most ``beam_size`` hypotheses per query, so no chunk
    holds more than ``DECODE_ROWS`` decoder cache rows.  A source is
    decodable when it has at least one token and at most the model's
    ``max_src_len``; each other source gets ``None`` in its place.
    """
    _check_beam_size(beam_size)
    results: list = [None] * len(sources)
    usable = [i for i, ids in enumerate(sources) if 0 < len(ids) <= model.config.max_src_len]
    size = DECODE_ROWS // beam_size
    for lo in range(0, len(usable), size):
        chunk = usable[lo : lo + size]
        for i, result in zip(chunk, decode(model, *pad_sources([sources[i] for i in chunk]))):
            results[i] = result
    return results


def rank(grid: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The column indices and values of each row's ``k`` largest entries,
    best first: the first ``k`` columns of a stable descending sort, so ties
    go to the lower index.  Each rank is one ``argmax`` pass, which returns
    the first of equal maxima, and then overwrites its pick with ``-inf``:
    O(k·columns) per row, and ``grid`` is consumed.  Slots past a row's
    finite entries hold ``-inf`` and an index of no meaning.
    """
    rows = np.arange(grid.shape[0])
    order = np.empty((grid.shape[0], min(k, grid.shape[1])), dtype=np.intp)
    top = np.empty(order.shape)
    for j in range(order.shape[1]):
        order[:, j] = pick = grid.argmax(axis=1)
        top[:, j] = grid[rows, pick]
        grid[rows, pick] = -np.inf
    return order, top


def beam_search_batch(
    model: PointerGeneratorModel,
    src_ids: np.ndarray,
    src_mask: np.ndarray,
    config: Optional[BeamConfig] = None,
) -> list[list[DecodeResult]]:
    """Beam search over summed log-probabilities for every query of a padded
    batch; per query up to beam_size results, best first.

    Each query is searched as if it were alone, up to float32 rounding that
    depends on the batch shape; a batch of one is bit-exact.  A beam of one
    follows the argmax path and stops at EOS, which makes it greedy decoding
    by definition.  Wider beams complete liberally: at every step each live
    hypothesis deposits its EOS-closed continuation into its query's finished
    pool while the top ``beam_size`` non-EOS continuations stay live, so
    stopping never competes with exploring for beam slots (and the pool
    always dominates the greedy stopping point it would have taken).
    Candidates are ranked by ``beam_size`` first-maximum passes over the
    query's (hypothesis, token) grid (``rank``), in stable order: ties go to
    the earlier hypothesis, then the lower id.  The pool keeps its best
    ``beam_size`` entries, earlier ones first among ties.  Hypotheses that
    reach the length cap retire with a truncation flag.  A query stops when
    it has no live hypothesis or none can improve on its ``beam_size`` best
    finished scores (scores only decrease).
    """
    config = config or BeamConfig()
    if config.max_target_len is not None and config.max_target_len > model.config.max_tgt_len:
        raise ValueError(f"max_target_len {config.max_target_len} exceeds the model's "
                         f"max_tgt_len {model.config.max_tgt_len}")
    k = config.beam_size
    src_ids = np.atleast_2d(np.asarray(src_ids))
    src_mask = np.atleast_2d(np.asarray(src_mask, dtype=bool))
    lengths = src_mask.sum(axis=1)
    caps = target_cap(lengths) if config.max_target_len is None else np.full_like(
        lengths, config.max_target_len)
    v = model.config.vocab_size
    width = v + src_ids.shape[1]
    ban = np.where(np.arange(width) < v + lengths[:, None], 0.0, -np.inf)
    ban[:, [PAD_ID, BOS_ID]] = -np.inf
    cache = model.start_decoding(src_ids, src_mask)

    pools: list[list[DecodeResult]] = [[] for _ in lengths]
    floor = np.full(len(lengths), -np.inf)  # a full pool's k-th best score
    live = np.arange(len(lengths))  # queries still searching, in row order
    # Each live query has h consecutive rows; one with fewer live hypotheses
    # fills the rest with dead rows scored -inf, which never rank.
    h = 1
    scores = np.zeros(len(lengths))
    tokens = np.full(len(lengths), BOS_ID)
    emitted = np.zeros((len(lengths), 0), dtype=np.int64)
    while live.size:
        # [Q, h, width]: each live query's h rows
        totals = model.step(cache, tokens).log_probs.astype(np.float64).reshape(live.size, h, width)
        totals += ban[live, None]
        totals += scores.reshape(live.size, h, 1)
        touched = set()
        if k >= 2:
            # A closure that cannot enter its query's full pool would be
            # trimmed by the pool's sort, so it is dropped here.
            closures = totals[:, :, EOS_ID]
            for i, j in zip(*np.nonzero(closures > floor[live, None])):
                touched.add(live[i])
                closure = DecodeResult(emitted[i * h + j].tolist(), float(closures[i, j]))
                pools[live[i]].append(closure)
            totals[:, :, EOS_ID] = -np.inf  # retired above; slots go to exploration
        order, top = rank(totals.reshape(live.size, h * width), k)
        parent, token = np.divmod(order, width)
        parent += h * np.arange(live.size)[:, None]
        ranked = top > -np.inf
        done = ranked & ((token == EOS_ID) | (emitted.shape[1] + 1 >= caps[live])[:, None])
        for i, j in zip(*np.nonzero(done)):
            ids = emitted[parent[i, j]].tolist()
            truncated = bool(token[i, j] != EOS_ID)  # EOS ranks only at beam size 1
            if truncated:
                ids.append(int(token[i, j]))
            touched.add(live[i])
            pools[live[i]].append(DecodeResult(ids, float(top[i, j]), truncated))
        for q in touched:
            pools[q].sort(key=lambda res: -res.score)
            del pools[q][k:]
            if len(pools[q]) == k:
                floor[q] = pools[q][-1].score
        # A query's survivors are a prefix of its ranked candidates: only
        # the cap or the early stop retire a live candidate, and either
        # retires all of the query's candidates.  So its best survivor is
        # its first candidate, and it goes on when that one survives and
        # beats its pool.
        survive = ranked & ~done
        survive &= (survive[:, 0] & (top[:, 0] > floor[live]))[:, None]
        counts = np.add.reduce(survive, axis=1)
        h = int(np.maximum.reduce(counts))
        survive, parent, top, token = survive[:, :h], parent[:, :h], top[:, :h], token[:, :h]
        keep = counts > 0
        if not np.logical_and.reduce(keep):
            live, survive, parent, top, token = (a[keep] for a in (live, survive, parent, top, token))
        rows = parent.ravel()
        scores = np.where(survive, top, -np.inf).ravel()
        tokens = np.where(survive, token, EOS_ID).ravel()
        emitted = np.concatenate([emitted[rows], tokens[:, None]], axis=1)
        if live.size:
            cache.select(rows, h)
    return pools


def beam_search(
    model: PointerGeneratorModel, src_ids: Sequence[int], config: Optional[BeamConfig] = None
) -> list[DecodeResult]:
    """``beam_search_batch`` on one query."""
    return beam_search_batch(model, *pad_sources([src_ids]), config)[0]


def greedy_batch(model: PointerGeneratorModel, src_ids: np.ndarray,
                 src_mask: np.ndarray) -> list[DecodeResult]:
    """Argmax decoding for a whole batch at once: a beam of one."""
    return [pool[0] for pool in beam_search_batch(model, src_ids, src_mask, BeamConfig(1))]


def greedy(model: PointerGeneratorModel, src_ids: Sequence[int]) -> DecodeResult:
    return beam_search(model, src_ids, BeamConfig(beam_size=1))[0]
