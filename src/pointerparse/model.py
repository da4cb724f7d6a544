"""Transformer encoder-decoder with a pointer output head.

The decoder produces a hidden state d_t per step; a dense layer turns it into
scores over the parse-symbol vocabulary, and a bilinear product against the
encoder states scores each source position.  The two score blocks are
concatenated and softmaxed together, giving one distribution over
``vocab_size + n`` outcomes whose last ``n`` entries mean "copy source token
i".  Pointer tokens appearing in the decoder *input* are embedded purely by
source position from a dedicated table, never by the word they point at.

Pre-norm residual blocks and fixed sinusoidal positions on both sides keep
small-scale training stable.  The encoder width may differ from the decoder
width; the bilinear matrix absorbs the mismatch.

One encoder, ``encode``, serves training and decoding.  It runs on packed
rows: the real source positions alone go through the embedding, Linears,
layer norms, FFNs, dropout and residual adds.  Training runs it on the
tape; decoding runs the same ops with no tape active, where they are pure
forward computations.

Training runs the decoder over whole target prefixes under a causal mask
(``forward_teacher_forced``), on packed rows too: the real target positions
(the non-PAD decoder inputs) alone go through the embedding, Linears, layer
norms, FFNs, dropout, residual adds, ``dec_norm``, ``vocab_out`` and the
product with ``ptr_bilinear``, so a weight's gradient sums over those rows.
Attention takes and returns packed rows too; ``ad.attention`` lays them out
padded per head and derives its mask from the packings and a ``causal``
flag, so the model builds none.  Only the pointer product with each
example's encoder states sees the padded layout (``ad.unpack`` lays rows
out for it), and each dropout mask is drawn at the padded shape, so the
mask stream does not depend on the packing.  Inference runs the decoder one position at a time on a
``DecoderCache`` (``start_decoding``, then ``step``) whose rows are laid out
``[Q, h]``: Q queries with h consecutive rows (beam hypotheses) each.  Each
step projects the new position's query, key and value with one product
against ``[Wq|Wk|Wv]`` and writes the key and value in place into a buffer
the cache preallocates.  Source-side state (cross-attention keys and
values, pointer keys, padding) is held once per query, and a query's h rows
attend to and point at that one copy.  The step runs off the tape: the cache
holds plain float32 arrays, and the step calls the kernels the tape ops call
(``ad.weight_product``, ``ad.layer_norm_forward``, ``ad.attention_probs``) on
them, so it builds no ``Tensor``.  The teacher-forced pass is the reference
the cached step is tested against.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import DropoutRng, Tensor
from .vocab import PAD_ID


class SourceTooLong(ValueError):
    pass


class EmptySource(ValueError):
    pass


class PrefixContainsPAD(ValueError):
    pass


class RowCountMismatch(ValueError):
    """A decoder step fed a token count other than the cache's row count."""


class ConfigValueError(ValueError):
    """A config field holds a value of the wrong type or out of range; the
    message starts with the field's name."""


def require_int(config, name: str, low: int) -> None:
    """Field ``name`` of ``config`` must be an integer (not a bool) >= low."""
    value = getattr(config, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigValueError(f"{name} must be an integer >= {low}, got {value!r}")


def require_fraction(config, name: str, upto_one: bool = False) -> None:
    """Field ``name`` of ``config`` must be a number (not a bool) in [0, 1),
    or in [0, 1] when ``upto_one``."""
    value = getattr(config, name)
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (0.0 <= value < 1.0 or upto_one and value == 1.0)):
        raise ConfigValueError(f"{name} must be a number in [0, 1{']' if upto_one else ')'}, "
                               f"got {value!r}")


def target_cap(n):
    """The most symbols decoding emits for a source of n tokens: a tree
    parse emits at most one open+close pair per node plus n pointers, so
    2n + 16 bounds any sane output."""
    return 2 * n + 16


@dataclass
class ModelConfig:
    vocab_size: int
    src_vocab_size: int
    max_src_len: int
    d_model: int = 128
    n_enc_layers: int = 2
    n_enc_heads: int = 4
    enc_ffn: int = 256
    d_dec: int = 128
    n_dec_layers: int = 2
    n_dec_heads: int = 4
    dec_ffn: int = 256
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("vocab_size", "src_vocab_size", "max_src_len", "d_model", "n_enc_layers",
                     "n_enc_heads", "enc_ffn", "d_dec", "n_dec_layers", "n_dec_heads", "dec_ffn"):
            require_int(self, name, 1)
        require_fraction(self, "dropout")
        if self.d_model % self.n_enc_heads:
            raise ConfigValueError(f"n_enc_heads {self.n_enc_heads} does not divide "
                                   f"d_model {self.d_model}")
        if self.d_dec % self.n_dec_heads:
            raise ConfigValueError(f"n_dec_heads {self.n_dec_heads} does not divide "
                                   f"d_dec {self.d_dec}")

    @property
    def max_tgt_len(self) -> int:
        # Decoding caps at target_cap symbols; +2 leaves room for BOS/EOS framing.
        return target_cap(self.max_src_len) + 2

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        """The config ``to_json`` wrote.  Any other key set is refused
        (ConfigValueError naming the keys), so a field left out never loads
        as its default."""
        if not isinstance(obj, dict):
            raise ConfigValueError(f"model_config must be a JSON object, got {obj!r}")
        names = {f.name for f in fields(cls)}
        wrong = [f"{what} {', '.join(sorted(keys))}" for what, keys in
                 (("lacks", names - obj.keys()), ("has unknown keys", obj.keys() - names)) if keys]
        if wrong:
            raise ConfigValueError(f"model_config {' and '.join(wrong)}")
        return cls(**obj)


@dataclass
class OutputDistribution:
    """Joint next-token distribution at one decode step."""

    vocab_scores: np.ndarray    # [B, |V|], unnormalized
    pointer_scores: np.ndarray  # [B, n], unnormalized bilinear attention
    log_probs: np.ndarray       # [B, |V|+n], normalized

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (i // 2) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(np.float32)


class ParamStore:
    """Named parameter registry with deterministic uniform init, or, given
    ``values``, with the array ``values(name, shape)`` returns for each
    parameter, used as it is: then nothing is drawn."""

    def __init__(self, seed: int, values: Optional[Callable[[str, tuple], np.ndarray]] = None):
        self.rng = np.random.default_rng(seed) if values is None else None
        self.values = values
        self.params: dict[str, Tensor] = {}

    def _add(self, name: str, shape: tuple[int, ...], init: Callable[[], np.ndarray]) -> Tensor:
        """A float32 parameter of the array ``init`` draws, or of the given one."""
        t = ad.parameter(init() if self.values is None else self.values(name, shape))
        self.params[name] = t
        return t

    def uniform(self, name: str, shape: tuple[int, ...], fan_in: int) -> Tensor:
        limit = 1.0 / math.sqrt(fan_in)
        return self._add(name, shape, lambda: self.rng.uniform(-limit, limit, size=shape))

    def fill(self, name: str, shape: tuple[int, ...], value: float) -> Tensor:
        return self._add(name, shape, lambda: np.full(shape, value, dtype=np.float32))


class Linear:
    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int):
        self.w = store.uniform(f"{name}.w", (d_in, d_out), fan_in=d_in)
        self.b = store.fill(f"{name}.b", (d_out,), 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.w, self.b)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The same product on a plain array, off the tape."""
        return ad.weight_product(x, self.w.data, self.b.data)


class LayerNorm:
    def __init__(self, store: ParamStore, name: str, dim: int):
        self.gain = store.fill(f"{name}.gain", (dim,), 1.0)
        self.bias = store.fill(f"{name}.bias", (dim,), 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The same normalization on a plain array, off the tape."""
        return ad.layer_norm_forward(x, self.gain.data, self.bias.data)[0]


class PackedRows(NamedTuple):
    """Rows ``x`` [P, d] at the real positions of ``packing``: the form in
    which the encoder and the decoder hand their rows to attention and to
    the FFN, whose dropout masks are drawn at the padded shape."""

    x: Tensor
    packing: ad.Packing


class MultiHeadAttention:
    def __init__(self, store, name, d_query_in, d_kv_in, d_out, n_heads):
        self.n_heads = n_heads
        self.head_dim = d_out // n_heads
        self.wq = Linear(store, f"{name}.q", d_query_in, d_out)
        self.wk = Linear(store, f"{name}.k", d_kv_in, d_out)
        self.wv = Linear(store, f"{name}.v", d_kv_in, d_out)
        self.wo = Linear(store, f"{name}.o", d_out, d_out)

    def __call__(self, query_in: PackedRows, kv_in: PackedRows, causal, p, train, rng) -> Tensor:
        """Scaled dot-product attention of packed query rows over packed
        key/value rows (the earlier ones alone when ``causal``), giving
        packed output rows [P, d_out]."""
        q, k, v = self.wq(query_in.x), self.wk(kv_in.x), self.wv(kv_in.x)
        return self.wo(ad.attention(q, k, v, query_in.packing, kv_in.packing, self.n_heads,
                                    causal, p, train, rng))

    def packed_keys_values(self, x: np.ndarray, packing: ad.Packing) -> np.ndarray:
        """Keys then values of packed rows x [P, d_kv_in], laid out per head
        as one [Q, 2, heads, n, head_dim] array, zeros at padding, in C
        order: the stacked heads' strides would slow every step's products."""
        return np.ascontiguousarray(np.stack(
            [packing.heads(lin.apply(x), self.n_heads) for lin in (self.wk, self.wv)], axis=1))

    def fused_qkv(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the weight ``[Wq|Wk|Wv]`` and its bias, which project
        one input to queries, keys and values in one product."""
        parts = (self.wq, self.wk, self.wv)
        return (np.concatenate([p.w.data for p in parts], axis=1),
                np.concatenate([p.b.data for p in parts]))

    def attend_array(self, q, k, v, blocked) -> np.ndarray:
        """The attention of ``__call__`` without dropout for one query
        position per row, on plain arrays, off the tape: per-head queries
        [..., heads, 1, head_dim], against keys and values that broadcast to
        [..., heads, Tk, head_dim], give output rows [R, d_out]."""
        probs = ad.attention_probs(q, k, blocked, 1.0 / math.sqrt(self.head_dim))
        return self.wo.apply((probs @ v).reshape(-1, self.n_heads * self.head_dim))


class FeedForward:
    def __init__(self, store, name, dim, hidden):
        self.inner = Linear(store, f"{name}.inner", dim, hidden)
        self.outer = Linear(store, f"{name}.outer", hidden, dim)

    def __call__(self, x: PackedRows, p, train, rng) -> Tensor:
        """The block on packed rows, giving packed rows [P, dim]."""
        return self.outer(ad.dropout(ad.relu(self.inner(x.x)), p, train, rng, x.packing))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The block without dropout on a plain array, off the tape."""
        return self.outer.apply(np.maximum(self.inner.apply(x), 0))


class EncoderLayer:
    def __init__(self, store, name, cfg: ModelConfig):
        self.norm1 = LayerNorm(store, f"{name}.norm1", cfg.d_model)
        self.attn = MultiHeadAttention(store, f"{name}.attn", cfg.d_model, cfg.d_model, cfg.d_model, cfg.n_enc_heads)
        self.norm2 = LayerNorm(store, f"{name}.norm2", cfg.d_model)
        self.ffn = FeedForward(store, f"{name}.ffn", cfg.d_model, cfg.enc_ffn)

    def __call__(self, x, packing, p, train, rng):
        """The layer on packed rows x [P, d_model], the real source positions
        ``packing`` names; every dropout mask is drawn at the padded shape."""
        def drop(t):
            return ad.dropout(t, p, train, rng, packing)

        h = PackedRows(self.norm1(x), packing)
        x = ad.add(x, drop(self.attn(h, h, False, p, train, rng)))
        return ad.add(x, drop(self.ffn(PackedRows(self.norm2(x), packing), p, train, rng)))


class DecoderLayer:
    def __init__(self, store, name, cfg: ModelConfig):
        self.norm1 = LayerNorm(store, f"{name}.norm1", cfg.d_dec)
        self.self_attn = MultiHeadAttention(store, f"{name}.self", cfg.d_dec, cfg.d_dec, cfg.d_dec, cfg.n_dec_heads)
        self.norm2 = LayerNorm(store, f"{name}.norm2", cfg.d_dec)
        self.cross_attn = MultiHeadAttention(store, f"{name}.cross", cfg.d_dec, cfg.d_model, cfg.d_dec, cfg.n_dec_heads)
        self.norm3 = LayerNorm(store, f"{name}.norm3", cfg.d_dec)
        self.ffn = FeedForward(store, f"{name}.ffn", cfg.d_dec, cfg.dec_ffn)

    def __call__(self, x, packing, enc, p, train, rng):
        """The layer on packed rows x [P, d_dec], the real target positions
        ``packing`` names; every dropout mask is drawn at the padded shape."""
        def drop(t):
            return ad.dropout(t, p, train, rng, packing)

        h = PackedRows(self.norm1(x), packing)
        x = ad.add(x, drop(self.self_attn(h, h, True, p, train, rng)))
        h = PackedRows(self.norm2(x), packing)
        x = ad.add(x, drop(self.cross_attn(h, enc, False, p, train, rng)))
        return ad.add(x, drop(self.ffn(PackedRows(self.norm3(x), packing), p, train, rng)))

    def step(self, x, qkv, kv, t, cross_kv, src_fill):
        """Inference for one new position ``t`` per row on plain float32
        arrays, x [R, d_dec], where the R = Q·h rows are h consecutive rows
        for each of Q queries.  ``qkv`` is ``self_attn.fused_qkv()``.
        ``kv`` is this layer's self-attention buffer [R, capacity, 2, heads,
        head_dim], keys then values, holding positions ``:t``; the step
        writes position ``t`` into it and returns the output.  ``cross_kv``
        [Q, 2, heads, n, head_dim] holds each query's cross-attention keys
        and values once, and ``src_fill`` [Q, 1, 1, 1, n] (or None) its
        padding: the h rows of a query attend to that one copy."""
        attn, cross = self.self_attn, self.cross_attn
        rows, queries = x.shape[0], cross_kv.shape[0]
        proj = ad.weight_product(self.norm1.apply(x), *qkv)
        proj = proj.reshape(rows, 3, attn.n_heads, attn.head_dim)
        kv[:, t] = proj[:, 1:]
        q = proj[:, 0, :, None, :]  # [R, heads, 1, head_dim]
        k, v = kv[:, : t + 1].transpose(2, 0, 3, 1, 4)  # each [R, heads, t + 1, head_dim]
        x = x + attn.attend_array(q, k, v, None)
        q = cross.wq.apply(self.norm2.apply(x))
        q = q.reshape(queries, rows // queries, cross.n_heads, 1, cross.head_dim)
        x = x + cross.attend_array(q, cross_kv[:, None, 0], cross_kv[:, None, 1], src_fill)
        return x + self.ffn.apply(self.norm3.apply(x))


class DecoderCache:
    """Incremental decoding state, all of it plain float32 arrays, for Q
    live queries with h decoder rows each: a query's rows (its beam
    hypotheses) are consecutive, so row r belongs to query r // h.

    Built once per batch of queries by ``start_decoding``.  Source-side
    state is held once per live query: each decoder layer's cross-attention
    keys and values [Q, 2, heads, n, head_dim], the pointer keys
    ``ptr_bilinear @ enc^T`` [Q, d_dec, n] and the source padding [Q, n].
    The keys, values and pointer keys hold zeros at padding positions, which
    every step masks.
    It also holds the decoder input table, pre-scaled by sqrt(d_dec), and
    each layer's ``[Wq|Wk|Wv]`` with its bias, concatenated here rather
    than on the model because training updates the weights in place.

    Each layer's self-attention keys and values share one buffer [rows,
    capacity, 2, heads, head_dim] that ``PointerGeneratorModel.step``
    writes one position into.  The capacity starts at 16 positions and
    doubles as needed, up to ``max_tgt_len``; the rows grow only when
    ``select`` asks for more than were ever allocated.
    """

    INITIAL_CAPACITY = 16

    def __init__(self, cross_kv, ptr_keys: np.ndarray, src_mask: np.ndarray, embed: np.ndarray,
                 qkv: list[tuple[np.ndarray, np.ndarray]], n_heads: int, head_dim: int, max_len: int):
        self.embed = embed                               # scaled symbol then pointer table
        self.qkv = qkv                                   # per layer [Wq|Wk|Wv] and bias
        self.max_len = max_len
        self.queries = src_mask.shape[0]                 # live queries
        self.h = 1                                       # rows per query
        self.length = 0                                  # positions fed so far
        self.cross_kv = cross_kv                         # per layer [Q, 2, heads, n, hd]
        self.ptr_keys = ptr_keys                         # [Q, d_dec, n]
        self.pad = ~src_mask                             # [Q, n]
        self.padded = bool(self.pad.any())               # else the masks are skipped
        shape = (self.queries, min(self.INITIAL_CAPACITY, max_len), 2, n_heads, head_dim)
        self.self_kv = [np.empty(shape, np.float32) for _ in qkv]

    @property
    def rows(self) -> int:
        """Live decoder rows, Q·h."""
        return self.queries * self.h

    def _resize(self, rows: int, capacity: int) -> None:
        """Move every K/V buffer to a new [rows, capacity, ...] one,
        keeping the positions written so far."""
        def resized(buf: np.ndarray) -> np.ndarray:
            out = np.empty((rows, capacity) + buf.shape[2:], np.float32)
            out[: self.rows, : self.length] = buf[: self.rows, : self.length]
            return out

        self.self_kv = [resized(kv) for kv in self.self_kv]

    def layer_kv(self, i: int) -> np.ndarray:
        """Layer ``i``'s K/V buffer over the live rows, with room for
        position ``length``."""
        capacity = self.self_kv[0].shape[1]
        if self.length == capacity:
            self._resize(self.self_kv[0].shape[0], min(2 * capacity, self.max_len))
        return self.self_kv[i][: self.rows]

    def select(self, rows, h: int) -> None:
        """Between steps, keep decoder rows ``rows`` in that order, as h
        rows per query.  Each group of h consecutive new rows must come
        from one query, and the queries keep their order: a later group
        comes from a later query, and the queries left out (finished ones)
        give their rows up.  Within its group a row may repeat (a beam
        parent with several children) or be left out.

        Self-attention K/V moves only for the rows whose parent is another
        row.  Source-side state moves only for the queries after one that
        left: growing h and dropping queries from the end move none of it.
        Every check runs before any write."""
        rows = np.asarray(rows, dtype=np.int64)
        if h < 1 or rows.ndim != 1 or rows.size == 0 or rows.size % h:
            raise ValueError(f"{rows.size} rows do not form groups of {h}")
        groups = (rows // self.h).reshape(-1, h)  # each new row's old query
        queries = groups[:, 0]
        # The checks call ufunc reductions: a select runs once per decoder
        # step, and the ndarray method wrappers cost as much as the checks.
        if h > 1 and np.logical_or.reduce(groups != queries[:, None], axis=None):
            raise ValueError("a group of rows comes from more than one query")
        if np.logical_or.reduce(queries[1:] <= queries[:-1]):
            raise ValueError("the queries of the groups repeat or change order")
        if queries[0] < 0 or queries[-1] >= self.queries:
            raise ValueError(f"rows outside the cache's {self.rows} rows")
        allocated, capacity = self.self_kv[0].shape[:2]
        if rows.size > allocated:
            self._resize(rows.size, capacity)
        (moved,) = (rows != np.arange(rows.size)).nonzero()
        if moved.size:
            parents, t = rows[moved], self.length
            for kv in self.self_kv:
                kv[moved, :t] = kv[parents, :t]
        self.h = h
        if queries.size < self.queries:
            state = self.cross_kv + [self.ptr_keys, self.pad]
            (moved,) = (queries != np.arange(queries.size)).nonzero()
            for a in state:
                a[moved] = a[queries[moved]]
            *self.cross_kv, self.ptr_keys, self.pad = (a[: queries.size] for a in state)
        self.queries = queries.size


class PointerGeneratorModel:
    def __init__(self, config: ModelConfig, seed: int = 0,
                 values: Optional[Callable[[str, tuple], np.ndarray]] = None):
        """A model with seeded random parameters, or with the arrays
        ``values`` gives (see ``ParamStore``)."""
        self.config = config
        cfg = config
        store = ParamStore(seed, values)
        self.src_embed = store.uniform("src_embed", (cfg.src_vocab_size, cfg.d_model), fan_in=cfg.d_model)
        self.sym_embed = store.uniform("sym_embed", (cfg.vocab_size, cfg.d_dec), fan_in=cfg.d_dec)
        # One learned embedding per source *position*, shared by every query.
        self.ptr_embed = store.uniform("ptr_embed", (cfg.max_src_len, cfg.d_dec), fan_in=cfg.d_dec)
        self.enc_layers = [EncoderLayer(store, f"enc{i}", cfg) for i in range(cfg.n_enc_layers)]
        self.enc_norm = LayerNorm(store, "enc_norm", cfg.d_model)
        self.dec_layers = [DecoderLayer(store, f"dec{i}", cfg) for i in range(cfg.n_dec_layers)]
        self.dec_norm = LayerNorm(store, "dec_norm", cfg.d_dec)
        self.vocab_out = Linear(store, "vocab_out", cfg.d_dec, cfg.vocab_size)
        # Bilinear pointer scorer a_i = d_t . W e_i (no bias term).
        self.ptr_bilinear = store.uniform("ptr_bilinear", (cfg.d_dec, cfg.d_model), fan_in=cfg.d_dec)
        self.params = store.params
        self.enc_positions = ad.constant(sinusoidal_positions(cfg.max_src_len, cfg.d_model))
        self.dec_positions = ad.constant(sinusoidal_positions(cfg.max_tgt_len, cfg.d_dec))

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def _sources(self, src_ids) -> np.ndarray:
        """Source ids as a [B, n] array, refused when n is 0 or above
        ``max_src_len``."""
        src_ids = np.atleast_2d(np.asarray(src_ids))
        n = src_ids.shape[1]
        if n == 0:
            raise EmptySource("a source needs at least one token")
        if n > self.config.max_src_len:
            raise SourceTooLong(f"{n} tokens exceeds max_src_len {self.config.max_src_len}")
        return src_ids

    def encode(self, src_ids: np.ndarray, src_mask: Optional[np.ndarray] = None,
               train: bool = False, rng: Optional[DropoutRng] = None) -> PackedRows:
        """Source ids [B, n] to the encoder states of their real positions
        under ``src_mask`` (every position when None): rows [P, d_model] in
        ``np.nonzero(src_mask)`` order, with their packing.  Only those rows
        go through the embedding, LayerNorms, Linears, FFNs, dropout and
        residual adds, and attention takes them packed.
        Training runs it on the tape, and ``start_decoding`` with no tape
        active, where the ops are pure forward computations."""
        src_ids = self._sources(src_ids)
        mask = np.ones_like(src_ids, dtype=bool) if src_mask is None else np.atleast_2d(src_mask)
        packing = ad.Packing(mask)
        if packing.shape != src_ids.shape:
            raise ad.ShapeMismatch(f"source mask {packing.shape} vs source ids {src_ids.shape}")
        p = self.config.dropout
        x = ad.scale(ad.gather(self.src_embed, packing.gather(src_ids)), math.sqrt(self.config.d_model))
        x = ad.add(x, ad.constant(self.enc_positions.data[packing.real[1]]))
        x = ad.dropout(x, p, train, rng, packing)
        for layer in self.enc_layers:
            x = layer(x, packing, p, train, rng)
        return PackedRows(self.enc_norm(x), packing)

    def _decoder_states(self, tgt_ids, packing, enc: PackedRows, train, rng) -> PackedRows:
        """Final decoder states of the real positions of decoder input ids
        [B, T]: scaled embeddings from the symbol table then the pointer
        table, plus their positions, through every layer on packed rows."""
        cfg = self.config
        steps = tgt_ids.shape[1]
        if steps > cfg.max_tgt_len:
            raise ValueError(f"target length {steps} exceeds max_tgt_len {cfg.max_tgt_len}")
        p = cfg.dropout
        table = ad.concat([self.sym_embed, self.ptr_embed], axis=0)
        x = ad.scale(ad.gather(table, packing.gather(tgt_ids)), math.sqrt(cfg.d_dec))
        x = ad.add(x, ad.constant(self.dec_positions.data[packing.real[1]]))
        x = ad.dropout(x, p, train, rng, packing)
        for layer in self.dec_layers:
            x = layer(x, packing, enc, p, train, rng)
        return PackedRows(self.dec_norm(x), packing)

    def joint_logits(self, states: PackedRows, enc: PackedRows) -> Tensor:
        """Vocab scores and masked pointer scores of packed decoder states,
        concatenated in the padded layout: [B, T, |V|+n], zeros at padding
        positions.  ``vocab_out`` and the product with ``ptr_bilinear`` run
        on the packed rows; only the product with each example's encoder
        states, unpacked for it, sees the padded layout."""
        x, packing = states
        vocab = ad.unpack(self.vocab_out(x), packing)
        pointer = ad.unpack(ad.matmul(x, self.ptr_bilinear), packing)
        pointer = ad.matmul(pointer, ad.swap_last(ad.unpack(*enc)))
        pointer = ad.mask_fill(pointer, ~enc.packing.mask[:, None, :] & packing.mask[:, :, None])
        return ad.concat([vocab, pointer], axis=-1)

    def forward_teacher_forced(self, src_ids, src_mask, tgt_in_ids,
                               train: bool = False, rng: Optional[DropoutRng] = None) -> Tensor:
        """Joint logits [B, T, |V|+n] for every target position under a
        causal mask.  The real positions are the non-PAD entries of
        ``tgt_in_ids``; a row may end in PAD, but a PAD followed by a
        non-PAD symbol is refused (PrefixContainsPAD).  The encoder's and
        the decoder's row-wise work runs on the real positions alone, and
        the logits at PAD positions are zeros."""
        tgt_in_ids = np.atleast_2d(np.asarray(tgt_in_ids))
        real = tgt_in_ids != PAD_ID
        if np.logical_or.reduce(real[:, 1:] & ~real[:, :-1], axis=None):
            raise PrefixContainsPAD("a decoder input row has a PAD before a non-PAD symbol")
        enc = self.encode(src_ids, src_mask, train=train, rng=rng)
        states = self._decoder_states(tgt_in_ids, ad.Packing(real), enc, train, rng)
        return self.joint_logits(states, enc)

    def start_decoding(self, src_ids, src_mask) -> DecoderCache:
        """A cache for decoding source ids [Q, n] under their mask, one row
        per query.  ``encode`` runs with no tape active on the real source
        positions.  Each decoder layer's cross-attention keys and values are
        projected from those packed rows into the cache's [Q, 2, heads, n,
        head_dim] buffers, and the pointer keys are each query's
        ``ptr_bilinear @ enc^T``.  At every real position these are the
        values the tape ops compute from ``encode``, bit for bit; padding
        positions, which every step masks, hold zeros."""
        enc, packing = self.encode(src_ids, src_mask)
        cross_kv = [layer.cross_attn.packed_keys_values(enc.data, packing)
                    for layer in self.dec_layers]
        ptr_keys = self.ptr_bilinear.data @ packing.scatter(enc.data).swapaxes(-1, -2)
        qkv = [layer.self_attn.fused_qkv() for layer in self.dec_layers]
        # The training-time table is an ``ad.concat`` node; decoding needs
        # only its values, scaled once here rather than at every step.
        embed = np.concatenate([self.sym_embed.data, self.ptr_embed.data])
        embed *= np.float32(math.sqrt(self.config.d_dec))
        heads = self.config.n_dec_heads
        return DecoderCache(cross_kv, ptr_keys, packing.mask, embed, qkv,
                            heads, self.config.d_dec // heads, self.config.max_tgt_len)

    def step(self, cache: DecoderCache, tokens) -> OutputDistribution:
        """Feed one decoder input id per cache row at the next position and
        return the joint next-token distribution.  The step runs on plain
        float32 arrays through the kernels the tape ops use, so it builds no
        ``Tensor`` and computes what the ops would.  Rows stay [R, d]; the h
        rows of a query read its one copy of the source-side state, each
        with its own product.  Rows stepped together on the same prefix get
        the same scores, but a prefix stepped on one row need not score as
        it does on several: numpy runs a one-row product against a weight
        as a GEMV, which OpenBLAS sums in another order than a GEMM for
        widths of 64 and more (a few 1e-6 in log-probs at d=128; ROADMAP
        open item 2)."""
        cfg = self.config
        tokens = np.asarray(tokens).reshape(-1)
        if np.logical_or.reduce(tokens == PAD_ID):
            raise PrefixContainsPAD("decoder prefix must not contain PAD")
        if tokens.shape[0] != cache.rows:
            raise RowCountMismatch(f"{tokens.shape[0]} tokens for a cache of {cache.rows} rows")
        t = cache.length
        if t >= cfg.max_tgt_len:
            raise ValueError(f"target length {t + 1} exceeds max_tgt_len {cfg.max_tgt_len}")
        x = ad.take_rows(cache.embed, tokens) + self.dec_positions.data[t]
        src_fill = cache.pad[:, None, None, None, :] if cache.padded else None
        for i, layer in enumerate(self.dec_layers):
            x = layer.step(x, cache.qkv[i], cache.layer_kv(i), t, cache.cross_kv[i], src_fill)
        cache.length = t + 1
        states = self.dec_norm.apply(x)
        # [Q, h, 1, d] @ [Q, 1, d, n]: each row against its query's one copy
        pointer = states.reshape(cache.queries, cache.h, 1, -1) @ cache.ptr_keys[:, None]
        if cache.padded:
            pointer = np.where(src_fill[:, :, 0], np.float32(ad.MASK_FILL_VALUE), pointer)
        last = np.concatenate([self.vocab_out.apply(states), pointer.reshape(cache.rows, -1)],
                              axis=-1)
        v = cfg.vocab_size
        return OutputDistribution(
            vocab_scores=last[:, :v],
            pointer_scores=last[:, v:],
            log_probs=ad.log_softmax_f64(last).astype(np.float32),
        )

    def decode_step(self, prefix_ids, src_ids, src_mask) -> OutputDistribution:
        """Next-token distribution given decoder input prefixes [B, t] for
        source ids [B, n]: the prefix goes through a fresh cache one position
        at a time, so the result is what the decoders compute for the same
        prefixes on the same number of rows.  On another row count it may
        differ by float32 rounding (see ``step``)."""
        prefix = np.atleast_2d(np.asarray(prefix_ids))
        if prefix.shape[1] == 0:
            raise ValueError("decode_step needs a non-empty decoder prefix, at least BOS")
        cache = self.start_decoding(src_ids, src_mask)
        for t in range(prefix.shape[1]):
            dist = self.step(cache, prefix[:, t])
        return dist
