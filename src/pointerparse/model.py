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

Training runs the decoder over whole target prefixes under a causal mask
(``forward_teacher_forced``).  Inference runs it one position at a time on a
``DecoderCache`` (``start_decoding``, then ``step``), and the teacher-forced
pass is the reference the cached path is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import DropoutRng, Tensor
from .vocab import PAD_ID


class SourceTooLong(ValueError):
    pass


class PrefixContainsPAD(ValueError):
    pass


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
        if self.d_model % self.n_enc_heads:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.n_enc_heads} heads")
        if self.d_dec % self.n_dec_heads:
            raise ValueError(f"d_dec {self.d_dec} not divisible by {self.n_dec_heads} heads")

    @property
    def max_tgt_len(self) -> int:
        # Decoding caps at 2n + 16 symbols; +2 leaves room for BOS/EOS framing.
        return 2 * self.max_src_len + 18

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
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
    """Named parameter registry with deterministic uniform init."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}

    def uniform(self, name: str, shape: tuple[int, ...], fan_in: int) -> Tensor:
        limit = 1.0 / math.sqrt(fan_in)
        t = ad.parameter(self.rng.uniform(-limit, limit, size=shape).astype(np.float32))
        self.params[name] = t
        return t

    def fill(self, name: str, shape: tuple[int, ...], value: float) -> Tensor:
        t = ad.parameter(np.full(shape, value, dtype=np.float32))
        self.params[name] = t
        return t


class Linear:
    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int, bias: bool = True):
        self.w = store.uniform(f"{name}.w", (d_in, d_out), fan_in=d_in)
        self.b = store.fill(f"{name}.b", (d_out,), 0.0) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = ad.matmul(x, self.w)
        return ad.add(out, self.b) if self.b is not None else out


class LayerNorm:
    def __init__(self, store: ParamStore, name: str, dim: int):
        self.gain = store.fill(f"{name}.gain", (dim,), 1.0)
        self.bias = store.fill(f"{name}.bias", (dim,), 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)


class MultiHeadAttention:
    def __init__(self, store, name, d_query_in, d_kv_in, d_out, n_heads):
        self.n_heads = n_heads
        self.head_dim = d_out // n_heads
        self.wq = Linear(store, f"{name}.q", d_query_in, d_out)
        self.wk = Linear(store, f"{name}.k", d_kv_in, d_out)
        self.wv = Linear(store, f"{name}.v", d_kv_in, d_out)
        self.wo = Linear(store, f"{name}.o", d_out, d_out)

    def _split(self, x: Tensor) -> Tensor:
        x = ad.reshape(x, (x.shape[0], x.shape[1], self.n_heads, self.head_dim))
        return ad.transpose(x, (0, 2, 1, 3))

    def __call__(self, query_in, kv_in, fill_mask, p, train, rng):
        """fill_mask: bool, broadcastable to [B, heads, Tq, Tk]; True blocks."""
        return self.attend(self.queries(query_in), *self.keys_values(kv_in), fill_mask, p, train, rng)

    def queries(self, query_in: Tensor) -> Tensor:
        """Per-head queries [B, heads, Tq, head_dim]."""
        return self._split(self.wq(query_in))

    def keys_values(self, kv_in: Tensor) -> tuple[Tensor, Tensor]:
        """Per-head keys and values, each [B, heads, Tk, head_dim]."""
        return self._split(self.wk(kv_in)), self._split(self.wv(kv_in))

    def attend(self, q, k, v, fill_mask, p=0.0, train=False, rng=None) -> Tensor:
        """Scaled dot-product attention of per-head queries over per-head keys
        and values; a key batch of one broadcasts over the query rows."""
        ctx = ad.attention(q, k, v, fill_mask, 1.0 / math.sqrt(self.head_dim), p, train, rng)
        ctx = ad.transpose(ctx, (0, 2, 1, 3))
        batch, tq = ctx.shape[0], ctx.shape[1]
        return self.wo(ad.reshape(ctx, (batch, tq, self.n_heads * self.head_dim)))


class FeedForward:
    def __init__(self, store, name, dim, hidden):
        self.inner = Linear(store, f"{name}.inner", dim, hidden)
        self.outer = Linear(store, f"{name}.outer", hidden, dim)

    def __call__(self, x, p, train, rng):
        return self.outer(ad.dropout(ad.relu(self.inner(x)), p, train, rng))


class EncoderLayer:
    def __init__(self, store, name, cfg: ModelConfig):
        self.norm1 = LayerNorm(store, f"{name}.norm1", cfg.d_model)
        self.attn = MultiHeadAttention(store, f"{name}.attn", cfg.d_model, cfg.d_model, cfg.d_model, cfg.n_enc_heads)
        self.norm2 = LayerNorm(store, f"{name}.norm2", cfg.d_model)
        self.ffn = FeedForward(store, f"{name}.ffn", cfg.d_model, cfg.enc_ffn)

    def __call__(self, x, pad_fill, p, train, rng):
        h = self.norm1(x)
        x = ad.add(x, ad.dropout(self.attn(h, h, pad_fill, p, train, rng), p, train, rng))
        x = ad.add(x, ad.dropout(self.ffn(self.norm2(x), p, train, rng), p, train, rng))
        return x


class DecoderLayer:
    def __init__(self, store, name, cfg: ModelConfig):
        self.norm1 = LayerNorm(store, f"{name}.norm1", cfg.d_dec)
        self.self_attn = MultiHeadAttention(store, f"{name}.self", cfg.d_dec, cfg.d_dec, cfg.d_dec, cfg.n_dec_heads)
        self.norm2 = LayerNorm(store, f"{name}.norm2", cfg.d_dec)
        self.cross_attn = MultiHeadAttention(store, f"{name}.cross", cfg.d_dec, cfg.d_model, cfg.d_dec, cfg.n_dec_heads)
        self.norm3 = LayerNorm(store, f"{name}.norm3", cfg.d_dec)
        self.ffn = FeedForward(store, f"{name}.ffn", cfg.d_dec, cfg.dec_ffn)

    def __call__(self, x, enc, causal_fill, src_fill, p, train, rng):
        h = self.norm1(x)
        x = ad.add(x, ad.dropout(self.self_attn(h, h, causal_fill, p, train, rng), p, train, rng))
        x = ad.add(x, ad.dropout(self.cross_attn(self.norm2(x), enc, src_fill, p, train, rng), p, train, rng))
        x = ad.add(x, ad.dropout(self.ffn(self.norm3(x), p, train, rng), p, train, rng))
        return x

    def step(self, x, past, cross_kv, src_fill):
        """Inference for one new position per row, x [R, 1, d_dec].  ``past``
        is this layer's cached self-attention (k, v) over earlier positions
        (None at the first); returns the output and the (k, v) grown by one
        position."""
        h = self.norm1(x)
        k, v = self.self_attn.keys_values(h)
        if past is not None:
            k = ad.concat([past[0], k], axis=2)
            v = ad.concat([past[1], v], axis=2)
        x = ad.add(x, self.self_attn.attend(self.self_attn.queries(h), k, v, None))
        q = self.cross_attn.queries(self.norm2(x))
        x = ad.add(x, self.cross_attn.attend(q, *cross_kv, src_fill))
        x = ad.add(x, self.ffn(self.norm3(x), 0.0, False, None))
        return x, (k, v)


class DecoderCache:
    """Incremental decoding state for a batch of decoder rows.

    Built once per batch of queries from the encoder states: each decoder
    layer's cross-attention keys and values, the pointer keys
    ``ptr_bilinear @ enc^T`` and the source padding masks.  A source batch of
    one is shared by every row (the hypotheses of one beam) and broadcasts.
    Each layer's self-attention keys and values grow by one position per
    ``PointerGeneratorModel.step``; ``select`` reorders or repeats rows.
    """

    def __init__(self, cross_kv, ptr_keys: Tensor, src_mask: np.ndarray, embed: Tensor):
        self.cross_kv = cross_kv                         # per layer (k, v) [S, heads, n, hd]
        self.ptr_keys = ptr_keys                         # [S, d_dec, n]
        self.src_fill = ~src_mask[:, None, None, :]      # cross-attention padding
        self.ptr_fill = ~src_mask[:, None, :]            # pointer padding
        self.embed = embed                               # symbol table then pointer table
        self.self_kv = [None] * len(cross_kv)            # per layer (k, v) [R, heads, t, hd]
        self.length = 0                                  # positions fed so far

    def select(self, rows) -> None:
        """Between steps, keep decoder rows ``rows`` in that order; an index
        may repeat (a beam parent with several children) or be left out (a
        finished row)."""
        rows = np.asarray(rows, dtype=np.int64)

        def take(t: Tensor) -> Tensor:
            return ad.constant(t.data[rows])

        self.self_kv = [(take(k), take(v)) for k, v in self.self_kv]
        if self.ptr_keys.shape[0] > 1:
            self.cross_kv = [(take(k), take(v)) for k, v in self.cross_kv]
            self.ptr_keys = take(self.ptr_keys)
            self.src_fill = self.src_fill[rows]
            self.ptr_fill = self.ptr_fill[rows]


class PointerGeneratorModel:
    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        cfg = config
        store = ParamStore(seed)
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

    def encode(self, src_ids: np.ndarray, src_mask: Optional[np.ndarray] = None,
               train: bool = False, rng: Optional[DropoutRng] = None) -> Tensor:
        """Source ids [B, n] to encoder states [B, n, d_model]."""
        src_ids = np.atleast_2d(np.asarray(src_ids))
        n = src_ids.shape[1]
        if n > self.config.max_src_len:
            raise SourceTooLong(f"{n} tokens exceeds max_src_len {self.config.max_src_len}")
        if src_mask is None:
            src_mask = np.ones_like(src_ids, dtype=bool)
        p = self.config.dropout
        x = ad.scale(ad.gather(self.src_embed, src_ids), math.sqrt(self.config.d_model))
        x = ad.add(x, ad.constant(self.enc_positions.data[:n]))
        x = ad.dropout(x, p, train, rng)
        pad_fill = ~src_mask[:, None, None, :]  # block attention to padding
        for layer in self.enc_layers:
            x = layer(x, pad_fill, p, train, rng)
        return self.enc_norm(x)

    def _target_table(self) -> Tensor:
        """Decoder input embeddings: the symbol table, then the pointer table."""
        return ad.concat([self.sym_embed, self.ptr_embed], axis=0)

    def _embed_targets(self, table: Tensor, ids: np.ndarray, start: int) -> Tensor:
        """Scaled embeddings of decoder input ids [B, T] at positions start.."""
        x = ad.scale(ad.gather(table, ids), math.sqrt(self.config.d_dec))
        return ad.add(x, ad.constant(self.dec_positions.data[start : start + ids.shape[1]]))

    def _decoder_states(self, tgt_ids, enc, src_mask, train, rng):
        cfg = self.config
        batch, steps = tgt_ids.shape
        if steps > cfg.max_tgt_len:
            raise ValueError(f"target length {steps} exceeds max_tgt_len {cfg.max_tgt_len}")
        p = cfg.dropout
        x = ad.dropout(self._embed_targets(self._target_table(), tgt_ids, 0), p, train, rng)
        causal_fill = np.triu(np.ones((steps, steps), dtype=bool), k=1)[None, None]
        src_fill = ~src_mask[:, None, None, :]
        for layer in self.dec_layers:
            x = layer(x, enc, causal_fill, src_fill, p, train, rng)
        return self.dec_norm(x)

    def joint_logits(self, states: Tensor, enc: Tensor, src_mask: np.ndarray) -> Tensor:
        """Concatenate vocab scores and masked pointer scores: [B, T, |V|+n]."""
        vocab = self.vocab_out(states)
        pointer = ad.matmul(ad.matmul(states, self.ptr_bilinear), ad.swap_last(enc))
        pointer = ad.mask_fill(pointer, ~src_mask[:, None, :])
        return ad.concat([vocab, pointer], axis=-1)

    def forward_teacher_forced(self, src_ids, src_mask, tgt_in_ids,
                               train: bool = False, rng: Optional[DropoutRng] = None) -> Tensor:
        """Joint logits for every target position under a causal mask."""
        tgt_in_ids = np.asarray(tgt_in_ids)
        enc = self.encode(src_ids, src_mask, train=train, rng=rng)
        states = self._decoder_states(tgt_in_ids, enc, np.asarray(src_mask, dtype=bool), train, rng)
        return self.joint_logits(states, enc, np.asarray(src_mask, dtype=bool))

    def start_decoding(self, enc: Tensor, src_mask) -> DecoderCache:
        """A cache for decoding from encoder states [S, n, d_model]."""
        src_mask = np.atleast_2d(np.asarray(src_mask, dtype=bool))
        cross_kv = [layer.cross_attn.keys_values(enc) for layer in self.dec_layers]
        ptr_keys = ad.matmul(self.ptr_bilinear, ad.swap_last(enc))
        return DecoderCache(cross_kv, ptr_keys, src_mask, self._target_table())

    def step(self, cache: DecoderCache, tokens) -> OutputDistribution:
        """Feed one decoder input id per cache row at the next position and
        return the joint next-token distribution."""
        cfg = self.config
        tokens = np.asarray(tokens).reshape(-1, 1)
        if np.any(tokens == PAD_ID):
            raise PrefixContainsPAD("decoder prefix must not contain PAD")
        t = cache.length
        if t >= cfg.max_tgt_len:
            raise ValueError(f"target length {t + 1} exceeds max_tgt_len {cfg.max_tgt_len}")
        x = self._embed_targets(cache.embed, tokens, t)
        for i, layer in enumerate(self.dec_layers):
            x, cache.self_kv[i] = layer.step(x, cache.self_kv[i], cache.cross_kv[i], cache.src_fill)
        cache.length = t + 1
        states = self.dec_norm(x)
        pointer = ad.mask_fill(ad.matmul(states, cache.ptr_keys), cache.ptr_fill)
        last = np.concatenate([self.vocab_out(states).data, pointer.data], axis=-1)[:, 0, :]
        v = cfg.vocab_size
        shifted = (last - last.max(axis=-1, keepdims=True)).astype(np.float64)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        return OutputDistribution(
            vocab_scores=last[:, :v],
            pointer_scores=last[:, v:],
            log_probs=log_probs.astype(np.float32),
        )

    def decode_step(self, prefix_ids, enc: Tensor, src_mask) -> OutputDistribution:
        """Next-token distribution given decoder input prefixes [B, t]: the
        prefix goes through a fresh cache one position at a time, so the
        result is computed exactly as the decoders compute it."""
        prefix = np.atleast_2d(np.asarray(prefix_ids))
        cache = self.start_decoding(enc, src_mask)
        for t in range(prefix.shape[1]):
            dist = self.step(cache, prefix[:, t])
        return dist
