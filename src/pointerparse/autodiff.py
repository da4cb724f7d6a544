"""Dense float32 tensors with a reverse-mode gradient tape.

Forward values live in float32; explicit reductions (sums, softmax
normalizers, layer-norm statistics, broadcast gradients) accumulate in
float64 before casting back, which keeps finite-difference gradient checks
tight without doubling memory.  Products with a 2-D weight are one float32
GEMM over the flattened leading axes, forward and backward, so a weight's
gradient accumulates over the batch inside that GEMM; a bias rides in the
same tape node.

Attention (``attention``) is one primitive with a closed-form backward, not
a chain of the ops it is made of.

The forward arithmetic of the weight product, the embedding lookup, layer
norm, attention (scale, mask and softmax) and log-softmax lives in
plain-array kernels (``weight_product``, ``take_rows``,
``layer_norm_forward``, ``attention_probs``, ``log_softmax_f64``) that the
tape ops call.  The cached decoder step calls the same kernels on plain
arrays, so it builds no ``Tensor`` and gets the same values as the ops.

Recording is explicit: ops append backward closures to the innermost active
``Tape`` (a thread-local stack, so independent tapes may run on separate
threads).  With no tape active, ops are pure forward computations, which is
what the encoder uses at inference.  ``Tape.backward`` walks the recorded
nodes in reverse order exactly once; parameters not reachable from the loss
keep their all-zero gradient buffers.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray


class ShapeMismatch(ValueError):
    pass


class NonScalarLoss(ValueError):
    pass


class TapeOrderError(RuntimeError):
    """A tape exited while it was not the innermost active tape."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        # Parameters get a zero buffer up front so "unreachable" still reads
        # as a zero gradient; intermediates allocate lazily.
        self.grad: Optional[Array] = np.zeros_like(arr) if requires_grad else None
        self._backward: Optional[Callable[[Array], None]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_local = threading.local()


def _tape_stack() -> list["Tape"]:
    if not hasattr(_local, "stack"):
        _local.stack = []
    return _local.stack


def active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of differentiable ops; context manager activates it."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise TapeOrderError("a tape must be the innermost active tape when it exits")
        stack.pop()

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise NonScalarLoss(f"loss must be scalar, got shape {loss.data.shape}")
        _accumulate(loss, np.ones_like(loss.data))
        for node in reversed(self.nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)


def _accumulate(t: Tensor, g: Array) -> None:
    """Add ``g`` into ``t.grad``.  The first gradient a tensor receives is
    kept, not copied, so a backward closure may pass a given array to one
    tensor only.  Views of its own upstream gradient are allowed: the tape
    reads a node's gradient once, when it runs that node's closure."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.astype(np.float32, copy=False)
    else:
        t.grad += g


def _record(out: Tensor, inputs: Sequence[Tensor], backward: Callable[[Array], None]) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.grad = None  # lazily allocated on first accumulation
        out._backward = backward
        tape.nodes.append(out)
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the shape it was broadcast from."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)), dtype=np.float64)
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True, dtype=np.float64)
    return g.astype(np.float32, copy=False)


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}") from None

    def backward(g: Array) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape).copy())  # a may have kept g itself

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise ShapeMismatch(f"mul: {a.shape} vs {b.shape}") from None

    def backward(g: Array) -> None:
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * np.float32(c))

    def backward(g: Array) -> None:
        _accumulate(a, g * np.float32(c))

    return _record(out, (a,), backward)


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``a @ b``, plus ``bias`` when one is given.  An input of rank 2 or
    more against a 2-D weight runs as one 2-D GEMM over the flattened leading
    axes, with the bias added in place to its output; other ranks broadcast
    and take no bias."""
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeMismatch(f"matmul: {a.shape} vs {b.shape}")
    if a.data.ndim >= 2 and b.data.ndim == 2:
        return _matmul_weight(a, b, bias)
    if bias is not None:
        raise ShapeMismatch(f"matmul: no bias for {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g: Array) -> None:
        _accumulate(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        _accumulate(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return _record(out, (a, b), backward)


def weight_product(a: Array, w: Array, bias: Optional[Array] = None) -> Array:
    """``a @ w + bias`` of plain arrays against a 2-D weight: one 2-D GEMM
    over the flattened leading axes, the bias added in place; not a tape
    op."""
    if a.ndim != 2:
        out = weight_product(a.reshape(-1, a.shape[-1]), w, bias)
        return out.reshape(a.shape[:-1] + w.shape[1:])
    out = a @ w
    if bias is not None:
        out += bias
    return out


def _matmul_weight(a: Tensor, w: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    out = Tensor(weight_product(a.data, w.data, None if bias is None else bias.data))

    def backward(g: Array) -> None:
        g2 = g.reshape(-1, g.shape[-1])
        if a.requires_grad:
            _accumulate(a, (g2 @ w.data.T).reshape(a.data.shape))
        if w.requires_grad:
            _accumulate(w, a.data.reshape(-1, a.data.shape[-1]).T @ g2)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g2.sum(axis=0, dtype=np.float64))

    return _record(out, (a, w) if bias is None else (a, w, bias), backward)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes))

    def backward(g: Array) -> None:
        _accumulate(a, g.transpose(np.argsort(axes)))

    return _record(out, (a,), backward)


def swap_last(a: Tensor) -> Tensor:
    """Transpose the final two axes (attention helper)."""
    order = tuple(range(a.data.ndim - 2)) + (a.data.ndim - 1, a.data.ndim - 2)
    return transpose(a, order)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        out = Tensor(a.data.reshape(shape))
    except ValueError:
        raise ShapeMismatch(f"reshape: {a.shape} to {shape}") from None
    original = a.data.shape

    def backward(g: Array) -> None:
        _accumulate(a, g.reshape(original))

    return _record(out, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))

    def backward(g: Array) -> None:
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
        moved = np.moveaxis(g, axis, 0)
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _accumulate(t, np.moveaxis(moved[lo:hi], 0, axis))

    return _record(out, tuple(tensors), backward)


def take_rows(table: Array, ids) -> Array:
    """Rows of a plain array selected by an integer array, each id checked
    against the table's rows; not a tape op."""
    idx = np.asarray(ids)
    if idx.size and (np.minimum.reduce(idx, axis=None) < 0
                     or np.maximum.reduce(idx, axis=None) >= table.shape[0]):
        raise ShapeMismatch(f"gather: ids outside table of {table.shape[0]} rows")
    return table[idx]


def gather(table: Tensor, ids) -> Tensor:
    """Embedding lookup: rows of ``table`` selected by an integer array."""
    idx = np.asarray(ids)
    out = Tensor(take_rows(table.data, idx))

    def backward(g: Array) -> None:
        if not table.requires_grad:
            return
        acc = np.zeros_like(table.data)
        np.add.at(acc, idx.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        _accumulate(table, acc)

    return _record(out, (table,), backward)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))

    def backward(g: Array) -> None:
        _accumulate(a, g * (a.data > 0))

    return _record(out, (a,), backward)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis; masked entries at -1e9 come out exactly 0."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=-1, keepdims=True, dtype=np.float64)
    out = Tensor(exp / denom.astype(np.float32))
    s = out.data

    def backward(g: Array) -> None:
        inner = (g * s).sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        _accumulate(a, s * (g - inner))

    return _record(out, (a,), backward)


def log_softmax_f64(x: Array) -> Array:
    """Log-softmax of a plain array over its last axis, in float64; not a
    tape op.  The max is subtracted in the input's dtype."""
    shifted = (x - np.maximum.reduce(x, axis=-1, keepdims=True)).astype(np.float64)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def log_softmax(a: Tensor) -> Tensor:
    out = Tensor(log_softmax_f64(a.data).astype(np.float32))
    probs = np.exp(out.data)

    def backward(g: Array) -> None:
        total = g.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        _accumulate(a, g - probs * total)

    return _record(out, (a,), backward)


def layer_norm_forward(a: Array, gain: Array, bias: Array,
                       eps: float = 1e-5) -> tuple[Array, Array, Array]:
    """Layer norm of a plain array over its last axis, with statistics in
    float64; not a tape op.  Returns the output, the normalized input
    ``xhat`` and the inverse standard deviation (float64)."""
    d = a.shape[-1]
    # The float64 copy is centred in place; mean and variance are computed
    # as np.mean and np.var compute them, without their wrappers.
    x = a.astype(np.float64)
    x -= x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((x * x).sum(axis=-1, keepdims=True) / d + eps)
    xhat = (x * inv).astype(np.float32)
    return xhat * gain + bias, xhat, inv


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis; statistics accumulate in float64."""
    d = a.data.shape[-1]
    y, xhat, inv = layer_norm_forward(a.data, gain.data, bias.data, eps)
    out = Tensor(y)
    inv32 = inv.astype(np.float32)

    def backward(g: Array) -> None:
        _accumulate(gain, _unbroadcast(g * xhat, gain.shape))
        _accumulate(bias, _unbroadcast(g, bias.shape))
        gx = g * gain.data
        s1 = gx.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        s2 = (gx * xhat).sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        _accumulate(a, inv32 * (gx - (s1 + xhat * s2) / d))

    return _record(out, (a, gain, bias), backward)


MASK_FILL_VALUE = -1e9  # finite sentinel; IEEE -inf would NaN the softmax backward


def mask_fill(a: Tensor, mask, value: float = MASK_FILL_VALUE) -> Tensor:
    """Fill positions where ``mask`` is true with ``value`` (no gradient there)."""
    m = np.asarray(mask, dtype=bool)
    try:
        out = Tensor(np.where(m, np.float32(value), a.data))
    except ValueError:
        raise ShapeMismatch(f"mask_fill: {a.shape} vs mask {m.shape}") from None
    keep = ~m

    def backward(g: Array) -> None:
        _accumulate(a, _unbroadcast(g * keep, a.shape))

    return _record(out, (a,), backward)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(np.float32))

    def backward(g: Array) -> None:
        if axis is None:
            _accumulate(a, np.broadcast_to(g.reshape((1,) * a.data.ndim), a.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _record(out, (a,), backward)


class DropoutRng:
    """Counter-based dropout stream: mask i depends only on (seed, i).

    Mask i reads 16-bit words from Philox4x64 with key ``seed``, four to each
    64-bit draw (Salmon et al. 2011, "Parallel random numbers: as easy as 1,
    2, 3"); element j is kept when word j is below ``round(keep_prob *
    65536)``, so the keep probability is quantised to 1/65536.  The second
    64-bit word of the Philox counter holds i and the first counts the
    blocks within the mask, so no two masks share a draw.  Each call
    advances the counter, so with a fixed batch order the masks of a whole
    run are reproducible, and a checkpoint only needs to store the counter.
    ``STREAM_VERSION`` names this stream; a change to how masks are drawn
    bumps it, and checkpoint manifests record it.
    """

    STREAM_VERSION = 2  # 1 was float64 uniforms with the mask index as the counter

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed)
        self.counter = int(counter)

    def next_mask(self, shape: tuple[int, ...], keep_prob: float) -> Array:
        """A bool mask of ``shape``, true where an element is kept."""
        n = math.prod(shape)
        philox = np.random.Philox(key=self.seed, counter=self.counter << 64)
        bits = philox.random_raw(-(-n // 4))
        self.counter += 1
        words = bits.view("<u2")[:n]
        return (words < round(keep_prob * 65536)).reshape(shape)


def dropout(a: Tensor, p: float, train: bool, rng: Optional[DropoutRng] = None) -> Tensor:
    if not train or p <= 0.0:
        return a
    if rng is None:
        raise ValueError("training-mode dropout needs a DropoutRng")
    keep = 1.0 - p
    mask = rng.next_mask(a.data.shape, keep)
    inv_keep = np.float32(1.0 / keep)
    out = Tensor((a.data * inv_keep) * mask)

    def backward(g: Array) -> None:
        _accumulate(a, (g * inv_keep) * mask)

    return _record(out, (a,), backward)


def attention_probs(q: Array, k: Array, blocked: Optional[Array], scale: float) -> Array:
    """``softmax(mask_fill(q @ k^T * scale))`` of plain arrays over the last
    axis; not a tape op.  ``blocked`` (bool, broadcastable to the scores, or
    None) marks the positions that get no weight."""
    scores = q @ k.swapaxes(-1, -2)
    scores *= np.float32(scale)
    if blocked is not None:
        try:
            scores = np.where(blocked, np.float32(MASK_FILL_VALUE), scores)
        except ValueError:
            raise ShapeMismatch(f"attention: scores {scores.shape} vs mask {blocked.shape}") from None
    # The reductions are called as ufuncs: ``ndarray.max``/``sum`` compute
    # the same through a Python wrapper.
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    probs = np.exp(scores, out=scores)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    return probs


def attention(q: Tensor, k: Tensor, v: Tensor, fill_mask, scale: float,
              p: float = 0.0, train: bool = False, rng: Optional[DropoutRng] = None) -> Tensor:
    """``dropout(softmax(mask_fill(q @ k^T * scale))) @ v`` as one primitive.

    q is [B, heads, Tq, hd]; k and v are [B, heads, Tk, hd], and a key batch
    of one broadcasts over the query batch.  ``fill_mask`` (bool,
    broadcastable to [B, heads, Tq, Tk], or None) blocks the positions where
    it is true.  The forward values are those of the composed ops, and the
    dropout mask is drawn at the same point of the stream, with the same
    shape.
    """
    c = np.float32(scale)
    blocked = None if fill_mask is None else np.asarray(fill_mask, dtype=bool)
    probs = attention_probs(q.data, k.data, blocked, scale)
    weights, drop = probs, None
    if train and p > 0.0:
        if rng is None:
            raise ValueError("training-mode dropout needs a DropoutRng")
        keep = 1.0 - p
        drop = rng.next_mask(probs.shape, keep)
        inv_keep = np.float32(1.0 / keep)
        weights = (probs * inv_keep) * drop
    out = Tensor(weights @ v.data)

    def backward(g: Array) -> None:
        _accumulate(v, _unbroadcast(weights.swapaxes(-1, -2) @ g, v.shape))
        gs = g @ v.data.swapaxes(-1, -2)
        if drop is not None:
            gs *= inv_keep
            gs *= drop
        # Softmax backward: probs * (g - sum(g * probs)).
        gs -= (gs * probs).sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        gs *= probs
        if blocked is not None:
            gs = np.where(blocked, np.float32(0.0), gs)
        gs *= c
        _accumulate(q, _unbroadcast(gs @ k.data, q.shape))
        _accumulate(k, _unbroadcast(gs.swapaxes(-1, -2) @ q.data, k.shape))

    return _record(out, (q, k, v), backward)
