"""Dense float32 tensors with a reverse-mode gradient tape.

Forward values live in float32; explicit reductions (sums, softmax
normalizers, layer-norm statistics, the gain and bias gradients) accumulate
in float64 before casting back, which keeps finite-difference gradient
checks tight without doubling memory.  No op broadcasts: ``add``, ``mul``
and ``mask_fill`` take operands of one shape, and ``matmul`` takes rows
[P, d_in] against a 2-D weight, or two stacks of equal leading axes; other
shapes raise ``ShapeMismatch`` before anything is recorded.  A product with
a weight is one float32 GEMM, forward and backward, so the weight's
gradient accumulates over the rows inside that GEMM; a bias rides in the
same tape node.

A ``Packing`` names the real rows of a padded [B, T] layout.  Row-wise
work (products against a weight, layer norm, dropout, residual adds) runs
on the P real rows alone, so a weight's gradient sums over those rows
only.  ``unpack`` lays packed rows out as [B, T, ...], zeros at padding.
``dropout`` of packed rows draws its mask at the padded shape and applies
the mask's real rows, so the mask stream does not depend on the packing.

Multi-head attention (``attention``) is one primitive with a closed-form
backward, not a chain of the ops it is made of.  It takes packed query,
key and value rows, lays them out per head with ``Packing.heads``, and
returns packed context rows; its mask is its own: the packings name the
padding keys, and a ``causal`` flag the later ones.

The forward arithmetic of the weight product, the embedding lookup, layer
norm, softmax, attention (scale and mask) and log-softmax lives in
plain-array kernels (``weight_product``, ``take_rows``,
``layer_norm_forward``, ``softmax_f32``, ``attention_probs``,
``log_softmax_f64``) that the tape ops call.  The cached decoder step calls
the same kernels on plain arrays, so it builds no ``Tensor`` and gets the
same values as the ops.

Recording is explicit: ops append backward closures to the innermost active
``Tape`` (one module-level stack, so tapes nest; training runs on one
thread).  With no tape active, ops are pure forward computations.  A
backward closure computes a gradient only for the inputs that require one.
No tensor has a gradient until a backward writes one, parameters
included.  ``Tape.backward`` walks the recorded nodes in reverse order
exactly once and drops each node's gradient and closure as it passes the
node, so a finished backward holds only the gradients of the leaves it
reached and no closure: a caller may keep the loss or the logits without
keeping the graph's inputs and saved arrays alive.  A tape runs backward
once; a second call raises ``GraphFreed``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray


class ShapeMismatch(ValueError):
    pass


class NonScalarLoss(ValueError):
    pass


class TapeOrderError(RuntimeError):
    """A tape exited while it was not the innermost active tape."""


class GraphFreed(RuntimeError):
    """A tape's backward ran again after its first run freed the graph."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[Array] = None
        self._backward: Optional[Callable[[Array], None]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_tape_stack: list["Tape"] = []  # active tapes, innermost last


def active_tape() -> Optional["Tape"]:
    return _tape_stack[-1] if _tape_stack else None


class Tape:
    """Ordered record of differentiable ops; context manager activates it."""

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.freed = False  # backward has run and dropped the closures

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        if active_tape() is not self:
            raise TapeOrderError("a tape must be the innermost active tape when it exits")
        _tape_stack.pop()

    def backward(self, loss: Tensor) -> None:
        """Accumulate d loss / d leaf into each leaf the loss reaches, then
        free the graph: each recorded node loses its gradient and its
        closure (with the inputs and arrays the closure held) once the walk
        has passed it, reached or not.  ``nodes`` still lists the nodes.
        A second call raises ``GraphFreed`` before it writes anything."""
        if self.freed:
            raise GraphFreed("this tape's backward has run and freed its graph")
        if loss.data.size != 1:
            raise NonScalarLoss(f"loss must be scalar, got shape {loss.data.shape}")
        self.freed = True
        _accumulate(loss, np.ones_like(loss.data))
        for node in reversed(self.nodes):
            if node.grad is not None:
                node._backward(node.grad)
                node.grad = None  # read once: only the leaves keep a gradient
            node._backward = None  # and with it the graph behind the node


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
        out._backward = backward
        tape.nodes.append(out)
    return out


def _same_shape(op: str, a: Array, b: Array) -> None:
    if a.shape != b.shape:
        raise ShapeMismatch(f"{op}: {a.shape} vs {b.shape}")


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a.data, b.data)
    out = Tensor(a.data + b.data)

    def backward(g: Array) -> None:
        _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g.copy() if a.requires_grad else g)  # a may have kept g itself

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a.data, b.data)
    out = Tensor(a.data * b.data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _record(out, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * np.float32(c))

    def backward(g: Array) -> None:
        _accumulate(a, g * np.float32(c))

    return _record(out, (a,), backward)


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``a @ b``: rows [P, d_in] against a 2-D weight [d_in, d_out], plus
    ``bias`` [d_out] when one is given, as one GEMM (``weight_product``);
    or two stacks [..., m, k] @ [..., k, n] of equal leading axes, with no
    bias.  Any other shapes raise ShapeMismatch."""
    sa, sb = a.data.shape, b.data.shape
    if (len(sa) < 2 or len(sb) != len(sa) or sa[:-2] != sb[:-2] or sa[-1] != sb[-2]
            or bias is not None and (len(sa) != 2 or bias.data.shape != sb[1:])):
        raise ShapeMismatch(f"matmul: {a.shape} vs {b.shape}"
                            + ("" if bias is None else f" with bias {bias.shape}"))
    if len(sa) == 2:
        out = Tensor(weight_product(a.data, b.data, None if bias is None else bias.data))
    else:
        out = Tensor(a.data @ b.data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            _accumulate(b, a.data.swapaxes(-1, -2) @ g)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=0, dtype=np.float64))

    return _record(out, (a, b) if bias is None else (a, b, bias), backward)


def weight_product(a: Array, w: Array, bias: Optional[Array] = None) -> Array:
    """``a @ w + bias`` of plain rows a [P, d_in] against a 2-D weight: one
    GEMM, the bias added in place; not a tape op."""
    out = a @ w
    if bias is not None:
        out += bias
    return out


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes))

    def backward(g: Array) -> None:
        _accumulate(a, g.transpose(np.argsort(axes)))

    return _record(out, (a,), backward)


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


class Packing:
    """The real rows of a padded [B, T] layout: the positions where the bool
    ``mask`` is true, in row-major order (``np.nonzero``).  ``gather`` and
    ``scatter`` move plain arrays between the padded [B, T, ...] layout and
    the P packed rows [P, ...]."""

    def __init__(self, mask):
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.ndim != 2:
            raise ShapeMismatch(f"packing: mask of shape {self.mask.shape} is not [B, T]")
        self.shape = self.mask.shape
        self.real = np.nonzero(self.mask)

    def gather(self, a: Array) -> Array:
        """The real rows [P, ...] of a padded [B, T, ...] array."""
        return a[self.real]

    def scatter(self, a: Array) -> Array:
        """Packed rows [P, ...] laid out as a padded [B, T, ...] array, zeros
        at padding."""
        out = np.zeros(self.shape + a.shape[1:], a.dtype)
        out[self.real] = a
        return out

    def heads(self, a: Array, heads: int) -> Array:
        """Packed rows [P, d] laid out per head, [B, heads, T, d / heads],
        zeros at padding."""
        out = self.scatter(a)
        return out.reshape(self.shape + (heads, a.shape[-1] // heads)).transpose(0, 2, 1, 3)


def unpack(a: Tensor, packing: Packing) -> Tensor:
    """Packed rows [P, ...] laid out as a padded [B, T, ...] tensor, zeros at
    padding (which get no gradient)."""
    if a.data.shape[0] != len(packing.real[0]):
        raise ShapeMismatch(f"unpack: {a.shape} vs {len(packing.real[0])} real rows")
    out = Tensor(packing.scatter(a.data))

    def backward(g: Array) -> None:
        _accumulate(a, packing.gather(g))

    return _record(out, (a,), backward)


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
        acc = np.zeros_like(table.data)
        np.add.at(acc, idx.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        _accumulate(table, acc)

    return _record(out, (table,), backward)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))

    def backward(g: Array) -> None:
        _accumulate(a, g * (a.data > 0))

    return _record(out, (a,), backward)


def softmax_f32(x: Array) -> Array:
    """Softmax of a plain float32 array over its last axis, written into
    ``x`` and returned; the normalizer sums in float64.  Not a tape op."""
    # The reductions are called as ufuncs: ``ndarray.max``/``sum`` compute
    # the same through a Python wrapper.  ``fmax`` skips NaNs where
    # ``maximum`` returns them, but a row with a NaN comes out all NaN
    # either way, and numpy reduces short rows faster with ``fmax``.
    x -= np.fmax.reduce(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    return x


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis; masked entries at -1e9 come out exactly 0."""
    out = Tensor(softmax_f32(a.data.copy()))
    s = out.data

    def backward(g: Array) -> None:
        inner = (g * s).sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        _accumulate(a, s * (g - inner))

    return _record(out, (a,), backward)


def log_softmax_f64(x: Array) -> Array:
    """Log-softmax of a plain array over its last axis, in float64; not a
    tape op.  The max (``fmax``, as in ``softmax_f32``) is subtracted in
    the input's dtype."""
    shifted = (x - np.fmax.reduce(x, axis=-1, keepdims=True)).astype(np.float64)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def log_softmax(a: Tensor) -> Tensor:
    out = Tensor(log_softmax_f64(a.data).astype(np.float32))
    probs = np.exp(out.data)

    def backward(g: Array) -> None:
        total = g.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        _accumulate(a, g - probs * total)

    return _record(out, (a,), backward)


LAYER_NORM_EPS = 1e-5  # added to the variance


def layer_norm_forward(a: Array, gain: Array, bias: Array) -> tuple[Array, Array, Array]:
    """Layer norm of a plain array over its last axis, with statistics in
    float64; not a tape op.  Returns the output, the normalized input
    ``xhat`` and the inverse standard deviation (float64)."""
    d = a.shape[-1]
    # The float64 copy is centred in place; mean and variance are computed
    # as np.mean and np.var compute them, without their wrappers.
    x = a.astype(np.float64)
    x -= x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((x * x).sum(axis=-1, keepdims=True) / d + LAYER_NORM_EPS)
    xhat = (x * inv).astype(np.float32)
    return xhat * gain + bias, xhat, inv


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis, then apply ``gain`` and ``bias`` [d];
    statistics accumulate in float64, and so do the gain and bias
    gradients, summed over the leading axes."""
    d = a.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeMismatch(f"layer_norm: {a.shape} with gain {gain.shape} and bias {bias.shape}")
    y, xhat, inv = layer_norm_forward(a.data, gain.data, bias.data)
    out = Tensor(y)
    inv32 = inv.astype(np.float32)
    lead = tuple(range(a.data.ndim - 1))

    def backward(g: Array) -> None:
        _accumulate(gain, (g * xhat).sum(axis=lead, dtype=np.float64).astype(np.float32))
        _accumulate(bias, g.sum(axis=lead, dtype=np.float64).astype(np.float32))
        gx = g * gain.data
        s1 = gx.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        s2 = (gx * xhat).sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        _accumulate(a, inv32 * (gx - (s1 + xhat * s2) / d))

    return _record(out, (a, gain, bias), backward)


MASK_FILL_VALUE = -1e9  # finite sentinel; IEEE -inf would NaN the softmax backward


def mask_fill(a: Tensor, mask) -> Tensor:
    """Fill positions where the bool ``mask``, of ``a``'s shape, is true with
    MASK_FILL_VALUE (no gradient there)."""
    m = np.asarray(mask, dtype=bool)
    _same_shape("mask_fill", a.data, m)
    out = Tensor(np.where(m, np.float32(MASK_FILL_VALUE), a.data))
    keep = ~m

    def backward(g: Array) -> None:
        _accumulate(a, g * keep)

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


def dropout(a: Tensor, p: float, rng: Optional[DropoutRng], packing: Packing) -> Tensor:
    """Inverted dropout of the packed rows [P, ...] of ``packing``: the mask
    is drawn at the padded shape [B, T, ...], and its real rows are
    applied.  With no mask stream (``rng`` None), or ``p`` 0, it is the
    identity: that is eval."""
    if rng is None or p <= 0.0:
        return a
    keep = 1.0 - p
    mask = packing.gather(rng.next_mask(packing.shape + a.data.shape[1:], keep))
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
    return softmax_f32(scores)


def attention(q: Tensor, k: Tensor, v: Tensor, q_packing: Packing, kv_packing: Packing,
              heads: int, causal: bool, p: float = 0.0, rng: Optional[DropoutRng] = None) -> Tensor:
    """Multi-head ``dropout(softmax(mask_fill(q @ k^T * scale))) @ v`` as one
    primitive on packed rows: q [Pq, d] at the real positions of
    ``q_packing``, k and v [Pk, d] at those of ``kv_packing``.  They are laid
    out padded per head, [B, heads, T, d / heads] (zeros at padding), with
    scale ``(d / heads) ** -0.5``.  The padding keys of ``kv_packing`` are
    blocked, and when ``causal`` so is every key after the query's position;
    the dropout mask is drawn at the scores' shape [B, heads, Tq, Tk], and
    with no mask stream (``rng`` None) there is none.  Returns the packed
    context [Pq, d]."""
    d = q.data.shape[-1]
    for name, t, packing in (("q", q, q_packing), ("k", k, kv_packing), ("v", v, kv_packing)):
        if t.data.shape != (len(packing.real[0]), d):
            raise ShapeMismatch(f"attention: {name} {t.shape} vs {len(packing.real[0])} real rows "
                                f"of width {d}")
    if d % heads:
        raise ShapeMismatch(f"attention: {heads} heads do not divide width {d}")
    if q_packing.shape[0] != kv_packing.shape[0]:
        raise ShapeMismatch(f"attention: query layout {q_packing.shape} vs key layout "
                            f"{kv_packing.shape}")

    def packed(x: Array, packing: Packing) -> Array:
        return packing.gather(x.transpose(0, 2, 1, 3)).reshape(-1, d)

    scale = 1.0 / math.sqrt(d // heads)
    qh, kh, vh = (q_packing.heads(q.data, heads), kv_packing.heads(k.data, heads),
                  kv_packing.heads(v.data, heads))
    blocked = ~kv_packing.mask[:, None, None, :]
    if causal:
        blocked = blocked | np.triu(np.ones((q_packing.shape[1], kv_packing.shape[1]), bool), k=1)
    probs = attention_probs(qh, kh, blocked, scale)
    weights, drop = probs, None
    if rng is not None and p > 0.0:
        keep = 1.0 - p
        drop = rng.next_mask(probs.shape, keep)
        inv_keep = np.float32(1.0 / keep)
        weights = (probs * inv_keep) * drop
    out = Tensor(packed(weights @ vh, q_packing))

    def backward(g: Array) -> None:
        g = q_packing.heads(g, heads)
        _accumulate(v, packed(weights.swapaxes(-1, -2) @ g, kv_packing))
        gs = g @ vh.swapaxes(-1, -2)
        if drop is not None:
            gs *= inv_keep
            gs *= drop
        # Softmax backward: probs * (g - sum(g * probs)).
        gs -= (gs * probs).sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        gs *= probs
        gs = np.where(blocked, np.float32(0.0), gs)
        gs *= np.float32(scale)
        _accumulate(q, packed(gs @ kh, q_packing))
        _accumulate(k, packed(gs.swapaxes(-1, -2) @ qh, kv_packing))

    return _record(out, (q, k, v), backward)
