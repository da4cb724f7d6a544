import numpy as np
import pytest

from pointerparse import autodiff
from pointerparse.autodiff import (
    DropoutRng,
    NonScalarLoss,
    Packing,
    ShapeMismatch,
    Tape,
    TapeOrderError,
    active_tape,
    add,
    attention,
    concat,
    constant,
    dropout,
    gather,
    layer_norm,
    log_softmax,
    mask_fill,
    matmul,
    mul,
    parameter,
    reduce_sum,
    relu,
    reshape,
    scale,
    softmax,
    swap_last,
    transpose,
    unpack,
)
from pointerparse.training_ops import AdamState, adam_step
from helpers import check_grad


def rand(*shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float32)


class TestForwardValues:
    def test_softmax_symmetry(self):
        out = softmax(constant([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_matmul_identity(self):
        a = rand(4, 4, seed=1)
        out = matmul(constant(np.eye(4, dtype=np.float32)), constant(a))
        np.testing.assert_allclose(out.data, a)

    def test_softmax_rows_sum_to_one_with_masking(self):
        x = constant(rand(5, 8, seed=2, scale=3.0))
        mask = np.zeros((5, 8), dtype=bool)
        mask[:, 5:] = True
        s = softmax(mask_fill(x, mask))
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(5), atol=1e-6)
        assert np.all(s.data[:, 5:] == 0.0)

    def test_softmax_kernel_is_the_float64_normalized_formula(self):
        """``softmax`` and ``attention_probs`` share one kernel, bit-equal to
        ``exp(x - max) / float32(sum64)``, masked entries included."""
        x = rand(3, 5, 8, seed=3, scale=3.0)
        x[:, :, 6:] = autodiff.MASK_FILL_VALUE
        exp = np.exp(x - x.max(axis=-1, keepdims=True))
        expected = exp / exp.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        np.testing.assert_array_equal(softmax(constant(x)).data, expected)
        eye = np.broadcast_to(np.eye(8, dtype=np.float32), (3, 8, 8))
        np.testing.assert_array_equal(autodiff.attention_probs(x, eye, None, 1.0), expected)

    def test_log_softmax_matches_log_of_softmax(self):
        x = constant(rand(4, 9, seed=3, scale=5.0))
        np.testing.assert_allclose(
            log_softmax(x).data, np.log(softmax(x).data), atol=1e-5
        )

    def test_determinism(self):
        def run():
            x = constant(rand(6, 6, seed=7))
            return matmul(softmax(x), relu(x)).data.tobytes()

        assert run() == run()

    def test_shape_mismatch_message_carries_both_shapes(self):
        with pytest.raises(ShapeMismatch) as err:
            matmul(constant(rand(2, 3)), constant(rand(4, 2)))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = parameter(rand(3, 4, seed=4))
        with Tape() as tape:
            tape.backward(reduce_sum(x))
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_zero_scaled_loss_gives_zero_grad(self):
        x = parameter(rand(3, 3, seed=5))
        with Tape() as tape:
            loss = scale(reduce_sum(relu(matmul(x, x))), 0.0)
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, np.zeros((3, 3)))

    def test_unreachable_parameter_gets_no_grad(self):
        """A parameter the loss does not reach has no gradient after
        backward, and an Adam step leaves it unchanged."""
        x = parameter(rand(2, 2, seed=6))
        unused = parameter(rand(2, 2, seed=7))
        before = unused.data.copy()
        with Tape() as tape:
            tape.backward(reduce_sum(x))
        assert unused.grad is None
        adam_step({"x": x, "unused": unused}, AdamState(), lr=0.1)
        np.testing.assert_array_equal(unused.data, before)

    def test_a_parameter_has_no_grad_until_backward_writes_one(self):
        x = parameter(rand(2, 2, seed=6))
        assert x.grad is None
        with Tape() as tape:
            tape.backward(reduce_sum(x))
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_backward_keeps_only_the_leaves_gradients(self):
        """Each recorded node's gradient is dropped once its closure has
        run, so a finished backward holds no intermediate's gradient."""
        x = parameter(rand(3, 4, seed=5))
        with Tape() as tape:
            tape.backward(reduce_sum(relu(mul(x, x))))
        assert len(tape.nodes) == 3
        assert all(node.grad is None for node in tape.nodes)
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_non_scalar_loss_rejected(self):
        x = parameter(rand(3, seed=8))
        with Tape() as tape:
            with pytest.raises(NonScalarLoss):
                tape.backward(add(x, x))

    def test_tapes_exited_out_of_order_raise(self):
        outer, inner = Tape(), Tape()
        outer.__enter__()
        inner.__enter__()
        try:
            with pytest.raises(TapeOrderError):
                outer.__exit__(None, None, None)
        finally:
            inner.__exit__(None, None, None)
            outer.__exit__(None, None, None)
        assert active_tape() is None
        with pytest.raises(TapeOrderError):
            outer.__exit__(None, None, None)

    def test_no_recording_without_tape(self):
        x = parameter(rand(2, 2, seed=9))
        out = matmul(x, x)
        assert out._backward is None and not out.requires_grad

    @pytest.mark.parametrize("op", [add, mul, matmul])
    def test_a_constant_operand_gets_no_gradient_work(self, op):
        """A constant operand (a position table), on either side: the
        backward gives the parameter a gradient and the constant none."""
        x = parameter(rand(2, 3, 3, seed=10))
        c = constant(rand(2, 3, 3, seed=11))
        w = constant(rand(2, 3, 3, seed=12))
        for a, b in ((x, c), (c, x)):
            x.zero_grad()
            with Tape() as tape:
                tape.backward(reduce_sum(mul(op(a, b), w)))
            assert x.grad.any()
            assert c.grad is None


REFUSED_SHAPES = {
    "add_row": (add, (3, 4), (1, 4)),
    "add_vector": (add, (3, 4), (4,)),
    "mul_row": (mul, (3, 4), (1, 4)),
    "mul_vector": (mul, (3, 4), (4,)),
    "mask_fill_column": (lambda a, b: mask_fill(a, b.data > 0), (3, 4), (3, 1)),
    "layer_norm_row_gain": (lambda a, b: layer_norm(a, b, b), (3, 4), (1, 4)),
    "matmul_stack_by_weight": (matmul, (2, 3, 4), (4, 5)),
    "matmul_stack_by_one_stack": (matmul, (2, 3, 4), (1, 4, 5)),
    "matmul_rows_by_stack": (matmul, (3, 4), (2, 4, 5)),
}


@pytest.mark.parametrize("case", sorted(REFUSED_SHAPES))
def test_no_op_broadcasts(case):
    """Every op takes exactly the shapes the model gives it: operands that
    would broadcast raise ShapeMismatch, and no tape node is recorded."""
    op, shape_a, shape_b = REFUSED_SHAPES[case]
    a, b = parameter(rand(*shape_a, seed=1)), parameter(rand(*shape_b, seed=2))
    with Tape() as tape:
        with pytest.raises(ShapeMismatch):
            op(a, b)
    assert tape.nodes == []


class TestGradChecks:
    """Every primitive against central finite differences (h=1e-3)."""

    def test_softmax_weighted_sum(self):
        # The reference case: d/dx sum(softmax(x) * w) on 8 elements.
        x = parameter(rand(8, seed=10))
        w = constant(rand(8, seed=11))
        check_grad(lambda: reduce_sum(mul(softmax(x), w)), [x], rel_tol=1e-2)

    def test_add_of_two_intermediates_with_a_later_use(self):
        # add hands one upstream gradient to both inputs; a later use of the
        # first input must not leak into the second input's gradient.
        x = parameter(rand(3, 4, seed=48))
        w1, w2, w3 = (constant(rand(3, 4, seed=s)) for s in (49, 50, 51))

        def loss():
            a, b = mul(x, w1), mul(x, w2)
            later = mul(a, w3)
            return reduce_sum(add(add(a, b), later))

        check_grad(loss, [x])

    def test_mul(self):
        a = parameter(rand(3, 4, seed=15))
        b = parameter(rand(3, 4, seed=16))
        w = constant(rand(3, 4, seed=17))
        check_grad(lambda: reduce_sum(mul(mul(a, b), w)), [a, b])

    def test_scale(self):
        a = parameter(rand(6, seed=18))
        check_grad(lambda: scale(reduce_sum(a), 2.5), [a])

    def test_matmul_2d(self):
        a = parameter(rand(3, 4, seed=19))
        b = parameter(rand(4, 2, seed=20))
        w = constant(rand(3, 2, seed=21))
        check_grad(lambda: reduce_sum(mul(matmul(a, b), w)), [a, b])

    def test_matmul_stacks(self):
        a = parameter(rand(2, 3, 4, seed=22))
        b = parameter(rand(2, 4, 5, seed=23))
        w = constant(rand(2, 3, 5, seed=24))
        check_grad(lambda: reduce_sum(mul(matmul(a, b), w)), [a, b])

    def test_transpose_reshape(self):
        a = parameter(rand(2, 3, 4, seed=25))
        w = constant(rand(4, 6, seed=26))

        def loss():
            t = transpose(a, (2, 0, 1))
            return reduce_sum(mul(reshape(t, (4, 6)), w))

        check_grad(loss, [a])

    def test_concat(self):
        a = parameter(rand(3, 2, seed=27))
        b = parameter(rand(3, 5, seed=28))
        w = constant(rand(3, 7, seed=29))
        check_grad(lambda: reduce_sum(mul(concat([a, b], axis=-1), w)), [a, b])

    def test_gather_with_duplicate_ids(self):
        table = parameter(rand(6, 4, seed=30))
        ids = np.array([[0, 2, 2], [5, 0, 1]])
        w = constant(rand(2, 3, 4, seed=31))
        check_grad(lambda: reduce_sum(mul(gather(table, ids), w)), [table])

    def test_relu(self):
        a = parameter(rand(5, 5, seed=32) + 0.05)  # keep clear of the kink
        w = constant(rand(5, 5, seed=33))
        check_grad(lambda: reduce_sum(mul(relu(a), w)), [a])

    def test_log_softmax(self):
        a = parameter(rand(3, 7, seed=34, scale=2.0))
        w = constant(rand(3, 7, seed=35))
        check_grad(lambda: reduce_sum(mul(log_softmax(a), w)), [a])

    def test_layer_norm(self):
        a = parameter(rand(4, 8, seed=36, scale=2.0))
        gain = parameter(rand(8, seed=37) * 0.2 + 1.0)
        bias = parameter(rand(8, seed=38) * 0.2)
        w = constant(rand(4, 8, seed=39))
        check_grad(lambda: reduce_sum(mul(layer_norm(a, gain, bias), w)), [a, gain, bias], rel_tol=2e-2)

    def test_mask_fill(self):
        a = parameter(rand(4, 6, seed=40))
        mask = np.zeros((4, 6), dtype=bool)
        mask[:, 4:] = True
        w = constant(rand(4, 6, seed=41))
        check_grad(lambda: reduce_sum(mul(softmax(mask_fill(a, mask)), w)), [a])

    def test_reduce_sum_keepdims(self):
        a = parameter(rand(2, 4, seed=44))
        w = constant(rand(2, 1, seed=45))
        check_grad(lambda: reduce_sum(mul(reduce_sum(a, axis=1, keepdims=True), w)), [a])

    def test_dropout_frozen_mask(self):
        a = parameter(rand(5, 5, seed=46))
        w = constant(rand(5, 5, seed=47))

        def loss():
            rng = DropoutRng(seed=123)  # same counter start: same mask each call
            return reduce_sum(mul(dropout(a, 0.4, train=True, rng=rng), w))

        check_grad(loss, [a])


class TestMatmulAgainstWeight:
    """Rows [P, d_in] times a 2-D weight run as one GEMM."""

    @pytest.mark.parametrize("d_in,d_out", [(128, 128), (128, 256), (256, 128), (128, 384)])
    def test_a_row_is_the_same_in_any_product_of_2_to_299_rows(self, d_in, d_out):
        """At the model's weight shapes (d=128, FFN 256, and the decoder
        step's fused ``[Wq|Wk|Wv]``), each output row of ``weight_product``
        on P rows, 2 <= P <= 299, is bit-equal to the same row computed
        inside the 299-row product, at its start and at its end.  Packing
        changes how many rows a product runs on, so this is what keeps a
        row's value independent of the batch around it.  One row is left
        out: numpy's OpenBLAS runs a one-row product as a matrix-vector
        product (GEMV), whose sums differ from the GEMM's for K >= 64."""
        a = rand(299, d_in, seed=66)
        w = rand(d_in, d_out, seed=67, scale=0.1)
        bias = rand(d_out, seed=68)
        full = autodiff.weight_product(a, w, bias)
        for rows in range(2, 300):
            np.testing.assert_array_equal(autodiff.weight_product(a[:rows], w, bias), full[:rows])
            np.testing.assert_array_equal(autodiff.weight_product(a[-rows:], w, bias),
                                          full[-rows:])


def _padded_heads(x, packing, heads):
    """Packed rows [P, d] as per-head [B, heads, T, d / heads], zeros at
    padding, by the composed ops."""
    out = unpack(x, packing)
    out = reshape(out, out.shape[:2] + (heads, out.shape[2] // heads))
    return transpose(out, (0, 2, 1, 3))


def _composed_attention(q, k, v, q_packing, kv_packing, heads, causal, p=0.0, train=False,
                        rng=None):
    """The attention of packed rows by the composed ops, its context left in
    the padded layout [B, Tq, d]."""
    qh, kh, vh = (_padded_heads(x, pk, heads)
                  for x, pk in ((q, q_packing), (k, kv_packing), (v, kv_packing)))
    scores = scale(matmul(qh, swap_last(kh)), (q.shape[1] // heads) ** -0.5)
    blocked = ~kv_packing.mask[:, None, None, :]
    if causal:
        blocked = blocked | _causal(q_packing.shape[1])
    scores = mask_fill(scores, np.broadcast_to(blocked, scores.shape))
    ctx = transpose(matmul(dropout(softmax(scores), p, train, rng), vh), (0, 2, 1, 3))
    return reshape(ctx, ctx.shape[:2] + (q.shape[1],))


def _causal(t):
    return np.triu(np.ones((t, t), dtype=bool), k=1)[None, None]


def _lengths(lengths, t):
    return np.arange(t)[None, :] < np.asarray(lengths)[:, None]


class TestAttention:
    """The fused primitive on packed rows (2 heads of width 3) against
    finite differences and the composed ops on the padded layout."""

    HEADS = 2

    @staticmethod
    def _qkv(q_packing, kv_packing, seed):
        pq, pk = len(q_packing.real[0]), len(kv_packing.real[0])
        q = parameter(rand(pq, 6, seed=seed))
        k = parameter(rand(pk, 6, seed=seed + 1))
        v = parameter(rand(pk, 6, seed=seed + 2))
        w = constant(rand(pq, 6, seed=seed + 3))
        return q, k, v, w

    CASES = {
        "padding": dict(q=_lengths([3, 2], 3), kv=_lengths([4, 2], 4), causal=False),
        "causal": dict(q=_lengths([4, 3], 4), kv=_lengths([4, 3], 4), causal=True),
        "dropout": dict(q=_lengths([3, 1], 3), kv=_lengths([3, 4], 4), causal=False, p=0.3),
        "fully_blocked_row": dict(q=_lengths([3, 2], 3), kv=_lengths([4, 0], 4), causal=False),
    }

    def _case(self, case, seed):
        cfg = self.CASES[case]
        packings = Packing(cfg["q"]), Packing(cfg["kv"])
        return cfg, packings, self._qkv(*packings, seed=seed), cfg.get("p", 0.0)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_finite_differences(self, case):
        cfg, packings, (q, k, v, w), p = self._case(case, seed=70)

        def loss():
            rng = DropoutRng(seed=5)  # same counter start: the same mask each call
            out = attention(q, k, v, *packings, self.HEADS, cfg["causal"], p, p > 0, rng)
            return reduce_sum(mul(out, w))

        check_grad(loss, [q, k, v])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_composed_ops(self, case):
        """Values and gradients within 1e-6 of the composed ops, with the
        dropout mask drawn at the same point of the stream.  The composed
        context stays padded, and its loss weights are zero at padding, so
        no op takes it back to packed rows."""
        cfg, packings, (q, k, v, w), p = self._case(case, seed=80)
        padded_w = constant(packings[0].scatter(w.data))
        results = []
        for op, weights in ((attention, w), (_composed_attention, padded_w)):
            for t in (q, k, v):
                t.zero_grad()
            rng = DropoutRng(seed=5, counter=2)
            with Tape() as tape:
                out = op(q, k, v, *packings, self.HEADS, cfg["causal"], p, p > 0, rng)
                tape.backward(reduce_sum(mul(out, weights)))
            results.append((out.data, q.grad, k.grad, v.grad, rng.counter))
        fused, composed = results
        assert fused[4] == composed[4]  # one mask drawn from the same stream position
        assert fused[0].shape == q.shape
        np.testing.assert_allclose(fused[0], packings[0].gather(composed[0]), atol=1e-6)
        for a, b in zip(fused[1:4], composed[1:4]):
            np.testing.assert_allclose(a, b, atol=1e-6)

    def test_a_query_with_no_real_key_gets_a_zero_context(self):
        """Cross-attention where example 1 has no real key: its query rows
        come out zero, and the other examples' rows equal their attention
        over their real keys alone, without the padding."""
        packings = Packing(_lengths([2, 3, 1], 3)), Packing(_lengths([3, 0, 2], 4))
        q, k, v, w = self._qkv(*packings, seed=100)
        out = attention(q, k, v, *packings, self.HEADS, False).data
        q_rows, kv_rows = np.cumsum([0, 2, 3, 1]), np.cumsum([0, 3, 0, 2])
        assert not out[q_rows[1]:q_rows[2]].any()
        for b in (0, 2):
            qb, kb, vb = (constant(t.data[r[b]:r[b + 1]])
                          for t, r in ((q, q_rows), (k, kv_rows), (v, kv_rows)))
            alone = (Packing(np.ones((1, len(qb.data)), bool)),
                     Packing(np.ones((1, len(kb.data)), bool)))
            expected = attention(qb, kb, vb, *alone, self.HEADS, False).data
            np.testing.assert_allclose(out[q_rows[b]:q_rows[b + 1]], expected, atol=1e-6)
        check_grad(lambda: reduce_sum(mul(attention(q, k, v, *packings, self.HEADS, False), w)),
                   [q, k, v])

    def test_a_causal_query_sees_no_later_key(self):
        """Under ``causal``, changing the key and value rows at one position
        leaves the context of every earlier position as it was."""
        packing = Packing(_lengths([4, 3], 4))
        q, k, v, _ = self._qkv(packing, packing, seed=110)
        before = attention(q, k, v, packing, packing, self.HEADS, True).data
        moved_k, moved_v = k.data.copy(), v.data.copy()
        moved_k[2] += 1.0
        moved_v[2] += 1.0  # example 0, position 2
        after = attention(q, constant(moved_k), constant(moved_v), packing, packing,
                          self.HEADS, True).data
        np.testing.assert_array_equal(after[:2], before[:2])
        assert not np.array_equal(after[2], before[2])
        np.testing.assert_array_equal(after[4:], before[4:])

    def test_rows_that_do_not_fit_their_packing_are_refused(self):
        packings = Packing(_lengths([3, 2], 3)), Packing(_lengths([4, 2], 4))
        q, k, v, _ = self._qkv(*packings, seed=90)
        short = constant(rand(4, 6, seed=94))
        with pytest.raises(ShapeMismatch, match="attention: q"):
            attention(short, k, v, *packings, self.HEADS, None)
        with pytest.raises(ShapeMismatch, match="attention: v"):
            attention(q, k, short, *packings, self.HEADS, None)
        with pytest.raises(ShapeMismatch, match="attention: k"):
            attention(q, short, v, *packings, self.HEADS, None)
        with pytest.raises(ShapeMismatch, match="4 heads do not divide width 6"):
            attention(q, k, v, *packings, 4, None)
        one_key_row = Packing(_lengths([4], 4))  # would broadcast over the query batch
        k1, v1 = constant(rand(4, 6, seed=95)), constant(rand(4, 6, seed=96))
        with pytest.raises(ShapeMismatch, match="query layout"):
            attention(q, k1, v1, packings[0], one_key_row, self.HEADS, None)


class TestDropout:
    def test_eval_mode_is_identity(self):
        a = constant(rand(3, 3, seed=48))
        assert dropout(a, 0.5, train=False) is a

    def test_counter_stream_reproducible(self):
        r1 = DropoutRng(seed=9, counter=3)
        r2 = DropoutRng(seed=9, counter=3)
        m1 = r1.next_mask((4, 4), 0.5)
        m2 = r2.next_mask((4, 4), 0.5)
        np.testing.assert_array_equal(m1, m2)
        assert r1.counter == r2.counter == 4

    def test_masks_differ_across_counter(self):
        r = DropoutRng(seed=9)
        m1 = r.next_mask((8, 8), 0.5)
        m2 = r.next_mask((8, 8), 0.5)
        assert not np.array_equal(m1, m2)

    def test_golden_mask(self):
        """Pins the mask stream: a change to it must also bump the
        checkpoint format, or resumed runs would silently drift."""
        mask = DropoutRng(seed=17, counter=0).next_mask((4, 8), 0.9)
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask.astype(int), [
            [1, 1, 1, 1, 1, 1, 0, 1],
            [1, 1, 0, 1, 1, 0, 1, 1],
            [1, 1, 1, 1, 1, 1, 1, 1],
            [1, 1, 1, 1, 1, 1, 1, 1],
        ])

    def test_consecutive_masks_share_no_draws(self):
        """Mask i + 1 is not mask i shifted by a few Philox blocks, as it
        would be if i were the counter the blocks within a mask advance."""
        mask = lambda c: DropoutRng(seed=17, counter=c).next_mask((4096,), 0.5)
        m0, m1 = mask(0), mask(1)
        for shift in range(0, 257, 4):
            assert not np.array_equal(m0[shift:], m1[:4096 - shift])
            assert not np.array_equal(m1[shift:], m0[:4096 - shift])

    def test_keep_rate_is_quantised_to_sixteen_bits(self):
        mask = DropoutRng(seed=3).next_mask((1000, 1000), 0.9)
        assert abs(mask.mean() - 58982 / 65536) < 1e-3

    def test_inverted_scaling(self):
        a = constant(np.ones((2000,), dtype=np.float32))
        out = dropout(a, 0.25, train=True, rng=DropoutRng(seed=1))
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, np.full_like(kept, 1.0 / 0.75))


class TestPacking:
    """Real rows of a padded [B, T] layout: rows of 3, 1 and 4 real positions."""

    MASK = np.array([[1, 1, 1, 0], [1, 0, 0, 0], [1, 1, 1, 1]], dtype=bool)

    def test_unpack_finite_differences(self):
        r = parameter(rand(8, 5, seed=92))
        w = constant(rand(3, 4, 5, seed=93))
        check_grad(lambda: reduce_sum(mul(unpack(r, Packing(self.MASK)), w)), [r])

    def test_unpack_fills_padding_with_zeros(self):
        packing = Packing(self.MASK)
        rows = rand(8, 2, 3, seed=94)
        padded = unpack(constant(rows), packing).data
        assert padded.shape == (3, 4, 2, 3)
        assert not padded[~self.MASK].any()
        np.testing.assert_array_equal(padded[self.MASK], rows)

    def test_heads_lays_packed_rows_out_per_head(self):
        packing = Packing(self.MASK)
        rows = rand(8, 6, seed=98)
        expected = packing.scatter(rows).reshape(3, 4, 2, -1).transpose(0, 2, 1, 3)
        np.testing.assert_array_equal(packing.heads(rows, 2), expected)
        assert packing.heads(rows, 2).shape == (3, 2, 4, 3)

    def test_shapes_that_do_not_fit_the_layout_are_refused(self):
        packing = Packing(self.MASK)
        with pytest.raises(ShapeMismatch, match="unpack"):
            unpack(constant(rand(7, 2)), packing)
        with pytest.raises(ShapeMismatch, match="packing"):
            Packing(self.MASK[0])

    def test_packed_dropout_applies_the_real_rows_of_the_padded_mask(self):
        """The mask is drawn at the padded shape, from the same point of the
        stream, so packing changes neither the kept entries nor the
        counter."""
        packing = Packing(self.MASK)
        a = rand(3, 4, 5, seed=95)
        padded_rng, packed_rng = DropoutRng(seed=9, counter=3), DropoutRng(seed=9, counter=3)
        padded = dropout(constant(a), 0.4, True, padded_rng).data
        packed = dropout(constant(a[self.MASK]), 0.4, True, packed_rng, packing).data
        np.testing.assert_array_equal(packed, padded[self.MASK])
        assert packed_rng.counter == padded_rng.counter == 4

    def test_packed_dropout_finite_differences(self):
        r = parameter(rand(8, 5, seed=96))
        w = constant(rand(8, 5, seed=97))

        def loss():
            rng = DropoutRng(seed=123)  # same counter start: same mask each call
            return reduce_sum(mul(dropout(r, 0.4, True, rng, Packing(self.MASK)), w))

        check_grad(loss, [r])


@pytest.mark.parametrize("shape", [(4, 1, 128), (64, 1, 128), (32, 21, 128), (3, 7, 16)])
def test_layer_norm_statistics_match_np_mean_and_var(shape):
    """Output and input gradient are bit-equal to the np.mean / np.var form
    of the statistics, at decode-step and training shapes; the gradient
    carries ``inv``."""
    a = parameter(rand(*shape, seed=70, scale=3.0) + 0.5)
    gain = parameter(rand(shape[-1], seed=71) * 0.2 + 1.0)
    bias = parameter(rand(shape[-1], seed=72) * 0.2)
    g = rand(*shape, seed=73)
    with Tape() as tape:
        out = layer_norm(a, gain, bias)
        tape.backward(reduce_sum(mul(out, constant(g))))

    x = a.data.astype(np.float64)
    inv = 1.0 / np.sqrt(np.var(x, axis=-1, keepdims=True) + 1e-5)
    xhat = ((x - np.mean(x, axis=-1, keepdims=True)) * inv).astype(np.float32)
    np.testing.assert_array_equal(out.data, xhat * gain.data + bias.data)
    gx = g * gain.data
    s1 = gx.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    s2 = (gx * xhat).sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    expected = inv.astype(np.float32) * (gx - (s1 + xhat * s2) / shape[-1])
    np.testing.assert_array_equal(a.grad, expected)
