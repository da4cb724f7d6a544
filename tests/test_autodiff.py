import numpy as np
import pytest

from pointerparse.autodiff import (
    DropoutRng,
    NonScalarLoss,
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
)
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

    def test_unreachable_parameter_keeps_zero_grad(self):
        x = parameter(rand(2, 2, seed=6))
        unused = parameter(rand(2, 2, seed=7))
        with Tape() as tape:
            tape.backward(reduce_sum(x))
        np.testing.assert_allclose(unused.grad, np.zeros((2, 2)))

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


class TestGradChecks:
    """Every primitive against central finite differences (h=1e-3)."""

    def test_softmax_weighted_sum(self):
        # The reference case: d/dx sum(softmax(x) * w) on 8 elements.
        x = parameter(rand(8, seed=10))
        w = constant(rand(8, seed=11))
        check_grad(lambda: reduce_sum(mul(softmax(x), w)), [x], rel_tol=1e-2)

    def test_add_broadcast(self):
        a = parameter(rand(4, 5, seed=12))
        b = parameter(rand(5, seed=13))
        w = constant(rand(4, 5, seed=14))
        check_grad(lambda: reduce_sum(mul(add(a, b), w)), [a, b])

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

    def test_matmul_batched_against_shared_weight(self):
        a = parameter(rand(2, 3, 4, seed=22))
        b = parameter(rand(4, 5, seed=23))
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
    """Rank >= 3 times a 2-D weight runs as one flattened GEMM."""

    @pytest.mark.parametrize("lead", [(3, 5), (2, 3, 4)])
    def test_matches_batched_product(self, lead):
        a = parameter(rand(*lead, 6, seed=60))
        b = parameter(rand(6, 7, seed=61))
        g = rand(*lead, 7, seed=62)
        with Tape() as tape:
            out = matmul(a, b)
            tape.backward(reduce_sum(mul(out, constant(g))))
        a64, b64, g64 = a.data.astype(np.float64), b.data.astype(np.float64), g.astype(np.float64)
        np.testing.assert_allclose(out.data, a64 @ b64, atol=1e-5)
        np.testing.assert_allclose(a.grad, g64 @ b64.T, atol=1e-5)
        batched = a64.swapaxes(-1, -2) @ g64  # one [6, 7] product per leading index
        np.testing.assert_allclose(b.grad, batched.reshape(-1, 6, 7).sum(axis=0), atol=1e-5)

    def test_rank_four_finite_differences(self):
        a = parameter(rand(2, 3, 2, 4, seed=63))
        b = parameter(rand(4, 5, seed=64))
        w = constant(rand(2, 3, 2, 5, seed=65))
        check_grad(lambda: reduce_sum(mul(matmul(a, b), w)), [a, b])


def _composed_attention(q, k, v, fill_mask, c, p=0.0, train=False, rng=None):
    scores = scale(matmul(q, swap_last(k)), c)
    if fill_mask is not None:
        scores = mask_fill(scores, fill_mask)
    return matmul(dropout(softmax(scores), p, train, rng), v)


def _causal(t):
    return np.triu(np.ones((t, t), dtype=bool), k=1)[None, None]


def _padding(lengths, t):
    return (np.arange(t)[None, :] >= np.asarray(lengths)[:, None])[:, None, None, :]


class TestAttention:
    """The fused primitive against finite differences and the composed ops."""

    @staticmethod
    def _qkv(batch, kv_batch, tq, tk, seed):
        q = parameter(rand(batch, 2, tq, 3, seed=seed))
        k = parameter(rand(kv_batch, 2, tk, 3, seed=seed + 1))
        v = parameter(rand(kv_batch, 2, tk, 3, seed=seed + 2))
        w = constant(rand(batch, 2, tq, 3, seed=seed + 3))
        return q, k, v, w

    CASES = {
        "padding": dict(batch=2, kv_batch=2, tq=3, tk=4, mask=_padding([4, 2], 4)),
        "causal": dict(batch=2, kv_batch=2, tq=4, tk=4, mask=_causal(4)),
        "dropout": dict(batch=2, kv_batch=2, tq=3, tk=4, mask=_padding([3, 4], 4), p=0.3),
        "key_batch_of_one": dict(batch=3, kv_batch=1, tq=1, tk=4, mask=np.zeros((1, 1, 1, 4), bool)),
        "fully_blocked_row": dict(batch=2, kv_batch=2, tq=3, tk=4, mask=_padding([4, 0], 4)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_finite_differences(self, case):
        cfg = self.CASES[case]
        q, k, v, w = self._qkv(cfg["batch"], cfg["kv_batch"], cfg["tq"], cfg["tk"], seed=70)
        p = cfg.get("p", 0.0)

        def loss():
            rng = DropoutRng(seed=5)  # same counter start: the same mask each call
            return reduce_sum(mul(attention(q, k, v, cfg["mask"], 0.6, p, p > 0, rng), w))

        check_grad(loss, [q, k, v])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_composed_ops(self, case):
        cfg = self.CASES[case]
        q, k, v, w = self._qkv(cfg["batch"], cfg["kv_batch"], cfg["tq"], cfg["tk"], seed=80)
        p = cfg.get("p", 0.0)
        results = []
        for op in (attention, _composed_attention):
            for t in (q, k, v):
                t.zero_grad()
            rng = DropoutRng(seed=5, counter=2)
            with Tape() as tape:
                out = op(q, k, v, cfg["mask"], 0.6, p, p > 0, rng)
                tape.backward(reduce_sum(mul(out, w)))
            results.append((out.data, q.grad, k.grad, v.grad, rng.counter))
        fused, composed = results
        assert fused[4] == composed[4]  # one mask drawn from the same stream position
        for a, b in zip(fused[:4], composed[:4]):
            np.testing.assert_allclose(a, b, atol=1e-6)


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

    def test_inverted_scaling(self):
        a = constant(np.ones((2000,), dtype=np.float32))
        out = dropout(a, 0.25, train=True, rng=DropoutRng(seed=1))
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, np.full_like(kept, 1.0 / 0.75))
