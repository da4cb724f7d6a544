import json
import math

import numpy as np
import pytest

from pointerparse import checkpoint as ckpt
from pointerparse.autodiff import (
    MASK_FILL_VALUE, Tape, add, constant, log_softmax, mask_fill, mul, parameter, reduce_sum, scale,
)
from pointerparse.data import CorpusExample, default_grammar, generate_synthetic
from pointerparse.linearize import Kind, ParseNode, Query, SemanticParse, Style, SymKind, linearize
from pointerparse.model import ModelConfig, PointerGeneratorModel
from pointerparse.training import (
    TIMING_FIELDS,
    AdamState,
    GoldOutOfRange,
    NonFiniteGradient,
    TrainConfig,
    adam_step,
    encode_corpus,
    exact_match_rate,
    label_smoothed_ce,
    make_batch,
    noam_lr,
    prepare_corpus,
    train_loop,
)
from pointerparse.training_ops import LossBelowEntropyFloor, _check_entropy_floor
from pointerparse.vocab import BOS_ID
from helpers import check_grad


class TestNoamSchedule:
    def test_branches_meet_at_warmup(self):
        d, warmup = 128, 4000
        at_warmup = noam_lr(warmup, d, warmup)
        assert math.isclose(at_warmup, d ** -0.5 * warmup ** -0.5, rel_tol=1e-12)
        assert math.isclose(warmup * warmup ** -1.5, warmup ** -0.5, rel_tol=1e-12)

    def test_monotone_up_then_down(self):
        d, warmup = 64, 200
        values = [noam_lr(s, d, warmup) for s in range(1, 3 * warmup)]
        for a, b in zip(values[: warmup - 1], values[1:warmup]):
            assert b > a
        for a, b in zip(values[warmup - 1 : -1], values[warmup:]):
            assert b < a

    def test_reference_value(self):
        assert noam_lr(100, 128, 4000) == pytest.approx(3.49e-5, rel=2e-3)

    def test_closed_form_at_landmarks(self):
        d, warmup = 128, 4000
        for step in (1, warmup, 10 * warmup):
            expected = d ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)
            assert abs(noam_lr(step, d, warmup) - expected) <= 1e-9 * expected

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            noam_lr(0, 128, 4000)


def _loss_from_probs(probs, gold, epsilon, support=None):
    """Drive the loss with explicit per-step distributions."""
    probs = np.asarray(probs, dtype=np.float64)[None]  # batch of 1
    logits = constant(np.log(probs).astype(np.float32))
    gold = np.asarray(gold)[None]
    steps = probs.shape[1]
    if support is None:
        support = np.ones((1, probs.shape[2]), dtype=bool)
    step_mask = np.ones((1, steps), dtype=bool)
    return label_smoothed_ce(logits, gold, step_mask, support, epsilon).item()


class TestLabelSmoothedCE:
    def test_zero_epsilon_is_plain_cross_entropy(self):
        loss = _loss_from_probs([[0.7, 0.2, 0.1]], [0], epsilon=0.0)
        assert loss == pytest.approx(-math.log(0.7), abs=1e-6)

    def test_uniform_distribution_gives_log_k(self):
        for eps in (0.0, 0.1, 0.5):
            loss = _loss_from_probs([[0.25] * 4], [2], epsilon=eps)
            assert loss == pytest.approx(math.log(4), abs=1e-6)

    def test_three_class_hand_computed(self):
        # (1-eps) * -log(0.7) + eps * mean(-log p) over all three classes.
        expected = 0.9 * -math.log(0.7) + 0.1 * (
            -(math.log(0.7) + math.log(0.2) + math.log(0.1)) / 3.0
        )
        loss = _loss_from_probs([[0.7, 0.2, 0.1]], [0], epsilon=0.1)
        assert loss == pytest.approx(expected, abs=1e-7)

    def test_gold_out_of_range(self):
        with pytest.raises(GoldOutOfRange):
            _loss_from_probs([[0.5, 0.5]], [5], epsilon=0.1)

    def test_mean_over_steps(self):
        two_steps = _loss_from_probs([[0.7, 0.2, 0.1], [0.1, 0.7, 0.2]], [0, 1], 0.1)
        one_step = _loss_from_probs([[0.7, 0.2, 0.1]], [0], 0.1)
        assert two_steps == pytest.approx(one_step, abs=1e-6)

    def test_loss_at_least_smoothed_entropy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            floor_q = np.full(6, 0.1 / 6)
            floor_q[2] += 0.9
            entropy = -(floor_q * np.log(floor_q)).sum()
            loss = _loss_from_probs([p], [2], epsilon=0.1)
            assert loss >= entropy - 1e-5


def _composed_ce(logits, gold, step_mask, support_mask, epsilon, per_example):
    """The loss written as a chain of tape ops (dense one-hot and support)."""
    batch, steps, width = logits.shape
    logp = log_softmax(logits)
    onehot = np.zeros((batch, steps, width), dtype=np.float32)
    np.put_along_axis(onehot, gold[:, :, None], 1.0, axis=2)
    nll = scale(reduce_sum(mul(logp, constant(onehot)), axis=2), -1.0)
    counts = support_mask.sum(axis=1)
    smooth_sum = reduce_sum(mul(logp, constant(support_mask[:, None, :].astype(np.float32))), axis=2)
    smooth = mul(smooth_sum, constant(-1.0 / counts[:, None].astype(np.float32)))
    masked = mul(add(scale(nll, 1.0 - epsilon), scale(smooth, epsilon)),
                 constant(step_mask.astype(np.float32)))
    if per_example:
        steps_per_example = np.maximum(step_mask.sum(axis=1), 1).astype(np.float32)
        return mul(reduce_sum(masked, axis=1), constant(1.0 / steps_per_example))
    return scale(reduce_sum(masked), 1.0 / max(int(step_mask.sum()), 1))


def _ce_case(seed=0):
    """Three examples, four steps, seven outcomes: padded steps, a pointer
    column blocked by its source mask and left out of that example's support."""
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((3, 4, 7)).astype(np.float32) * 2
    support = np.ones((3, 7), dtype=bool)
    support[:, 0] = False  # PAD
    support[2, 6] = False  # a pointer past example 2's source
    gold = rng.integers(1, 6, size=(3, 4))
    step_mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 0]], dtype=bool)
    gold[~step_mask] = 0
    return logits, gold, step_mask, support


class TestFusedLabelSmoothedCE:
    @pytest.mark.parametrize("per_example", [False, True])
    def test_finite_differences(self, per_example):
        raw, gold, step_mask, support = _ce_case(seed=1)
        logits = parameter(raw)
        weights = constant(np.array([0.5, -1.0, 2.0], dtype=np.float32))

        def loss():
            out = label_smoothed_ce(logits, gold, step_mask, support, 0.1, per_example=per_example)
            return reduce_sum(mul(out, weights)) if per_example else out

        check_grad(loss, [logits])

    @pytest.mark.parametrize("per_example", [False, True])
    def test_matches_composed_formula(self, per_example):
        raw, gold, step_mask, support = _ce_case(seed=2)
        blocked = np.zeros((3, 1, 7), dtype=bool)
        blocked[2, 0, 6] = True
        logits = parameter(raw)
        weights = constant(np.array([0.5, -1.0, 2.0], dtype=np.float32))
        results = []
        for op in (label_smoothed_ce, _composed_ce):
            logits.zero_grad()
            with Tape() as tape:
                masked = mask_fill(logits, blocked, MASK_FILL_VALUE)
                out = op(masked, gold, step_mask, support, 0.1, per_example)
                tape.backward(reduce_sum(mul(out, weights)) if per_example else out)
            results.append((out.data, logits.grad.copy()))
        (fused, fused_grad), (composed, composed_grad) = results
        assert fused.shape == composed.shape == ((3,) if per_example else ())
        np.testing.assert_allclose(fused, composed, atol=1e-6)
        np.testing.assert_allclose(fused_grad, composed_grad, atol=1e-6)

    @pytest.mark.parametrize("per_example", [False, True])
    def test_loss_below_entropy_floor_raises(self, per_example):
        counts = np.array([6, 6])
        steps = np.array([2, 1])
        below = constant(np.zeros(2 if per_example else (), dtype=np.float32))
        with pytest.raises(LossBelowEntropyFloor):
            _check_entropy_floor(below, counts, steps, 0.1, per_example)
        at_log_k = constant(np.full(2 if per_example else (), np.log(6), dtype=np.float32))
        _check_entropy_floor(at_log_k, counts, steps, 0.1, per_example)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = parameter(np.array([1.0, -2.0], dtype=np.float32))
        state = AdamState()
        adam_step({"p": p}, state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_constant_gradient_approaches_sign_step(self):
        p = parameter(np.array([0.0], dtype=np.float32))
        state = AdamState()
        lr = 0.01
        for _ in range(300):
            p.grad = np.array([3.0], dtype=np.float32)
            adam_step({"p": p}, state, lr=lr, clip_norm=None)
        before = p.data.copy()
        p.grad = np.array([3.0], dtype=np.float32)
        adam_step({"p": p}, state, lr=lr, clip_norm=None)
        delta = before - p.data
        assert delta[0] == pytest.approx(lr, rel=1e-3)

    def test_two_step_scalar_oracle(self):
        beta1, beta2, eps, lr = 0.9, 0.98, 1e-9, 0.05
        grads = [0.3, -0.2]
        # Plain-float replay of the update rule.
        theta, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m = float(np.float32(m))
            v = float(np.float32(v))
            mhat = m / (1 - beta1 ** t)
            vhat = v / (1 - beta2 ** t)
            theta = float(np.float32(theta - lr * mhat / (math.sqrt(vhat) + eps)))
        p = parameter(np.array([1.0], dtype=np.float32))
        state = AdamState()
        for g in grads:
            p.grad = np.array([g], dtype=np.float32)
            adam_step({"p": p}, state, lr=lr, beta1=beta1, beta2=beta2, eps=eps, clip_norm=None)
        assert p.data[0] == pytest.approx(theta, abs=1e-7)

    def test_float32_update_tracks_float64_formula(self):
        beta1, beta2, eps, lr = 0.9, 0.98, 1e-9, 1e-2
        rng = np.random.default_rng(4)
        start = rng.uniform(-1.0, 1.0, size=64)
        grads = rng.standard_normal((50, 64))
        theta, m, v = start.copy(), np.zeros(64), np.zeros(64)
        p = parameter(start.astype(np.float32))
        state = AdamState()
        for t, g in enumerate(grads, start=1):
            g32 = g.astype(np.float32)
            m = beta1 * m + (1 - beta1) * g32
            v = beta2 * v + (1 - beta2) * g32.astype(np.float64) ** 2
            theta -= lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
            p.grad = g32
            adam_step({"p": p}, state, lr=lr, beta1=beta1, beta2=beta2, eps=eps, clip_norm=None)
            assert state.m["p"].dtype == state.v["p"].dtype == p.data.dtype == np.float32
        np.testing.assert_allclose(p.data, theta, rtol=0, atol=1e-6)

    def test_non_finite_gradient_aborts(self):
        ok = parameter(np.array([1.0], dtype=np.float32))
        ok.grad = np.array([0.5], dtype=np.float32)
        p = parameter(np.array([1.0], dtype=np.float32))
        p.grad = np.array([np.nan], dtype=np.float32)
        state = AdamState()
        with pytest.raises(NonFiniteGradient, match="in p$"):
            adam_step({"ok": ok, "p": p}, state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0])
        np.testing.assert_array_equal(ok.data, [1.0])
        assert state.step == 0 and not state.m and not state.v

    def test_global_norm_clipping(self):
        p = parameter(np.zeros(4, dtype=np.float32))
        p.grad = np.full(4, 10.0, dtype=np.float32)
        state = AdamState()
        norm, factor = adam_step({"p": p}, state, lr=1.0, clip_norm=1.0)
        # First moment built from the clipped gradient: norm 1 over 4 entries.
        np.testing.assert_allclose(state.m["p"], 0.1 * 10.0 / 20.0, atol=1e-6)
        assert (norm, factor) == (20.0, 1.0 / 20.0)

    def test_unclipped_step_reports_factor_one(self):
        p = parameter(np.zeros(2, dtype=np.float32))
        p.grad = np.array([0.3, 0.4], dtype=np.float32)
        norm, factor = adam_step({"p": p}, AdamState(), lr=1.0, clip_norm=1.0)
        assert norm == pytest.approx(0.5) and factor == 1.0


def _tiny_model_config(symtab, src_vocab, d=48):
    return ModelConfig(
        vocab_size=symtab.vocab_size,
        src_vocab_size=src_vocab.size,
        max_src_len=symtab.max_src_len,
        d_model=d,
        n_enc_layers=1,
        n_enc_heads=4,
        enc_ffn=2 * d,
        d_dec=d,
        n_dec_layers=1,
        n_dec_heads=4,
        dec_ffn=2 * d,
        dropout=0.1,
    )


class TestTrainLoop:
    def test_loss_drops_ninety_percent(self):
        # Smoothing off here: with eps > 0 the smoothed-entropy floor (about
        # 0.7 nats at this vocabulary size) caps how far the loss can fall.
        splits = generate_synthetic(default_grammar(), 200, seed=7)
        train = splits["train"] + splits["dev"] + splits["test"]
        symtab, src_vocab = prepare_corpus(train)
        config = TrainConfig(
            epsilon_ls=0.0, batch_size=16, max_steps=1200, warmup_steps=150,
            eval_every=10_000, log_every=1, seed=3,
        )
        result = train_loop(train, None, _tiny_model_config(symtab, src_vocab), config, symtab, src_vocab)
        first = result.history[0]["loss"]
        last = result.history[-1]["loss"]
        assert last < 0.1 * first, f"loss only fell {first:.3f} -> {last:.3f}"

    def test_batch_size_one_and_two_both_overfit(self):
        splits = generate_synthetic(default_grammar(), 28, seed=21)
        train = splits["train"] + splits["dev"] + splits["test"]
        symtab, src_vocab = prepare_corpus(train)
        ems = {}
        for bs in (1, 2):
            config = TrainConfig(
                batch_size=bs, max_steps=800, warmup_steps=100, eval_every=100,
                log_every=200, seed=5, early_stop_dev_em=1.0,
            )
            result = train_loop(
                train, train, _tiny_model_config(symtab, src_vocab, d=32), config, symtab, src_vocab
            )
            ems[bs] = exact_match_rate(result.model, train, symtab, src_vocab)
        assert ems[1] == ems[2] == 1.0

    def test_metrics_records_carry_grad_norm_and_clip_factor(self, tmp_path):
        splits = generate_synthetic(default_grammar(), 48, seed=5)
        train = splits["train"]
        symtab, src_vocab = prepare_corpus(train)
        config = TrainConfig(batch_size=8, max_steps=6, warmup_steps=10, eval_every=3,
                             log_every=2, seed=9)
        train_loop(train, train[:4], _tiny_model_config(symtab, src_vocab, d=32), config,
                   symtab, src_vocab, checkpoint_dir=tmp_path)
        records = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
        assert [r["step"] for r in records] == [2, 3, 4, 6]
        assert len(train) == 40
        target_lengths = [len(ex.tgt_ids) + 1 for ex in encode_corpus(train, symtab, src_vocab)]
        previous = {"step": 0, "wall_s": 0.0}
        for r in records:
            assert set(r) == {"step", "loss", "lr", "dev_em", "grad_norm", "clip_factor",
                              *TIMING_FIELDS}
            assert r["grad_norm"] > 0
            assert r["clip_factor"] == (1.0 if r["grad_norm"] <= 1.0 else 1.0 / r["grad_norm"])
            # The rates cover the steps since the previous record; 40 training
            # examples make every batch 8 long.
            interval = r["wall_s"] - previous["wall_s"]
            examples = 8 * (r["step"] - previous["step"])
            assert interval > 0
            assert r["examples_per_s"] * interval == pytest.approx(examples)
            tokens = r["tgt_tokens_per_s"] * interval
            assert examples * min(target_lengths) - 1e-6 <= tokens <= examples * max(target_lengths) + 1e-6
            previous = r
        # The manifest keeps the record without its clock readings, so twin
        # runs write identical manifests.
        manifest = json.loads((tmp_path / "step_000006" / "manifest.json").read_text())
        assert manifest["metrics"] == {k: v for k, v in records[-1].items() if k not in TIMING_FIELDS}

    def test_resume_is_bit_identical(self, tmp_path):
        splits = generate_synthetic(default_grammar(), 48, seed=5)
        train = splits["train"]
        symtab, src_vocab = prepare_corpus(train)
        mc = _tiny_model_config(symtab, src_vocab, d=32)

        def run(max_steps, ckpt_dir, resume=None):
            config = TrainConfig(
                batch_size=8, max_steps=max_steps, warmup_steps=10,
                eval_every=10_000, log_every=1, checkpoint_every=8, seed=9,
            )
            return train_loop(train, None, mc, config, symtab, src_vocab,
                              checkpoint_dir=ckpt_dir, resume_from=resume)

        full = run(16, tmp_path / "full")
        run(8, tmp_path / "half")
        resumed = run(16, tmp_path / "resumed", resume=tmp_path / "half" / "step_000008")
        full_by_step = {h["step"]: h["loss"] for h in full.history}
        for h in resumed.history:
            assert h["loss"] == full_by_step[h["step"]]
        assert (
            (tmp_path / "full" / "step_000016" / "params.bin").read_bytes()
            == (tmp_path / "resumed" / "step_000016" / "params.bin").read_bytes()
        )

    @pytest.mark.parametrize("recorded", ["other_threads", "absent"])
    def test_resume_under_another_provenance_warns_and_carries_on(self, tmp_path, monkeypatch,
                                                                  recorded):
        """A checkpoint made with another thread count resumes with one
        ``warning`` line in ``metrics.jsonl``; a manifest older than the
        record resumes silently.  Either way the losses are unchanged."""
        splits = generate_synthetic(default_grammar(), 48, seed=5)
        train = splits["train"]
        symtab, src_vocab = prepare_corpus(train)
        mc = _tiny_model_config(symtab, src_vocab, d=32)

        def run(max_steps, ckpt_dir, resume=None):
            config = TrainConfig(batch_size=8, max_steps=max_steps, warmup_steps=10,
                                 eval_every=10_000, log_every=1, checkpoint_every=4, seed=9)
            return train_loop(train, None, mc, config, symtab, src_vocab,
                              checkpoint_dir=ckpt_dir, resume_from=resume)

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        full = run(6, tmp_path / "full")
        run(4, tmp_path / "half")
        run(4, tmp_path / "twin")
        manifest_path = tmp_path / "half" / "step_000004" / "manifest.json"
        assert (manifest_path.read_text()
                == (tmp_path / "twin" / "step_000004" / "manifest.json").read_text())
        manifest = json.loads(manifest_path.read_text())
        assert manifest["provenance"] == ckpt.provenance()
        assert manifest["provenance"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        if recorded == "absent":
            del manifest["provenance"]
        manifest_path.write_text(json.dumps(manifest))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        resumed = run(6, tmp_path / "resumed", resume=manifest_path.parent)
        assert [h["loss"] for h in resumed.history] == [h["loss"] for h in full.history[4:]]
        lines = [json.loads(line)
                 for line in (tmp_path / "resumed" / "metrics.jsonl").read_text().splitlines()]
        warnings = [line for line in lines if "warning" in line]
        assert [line["step"] for line in lines if "loss" in line] == [5, 6]
        if recorded == "absent":
            assert warnings == []
        else:
            assert warnings == [lines[0]]
            assert lines[0]["step"] == 4
            assert lines[0]["checkpoint"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
            assert lines[0]["current"] == ckpt.provenance()


class TestBatchInvariance:
    def test_loss_same_alone_and_in_batch(self):
        splits = generate_synthetic(default_grammar(), 40, seed=31)
        examples = splits["train"]
        symtab, src_vocab = prepare_corpus(examples)
        encoded = encode_corpus(examples, symtab, src_vocab)
        # Two examples with different lengths force padding in the pair.
        encoded.sort(key=lambda e: len(e.src_ids))
        a, b = encoded[0], encoded[-1]
        model_cfg = _tiny_model_config(symtab, src_vocab, d=32)
        from pointerparse.model import PointerGeneratorModel

        model = PointerGeneratorModel(model_cfg, seed=2)

        def loss_of(batch_examples):
            batch = make_batch(batch_examples, symtab.vocab_size)
            logits = model.forward_teacher_forced(batch.src_ids, batch.src_mask, batch.tgt_in)
            return label_smoothed_ce(
                logits, batch.gold, batch.step_mask, batch.support_mask, 0.1, per_example=True
            ).data

        pair = loss_of([a, b])
        alone_a = loss_of([a])[0]
        alone_b = loss_of([b])[0]
        assert pair[0] == pytest.approx(alone_a, abs=1e-5)
        assert pair[1] == pytest.approx(alone_b, abs=1e-5)


class TestOverfitModelBehaviour:
    def test_argmax_after_slot_open_is_gold_pointer(self, overfit_bundle):
        # On a memorized example, the step right after an opening bracket
        # must put its highest score on the gold pointer token.
        result, examples = overfit_bundle
        model, symtab, src_vocab = result.model, result.symtab, result.source_vocab
        checked = 0
        for ex in examples[:40]:
            gold = linearize(ex.parse, ex.query)
            ids = symtab.encode(gold)
            spots = [
                t for t, sym in enumerate(gold)
                if sym.sym in (SymKind.SLOT_OPEN, SymKind.INTENT_OPEN)
                and t + 1 < len(ids)
                and gold[t + 1].sym is SymKind.POINTER
            ]
            if not spots:
                continue
            src = np.asarray([src_vocab.encode(ex.query.tokens)])
            mask = np.ones_like(src, dtype=bool)
            enc = model.encode(src, mask)
            t = spots[0]
            prefix = np.asarray([[BOS_ID] + ids[: t + 1]])
            dist = model.decode_step(prefix, enc, mask)
            assert int(np.argmax(dist.log_probs[0])) == ids[t + 1]
            checked += 1
        assert checked >= 10


def _empty_query_example():
    """An intent with no slots over an empty query: a valid flat parse that
    no model can decode, since it has no source token to encode."""
    return CorpusExample(Query.from_text(""), SemanticParse(ParseNode("x", Kind.INTENT), Style.FLAT))


class TestExactMatchRate:
    def test_only_empty_queries_score_zero(self):
        splits = generate_synthetic(default_grammar(), 20, seed=3)
        symtab, src_vocab = prepare_corpus(splits["train"])
        model = PointerGeneratorModel(_tiny_model_config(symtab, src_vocab, d=16), seed=0)
        assert exact_match_rate(model, [_empty_query_example()], symtab, src_vocab) == 0.0
        assert exact_match_rate(model, [_empty_query_example()] * 3, symtab, src_vocab) == 0.0

    def test_empty_query_is_a_miss_in_a_mixed_dev_set(self, overfit_bundle):
        """One empty query in the first chunk of 64 and one after it, where
        it would make a chunk of its own if it were decoded."""
        result, examples = overfit_bundle
        empty = _empty_query_example()
        mixed = examples[:10] + [empty] + examples[10:63] + [empty]
        em = exact_match_rate(result.model, mixed, result.symtab, result.source_vocab)
        assert em == 63 / 65
