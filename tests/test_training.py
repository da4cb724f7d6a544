import dataclasses
import json
import math
import re
import sys
import weakref

import numpy as np
import pytest

from pointerparse import checkpoint as ckpt, training
from pointerparse.autodiff import (
    Tape, add, constant, log_softmax, mask_fill, mul, parameter, reduce_sum, scale,
)
from pointerparse.data import CorpusExample, DataError, default_grammar, generate_synthetic
from pointerparse.linearize import Kind, ParseNode, Query, SemanticParse, Style, SymKind, linearize
from pointerparse.model import ModelConfig, PointerGeneratorModel
from pointerparse.training import (
    TIMING_FIELDS,
    AdamState,
    EncodedExample,
    GoldOutOfRange,
    NonFiniteGradient,
    TrainConfig,
    adam_step,
    encode_corpus,
    epoch_plan,
    exact_match_rate,
    label_smoothed_ce,
    make_batch,
    noam_lr,
    prepare_corpus,
    train_loop,
)
from pointerparse.training_ops import LossBelowEntropyFloor, _check_entropy_floor
from pointerparse.vocab import BOS_ID, PAD_ID
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

    def test_gold_outside_its_support(self):
        """A gold pointer past its own query, which the support leaves out."""
        with pytest.raises(GoldOutOfRange, match="outside its example's support"):
            _loss_from_probs([[0.2, 0.3, 0.5]], [2], epsilon=0.1, support=[[True, True, False]])

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


def _composed_ce(logits, gold, step_mask, support_mask, epsilon):
    """The loss written as a chain of tape ops (dense one-hot and support)."""
    batch, steps, width = logits.shape
    logp = log_softmax(logits)
    onehot = np.zeros((batch, steps, width), dtype=np.float32)
    np.put_along_axis(onehot, gold[:, :, None], 1.0, axis=2)
    nll = scale(reduce_sum(mul(logp, constant(onehot)), axis=2), -1.0)
    counts = support_mask.sum(axis=1)
    support = np.broadcast_to(support_mask[:, None, :], logits.shape).astype(np.float32)
    smooth_sum = reduce_sum(mul(logp, constant(support)), axis=2)
    weights = np.broadcast_to(-1.0 / counts[:, None].astype(np.float32), smooth_sum.shape)
    smooth = mul(smooth_sum, constant(weights))
    masked = mul(add(scale(nll, 1.0 - epsilon), scale(smooth, epsilon)),
                 constant(step_mask.astype(np.float32)))
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
    def test_finite_differences(self):
        raw, gold, step_mask, support = _ce_case(seed=1)
        logits = parameter(raw)
        check_grad(lambda: label_smoothed_ce(logits, gold, step_mask, support, 0.1), [logits])

    def test_matches_composed_formula(self):
        raw, gold, step_mask, support = _ce_case(seed=2)
        blocked = np.zeros((3, 4, 7), dtype=bool)
        blocked[2, :, 6] = True
        logits = parameter(raw)
        results = []
        for op in (label_smoothed_ce, _composed_ce):
            logits.zero_grad()
            with Tape() as tape:
                out = op(mask_fill(logits, blocked), gold, step_mask, support, 0.1)
                tape.backward(out)
            results.append((out.data, logits.grad.copy()))
        (fused, fused_grad), (composed, composed_grad) = results
        assert fused.shape == composed.shape == ()
        np.testing.assert_allclose(fused, composed, atol=1e-6)
        np.testing.assert_allclose(fused_grad, composed_grad, atol=1e-6)

    def test_loss_below_entropy_floor_raises(self):
        counts = np.array([6, 6])
        steps = np.array([2, 1])
        with pytest.raises(LossBelowEntropyFloor):
            _check_entropy_floor(constant(np.float32(0.0)), counts, steps, 0.1)
        _check_entropy_floor(constant(np.float32(np.log(6))), counts, steps, 0.1)


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
            p.grad = np.array([0.75], dtype=np.float32)  # below the clip norm
            adam_step({"p": p}, state, lr=lr)
        before = p.data.copy()
        p.grad = np.array([0.75], dtype=np.float32)
        adam_step({"p": p}, state, lr=lr)
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
            adam_step({"p": p}, state, lr=lr)  # each norm is below the clip norm
        assert p.data[0] == pytest.approx(theta, abs=1e-7)

    def test_float32_update_tracks_float64_formula(self):
        beta1, beta2, eps, lr = 0.9, 0.98, 1e-9, 1e-2
        rng = np.random.default_rng(4)
        start = rng.uniform(-1.0, 1.0, size=64)
        grads = rng.standard_normal((50, 64))
        theta, m, v = start.copy(), np.zeros(64), np.zeros(64)
        p = parameter(start.astype(np.float32))
        state = AdamState()
        clipped = 0
        for t, g in enumerate(grads, start=1):
            g32 = g.astype(np.float32)
            # Global-norm clipping at 1.0 scales the gradient down.
            factor = min(1.0, 1.0 / np.linalg.norm(g32.astype(np.float64)))
            clipped += factor < 1.0
            m = beta1 * m + (1 - beta1) * factor * g32
            v = beta2 * v + (1 - beta2) * factor ** 2 * g32.astype(np.float64) ** 2
            theta -= lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
            p.grad = g32
            assert adam_step({"p": p}, state, lr=lr)[1] == pytest.approx(factor, rel=1e-12)
            assert state.m["p"].dtype == state.v["p"].dtype == p.data.dtype == np.float32
        assert clipped == len(grads)
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
        norm, factor = adam_step({"p": p}, state, lr=1.0)
        # First moment built from the clipped gradient: norm 1 over 4 entries.
        np.testing.assert_allclose(state.m["p"], 0.1 * 10.0 / 20.0, atol=1e-6)
        assert (norm, factor) == (20.0, 1.0 / 20.0)

    def test_unclipped_step_reports_factor_one(self):
        p = parameter(np.zeros(2, dtype=np.float32))
        p.grad = np.array([0.3, 0.4], dtype=np.float32)
        norm, factor = adam_step({"p": p}, AdamState(), lr=1.0)
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

    def test_a_step_frees_its_graph_before_the_next_forward(self, monkeypatch):
        """Only the loss's value outlives a step: when the next step's
        forward starts, the previous step's logits, and the graph they hold,
        are gone, so a step's peak holds one graph, not two."""
        train = generate_synthetic(default_grammar(), 40, seed=5)["train"]
        symtab, src_vocab = prepare_corpus(train)
        forward = PointerGeneratorModel.forward_teacher_forced
        returned = []

        def watched(self, *args, **kwargs):
            assert all(ref() is None for ref in returned), "a previous step's logits are alive"
            logits = forward(self, *args, **kwargs)
            returned.append(weakref.ref(logits.data))  # a Tensor has no weakref slot
            return logits

        monkeypatch.setattr(PointerGeneratorModel, "forward_teacher_forced", watched)
        config = TrainConfig(batch_size=8, max_steps=4, warmup_steps=2, eval_every=2,
                             log_every=1, seed=1)
        train_loop(train, train[:4], _tiny_model_config(symtab, src_vocab, d=16), config,
                   symtab, src_vocab)
        assert len(returned) == 4

    def test_an_empty_query_is_refused_naming_its_index(self):
        """The model has no source token to encode for an empty query, so
        training refuses it up front as bad data, whatever batches the
        seed would make."""
        examples = generate_synthetic(default_grammar(), 20, seed=3)["train"]
        examples = examples[:3] + [_empty_query_example()] + examples[3:]
        symtab, src_vocab = prepare_corpus(examples)
        with pytest.raises(DataError, match="training example 3 has an empty query"):
            encode_corpus(examples, symtab, src_vocab)
        config = TrainConfig(batch_size=4, max_steps=2, warmup_steps=1)
        with pytest.raises(DataError, match="training example 3 "):
            train_loop(examples, None, _tiny_model_config(symtab, src_vocab, d=16), config,
                       symtab, src_vocab)

    def test_a_query_longer_than_max_src_len_is_refused_naming_its_index(self):
        """The model has no position for a source token past the symbol
        table's ``max_src_len``, so training refuses such a query up front as
        bad data, naming its token count and the limit."""
        examples = generate_synthetic(default_grammar(), 20, seed=3)["train"]
        limit = max(len(ex.query.tokens) for ex in examples) - 1
        longest = next(i for i, ex in enumerate(examples) if len(ex.query.tokens) > limit)
        symtab, src_vocab = prepare_corpus(examples, max_src_len=limit)
        message = f"training example {longest} has {limit + 1} query tokens, above max_src_len {limit}"
        with pytest.raises(DataError, match=message):
            encode_corpus(examples, symtab, src_vocab)
        config = TrainConfig(batch_size=4, max_steps=2, warmup_steps=1)
        with pytest.raises(DataError, match=message):
            train_loop(examples, None, _tiny_model_config(symtab, src_vocab, d=16), config,
                       symtab, src_vocab)

    def test_a_non_finite_gradient_is_logged_then_raised(self, tmp_path, monkeypatch):
        """A step whose gradient is not finite ends the run: its one
        ``non_finite_gradient`` record is the last line of the log, and the
        error reaches the caller."""
        train = generate_synthetic(default_grammar(), 24, seed=5)["train"]
        symtab, src_vocab = prepare_corpus(train)
        forward_backward = training._forward_backward
        steps = []

        def poisoned(model, *args):
            loss = forward_backward(model, *args)
            steps.append(loss)
            if len(steps) == 2:
                model.parameters()["vocab_out.b"].grad[0] = np.inf
            return loss

        monkeypatch.setattr(training, "_forward_backward", poisoned)
        config = TrainConfig(batch_size=8, max_steps=4, warmup_steps=2, log_every=1, seed=1)
        with pytest.raises(NonFiniteGradient, match="vocab_out.b"):
            train_loop(train, None, _tiny_model_config(symtab, src_vocab, d=16), config,
                       symtab, src_vocab, checkpoint_dir=tmp_path)
        records = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
        assert [r["step"] for r in records] == [1, 2]
        assert records[-1] == {"step": 2, "error": "non_finite_gradient"}

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

    @pytest.mark.parametrize("recorded", ["other_threads", "other_kernel", "absent"])
    def test_resume_under_another_provenance_warns_and_carries_on(self, tmp_path, monkeypatch,
                                                                  recorded):
        """A checkpoint made with another thread count, or on another BLAS
        kernel core, resumes with one ``warning`` line in ``metrics.jsonl``;
        a manifest older than the record resumes silently.  Either way the
        losses are unchanged."""
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
        if recorded == "other_kernel":
            manifest["provenance"]["blas_core"] = "NotThisCore"
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        manifest_path.write_text(json.dumps(manifest))
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
            assert lines[0]["current"] == ckpt.provenance()
            differs = {key for key, value in lines[0]["checkpoint"].items()
                       if value != lines[0]["current"][key]}
            assert differs == {"threads" if recorded == "other_threads" else "blas_core"}

    @staticmethod
    def _six_steps(tmp_path):
        """A tiny run trained to ``step_000006``, a checkpoint every 2 steps
        and a log record every step; returns its corpus and run function."""
        train = generate_synthetic(default_grammar(), 48, seed=5)["train"]
        symtab, src_vocab = prepare_corpus(train)

        def run(examples, symtab, src_vocab, mc, max_steps=6, resume=None):
            config = TrainConfig(batch_size=8, max_steps=max_steps, warmup_steps=10,
                                 eval_every=10_000, log_every=1, checkpoint_every=2, seed=9)
            return train_loop(examples, None, mc, config, symtab, src_vocab,
                              checkpoint_dir=tmp_path / "run", resume_from=resume)

        run(train, symtab, src_vocab, _tiny_model_config(symtab, src_vocab, d=32))
        return train, run

    @pytest.mark.parametrize("left", ["metrics.jsonl", "best", "step_000002"])
    def test_a_fresh_run_refuses_a_directory_that_holds_a_run(self, tmp_path, left):
        """A run's log, its ``best`` and a ``step_<digits>`` checkpoint each
        mark a directory as holding a run: a fresh run (no ``resume_from``)
        into it raises FileExistsError naming it, before it writes there.
        A ``step_*`` name that is not a number marks none."""
        train = generate_synthetic(default_grammar(), 48, seed=5)["train"]
        symtab, src_vocab = prepare_corpus(train)
        mc = _tiny_model_config(symtab, src_vocab, d=32)
        config = TrainConfig(batch_size=8, max_steps=1, warmup_steps=10, eval_every=10_000, seed=9)
        run_dir, other = tmp_path / "run", tmp_path / "other"
        for directory in (run_dir, other):
            (directory / "step_final").mkdir(parents=True)
        if left == "metrics.jsonl":
            (run_dir / left).write_text("")
        else:
            (run_dir / left).mkdir()
        before = sorted(run_dir.rglob("*"))
        with pytest.raises(FileExistsError, match=re.escape(str(run_dir))):
            train_loop(train, None, mc, config, symtab, src_vocab, checkpoint_dir=run_dir)
        assert sorted(run_dir.rglob("*")) == before
        train_loop(train, None, mc, config, symtab, src_vocab, checkpoint_dir=other)
        assert (other / "step_000001").is_dir()

    @pytest.mark.parametrize("change", ["symtab", "source_vocab", "model_config"])
    def test_resume_refuses_a_checkpoint_of_other_inputs(self, tmp_path, change):
        """Resuming on a corpus with one intent renamed (which moves symbol
        ids), with one query word renamed, or with another dropout, is
        refused with a CheckpointError that names what differs."""
        train, run = self._six_steps(tmp_path)

        def renamed(ex):
            if change == "symtab" and ex.parse.root.label == "play_music":
                root = dataclasses.replace(ex.parse.root, label="aaa_music")
                return CorpusExample(ex.query, dataclasses.replace(ex.parse, root=root))
            if change == "source_vocab" and "play" in ex.query.tokens:
                return CorpusExample(Query.from_text(ex.query.raw.replace("play", "zzz")), ex.parse)
            return ex

        examples = [renamed(ex) for ex in train]
        assert examples != train or change == "model_config"
        symtab, src_vocab = prepare_corpus(examples)
        mc = _tiny_model_config(symtab, src_vocab, d=32)
        if change == "model_config":
            mc = dataclasses.replace(mc, dropout=0.2)
        with pytest.raises(ckpt.CheckpointError, match=change):
            run(examples, symtab, src_vocab, mc, max_steps=8,
                resume=tmp_path / "run" / "step_000006")
        assert not (tmp_path / "run" / "step_000008").exists()

    @pytest.mark.parametrize("torn", [False, True])
    def test_resume_keeps_one_log_record_per_step(self, tmp_path, torn):
        """Resumed from step 4 into its own directory, a 6-step run's log
        loses the records of steps 5 and 6 (and a line that a kill partway
        through a write left) before the resumed run logs them again."""
        train, run = self._six_steps(tmp_path)
        symtab, src_vocab = prepare_corpus(train)
        log_path = tmp_path / "run" / "metrics.jsonl"
        if torn:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write('{"step": 7, "lo')
        resume = tmp_path / "run" / "step_000004"
        run(train, symtab, src_vocab, _tiny_model_config(symtab, src_vocab, d=32), resume=resume)
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert [line["step"] for line in lines if "loss" in line] == [1, 2, 3, 4, 5, 6]
        assert lines[4] == {"step": 4, "resumed_from": str(resume)}
        assert len(lines) == 7


class TestBatchLayout:
    @pytest.mark.parametrize("seed", range(5))
    def test_step_mask_is_the_non_pad_decoder_input(self, seed):
        """The teacher-forced pass finds the real target positions from
        ``tgt_in != PAD``, which must be the positions the loss counts."""
        rng = np.random.default_rng(seed)
        vocab_size = 9
        examples = []
        for _ in range(int(rng.integers(1, 12))):
            n = int(rng.integers(1, 8))
            examples.append(EncodedExample(rng.integers(2, 30, n),
                                           rng.integers(3, vocab_size + n, rng.integers(0, 15))))
        batch = make_batch(examples, vocab_size)
        np.testing.assert_array_equal(batch.step_mask, batch.tgt_in != PAD_ID)

    def test_make_batch_on_unequal_lengths_and_an_empty_target(self):
        """Six vocabulary ids (PAD 0, BOS 1, EOS 2, then 3-5), so pointer j
        is id 6 + j.  Targets of 3, 0 and 4 symbols give T = 5 steps."""
        examples = [EncodedExample(np.array([4, 5, 6]), np.array([3, 6, 7])),
                    EncodedExample(np.array([7]), np.array([], dtype=np.int64)),
                    EncodedExample(np.array([8, 9, 10, 11, 12]), np.array([4, 10, 5, 3]))]
        batch = make_batch(examples, vocab_size=6)
        expected = {
            "src_ids": [[4, 5, 6, 0, 0], [7, 0, 0, 0, 0], [8, 9, 10, 11, 12]],
            "src_mask": [[1, 1, 1, 0, 0], [1, 0, 0, 0, 0], [1, 1, 1, 1, 1]],
            # BOS in column 0, each row's targets shifted one to the right.
            "tgt_in": [[1, 3, 6, 7, 0], [1, 0, 0, 0, 0], [1, 4, 10, 5, 3]],
            # EOS at the row's own length, PAD after it.
            "gold": [[3, 6, 7, 2, 0], [2, 0, 0, 0, 0], [4, 10, 5, 3, 2]],
            # Real steps up to and including EOS.
            "step_mask": [[1, 1, 1, 1, 0], [1, 0, 0, 0, 0], [1, 1, 1, 1, 1]],
            # Every vocabulary id but PAD, then the pointers inside the query.
            "support_mask": [[0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0],
                             [0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0],
                             [0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]],
        }
        for name, rows in expected.items():
            value = getattr(batch, name)
            dtype = bool if name.endswith("mask") else np.int64
            assert value.dtype == dtype, name
            np.testing.assert_array_equal(value, np.array(rows, dtype=dtype), err_msg=name)

    def test_epoch_plan_buckets_a_shuffle_by_length(self):
        n, size = 203, 4
        lengths = np.random.default_rng(0).integers(1, 30, n).tolist()
        plan = epoch_plan(n, size, seed=3, epoch=0, lengths=lengths)
        order = np.concatenate(plan)
        assert sorted(order.tolist()) == list(range(n))  # each index once per epoch
        assert [len(b) for b in plan] == [size] * (n // size) + [n % size]
        ordered = np.asarray(lengths)[order]
        for start in range(0, n, 8 * size):
            assert np.all(np.diff(ordered[start : start + 8 * size]) >= 0)  # inside a window
        assert np.any(np.diff(ordered) < 0)  # but not across the epoch
        again = np.concatenate(epoch_plan(n, size, seed=3, epoch=0, lengths=lengths))
        np.testing.assert_array_equal(again, order)
        next_epoch = np.concatenate(epoch_plan(n, size, seed=3, epoch=1, lengths=lengths))
        assert next_epoch.tolist() != order.tolist()


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

        def loss_of(batch_examples, counted):
            """The loss over the target steps of the examples ``counted``
            selects, so padding and batchmates reach it only through the
            model."""
            batch = make_batch(batch_examples, symtab.vocab_size)
            logits = model.forward_teacher_forced(batch.src_ids, batch.src_mask, batch.tgt_in)
            step_mask = batch.step_mask & np.asarray(counted)[:, None]
            return label_smoothed_ce(
                logits, batch.gold, step_mask, batch.support_mask, 0.1
            ).item()

        assert loss_of([a, b], [True, False]) == pytest.approx(loss_of([a], [True]), abs=1e-5)
        assert loss_of([a, b], [False, True]) == pytest.approx(loss_of([b], [True]), abs=1e-5)


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
            t = spots[0]
            prefix = np.asarray([[BOS_ID] + ids[: t + 1]])
            assert int(np.argmax(model.decode_step(prefix, src, mask)[0])) == ids[t + 1]
            checked += 1
        assert checked >= 10


def _empty_query_example():
    """An intent with no slots over an empty query: a valid flat parse that
    no model can decode, since it has no source token to encode."""
    return CorpusExample(Query.from_text(""), SemanticParse(ParseNode("x", Kind.INTENT), Style.FLAT))


class TestExactMatchRate:
    def test_each_example_is_linearized_once(self, monkeypatch):
        """Building the vocabularies, encoding the corpus and two dev passes
        over the same examples linearize each example once, counting every
        ``linearize`` any ``pointerparse`` module calls."""
        generated = generate_synthetic(default_grammar(), 40, seed=3)["train"]
        examples = [CorpusExample(ex.query, ex.parse) for ex in generated]  # no target read yet
        calls = []

        def counted(parse, query):
            calls.append(parse)
            return linearize(parse, query)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "pointerparse" and getattr(module, "linearize", None) is linearize:
                monkeypatch.setattr(module, "linearize", counted)
        symtab, src_vocab = prepare_corpus(examples)
        encode_corpus(examples, symtab, src_vocab)
        model = PointerGeneratorModel(_tiny_model_config(symtab, src_vocab, d=16), seed=0)
        for _ in range(2):
            exact_match_rate(model, examples, symtab, src_vocab)
        assert len(calls) == len(examples)

    def test_only_empty_queries_score_zero(self):
        splits = generate_synthetic(default_grammar(), 20, seed=3)
        symtab, src_vocab = prepare_corpus(splits["train"])
        model = PointerGeneratorModel(_tiny_model_config(symtab, src_vocab, d=16), seed=0)
        assert exact_match_rate(model, [], symtab, src_vocab) == 0.0
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
