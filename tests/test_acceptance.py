"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The end-to-end learning criterion trains the full desk-scale model
(session fixture), so this module takes a few minutes of CPU time.
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from pointerparse.autodiff import constant, mul, parameter, reduce_sum
from pointerparse.cli import main as cli_main
from pointerparse.data import (
    default_grammar,
    export_bio,
    generate_synthetic,
    import_bio,
    import_top,
    sample_examples,
)
from pointerparse.decoding import BeamConfig, beam_search, greedy
from pointerparse.linearize import (
    Kind,
    ParseNode,
    Query,
    SemanticParse,
    Style,
    delinearize,
    linearize,
)
from pointerparse.metrics import evaluate
from pointerparse.model import ModelConfig, PointerGeneratorModel
from pointerparse.training import (
    TrainConfig,
    encode_corpus,
    label_smoothed_ce,
    make_batch,
    noam_lr,
    prepare_corpus,
    train_loop,
)
from pointerparse.vocab import BOS_ID, EOS_ID, PAD_ID

from helpers import check_grad, random_parse

FIXTURES = Path(__file__).parent / "fixtures"


def report(criterion: int, text: str) -> None:
    print(f"\n[criterion {criterion}] PASS - {text}")


# -- 1. Linearization fidelity ------------------------------------------------

def test_criterion_1_linearization_fidelity():
    flat_query = Query.from_text("play the song don't stop believin by journey")
    flat_parse = SemanticParse(
        ParseNode(
            "PlaySongIntent", Kind.INTENT, (),
            (ParseNode("SongName", Kind.SLOT, (3, 4, 5)),
             ParseNode("ArtistName", Kind.SLOT, (7,))),
        ),
        Style.FLAT,
    )
    assert linearize(flat_parse, flat_query).to_string() == (
        "PlaySongIntent SongName( @ptr_3 @ptr_4 @ptr_5 )SongName "
        "ArtistName( @ptr_7 )ArtistName"
    )

    tree_query = Query.from_text("How far is the coffee shop")
    tree_parse = SemanticParse(
        ParseNode(
            "IN:GET_DISTANCE", Kind.INTENT, (0, 1, 2),
            (ParseNode(
                "SL:DESTINATION", Kind.SLOT, (),
                (ParseNode(
                    "IN:GET_RESTAURANT_LOCATION", Kind.INTENT, (3, 5),
                    (ParseNode("SL:TYPE_FOOD", Kind.SLOT, (4,)),)),)),),
        ),
        Style.TREE,
    )
    assert linearize(tree_parse, tree_query).to_string() == (
        "[IN:GET_DISTANCE @ptr_0 @ptr_1 @ptr_2 [SL:DESTINATION "
        "[IN:GET_RESTAURANT_LOCATION @ptr_3 [SL:TYPE_FOOD @ptr_4 SL:TYPE_FOOD] "
        "@ptr_5 IN:GET_RESTAURANT_LOCATION] SL:DESTINATION] IN:GET_DISTANCE]"
    )

    span_query = Query.from_text("The pt. was diagnosed with GI upper bleed today.")
    span_parse = SemanticParse(
        ParseNode(
            "", Kind.GROUP, (),
            (ParseNode("Bleeding_Event", Kind.SLOT, (5, 7)),
             ParseNode("Anatomical_Site", Kind.SLOT, (6,))),
        ),
        Style.SPANSET,
    )
    assert linearize(span_parse, span_query).to_string() == (
        "Bleeding_Event( @ptr_5 @ptr_7 )Bleeding_Event "
        "Anatomical_Site( @ptr_6 )Anatomical_Site"
    )
    report(1, "all three reference listings reproduced byte-exactly")


# -- 2. Round-trip property ---------------------------------------------------

def test_criterion_2_round_trip_ten_thousand():
    start = time.time()
    cases = 0
    for ex in sample_examples(default_grammar(), 4000, seed=99):
        seq = linearize(ex.parse, ex.query)
        assert delinearize(seq, ex.query, ex.style) == ex.parse
        cases += 1
    rng = random.Random(4242)
    styles = list(Style)
    for _ in range(6000):
        style = rng.choice(styles)
        n = rng.randint(1, 14)
        parse = random_parse(rng, style, n)
        seq = linearize(parse, n)
        assert delinearize(seq, n, style) == parse
        cases += 1
    elapsed = time.time() - start
    assert cases == 10_000
    assert elapsed < 30, f"round-trip took {elapsed:.1f}s"
    report(2, f"10,000/10,000 round trips identical in {elapsed:.1f}s")


# -- 3. Gradient correctness --------------------------------------------------

def test_criterion_3_gradients():
    start = time.time()
    rng = np.random.default_rng(12)

    def weighted(op, *params, seed_shape):
        w = constant(rng.standard_normal(seed_shape).astype(np.float32))
        return lambda: reduce_sum(mul(op(), w))

    from pointerparse import autodiff as ad

    x = parameter(rng.standard_normal(8).astype(np.float32))
    check_grad(weighted(lambda: ad.softmax(x), seed_shape=(8,)), [x], rel_tol=3e-2)
    a = parameter(rng.standard_normal((3, 4)).astype(np.float32))
    b = parameter(rng.standard_normal((4, 5)).astype(np.float32))
    check_grad(weighted(lambda: ad.matmul(a, b), seed_shape=(3, 5)), [a, b], rel_tol=3e-2)
    raw = rng.standard_normal((4, 6))
    c = parameter((raw + np.sign(raw) * 0.05).astype(np.float32))  # clear of relu's kink
    check_grad(weighted(lambda: ad.relu(c), seed_shape=(4, 6)), [c], rel_tol=3e-2)
    gain = parameter(np.ones(6, dtype=np.float32))
    bias = parameter(np.zeros(6, dtype=np.float32))
    check_grad(weighted(lambda: ad.layer_norm(c, gain, bias), seed_shape=(4, 6)),
               [c, gain, bias], rel_tol=3e-2)
    d = parameter(rng.standard_normal((3, 7)).astype(np.float32))
    check_grad(weighted(lambda: ad.log_softmax(d), seed_shape=(3, 7)), [d], rel_tol=3e-2)

    # Full model at d=16, one layer per side, on a two-example batch.
    splits = generate_synthetic(default_grammar(), 30, seed=41)
    symtab, src_vocab = prepare_corpus(splits["train"])
    config = ModelConfig(
        vocab_size=symtab.vocab_size,
        src_vocab_size=src_vocab.size,
        max_src_len=symtab.max_src_len,
        d_model=16, n_enc_layers=1, n_enc_heads=2, enc_ffn=32,
        d_dec=16, n_dec_layers=1, n_dec_heads=2, dec_ffn=32,
        dropout=0.0,
    )
    model = PointerGeneratorModel(config, seed=3)
    encoded = encode_corpus(splits["train"][:2], symtab, src_vocab)
    batch = make_batch(encoded, symtab.vocab_size)

    def loss():
        logits = model.forward_teacher_forced(batch.src_ids, batch.src_mask, batch.tgt_in)
        return label_smoothed_ce(logits, batch.gold, batch.step_mask, batch.support_mask, 0.1)

    params = list(model.parameters().values())
    total_entries = sum(p.size for p in params)
    check_grad(loss, params, rel_tol=3e-2, abs_tol=2e-3, h=1e-3)
    elapsed = time.time() - start
    assert elapsed < 120, f"gradient checks took {elapsed:.1f}s"
    report(3, f"primitives and all {total_entries} model parameters match "
              f"finite differences ({elapsed:.1f}s)")


# -- 4. Distribution contract -------------------------------------------------

def test_criterion_4_distribution_contract():
    start = time.time()
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        d = int(rng.choice([8, 16]))
        heads = int(rng.choice([1, 2]))
        vocab = int(rng.integers(5, 24))
        max_len = int(rng.integers(2, 9))
        config = ModelConfig(
            vocab_size=vocab, src_vocab_size=15, max_src_len=max_len,
            d_model=d, n_enc_layers=1, n_enc_heads=heads, enc_ffn=2 * d,
            d_dec=d, n_dec_layers=1, n_dec_heads=heads, dec_ffn=2 * d, dropout=0.0,
        )
        model = PointerGeneratorModel(config, seed=int(rng.integers(1 << 30)))
        for _ in range(4):
            n = int(rng.integers(1, max_len + 1))
            true_len = int(rng.integers(1, n + 1))
            src = rng.integers(2, 15, (1, n))
            mask = np.zeros((1, n), dtype=bool)
            mask[0, :true_len] = True
            prefix_len = int(rng.integers(1, 5))
            prefix = np.concatenate(
                [[BOS_ID], rng.integers(3, vocab, prefix_len - 1)]
            )[None, :]
            log_probs = model.decode_step(prefix, src, mask)
            assert log_probs.shape == (1, vocab + n)
            probs = np.exp(log_probs)
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)
            assert np.all(probs[0, vocab + true_len:] == 0.0)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 60, f"distribution fuzzing took {elapsed:.1f}s"
    report(4, f"{checked} random config/input pairs: length |V|+n, sums to 1, "
              f"zero mass on padding ({elapsed:.1f}s)")


# -- 5. End-to-end learning ---------------------------------------------------

def _beam_eval(model, examples, symtab, src_vocab, beam_size=4):
    predictions, references, lengths, styles = [], [], [], []
    for ex in examples:
        src = np.asarray(src_vocab.encode(ex.query.tokens), dtype=np.int64)
        best = beam_search(model, src, BeamConfig(beam_size=beam_size))[0]
        predictions.append(symtab.decode(best.ids))
        references.append(linearize(ex.parse, ex.query))
        lengths.append(len(ex.query.tokens))
        styles.append(ex.style)
    return evaluate(predictions, references, lengths, styles)


def test_criterion_5_end_to_end_learning(acceptance_bundle):
    result, splits = acceptance_bundle
    assert result.final_step <= 10_000
    start = time.time()
    train_report = _beam_eval(result.model, splits["train"], result.symtab, result.source_vocab)
    dev_report = _beam_eval(result.model, splits["dev"], result.symtab, result.source_vocab)
    elapsed = time.time() - start
    assert train_report.em_accuracy >= 0.99, f"train EM {train_report.em_accuracy}"
    assert dev_report.em_accuracy >= 0.90, f"dev EM {dev_report.em_accuracy}"
    assert dev_report.well_formed_rate >= 0.98, f"dev WF {dev_report.well_formed_rate}"
    report(5, f"step {result.final_step}: train EM {train_report.em_accuracy:.3f}, "
              f"dev EM {dev_report.em_accuracy:.3f}, dev well-formed "
              f"{dev_report.well_formed_rate:.3f} (beam 4, eval {elapsed:.0f}s)")


# -- 6. Beam properties -------------------------------------------------------

def _random_decode_model(seed, vocab=8, max_len=5, d=8):
    config = ModelConfig(
        vocab_size=vocab, src_vocab_size=10, max_src_len=max_len,
        d_model=d, n_enc_layers=1, n_enc_heads=2, enc_ffn=2 * d,
        d_dec=d, n_dec_layers=1, n_dec_heads=2, dec_ffn=2 * d, dropout=0.0,
    )
    return PointerGeneratorModel(config, seed=seed)


def test_criterion_6_beam_properties():
    start = time.time()
    rng = np.random.default_rng(31)
    models = [_random_decode_model(s) for s in range(50)]

    for i in range(200):
        model = models[i % len(models)]
        n = int(rng.integers(1, 6))
        src = rng.integers(2, 10, n)
        g = greedy(model, src)
        b1 = beam_search(model, src, BeamConfig(beam_size=1))[0]
        assert g.ids == b1.ids and g.score == b1.score

    better = 0
    for i in range(1000):
        model = models[i % len(models)]
        n = int(rng.integers(1, 6))
        src = rng.integers(2, 10, n)
        g = greedy(model, src)
        top = beam_search(model, src, BeamConfig(beam_size=4))[0]
        assert top.score >= g.score - 1e-9
        better += top.score > g.score + 1e-9
    assert better > 0

    # Exhaustive toy: |V| + n = 5 outcomes, two steps.
    model = _random_decode_model(77, vocab=4, max_len=1)
    src = np.array([2])
    mask = np.ones((1, 1), dtype=bool)

    def step(prefix):
        row = model.decode_step(np.asarray([prefix]), src[None, :], mask)[0].astype(np.float64)
        row[PAD_ID] = row[BOS_ID] = -np.inf
        return row

    brute = []
    for first in (EOS_ID, 3, 4):
        s1 = step([BOS_ID])[first]
        if first == EOS_ID:
            brute.append(((), s1))
            continue
        for second in (EOS_ID, 3, 4):
            s2 = s1 + step([BOS_ID, first])[second]
            brute.append(((first,) if second == EOS_ID else (first, second), s2))
    brute.sort(key=lambda kv: -kv[1])
    results = beam_search(model, src, BeamConfig(beam_size=16, max_target_len=2))
    assert [tuple(r.ids) for r in results] == [ids for ids, _ in brute]
    for r, (_, score) in zip(results, brute):
        assert r.score == pytest.approx(score, abs=1e-9)

    elapsed = time.time() - start
    assert elapsed < 120, f"beam property checks took {elapsed:.1f}s"
    report(6, f"beam=1 == greedy, top-of-beam >= greedy on 1000 pairs "
              f"(beam better on {better}), exhaustive toy matches brute force "
              f"({elapsed:.1f}s)")


# -- 7. Schedule and loss oracles ---------------------------------------------

def test_criterion_7_schedule_and_loss_oracles():
    d_model, warmup = 128, 4000
    for step in (1, warmup, 10 * warmup):
        closed = d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)
        assert abs(noam_lr(step, d_model, warmup) - closed) <= 1e-9 * closed

    probs = np.array([[[0.7, 0.2, 0.1]]], dtype=np.float64)
    logits = constant(np.log(probs).astype(np.float32))
    gold = np.array([[0]])
    loss = label_smoothed_ce(
        logits, gold, np.ones((1, 1), dtype=bool), np.ones((1, 3), dtype=bool), 0.1
    ).item()
    expected = 0.9 * -math.log(0.7) + 0.1 * (
        -(math.log(0.7) + math.log(0.2) + math.log(0.1)) / 3.0
    )
    assert abs(loss - expected) <= 1e-7
    report(7, "noam closed form to 1e-9 at {1, warmup, 10*warmup}; "
              "3-class smoothed CE matches hand computation to 1e-7")


# -- 8. Reproducibility -------------------------------------------------------

def _checkpoint_bytes(path: Path) -> tuple[bytes, bytes]:
    return (path / "params.bin").read_bytes(), (path / "optstate.bin").read_bytes()


def test_criterion_8_reproducibility(tmp_path):
    splits = generate_synthetic(default_grammar(), 80, seed=5)
    train, dev = splits["train"], splits["dev"]
    symtab, src_vocab = prepare_corpus(train)
    config = ModelConfig(
        vocab_size=symtab.vocab_size, src_vocab_size=src_vocab.size,
        max_src_len=symtab.max_src_len,
        d_model=32, n_enc_layers=1, n_enc_heads=2, enc_ffn=64,
        d_dec=32, n_dec_layers=1, n_dec_heads=2, dec_ffn=64, dropout=0.1,
    )

    def run(tag, max_steps=30, resume=None):
        tc = TrainConfig(batch_size=8, max_steps=max_steps, warmup_steps=10,
                         eval_every=15, log_every=5, checkpoint_every=15, seed=23)
        return train_loop(train, dev, config, tc, symtab, src_vocab,
                          checkpoint_dir=tmp_path / tag, resume_from=resume)

    run("a")
    run("b")
    pa, oa = _checkpoint_bytes(tmp_path / "a" / "step_000030")
    pb, ob = _checkpoint_bytes(tmp_path / "b" / "step_000030")
    assert pa == pb and oa == ob

    # Identical EvalReports from the two runs.
    reports = []
    for tag in ("a", "b"):
        code = cli_main([
            "eval",
            "--checkpoint", str(tmp_path / tag / "step_000030"),
            "--input", str(_write_corpus(tmp_path / f"{tag}.jsonl", dev)),
            "--report-dir", str(tmp_path / f"report_{tag}"),
        ])
        assert code == 0
        reports.append((tmp_path / f"report_{tag}" / "report.json").read_bytes())
    assert reports[0] == reports[1]

    # Resume from the midpoint checkpoint and land on identical bytes.
    run("c", max_steps=15)
    run("c2", max_steps=30, resume=tmp_path / "c" / "step_000015")
    pc, oc = _checkpoint_bytes(tmp_path / "c2" / "step_000030")
    assert pc == pa and oc == oa
    report(8, "twin runs and resumed runs produce bit-identical checkpoints "
              "and identical EvalReports")


def _write_corpus(path, examples):
    from pointerparse.data import write_jsonl

    write_jsonl(path, examples)
    return path


# -- 9. Importer fidelity -----------------------------------------------------

def test_criterion_9_importer_fidelity(tmp_path):
    examples = import_bio(
        FIXTURES / "bio.tokens", FIXTURES / "bio.tags", FIXTURES / "bio.labels"
    )
    assert len(examples) == 100
    tokens, tags, labels = export_bio(examples)
    assert "\n".join(tokens) + "\n" == (FIXTURES / "bio.tokens").read_text()
    assert "\n".join(tags) + "\n" == (FIXTURES / "bio.tags").read_text()
    assert "\n".join(labels) + "\n" == (FIXTURES / "bio.labels").read_text()

    row = (
        "How far is the coffee shop\t"
        "[IN:GET_DISTANCE How far is [SL:DESTINATION [IN:GET_RESTAURANT_LOCATION the "
        "[SL:TYPE_FOOD coffee ] shop ] ] ]\n"
    )
    tsv = tmp_path / "top.tsv"
    tsv.write_text(row)
    (ex,) = import_top(tsv)
    expected = SemanticParse(
        ParseNode(
            "IN:GET_DISTANCE", Kind.INTENT, (0, 1, 2),
            (ParseNode(
                "SL:DESTINATION", Kind.SLOT, (),
                (ParseNode(
                    "IN:GET_RESTAURANT_LOCATION", Kind.INTENT, (3, 5),
                    (ParseNode("SL:TYPE_FOOD", Kind.SLOT, (4,)),)),)),),
        ),
        Style.TREE,
    )
    assert ex.parse == expected
    report(9, "BIO 100-line fixture round-trips byte-identically; "
              "bracketed TSV row reproduces the nested reference tree")
