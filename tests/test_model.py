import weakref

import numpy as np
import pytest

from pointerparse import autodiff as ad
from pointerparse.data import default_grammar, generate_synthetic
from pointerparse.decoding import BeamConfig, beam_search_batch
from pointerparse.model import (
    EmptySource,
    Linear,
    ModelConfig,
    ParamStore,
    PointerGeneratorModel,
    PrefixContainsPAD,
    RowCountMismatch,
    SourceTooLong,
    sinusoidal_positions,
)
from pointerparse.training import (EncodedExample, encode_corpus, make_batch as make_train_batch,
                                   prepare_corpus)
from pointerparse.training_ops import label_smoothed_ce
from pointerparse.vocab import BOS_ID, PAD_ID


def tiny_config(**overrides):
    base = dict(
        vocab_size=12,
        src_vocab_size=20,
        max_src_len=10,
        d_model=16,
        n_enc_layers=1,
        n_enc_heads=2,
        enc_ffn=32,
        d_dec=12,
        n_dec_layers=1,
        n_dec_heads=2,
        dec_ffn=24,
        dropout=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def model():
    return PointerGeneratorModel(tiny_config(), seed=7)


@pytest.fixture(scope="module")
def acceptance_width_model():
    """Random weights at the acceptance config's widths and depths (the
    ``ModelConfig`` defaults), with a 24-token pointer table."""
    return PointerGeneratorModel(ModelConfig(vocab_size=40, src_vocab_size=200, max_src_len=24),
                                 seed=29)


def make_batch(model, lengths, prefix_len=4, seed=0):
    rng = np.random.default_rng(seed)
    n = max(lengths)
    src = np.zeros((len(lengths), n), dtype=np.int64)
    mask = np.zeros((len(lengths), n), dtype=bool)
    for b, ln in enumerate(lengths):
        src[b, :ln] = rng.integers(2, model.config.src_vocab_size, ln)
        mask[b, :ln] = True
    tgt = rng.integers(3, model.config.vocab_size, (len(lengths), prefix_len))
    tgt[:, 0] = BOS_ID
    return src, mask, tgt


def test_head_divisibility_enforced():
    with pytest.raises(ValueError):
        tiny_config(d_model=16, n_enc_heads=3)


def test_decoder_head_divisibility_enforced():
    with pytest.raises(ValueError, match="n_dec_heads 5 does not divide d_dec 12"):
        tiny_config(d_dec=12, n_dec_heads=5)


def test_encode_single_token_shape(model):
    enc = model.encode(np.array([[5]]))
    assert enc.x.shape == (1, model.config.d_model)
    assert enc.packing.shape == (1, 1)


def test_source_too_long(model):
    with pytest.raises(SourceTooLong):
        model.encode(np.zeros((1, model.config.max_src_len + 1), dtype=np.int64))


@pytest.mark.parametrize("word", [-1, 20])
def test_a_source_id_outside_the_vocabulary_is_refused(model, word):
    with pytest.raises(ad.ShapeMismatch, match="ids outside table of 20 rows"):
        model.encode(np.array([[3, word]]))


def test_padding_does_not_leak_into_real_rows(model):
    src, mask, _ = make_batch(model, [5], seed=1)
    enc_short = model.encode(src, mask)
    padded = np.concatenate([src, np.zeros((1, 3), dtype=np.int64)], axis=1)
    pmask = np.concatenate([mask, np.zeros((1, 3), dtype=bool)], axis=1)
    enc_padded = model.encode(padded, pmask)
    assert enc_padded.x.shape == enc_short.x.shape == (5, model.config.d_model)
    np.testing.assert_allclose(enc_padded.x.data, enc_short.x.data, atol=1e-6)


def test_source_mask_of_another_shape_is_refused(model):
    src, mask, _ = make_batch(model, [5, 3], seed=1)
    with pytest.raises(ad.ShapeMismatch, match="source mask"):
        model.encode(src, mask[:, :4])


def test_identical_tokens_get_distinct_rows(model):
    enc = model.encode(np.array([[7, 7]]))
    assert not np.allclose(enc.x.data[0], enc.x.data[1], atol=1e-4)


def test_joint_distribution_length_and_normalization(model):
    for n in (1, 4, 9):
        src, mask, tgt = make_batch(model, [n], seed=n)
        log_probs = model.decode_step(tgt, src, mask)
        assert log_probs.dtype == np.float32
        assert log_probs.shape == (1, model.config.vocab_size + n)
        np.testing.assert_allclose(np.exp(log_probs).sum(axis=-1), 1.0, atol=1e-5)


def test_zero_mass_on_padded_pointers(model):
    """A short query's pointers past its length get a log-prob of exactly
    -inf, so no search can rank them."""
    src, mask, tgt = make_batch(model, [3, 7], seed=2)
    log_probs = model.decode_step(tgt, src, mask)
    v = model.config.vocab_size
    assert np.all(log_probs[0, v + 3 :] == -np.inf)
    assert np.isfinite(log_probs[0, : v + 3]).all() and np.isfinite(log_probs[1]).all()
    np.testing.assert_allclose(np.exp(log_probs).sum(axis=-1), [1.0, 1.0], atol=1e-5)


def test_a_source_row_with_no_real_token_is_refused(model):
    """A padded batch may not hold an empty query, as ``beam_search`` of an
    empty source may not: decoding and teacher forcing both refuse it."""
    src = np.array([[3, 4, 5], [0, 0, 0]])
    mask = src != 0
    with pytest.raises(EmptySource, match="source row 1 has no real token"):
        beam_search_batch(model, src, mask, BeamConfig(2))
    with pytest.raises(EmptySource, match="source row 1 has no real token"):
        model.forward_teacher_forced(src, mask, np.full((2, 1), BOS_ID))


def test_prefix_pad_rejected(model):
    src, mask, tgt = make_batch(model, [4], seed=3)
    tgt[0, 2] = PAD_ID
    with pytest.raises(PrefixContainsPAD):
        model.decode_step(tgt, src, mask)


def _assert_teacher_log_probs(model, log_probs, logits, mask):
    """``log_probs`` [R, |V| + n], a step's float32 output, match within
    1e-5 the log-softmax of the teacher-forced ``logits`` [R, |V| + n] over
    each row's real columns, its symbols and the pointers its source mask
    [R, n] keeps, and are exactly -inf at the pointers past them.  The
    search ranks log-probs alone, so the logits' per-row shift, which this
    cannot see, changes no result."""
    real = np.concatenate([np.ones((len(mask), model.config.vocab_size), bool), mask], axis=1)
    assert log_probs.dtype == np.float32 and log_probs.shape == real.shape
    expected = ad.log_softmax_f64(np.where(real, logits, -np.inf))
    np.testing.assert_allclose(log_probs[real], expected[real], atol=1e-5)
    assert np.all(log_probs[~real] == -np.inf)


def test_teacher_forcing_matches_stepwise_decoding(model):
    src, mask, tgt = make_batch(model, [6], prefix_len=5, seed=4)
    logits = model.forward_teacher_forced(src, mask, tgt).data
    for t in range(1, tgt.shape[1] + 1):
        _assert_teacher_log_probs(model, model.decode_step(tgt[:, :t], src, mask),
                                  logits[:, t - 1], mask)


def test_teacher_forcing_refuses_a_pad_before_a_symbol(model):
    """Trailing PAD marks positions that do not exist, and their logits are
    zeros; a PAD followed by a symbol is refused, as ``step`` refuses it."""
    src, mask, tgt = make_batch(model, [4, 6], prefix_len=5, seed=21)
    trailing = tgt.copy()
    trailing[0, 3:] = PAD_ID
    logits = model.forward_teacher_forced(src, mask, trailing).data
    assert not logits[0, 3:].any()
    full = model.forward_teacher_forced(src, mask, tgt).data
    np.testing.assert_allclose(logits[0, :3], full[0, :3], atol=1e-6)
    np.testing.assert_allclose(logits[1], full[1], atol=1e-6)
    middle = tgt.copy()
    middle[1, 2] = PAD_ID
    with pytest.raises(PrefixContainsPAD):
        model.forward_teacher_forced(src, mask, middle)


def test_eval_teacher_forcing_draws_no_dropout_mask():
    """Without ``train``, a model with dropout draws no mask: a stream
    passed in keeps its counter at 0, and the logits are bit-equal to those
    with no stream."""
    model = PointerGeneratorModel(tiny_config(dropout=0.3), seed=7)
    src, mask, tgt = make_batch(model, [4, 6], prefix_len=5, seed=22)
    rng = ad.DropoutRng(seed=3)
    logits = model.forward_teacher_forced(src, mask, tgt, train=False, rng=rng).data
    assert rng.counter == 0
    np.testing.assert_array_equal(logits, model.forward_teacher_forced(src, mask, tgt).data)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_training_needs_a_mask_stream_only_when_dropout_is_on(dropout):
    """``train`` with no stream raises a ValueError naming DropoutRng when
    the config's dropout is above 0; at 0 it runs, and gives the eval
    logits."""
    model = PointerGeneratorModel(tiny_config(dropout=dropout), seed=7)
    src, mask, tgt = make_batch(model, [4, 6], prefix_len=5, seed=22)
    if dropout:
        with pytest.raises(ValueError, match="DropoutRng"):
            model.forward_teacher_forced(src, mask, tgt, train=True)
    else:
        np.testing.assert_array_equal(model.forward_teacher_forced(src, mask, tgt, train=True).data,
                                      model.forward_teacher_forced(src, mask, tgt).data)


def test_each_example_of_a_padded_batch_gets_its_logits_alone(acceptance_width_model):
    """At the acceptance width (d=128, 2+2 layers) with dropout off, every
    example of a batch padded on both sides gets at its real positions the
    teacher-forced logits it gets alone, within 1e-5, and zeros at its PAD
    positions: packing the target rows lets no example see another's."""
    model = acceptance_width_model
    v = model.config.vocab_size
    rng = np.random.default_rng(33)
    examples = [EncodedExample(rng.integers(2, model.config.src_vocab_size, n),
                               rng.integers(3, v + n, t))
                for n, t in [(3, 9), (24, 2), (11, 30), (7, 0), (1, 16)]]
    batch = make_train_batch(examples, v)
    logits = model.forward_teacher_forced(batch.src_ids, batch.src_mask, batch.tgt_in).data
    for b, ex in enumerate(examples):
        n, t = len(ex.src_ids), len(ex.tgt_ids) + 1
        alone = model.forward_teacher_forced(ex.src_ids[None], np.ones((1, n), dtype=bool),
                                             batch.tgt_in[b:b + 1, :t]).data[0]
        np.testing.assert_allclose(logits[b, :t, :v + n], alone, atol=1e-5)
        assert not logits[b, t:].any()


def _check_step(model, cache, tokens, logits, mask):
    """Step ``cache`` on ``tokens`` and check it against the teacher-forced
    ``logits`` [R, |V| + n] of rows whose source masks are ``mask``."""
    _assert_teacher_log_probs(model, model.step(cache, tokens), logits, mask)


def test_cached_steps_match_teacher_forcing_up_to_the_cap(model):
    lengths = [3, 10, 6]
    n = max(lengths)
    steps = 2 * n + 16
    src, mask, _ = make_batch(model, lengths, seed=9)
    rng = np.random.default_rng(9)
    tgt = rng.integers(3, model.config.vocab_size + min(lengths), (len(lengths), steps))
    tgt[:, 0] = BOS_ID
    logits = model.forward_teacher_forced(src, mask, tgt).data
    cache = model.start_decoding(src, mask)
    for t in range(steps):
        _check_step(model, cache, tgt[:, t], logits[:, t], mask)


def _check_against_teacher_forcing(model, cache, src, mask, prefixes, start):
    """Feed ``prefixes[:, start:]`` to ``cache``, whose row r decodes source
    r of ``src``, checking every step against teacher forcing."""
    logits = model.forward_teacher_forced(src, mask, prefixes).data
    for t in range(start, prefixes.shape[1]):
        _check_step(model, cache, prefixes[:, t], logits[:, t], mask)


def test_cache_select_keeps_each_row_on_its_own_prefix(model):
    src, mask, tgt = make_batch(model, [4, 9, 6], prefix_len=7, seed=10)
    cache = model.start_decoding(src, mask)
    for t in range(4):
        model.step(cache, tgt[:, t])
    rows = np.array([0, 0, 2, 2])  # rows 0 and 2 are parents of two rows each; 1 leaves
    cache.select(rows, 2)
    prefixes = tgt[rows]
    prefixes[:, 4:] = [[5, 6, 7], [3, 4, 5], [8, 9, 3], [11, 10, 9]]
    _check_against_teacher_forcing(model, cache, src[rows], mask[rows], prefixes, 4)


def _random_targets(model, lengths, steps, seed):
    rng = np.random.default_rng(seed)
    tgt = rng.integers(3, model.config.vocab_size + min(lengths), (len(lengths), steps))
    tgt[:, 0] = BOS_ID
    return tgt


def test_two_caches_of_one_model_do_not_share_buffers(model):
    batches = []
    for lengths, seed in (([5, 2, 6], 11), ([7, 3, 8], 12)):
        src, mask, _ = make_batch(model, lengths, seed=seed)
        tgt = _random_targets(model, lengths, 20, seed)
        logits = model.forward_teacher_forced(src, mask, tgt).data
        batches.append((model.start_decoding(src, mask), mask, tgt, logits))
    for t in range(20):  # past the first capacity of 16 positions
        for cache, mask, tgt, logits in batches:
            _check_step(model, cache, tgt[:, t], logits[:, t], mask)


def test_cached_cross_attention_keys_and_values_are_c_ordered(model):
    """Every step multiplies against them, and strided buffers slow each
    product."""
    src, mask, _ = make_batch(model, [5, 2, 6], seed=11)
    cache = model.start_decoding(src, mask)
    assert all(kv.flags.c_contiguous for kv in cache.cross_kv)


def test_select_after_the_capacity_doubled_twice(model):
    lengths = [4, 9, 6]
    src, mask, _ = make_batch(model, lengths, seed=13)
    steps = model.config.max_tgt_len
    tgt = _random_targets(model, lengths, steps, seed=13)
    cache = model.start_decoding(src, mask)
    capacities = set()
    for t in range(34):
        model.step(cache, tgt[:, t])
        capacities.add(cache.self_kv[0].shape[1])
    assert len(capacities) == 3  # 16, then 32, then max_tgt_len
    rows = np.array([0, 0, 2, 2])  # rows 0 and 2 are parents of two rows each; 1 leaves
    cache.select(rows, 2)
    prefixes = tgt[rows]
    prefixes[:, 34:] = _random_targets(model, [4] * 4, steps - 34, seed=14)
    _check_against_teacher_forcing(model, cache, src[rows], mask[rows], prefixes, 34)


def _grouped_cache(model, lengths, steps, seed, h=2):
    """A cache over one query per length, stepped through BOS and then
    widened to ``h`` rows per query, with every row's random prefix and the
    sources and masks repeated per row."""
    src, mask, _ = make_batch(model, lengths, seed=seed)
    prefixes = _random_targets(model, lengths * h, steps, seed=seed)
    cache = model.start_decoding(src, mask)
    model.step(cache, prefixes[::h, 0])
    cache.select(np.repeat(np.arange(len(lengths)), h), h)
    return cache, np.repeat(src, h, axis=0), np.repeat(mask, h, axis=0), prefixes


def _source_state(cache):
    return cache.cross_kv + [cache.ptr_keys, cache.pad]


def test_grouped_rows_match_teacher_forcing_past_two_capacity_doublings(model):
    """Three queries of two rows each: after reorders inside the groups,
    every row still decodes its own prefix against its own source, as the
    capacity grows from 16 to 32 to ``max_tgt_len`` positions."""
    steps = model.config.max_tgt_len
    cache, src, mask, prefixes = _grouped_cache(model, [4, 9, 6], steps, seed=20)
    bounds = [1, 12, 36, steps]
    reorders = [None, [1, 0, 3, 3, 5, 4], [0, 0, 2, 3, 5, 5]]
    for seg, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if reorders[seg] is not None:
            rows = np.array(reorders[seg])
            cache.select(rows, 2)
            prefixes = prefixes[rows]
            prefixes[:, lo:] = _random_targets(model, [4] * 6, steps - lo, seed=21 + seg)
        logits = model.forward_teacher_forced(src, mask, prefixes).data
        for t in range(lo, hi):
            _check_step(model, cache, prefixes[:, t], logits[:, t], mask)
    assert (cache.queries, cache.h, cache.self_kv[0].shape[1]) == (3, 2, steps)


def test_growing_the_capacity_keeps_only_the_live_rows():
    """A capacity doubling after queries left moves only the live rows, in
    every layer, and ``select`` grows the rows again when a beam widens;
    the steps stay bit-equal to a twin cache whose buffers never shrank."""
    model = PointerGeneratorModel(tiny_config(n_dec_layers=2), seed=7)
    steps = model.config.max_tgt_len  # capacities 16, 32, then this
    shrunk, _, _, prefixes = _grouped_cache(model, [4, 9, 6, 7], steps, seed=24)
    kept, *_ = _grouped_cache(model, [4, 9, 6, 7], steps, seed=24)
    kept._resize(kept.rows, steps)  # all 8 rows at full capacity: never resized again
    selects = {5: (np.array([0, 1, 4, 5]), 2),  # queries 1 and 3 leave
               20: (np.array([0, 0, 1, 1, 2, 2, 3, 3]), 4)}  # both widen to 4 rows
    held = {15: 8, 16: 4, 19: 4, 20: 8}  # rows the buffers hold after step t
    for t in range(1, steps):
        if t in selects:
            rows, h = selects[t]
            prefixes = prefixes[rows]
            for cache in (shrunk, kept):
                cache.select(rows, h)
        np.testing.assert_array_equal(model.step(shrunk, prefixes[:, t]),
                                      model.step(kept, prefixes[:, t]))
        if t in held:
            assert {kv.shape[0] for kv in shrunk.self_kv} == {held[t]}
    assert [kv.shape[:2] for kv in shrunk.self_kv] == [(8, steps)] * 2
    for a, b in zip(shrunk.self_kv, kept.self_kv):
        np.testing.assert_array_equal(a, b)


def test_select_moves_source_state_in_place(model):
    """Widening every query to h rows (beam step 1) and dropping the last
    query keep the source-side state where it is: nothing is copied."""
    lengths = [4, 9, 6]
    src, mask, _ = make_batch(model, lengths, seed=18)
    prefixes = _random_targets(model, lengths * 2, 10, seed=18)
    cache = model.start_decoding(src, mask)
    held = _source_state(cache)
    before = [a.copy() for a in held]
    model.step(cache, prefixes[::2, 0])
    for rows, h, queries in (([0, 0, 1, 1, 2, 2], 2, 3), ([1, 0, 2, 3], 2, 2)):
        cache.select(rows, h)  # beam step 1, then the last query leaves
        assert (cache.queries, cache.h) == (queries, h)
        for a, b, original in zip(_source_state(cache), held, before):
            assert np.shares_memory(a, b)
            np.testing.assert_array_equal(a, original[:queries])
        if queries == 3:
            for t in range(1, 3):
                model.step(cache, prefixes[:, t])
    rows = [1, 0, 2, 3]  # rows swapped inside query 0
    _check_against_teacher_forcing(model, cache, np.repeat(src, 2, axis=0)[:4],
                                   np.repeat(mask, 2, axis=0)[:4], prefixes[rows], 3)


def test_a_middle_query_leaving_compacts_the_source_state(model):
    """When a query that is not the last one leaves, the later queries'
    state moves down inside the arrays the cache holds, and every remaining
    row still matches teacher forcing."""
    lengths = [4, 9, 6, 7]
    cache, src, mask, prefixes = _grouped_cache(model, lengths, 24, seed=22)
    before = [a.copy() for a in _source_state(cache)]
    held = _source_state(cache)
    for t in range(1, 5):
        model.step(cache, prefixes[:, t])
    rows = np.array([0, 1, 5, 4, 6, 7])  # query 1 leaves
    cache.select(rows, 2)
    assert (cache.queries, cache.h) == (3, 2)
    for a, b, original in zip(_source_state(cache), held, before):
        assert np.shares_memory(a, b)
        np.testing.assert_array_equal(a, original[[0, 2, 3]])
    _check_against_teacher_forcing(model, cache, src[rows], mask[rows], prefixes[rows], 5)


def test_padded_pointers_stay_at_minus_inf_after_a_middle_query_leaves(model):
    """The step alone masks each query's padded pointers: after the middle
    query, the longest, leaves and the later query's source state moves
    down, every later step gives each remaining row exactly -inf at the
    pointers past its own query's length and a distribution over the rest."""
    v = model.config.vocab_size
    cache, src, mask, prefixes = _grouped_cache(model, [3, 9, 5], 16, seed=26)
    for t in range(1, 4):
        model.step(cache, prefixes[:, t])
    rows = np.array([0, 1, 4, 5])  # query 1 leaves
    cache.select(rows, 2)
    real = np.concatenate([np.ones((len(rows), v), bool), mask[rows]], axis=1)
    for t in range(4, 16):
        log_probs = model.step(cache, prefixes[rows, t])
        assert np.all(log_probs[~real] == -np.inf)
        assert np.isfinite(log_probs[real]).all()
        np.testing.assert_allclose(np.where(real, np.exp(log_probs), 0.0).sum(axis=1), 1.0,
                                   atol=1e-5)


def test_a_bad_layout_raises_before_any_write(model):
    """A group of rows from two queries, a query that repeats or moves up,
    rows that do not form whole groups, an unknown row, and a token count
    other than Q·h are each refused with the cache untouched, which then
    goes on as if they never happened."""
    lengths = [4, 9, 6]
    cache, src, mask, prefixes = _grouped_cache(model, lengths, 12, seed=23)
    for t in range(1, 4):
        model.step(cache, prefixes[:, t])

    def snapshot():
        arrays = cache.self_kv + _source_state(cache)
        return [a.tobytes() for a in arrays], (cache.queries, cache.h, cache.length)

    kept = snapshot()
    for rows, h in (([0, 2, 2, 3], 2), ([0, 1, 0, 1], 2), ([2, 3, 0, 1], 2), ([4, 0], 1),
                    ([0, 1, 2], 2), ([0, 1, 6, 7], 2), ([0, 1, 2, 3], 0)):
        with pytest.raises(ValueError):
            cache.select(rows, h)
        assert snapshot() == kept
    with pytest.raises(RowCountMismatch, match="3 tokens for a cache of 6 rows"):
        model.step(cache, prefixes[:3, 4])
    assert snapshot() == kept
    _check_against_teacher_forcing(model, cache, src, mask, prefixes, 4)


def test_teacher_forcing_past_max_tgt_len_raises(model):
    src, mask, _ = make_batch(model, [3, 5], seed=15)
    cap = model.config.max_tgt_len
    model.forward_teacher_forced(src, mask, np.full((2, cap), BOS_ID))
    with pytest.raises(ValueError, match=f"target length {cap + 1} exceeds max_tgt_len {cap}"):
        model.forward_teacher_forced(src, mask, np.full((2, cap + 1), BOS_ID))


def test_step_past_max_tgt_len_raises(model):
    src, mask, _ = make_batch(model, [3, 5], seed=15)
    cap = model.config.max_tgt_len
    cache = model.start_decoding(src, mask)
    for _ in range(cap):
        model.step(cache, [BOS_ID, BOS_ID])
    with pytest.raises(ValueError, match=f"target length {cap + 1} exceeds max_tgt_len {cap}"):
        model.step(cache, [BOS_ID, BOS_ID])


@pytest.mark.parametrize("fed", [0, 3])
@pytest.mark.parametrize("count", [1, 2, 4])
def test_token_count_must_match_the_cache_rows(model, fed, count):
    lengths = [4, 9, 6]
    src, mask, _ = make_batch(model, lengths, seed=16)
    tgt = _random_targets(model, lengths, fed + 1, seed=16)
    logits = model.forward_teacher_forced(src, mask, tgt).data
    cache = model.start_decoding(src, mask)
    for t in range(fed):
        model.step(cache, tgt[:, t])
    with pytest.raises(RowCountMismatch, match=f"{count} tokens for a cache of 3 rows"):
        model.step(cache, tgt[:count, fed] if count <= 3 else np.resize(tgt[:, fed], count))
    # The refused step wrote nothing: the cache goes on as if it never ran.
    assert cache.length == fed
    _check_step(model, cache, tgt[:, fed], logits[:, fed], mask)


def test_a_decode_step_builds_no_tensor_and_reads_no_tape(model, monkeypatch):
    """The cached step and ``select`` run on plain arrays: once
    ``start_decoding`` (which runs the tape ops of ``encode`` with no tape
    active) has built the cache, decoding builds no ``Tensor`` (so no
    ``ad.concat`` either) and never looks up the tape stack."""
    lengths = [4, 9, 6]
    src, mask, _ = make_batch(model, lengths, seed=17)
    tgt = _random_targets(model, lengths, 20, seed=17)
    cache = model.start_decoding(src, mask)
    built = []
    init = ad.Tensor.__init__

    def counted(self, *args, **kwargs):
        built.append(np.shape(args[0]) if args else None)
        init(self, *args, **kwargs)

    def refuse():
        raise AssertionError("the active tape was looked up while decoding")

    monkeypatch.setattr(ad.Tensor, "__init__", counted)
    monkeypatch.setattr(ad, "active_tape", refuse)
    row_query = np.arange(3)
    layouts = {2: ([0, 0, 1, 1, 2, 2], 2),  # every query widens to two rows
               6: ([1, 0, 5, 4], 2),  # query 1 leaves: the source state compacts
               9: ([0, 0, 0, 3, 3, 2], 3),  # rows repeat within each query's group
               12: ([4], 1)}
    for t in range(20):  # past the first capacity of 16 positions
        model.step(cache, tgt[row_query, t])
        if t in layouts:
            rows, h = layouts[t]
            cache.select(rows, h)
            row_query = row_query[rows]
    assert built == []


def _heads(rows, packing, heads):
    """Packed rows [P, d] laid out as [B, heads, T, d / heads], zeros at
    padding."""
    padded = packing.scatter(rows)
    return padded.reshape(padded.shape[:2] + (heads, -1)).transpose(0, 2, 1, 3)


@pytest.mark.parametrize("lengths", [[1], [1, 7, 24, 3, 12], [6, 6, 6, 6], [17],
                                     list(np.random.default_rng(31).integers(1, 25, 64))])
def test_packed_encoder_matches_the_tape_encoder_bit_for_bit(acceptance_width_model, lengths):
    """At the acceptance width (d=128, 2+2 layers, 4 heads), a chunk of mixed
    lengths, one with a 1-token source, one with no padding and a chunk of
    one query: ``start_decoding`` runs ``encode`` with no tape active, and
    each decoder layer's cross-attention keys and values and the pointer
    keys it caches are bit-equal at every real position to what the tape
    ops compute from ``encode`` under an active ``Tape``, as training
    computes them.  Padding positions hold zeros."""
    model = acceptance_width_model
    src, mask, _ = make_batch(model, lengths, seed=len(lengths))
    cache = model.start_decoding(src, mask)
    with ad.Tape() as tape:
        enc = model.encode(src, mask)
        tape_kv = [np.stack([_heads(lin(enc.x).data, enc.packing, model.config.n_dec_heads)
                             for lin in (layer.cross_attn.wk, layer.cross_attn.wv)], axis=1)
                   for layer in model.dec_layers]
        enc_t = ad.transpose(ad.unpack(*enc), (0, 2, 1))
        ptr = ad.constant(np.broadcast_to(model.ptr_bilinear.data,
                                          enc_t.shape[:1] + model.ptr_bilinear.shape))
        tape_ptr = ad.matmul(ptr, enc_t).data
    assert tape.nodes  # the ops recorded: this is the training path
    for kv, expected in zip(cache.cross_kv, tape_kv):
        by_position = kv.transpose(0, 3, 1, 2, 4)  # [Q, n, 2, heads, head_dim]
        np.testing.assert_array_equal(by_position[mask], expected.transpose(0, 3, 1, 2, 4)[mask])
        assert not by_position[~mask].any()
    by_position = cache.ptr_keys.swapaxes(1, 2)  # [Q, n, d_dec]
    np.testing.assert_array_equal(by_position[mask], tape_ptr.swapaxes(1, 2)[mask])
    assert not by_position[~mask].any()


def test_empty_prefix_is_refused_before_a_cache_is_built(model, monkeypatch):
    src, mask, _ = make_batch(model, [4], seed=19)

    def refuse(*args):
        raise AssertionError("a cache was built for an empty prefix")

    monkeypatch.setattr(model, "start_decoding", refuse)
    with pytest.raises(ValueError, match="non-empty decoder prefix"):
        model.decode_step(np.zeros((1, 0), dtype=np.int64), src, mask)


def test_single_step_target(model):
    src, mask, _ = make_batch(model, [4], seed=5)
    logits = model.forward_teacher_forced(src, mask, np.array([[BOS_ID]]))
    assert logits.shape == (1, 1, model.config.vocab_size + 4)


def test_causality(model):
    src, mask, tgt = make_batch(model, [6], prefix_len=6, seed=6)
    base = model.forward_teacher_forced(src, mask, tgt).data[0]
    poked = tgt.copy()
    poked[0, 4] = (poked[0, 4] % (model.config.vocab_size - 3)) + 3
    changed = model.forward_teacher_forced(src, mask, poked).data[0]
    np.testing.assert_allclose(changed[:4], base[:4], atol=1e-6)
    assert not np.allclose(changed[4:], base[4:], atol=1e-6)


def test_identical_batch_rows_identical_outputs(model):
    src, mask, tgt = make_batch(model, [5], prefix_len=4, seed=7)
    src2 = np.repeat(src, 2, axis=0)
    mask2 = np.repeat(mask, 2, axis=0)
    tgt2 = np.repeat(tgt, 2, axis=0)
    logits = model.forward_teacher_forced(src2, mask2, tgt2).data
    np.testing.assert_array_equal(logits[0], logits[1])


def test_bilinear_linearity(model):
    """The teacher-forced pointer block, the raw bilinear scores, doubles
    with ``ptr_bilinear``."""
    src, mask, tgt = make_batch(model, [5], seed=8)
    v = model.config.vocab_size
    before = model.forward_teacher_forced(src, mask, tgt).data[..., v:]
    model.ptr_bilinear.data *= 2.0
    try:
        after = model.forward_teacher_forced(src, mask, tgt).data[..., v:]
        np.testing.assert_allclose(after, 2.0 * before, rtol=1e-5)
    finally:
        model.ptr_bilinear.data /= 2.0


def test_pointer_prefix_uses_position_embedding_only(model):
    # Two sources whose words differ: the same pointer id in the decoder
    # input must select the same embedding row (position, not word).
    v = model.config.vocab_size
    tables_row = model.ptr_embed.data[2]
    assert np.array_equal(tables_row, model.ptr_embed.data[2])
    # Embedding row for pointer id |V|+2 comes from ptr_embed, not sym_embed.
    import pointerparse.autodiff as ad

    full = ad.concat([model.sym_embed, model.ptr_embed], axis=0)
    np.testing.assert_array_equal(full.data[v + 2], model.ptr_embed.data[2])


def test_sinusoidal_table_shape_and_range():
    table = sinusoidal_positions(12, 16)
    assert table.shape == (12, 16)
    assert np.all(np.abs(table) <= 1.0 + 1e-6)
    assert not np.allclose(table[3], table[4])


def test_parameters_deterministic_across_seeds():
    a = PointerGeneratorModel(tiny_config(), seed=11)
    b = PointerGeneratorModel(tiny_config(), seed=11)
    for name, p in a.parameters().items():
        np.testing.assert_array_equal(p.data, b.parameters()[name].data)


@pytest.mark.parametrize("lead", [(5,)])  # the packed rows a Linear takes
def test_linear_equals_matmul_then_add_bit_for_bit(lead):
    """The bias folded into the GEMM gives numpy's ``x @ w + b`` and the
    closed-form x, w and b gradients ``g @ w.T``, ``x.T @ g`` and the
    float64 column sums of ``g``, bit for bit."""
    rng = np.random.default_rng(90)
    layer = Linear(ParamStore(seed=91), "lin", 6, 7)
    layer.b.data = rng.standard_normal(7).astype(np.float32)
    x = ad.parameter(rng.standard_normal(lead + (6,)).astype(np.float32))
    g = rng.standard_normal(lead + (7,)).astype(np.float32)
    with ad.Tape() as tape:
        out = layer(x)
        tape.backward(ad.reduce_sum(ad.mul(out, ad.constant(g))))
    w, b = layer.w.data, layer.b.data
    np.testing.assert_array_equal(out.data, x.data @ w + b)
    np.testing.assert_array_equal(x.grad, g @ w.T)
    np.testing.assert_array_equal(layer.w.grad, x.data.T @ g)
    np.testing.assert_array_equal(layer.b.grad, g.sum(axis=0, dtype=np.float64).astype(np.float32))


def _acceptance_training_step(batch_size):
    """Model and batch of an acceptance-config step (2+2 layers, d=128,
    dropout on) over the first ``batch_size`` examples of the seed-17
    corpus."""
    examples = generate_synthetic(default_grammar(), 40, seed=17)["train"]
    symtab, src_vocab = prepare_corpus(examples)
    config = ModelConfig(vocab_size=symtab.vocab_size, src_vocab_size=src_vocab.size,
                         max_src_len=symtab.max_src_len)
    model = PointerGeneratorModel(config, seed=17)
    encoded = encode_corpus(examples[:batch_size], symtab, src_vocab)
    return model, make_train_batch(encoded, symtab.vocab_size)


def _run_training_step(model, batch):
    with ad.Tape() as tape:
        logits = model.forward_teacher_forced(batch.src_ids, batch.src_mask, batch.tgt_in,
                                              train=True, rng=ad.DropoutRng(seed=17))
        label_smoothed_ce(logits, batch.gold, batch.step_mask, batch.support_mask, 0.1)
    return tape


def test_acceptance_training_step_records_97_tape_nodes():
    """One node per op of an acceptance-config step (2+2 layers, dropout on):
    each of the 33 biased Linears is one node, not a matmul and an add, and
    each of the 6 attentions (2 encoder self-attentions, 2 decoder
    self-attentions and 2 cross-attentions) is one node between its four
    Linears.  ``ad.attention`` takes packed rows and lays them out per head
    itself, so each attention records none of the 12 layout nodes it once
    needed (72 in all): an ``unpack``, a ``reshape`` and a ``transpose`` for
    each of its queries, keys and values, and a ``transpose``, a ``pack``
    and a ``reshape`` for its context.  The head keeps one ``unpack`` each
    for the vocabulary scores, ``states @ ptr_bilinear`` and the encoder
    states of the pointer product.  The embeddings gather the real ids
    alone, so they need no layout node."""
    model, batch = _acceptance_training_step(8)
    assert len(_run_training_step(model, batch).nodes) == 97


def test_a_held_loss_and_logits_keep_no_other_array_of_the_step_alive():
    """A finished backward frees its graph: with the tape gone, a caller
    that keeps the loss and the logits of an acceptance-config step keeps
    none of the other 95 nodes' outputs alive."""
    model, batch = _acceptance_training_step(8)
    with ad.Tape() as tape:
        logits = model.forward_teacher_forced(batch.src_ids, batch.src_mask, batch.tgt_in,
                                              train=True, rng=ad.DropoutRng(seed=17))
        loss = label_smoothed_ce(logits, batch.gold, batch.step_mask, batch.support_mask, 0.1)
        tape.backward(loss)
    others = [weakref.ref(node.data) for node in tape.nodes
              if node is not logits and node is not loss]
    assert len(others) == 95
    del tape
    assert sum(ref() is not None for ref in others) == 0


def test_every_training_product_runs_on_the_packed_rows(monkeypatch):
    """In an acceptance-config step with dropout on, every product against
    a 2-D weight runs on exactly the real source rows (each encoder layer's
    six Linears and each decoder layer's cross-attention keys and values)
    or the real target rows (each decoder layer's eight other Linears,
    ``vocab_out`` and ``ptr_bilinear``), never on a padded layout."""
    model, batch = _acceptance_training_step(32)
    (b, n), t = batch.src_ids.shape, batch.tgt_in.shape[1]
    p_src, p_tgt = int(batch.src_mask.sum()), int((batch.tgt_in != PAD_ID).sum())
    assert len({p_src, p_tgt, b * n, b * t}) == 4  # both sides are padded
    rows = []
    product = ad.weight_product

    def counted(a, w, bias=None):
        rows.append(int(np.prod(a.shape[:-1])))
        return product(a, w, bias)

    monkeypatch.setattr(ad, "weight_product", counted)
    _run_training_step(model, batch)
    enc, dec = model.config.n_enc_layers, model.config.n_dec_layers
    assert sorted(rows) == sorted([p_src] * (6 * enc + 2 * dec) + [p_tgt] * (8 * dec + 2))
