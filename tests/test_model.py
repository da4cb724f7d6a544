import numpy as np
import pytest

from pointerparse.model import (
    ModelConfig,
    PointerGeneratorModel,
    PrefixContainsPAD,
    SourceTooLong,
    sinusoidal_positions,
)
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


def test_encode_single_token_shape(model):
    enc = model.encode(np.array([[5]]))
    assert enc.shape == (1, 1, model.config.d_model)


def test_source_too_long(model):
    with pytest.raises(SourceTooLong):
        model.encode(np.zeros((1, model.config.max_src_len + 1), dtype=np.int64))


def test_padding_does_not_leak_into_real_rows(model):
    src, mask, _ = make_batch(model, [5], seed=1)
    enc_short = model.encode(src, mask)
    padded = np.concatenate([src, np.zeros((1, 3), dtype=np.int64)], axis=1)
    pmask = np.concatenate([mask, np.zeros((1, 3), dtype=bool)], axis=1)
    enc_padded = model.encode(padded, pmask)
    np.testing.assert_allclose(enc_padded.data[:, :5], enc_short.data, atol=1e-6)


def test_identical_tokens_get_distinct_rows(model):
    enc = model.encode(np.array([[7, 7]]))
    assert not np.allclose(enc.data[0, 0], enc.data[0, 1], atol=1e-4)


def test_joint_distribution_length_and_normalization(model):
    for n in (1, 4, 9):
        src, mask, tgt = make_batch(model, [n], seed=n)
        enc = model.encode(src, mask)
        dist = model.decode_step(tgt, enc, mask)
        assert dist.log_probs.shape == (1, model.config.vocab_size + n)
        np.testing.assert_allclose(dist.probs.sum(axis=-1), 1.0, atol=1e-5)


def test_zero_mass_on_padded_pointers(model):
    src, mask, tgt = make_batch(model, [3, 7], seed=2)
    enc = model.encode(src, mask)
    dist = model.decode_step(tgt, enc, mask)
    v = model.config.vocab_size
    assert np.all(dist.probs[0, v + 3 :] == 0.0)
    np.testing.assert_allclose(dist.probs.sum(axis=-1), [1.0, 1.0], atol=1e-5)


def test_prefix_pad_rejected(model):
    src, mask, tgt = make_batch(model, [4], seed=3)
    tgt[0, 2] = PAD_ID
    enc = model.encode(src, mask)
    with pytest.raises(PrefixContainsPAD):
        model.decode_step(tgt, enc, mask)


def test_teacher_forcing_matches_stepwise_decoding(model):
    src, mask, tgt = make_batch(model, [6], prefix_len=5, seed=4)
    logits = model.forward_teacher_forced(src, mask, tgt).data[0]
    enc = model.encode(src, mask)
    for t in range(1, tgt.shape[1] + 1):
        dist = model.decode_step(tgt[:, :t], enc, mask)
        step_logits = np.concatenate([dist.vocab_scores, dist.pointer_scores], axis=-1)[0]
        np.testing.assert_allclose(step_logits, logits[t - 1], atol=1e-5)


def _cache_logits(model, cache, tokens):
    dist = model.step(cache, tokens)
    return np.concatenate([dist.vocab_scores, dist.pointer_scores], axis=-1)


def test_cached_steps_match_teacher_forcing_up_to_the_cap(model):
    lengths = [3, 10, 6]
    n = max(lengths)
    steps = 2 * n + 16
    src, mask, _ = make_batch(model, lengths, seed=9)
    rng = np.random.default_rng(9)
    tgt = rng.integers(3, model.config.vocab_size + min(lengths), (len(lengths), steps))
    tgt[:, 0] = BOS_ID
    logits = model.forward_teacher_forced(src, mask, tgt).data
    cache = model.start_decoding(model.encode(src, mask), mask)
    for t in range(steps):
        np.testing.assert_allclose(_cache_logits(model, cache, tgt[:, t]), logits[:, t], atol=1e-5)


def test_cache_select_keeps_each_row_on_its_own_prefix(model):
    src, mask, tgt = make_batch(model, [4, 9, 6], prefix_len=7, seed=10)
    cache = model.start_decoding(model.encode(src, mask), mask)
    for t in range(4):
        model.step(cache, tgt[:, t])
    rows = np.array([2, 0, 0, 1])  # row 0 is the parent of two rows
    cache.select(rows)
    prefixes = tgt[rows]
    prefixes[:, 4:] = [[5, 6, 7], [3, 4, 5], [8, 9, 3], [11, 10, 9]]
    logits = model.forward_teacher_forced(src[rows], mask[rows], prefixes).data
    for t in range(4, prefixes.shape[1]):
        np.testing.assert_allclose(_cache_logits(model, cache, prefixes[:, t]), logits[:, t],
                                   atol=1e-5)


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
    src, mask, tgt = make_batch(model, [5], seed=8)
    enc = model.encode(src, mask)
    before = model.decode_step(tgt, enc, mask).pointer_scores.copy()
    model.ptr_bilinear.data *= 2.0
    try:
        after = model.decode_step(tgt, enc, mask).pointer_scores
        real = ~np.isclose(before, -1e9)
        np.testing.assert_allclose(after[real], 2.0 * before[real], rtol=1e-5)
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
