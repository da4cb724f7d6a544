import numpy as np
import pytest

from pointerparse.decoding import BeamConfig, beam_search, greedy, greedy_batch, target_cap
from pointerparse.model import ModelConfig, PointerGeneratorModel
from pointerparse.vocab import BOS_ID, EOS_ID, PAD_ID


def random_model(seed, vocab_size=9, src_vocab_size=12, max_src_len=6, d=16):
    config = ModelConfig(
        vocab_size=vocab_size,
        src_vocab_size=src_vocab_size,
        max_src_len=max_src_len,
        d_model=d,
        n_enc_layers=1,
        n_enc_heads=2,
        enc_ffn=2 * d,
        d_dec=d,
        n_dec_layers=1,
        n_dec_heads=2,
        dec_ffn=2 * d,
        dropout=0.0,
    )
    return PointerGeneratorModel(config, seed=seed)


def random_src(model, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, model.config.max_src_len + 1))
    return rng.integers(2, model.config.src_vocab_size, n)


class TestGreedy:
    def test_beam_one_equals_greedy_exactly(self):
        for seed in range(40):
            model = random_model(seed)
            src = random_src(model, seed + 1000)
            g = greedy(model, src)
            b = beam_search(model, src, BeamConfig(beam_size=1))[0]
            assert g.ids == b.ids
            assert g.score == b.score
            assert g.truncated == b.truncated

    def test_all_zero_parameters_emit_eos_first(self):
        model = random_model(0)
        for p in model.parameters().values():
            p.data[:] = 0.0
        src = np.array([3, 4, 5])
        result = greedy(model, src)
        # Every score ties; PAD and BOS are banned, so the lowest id is EOS.
        assert result.ids == []
        k = model.config.vocab_size + 3
        assert result.score == pytest.approx(np.log(1.0 / k), abs=1e-5)

    def test_output_never_contains_banned_ids(self):
        for seed in range(30):
            model = random_model(seed, max_src_len=8)
            src = random_src(model, seed + 99)
            n = len(src)
            result = greedy(model, src)
            for idx in result.ids:
                assert idx not in (PAD_ID, BOS_ID)
                assert idx < model.config.vocab_size + n

    def test_batched_matches_single(self):
        model = random_model(5)
        srcs = [random_src(model, s) for s in range(4)]
        n = max(len(s) for s in srcs)
        src_ids = np.zeros((4, n), dtype=np.int64)
        mask = np.zeros((4, n), dtype=bool)
        for b, s in enumerate(srcs):
            src_ids[b, : len(s)] = s
            mask[b, : len(s)] = True
        batched = greedy_batch(model, src_ids, mask)
        for b, s in enumerate(srcs):
            single = greedy(model, s)
            assert batched[b].ids == single.ids
            assert batched[b].score == pytest.approx(single.score, abs=1e-4)

    def test_truncation_flag_at_cap(self):
        for seed in range(20):
            model = random_model(seed)
            src = np.array([3, 4])
            result = greedy_batch(model, src[None, :], np.ones((1, 2), dtype=bool), max_target_len=1)[0]
            if result.truncated:
                assert len(result.ids) == 1
                return
        pytest.fail("no truncated decode found across seeds")


def teacher_forced_score(model, src, ids, add_eos=True):
    gold = list(ids) + ([EOS_ID] if add_eos else [])
    prefix = np.asarray([[BOS_ID] + list(ids)])
    if not add_eos:
        prefix = prefix[:, : len(ids)]  # BOS + ids[:-1]
    src = np.asarray(src)[None, :]
    mask = np.ones_like(src, dtype=bool)
    logits = model.forward_teacher_forced(src, mask, prefix).data[0]
    total = 0.0
    for t, tok in enumerate(gold):
        row = logits[t].astype(np.float64)
        row -= row.max()
        total += row[tok] - np.log(np.exp(row).sum())
    return total


class TestBeamSearch:
    def test_top_beam_at_least_greedy(self):
        wins = 0
        for seed in range(100):
            model = random_model(seed % 25, d=16)
            src = random_src(model, seed + 7)
            g = greedy(model, src)
            top = beam_search(model, src, BeamConfig(beam_size=4))[0]
            assert top.score >= g.score - 1e-9
            wins += top.score > g.score + 1e-9
        # Sanity: beam must actually beat greedy on some random pairs.
        assert wins > 0

    def test_larger_beam_never_scores_lower(self):
        for seed in range(60):
            model = random_model(seed % 20)
            src = random_src(model, seed + 55)
            s2 = beam_search(model, src, BeamConfig(beam_size=2))[0].score
            s6 = beam_search(model, src, BeamConfig(beam_size=6))[0].score
            assert s6 >= s2 - 1e-9

    def test_scores_match_teacher_forced_recompute(self):
        for seed in range(15):
            model = random_model(seed)
            src = random_src(model, seed + 3)
            for res in beam_search(model, src, BeamConfig(beam_size=3)):
                if res.truncated:
                    continue
                recomputed = teacher_forced_score(model, src, res.ids, add_eos=True)
                assert res.score == pytest.approx(recomputed, abs=1e-4)

    def test_matches_brute_force_enumeration(self):
        # Toy search space: |V| + n = 5 outcomes, two decode steps.
        model = random_model(3, vocab_size=4, src_vocab_size=6, max_src_len=1, d=8)
        src = np.array([2])
        mask = np.ones((1, 1), dtype=bool)
        enc = model.encode(src[None, :], mask)
        allowed = [EOS_ID, 3, 4]  # PAD/BOS banned; id 4 is the pointer @ptr_0

        def step_log_probs(prefix):
            dist = model.decode_step(np.asarray([prefix]), enc, mask)
            row = dist.log_probs[0].astype(np.float64)
            row[PAD_ID] = row[BOS_ID] = -np.inf
            return row

        outcomes = []
        for first in allowed:
            s1 = step_log_probs([BOS_ID])[first]
            if first == EOS_ID:
                outcomes.append(((), s1, False))
                continue
            for second in allowed:
                s2 = s1 + step_log_probs([BOS_ID, first])[second]
                if second == EOS_ID:
                    outcomes.append(((first,), s2, False))
                else:
                    outcomes.append(((first, second), s2, True))
        outcomes.sort(key=lambda o: -o[1])

        results = beam_search(model, src, BeamConfig(beam_size=16, max_target_len=2))
        assert len(results) == len(outcomes)
        for res, (ids, score, truncated) in zip(results, outcomes):
            assert tuple(res.ids) == ids
            assert res.score == pytest.approx(score, abs=1e-9)
            assert res.truncated == truncated

    def test_length_normalize_reranks_the_same_pool(self):
        def per_symbol(res):
            return -res.score / (len(res.ids) + 1)

        reranked = 0
        for seed in range(30):
            model = random_model(seed)
            src = random_src(model, seed + 300)
            raw = beam_search(model, src, BeamConfig(beam_size=4))
            normalized = beam_search(model, src, BeamConfig(beam_size=4, length_normalize=True))
            expected = sorted(raw, key=per_symbol)
            assert [(r.ids, r.score) for r in normalized] == [(r.ids, r.score) for r in expected]
            reranked += normalized[0].ids != raw[0].ids
        assert reranked > 0

    def test_no_eos_truncates_every_result_at_the_cap(self):
        model = random_model(4, max_src_len=8)
        model.vocab_out.b.data[EOS_ID] = -1e4
        for n in (1, 8):
            src = np.arange(2, 2 + n)
            results = beam_search(model, src, BeamConfig(beam_size=4))
            assert len(results) == 4
            for res in results:
                assert res.truncated
                assert len(res.ids) == target_cap(n)

    def test_result_count_capped_by_beam_size(self):
        model = random_model(8)
        src = random_src(model, 12)
        results = beam_search(model, src, BeamConfig(beam_size=4))
        assert 1 <= len(results) <= 4
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_beam_size_validation(self):
        with pytest.raises(ValueError):
            BeamConfig(beam_size=0)


class TestOverfitGreedy:
    def test_greedy_reproduces_training_targets(self, overfit_bundle):
        result, examples = overfit_bundle
        from pointerparse.training import exact_match_rate

        em = exact_match_rate(result.model, examples, result.symtab, result.source_vocab)
        assert em == 1.0

    def test_target_cap_formula(self):
        assert target_cap(10) == 36
        assert target_cap(0) == 16
