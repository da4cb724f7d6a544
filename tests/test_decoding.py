from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from pointerparse.decoding import (
    DECODE_ROWS,
    BeamConfig,
    DecodeResult,
    beam_search,
    beam_search_batch,
    decode_sources,
    greedy,
    greedy_batch,
    pad_sources,
    rank,
    target_cap,
)
from pointerparse.model import EmptySource, ModelConfig, PointerGeneratorModel
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
            result = beam_search(model, [3, 4], BeamConfig(beam_size=1, max_target_len=1))[0]
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
        allowed = [EOS_ID, 3, 4]  # PAD/BOS banned; id 4 is the pointer @ptr_0

        def step_log_probs(prefix):
            dist = model.decode_step(np.asarray([prefix]), src[None, :], mask)
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

    @pytest.mark.parametrize("beam_size", [2, 3])
    def test_matches_a_reference_search_without_early_stop(self, beam_size):
        """A full pool's k-th score prunes closures and stops a query early
        without changing its results."""
        for seed in range(10):
            model = random_model(seed, vocab_size=5, max_src_len=3)
            model.vocab_out.b.data[EOS_ID] -= 1.0  # longer outputs: the pool fills early
            src = random_src(model, seed + 50)
            results = beam_search(model, src, BeamConfig(beam_size=beam_size))
            expected = reference_beam(model, src, beam_size)
            assert [(r.ids, r.truncated) for r in results] == [(r.ids, r.truncated) for r in expected]
            for res, ref in zip(results, expected):
                assert res.score == pytest.approx(ref.score, abs=1e-4)

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

    @pytest.mark.parametrize("beam_size", [1, 3])
    def test_a_cap_of_max_tgt_len_decodes_and_truncates(self, beam_size):
        model = random_model(4)
        model.vocab_out.b.data[EOS_ID] = -1e4
        cap = model.config.max_tgt_len  # 30 for max_src_len 6
        for res in beam_search(model, [3, 4], BeamConfig(beam_size, max_target_len=cap)):
            assert res.truncated
            assert len(res.ids) == cap

    def test_a_cap_past_max_tgt_len_is_refused_before_any_step(self, monkeypatch):
        model = random_model(4)

        def refuse(*args):
            raise AssertionError("the search ran although its cap is out of reach")

        monkeypatch.setattr(model, "encode", refuse)
        monkeypatch.setattr(model, "step", refuse)
        with pytest.raises(ValueError, match="max_target_len 31 exceeds the model's max_tgt_len 30"):
            beam_search(model, [3, 4], BeamConfig(2, max_target_len=31))

    def test_result_count_capped_by_beam_size(self):
        model = random_model(8)
        src = random_src(model, 12)
        results = beam_search(model, src, BeamConfig(beam_size=4))
        assert 1 <= len(results) <= 4
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_beam_size_validation(self):
        """A beam is 1 to ``DECODE_ROWS`` wide."""
        for beam_size in (0, DECODE_ROWS + 1):
            with pytest.raises(ValueError, match="beam_size"):
                BeamConfig(beam_size=beam_size)
        assert BeamConfig(beam_size=DECODE_ROWS).beam_size == DECODE_ROWS

    @pytest.mark.parametrize("max_target_len", [0, -1])
    def test_max_target_len_validation(self, max_target_len):
        with pytest.raises(ValueError, match="max_target_len"):
            BeamConfig(beam_size=2, max_target_len=max_target_len)


def mixed_batch(model, seed, count=6):
    """Random queries of mixed lengths, the longest first, then the rest
    shortest first, with their padded batch."""
    srcs = [random_src(model, seed * 100 + s) for s in range(count)]
    srcs.sort(key=len)
    srcs = srcs[-1:] + srcs[:-1]
    return srcs, *pad_sources(srcs)


def reference_greedy(model, src_ids, src_mask):
    """Argmax decoding written out step by step, independent of the beam
    search: each step runs every row's whole prefix through
    ``model.decode_step`` (a fresh cache, no row reordering), bans PAD, BOS
    and pointers past the row's length, and takes the first maximum.  Rows
    that have stopped are fed EOS, so the batch keeps its shape."""
    lengths = src_mask.sum(axis=1)
    prefix = np.full((len(src_ids), 1), BOS_ID)
    scores = [0.0] * len(src_ids)
    results = [None] * len(src_ids)
    while None in results:
        log_probs = model.decode_step(prefix, src_ids, src_mask).log_probs.astype(np.float64)
        tokens = np.full(len(src_ids), EOS_ID)
        for b in (b for b, res in enumerate(results) if res is None):
            row = log_probs[b]
            row[[PAD_ID, BOS_ID]] = -np.inf
            row[model.config.vocab_size + lengths[b] :] = -np.inf
            tokens[b] = row.argmax()
            scores[b] += row[tokens[b]]
            ids = prefix[b, 1:].tolist()
            if tokens[b] == EOS_ID:
                results[b] = DecodeResult(ids, float(scores[b]))
            elif len(ids) + 1 == target_cap(lengths[b]):
                results[b] = DecodeResult(ids + [int(tokens[b])], float(scores[b]), True)
        prefix = np.concatenate([prefix, tokens[:, None]], axis=1)
    return results


def reference_beam(model, src, k):
    """Beam search of one query written out with lists, without the pool's
    floor or the early stop: each step runs every live hypothesis's whole
    prefix through ``model.decode_step``, deposits its EOS closure in the
    pool when k >= 2, keeps the k best (score, hypothesis, id) candidates in
    stable order, and retires those that end or reach the cap."""
    src = np.asarray(src)
    mask = np.ones((1, len(src)), dtype=bool)
    cap = target_cap(len(src))
    live, pool = [((), 0.0)], []
    for t in range(cap):
        candidates = []
        for ids, score in live:
            row = model.decode_step(np.asarray([(BOS_ID, *ids)]), src[None], mask)
            row = score + row.log_probs[0].astype(np.float64)
            row[[PAD_ID, BOS_ID]] = -np.inf
            if k >= 2:
                pool.append(DecodeResult(list(ids), float(row[EOS_ID])))
                row[EOS_ID] = -np.inf
            candidates += [(s, ids, token) for token, s in enumerate(row) if s > -np.inf]
        candidates.sort(key=lambda c: -c[0])
        live = []
        for score, ids, token in candidates[:k]:
            if token == EOS_ID:
                pool.append(DecodeResult(list(ids), float(score)))
            elif t + 1 == cap:
                pool.append(DecodeResult([*ids, token], float(score), True))
            else:
                live.append(((*ids, token), score))
    pool.sort(key=lambda res: -res.score)
    return pool[:k]


class TestRank:
    """``rank`` against the stable descending sort it replaced.  The beam
    search never hands it NaN: log-probs are finite, and the bans and dead
    rows only add -inf, so these grids hold finite values and -inf only."""

    @staticmethod
    def grid(seed):
        rng = np.random.default_rng(seed)
        cols = (3, 10, 40)[seed % 3]
        grid = rng.integers(-4, 4, (24, cols)) / 2.0  # eight values: many exact ties
        grid[rng.random(grid.shape) < 0.3] = -np.inf
        grid[0] = -np.inf  # a dead row
        grid[1, 1:] = -np.inf  # fewer finite entries than k
        grid[2, 3:] = -np.inf
        grid[2, :3] = 0.5  # and all of them tied
        grid[3] = 1.0  # every entry tied
        return grid

    @pytest.mark.parametrize("k", [1, 2, 4, 16])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_stable_descending_sort(self, k, seed):
        grid = self.grid(seed)
        order, top = rank(grid.copy(), k)
        expected = np.argsort(-grid, axis=1, kind="stable")[:, :k]
        values = np.take_along_axis(grid, expected, axis=1)
        assert order.shape == top.shape == expected.shape
        finite = values > -np.inf
        assert np.array_equal(order[finite], expected[finite])
        assert np.array_equal(top[finite], values[finite])
        # A row's slots past its finite candidates report -inf.  Their indices
        # only name the row a dead slot copies, and a dead slot never ranks.
        assert np.all(top[~finite] == -np.inf)
        assert finite[3].all() and not finite[0].any()


class TestBatchedBeamSearch:
    @pytest.mark.parametrize("beam_size", [1, 2, 4])
    def test_each_query_matches_its_own_search(self, beam_size):
        config = BeamConfig(beam_size=beam_size)
        for seed in range(8):
            # With 4 symbols, short queries have fewer candidates than wide
            # beams, so queries of one batch keep different numbers of rows.
            model = random_model(seed, vocab_size=4 if seed % 2 else 9, max_src_len=8)
            srcs, src_ids, mask = mixed_batch(model, seed)
            assert len({len(s) for s in srcs}) > 1
            for src, batched in zip(srcs, beam_search_batch(model, src_ids, mask, config)):
                single = beam_search(model, src, config)
                assert [(r.ids, r.truncated) for r in batched] == [(r.ids, r.truncated) for r in single]
                for b, s in zip(batched, single):
                    assert b.score == pytest.approx(s.score, abs=1e-4)

    def test_a_short_query_emits_no_pointer_past_its_length(self):
        """A beam wider than a short query's candidates leaves slots free,
        and the pointers its batch's padding adds do not fill them."""
        model = random_model(2, vocab_size=4, max_src_len=4)
        srcs = [np.array([3, 4, 5, 6]), np.array([3])]
        config = BeamConfig(beam_size=4, max_target_len=1)
        pools = beam_search_batch(model, *pad_sources(srcs), config)
        for src, pool in zip(srcs, pools):
            assert [r.ids for r in pool] == [r.ids for r in beam_search(model, src, config)]
            assert all(i < model.config.vocab_size + len(src) for r in pool for i in r.ids)
        assert len(pools[1]) == 3  # EOS, symbol 3 and @ptr_0

    def test_a_batch_is_encoded_once(self, monkeypatch):
        model = random_model(5, max_src_len=8)
        encoded = []

        def encode(self, *args, **kwargs):
            encoded.append(args[0].shape)
            return real_encode(self, *args, **kwargs)

        real_encode = PointerGeneratorModel.encode
        monkeypatch.setattr(PointerGeneratorModel, "encode", encode)
        _, src_ids, mask = mixed_batch(model, 5)
        beam_search_batch(model, src_ids, mask, BeamConfig(beam_size=3))
        assert encoded == [src_ids.shape]

    def test_greedy_and_greedy_batch_match_an_argmax_reference(self):
        truncated = 0
        for seed in range(6):
            model = random_model(seed, vocab_size=4 if seed % 2 else 9, max_src_len=8)
            if seed % 3 == 0:
                model.vocab_out.b.data[EOS_ID] -= 3.0  # long outputs, some capped
            srcs, src_ids, mask = mixed_batch(model, seed + 50)
            expected = reference_greedy(model, src_ids, mask)
            assert greedy_batch(model, src_ids, mask) == expected  # ids, score, flag
            for src in srcs:
                assert greedy(model, src) == reference_greedy(model, *pad_sources([src]))[0]
            truncated += sum(res.truncated for res in expected)
        assert 0 < truncated < 6 * 6

    def test_decode_sources_pads_chunks_in_order(self):
        """Empty and too-long sources are not decoded and get None in their
        places; the others are decoded in padded chunks of ``DECODE_ROWS //
        beam_size`` sources, in input order, and a beam wider than the
        budget is refused."""
        model = SimpleNamespace(config=SimpleNamespace(max_src_len=7))
        sources = [[2 + i % 5] * (1 + i % 7) for i in range(2 * DECODE_ROWS + 3)]
        sources[5:5] = [[]]
        sources[33:33] = [[3] * 8, []]
        sources[300:300] = [[]]
        sources.append([4] * 9)
        expected = [ids if 0 < len(ids) <= 7 else None for ids in sources]
        assert DECODE_ROWS == 256 and expected.count(None) == 5
        shapes = []

        def decode(decode_model, src_ids, src_mask):
            assert decode_model is model
            shapes.append(src_ids.shape)
            assert (src_ids[~src_mask] == 0).all()
            return [row[row_mask].tolist() for row, row_mask in zip(src_ids, src_mask)]

        for beam_size, plan in [(1, [(256, 7)] * 2 + [(3, 4)]),
                                (4, [(64, 7)] * 8 + [(3, 4)]),
                                (8, [(32, 7)] * 16 + [(3, 4)])]:
            shapes.clear()
            assert decode_sources(model, sources, decode, beam_size) == expected
            assert shapes == plan, beam_size
        shapes.clear()
        for beam_size in (0, DECODE_ROWS + 1):
            with pytest.raises(ValueError, match="beam_size"):
                decode_sources(model, sources[:4], decode, beam_size)
        assert shapes == []

    @pytest.mark.parametrize("beam_size", [1, 4, 8])
    def test_decode_sources_holds_at_most_decode_rows_rows(self, beam_size, monkeypatch):
        """No decoder cache holds or allocates more than ``DECODE_ROWS``
        rows, whatever the beam, and a full chunk reaches the budget."""
        model = random_model(3, max_src_len=6)
        rows = []

        def step(self, cache, tokens):
            rows.append(max(cache.rows, cache.self_kv[0].shape[0]))
            return real_step(self, cache, tokens)

        real_step = PointerGeneratorModel.step
        monkeypatch.setattr(PointerGeneratorModel, "step", step)
        sources = [random_src(model, seed) for seed in range(300)]
        pools = decode_sources(model, sources, partial(beam_search_batch,
                                                       config=BeamConfig(beam_size)), beam_size)
        assert all(pool is not None and 0 < len(pool) <= beam_size for pool in pools)
        assert max(rows) == DECODE_ROWS

    def test_empty_source_is_a_typed_error(self):
        model = random_model(0)
        with pytest.raises(EmptySource):
            beam_search(model, [], BeamConfig(beam_size=4))
        with pytest.raises(EmptySource):
            greedy(model, [])

    @pytest.mark.parametrize("beam_size", [1, 4])
    def test_no_eos_truncates_each_query_at_its_own_cap(self, beam_size):
        model = random_model(4, max_src_len=8)
        model.vocab_out.b.data[EOS_ID] = -1e4
        srcs = [np.arange(2, 2 + n) for n in (8, 1, 5, 3)]
        pools = beam_search_batch(model, *pad_sources(srcs), BeamConfig(beam_size=beam_size))
        for src, pool in zip(srcs, pools):
            assert len(pool) == beam_size
            for res in pool:
                assert res.truncated
                assert len(res.ids) == target_cap(len(src))

    @pytest.mark.parametrize("beam_size", [1, 4])
    def test_query_stopping_at_first_step_leaves_others_unchanged(self, beam_size):
        config = BeamConfig(beam_size=beam_size)
        for seed in range(60):
            model = random_model(seed, max_src_len=8)
            model.vocab_out.b.data[EOS_ID] += 2.0
            srcs = [random_src(model, seed * 10 + s) for s in range(5)]
            first = [greedy(model, src).ids == [] for src in srcs]
            if not any(first) or all(first):
                continue
            stop = first.index(True)
            together = beam_search_batch(model, *pad_sources(srcs), config)
            others = srcs[:stop] + srcs[stop + 1 :]
            apart = beam_search_batch(model, *pad_sources(others), config)
            assert together[stop][0].ids == []
            for src, with_stop, without in zip(others, together[:stop] + together[stop + 1 :], apart):
                single = beam_search(model, src, config)
                for pool in (with_stop, without):
                    assert [(r.ids, r.truncated) for r in pool] == [(r.ids, r.truncated) for r in single]
                    for b, s in zip(pool, single):
                        assert b.score == pytest.approx(s.score, abs=1e-4)
            return
        pytest.fail("no batch with a query that stops at the first step")


class TestOverfitGreedy:
    def test_greedy_reproduces_training_targets(self, overfit_bundle):
        result, examples = overfit_bundle
        from pointerparse.training import exact_match_rate

        em = exact_match_rate(result.model, examples, result.symtab, result.source_vocab)
        assert em == 1.0

    def test_target_cap_formula(self):
        assert target_cap(10) == 36
        assert target_cap(0) == 16
