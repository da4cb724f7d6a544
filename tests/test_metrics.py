import random

import pytest

from pointerparse.linearize import (
    BOS,
    EOS,
    PAD,
    Style,
    TargetSequence,
    Violation,
    linearize,
)
from pointerparse.metrics import (
    LengthMismatch,
    evaluate,
    exact_match,
    first_divergence,
    intent_of,
)
from helpers import random_parse

FLAT = TargetSequence.from_string(
    "PlaySongIntent SongName( @ptr_3 @ptr_4 @ptr_5 )SongName ArtistName( @ptr_7 )ArtistName"
)
TREE = TargetSequence.from_string(
    "[IN:GET_DISTANCE @ptr_0 @ptr_1 @ptr_2 [SL:DESTINATION [IN:GET_RESTAURANT_LOCATION "
    "@ptr_3 [SL:TYPE_FOOD @ptr_4 SL:TYPE_FOOD] @ptr_5 IN:GET_RESTAURANT_LOCATION] "
    "SL:DESTINATION] IN:GET_DISTANCE]"
)


class TestExactMatch:
    def test_identical(self):
        assert exact_match(FLAT, FLAT)

    def test_one_pointer_off(self):
        shifted = TargetSequence.from_string(FLAT.to_string().replace("@ptr_7", "@ptr_6"))
        assert not exact_match(shifted, FLAT)

    def test_framing_is_ignored(self):
        framed = TargetSequence((BOS,) + FLAT.symbols + (EOS, PAD))
        assert exact_match(framed, FLAT)

    def test_gold_vs_gold_is_perfect(self):
        rng = random.Random(3)
        seqs = [
            linearize(random_parse(rng, style, 9), 9)
            for style in Style
            for _ in range(30)
        ]
        report = evaluate(seqs, seqs, [9] * len(seqs), [s for s in Style for _ in range(30)])
        assert report.em_accuracy == 1.0

    def test_equivalence_properties(self):
        rng = random.Random(4)
        a = linearize(random_parse(rng, Style.FLAT, 8), 8)
        b = linearize(random_parse(rng, Style.FLAT, 8), 8)
        assert exact_match(a, a)
        assert exact_match(a, b) == exact_match(b, a)


class TestIntentOf:
    def test_flat_listing(self):
        assert intent_of(FLAT) == "PlaySongIntent"

    def test_tree_listing(self):
        assert intent_of(TREE) == "IN:GET_DISTANCE"

    def test_slot_start_is_none(self):
        seq = TargetSequence.from_string("SongName( @ptr_0 )SongName")
        assert intent_of(seq) is None

    def test_empty_is_none(self):
        assert intent_of(TargetSequence(())) is None


class TestEvaluate:
    def test_perfect_predictions(self):
        preds = [FLAT, TREE]
        report = evaluate(preds, preds, [8, 6], [Style.FLAT, Style.TREE])
        assert report.em_accuracy == 1.0
        assert report.intent_accuracy == 1.0
        assert report.well_formed_rate == 1.0

    def test_all_malformed(self):
        broken = TargetSequence.from_string("SongName( @ptr_0")
        report = evaluate([broken, broken], [FLAT, FLAT], [8, 8], [Style.FLAT] * 2)
        assert report.em_accuracy == 0.0
        assert report.well_formed_rate == 0.0
        assert report.records[0].violations

    def test_em_bounded_by_well_formed(self):
        rng = random.Random(9)
        golds, preds, styles = [], [], []
        for _ in range(50):
            style = rng.choice(list(Style))
            gold = linearize(random_parse(rng, style, 7), 7)
            golds.append(gold)
            styles.append(style)
            if rng.random() < 0.5:
                preds.append(gold)
            else:
                preds.append(TargetSequence(gold.symbols[:-1]))  # usually broken
        report = evaluate(preds, golds, [7] * 50, styles)
        assert report.em_accuracy <= report.well_formed_rate

    def test_em_bounded_by_intent_accuracy_on_intent_styles(self):
        rng = random.Random(11)
        golds, preds = [], []
        for _ in range(40):
            gold = linearize(random_parse(rng, Style.FLAT, 7), 7)
            golds.append(gold)
            other = linearize(random_parse(rng, Style.FLAT, 7), 7)
            preds.append(gold if rng.random() < 0.5 else other)
        report = evaluate(preds, golds, [7] * 40, [Style.FLAT] * 40)
        assert report.em_accuracy <= report.intent_accuracy

    def test_spanset_intent_is_not_applicable(self):
        rng = random.Random(12)
        seqs = [linearize(random_parse(rng, Style.SPANSET, 6), 6) for _ in range(5)]
        report = evaluate(seqs, seqs, [6] * 5, [Style.SPANSET] * 5)
        assert report.intent_accuracy is None

    def test_report_breaks_down_by_style_and_counts_violation_kinds(self):
        unclosed = TargetSequence(TREE.symbols[:-1])
        shifted = TargetSequence.from_string(FLAT.to_string().replace("@ptr_7", "@ptr_5"))
        report = evaluate([FLAT, unclosed, TREE, FLAT], [FLAT, TREE, TREE, shifted],
                          [8, 6, 6, 6], [Style.FLAT, Style.TREE, Style.TREE, Style.FLAT])
        summary = report.to_json()
        assert summary["by_style"] == {
            "flat": {"examples": 2, "em_accuracy": 0.5, "well_formed_rate": 0.5},
            "tree": {"examples": 2, "em_accuracy": 0.5, "well_formed_rate": 0.5},
        }
        assert set(summary["violations"]) == {v.value for v in Violation}
        assert {k: n for k, n in summary["violations"].items() if n} == {
            "unbalanced_bracket": 1, "pointer_out_of_range": 1}
        assert [r.style for r in report.records] == [Style.FLAT, Style.TREE, Style.TREE, Style.FLAT]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate([FLAT], [FLAT, FLAT], [8, 8], [Style.FLAT] * 2)

    def test_one_style_per_prediction(self):
        with pytest.raises(LengthMismatch, match="1 styles for 2 predictions"):
            evaluate([FLAT, FLAT], [FLAT, FLAT], [8, 8], [Style.FLAT])

    def test_no_result_is_a_miss_with_no_violation(self):
        """A prediction of None scores as a miss in every style, even against
        an empty span-set gold, which an empty prediction would match."""
        empty = TargetSequence(())
        report = evaluate([None, None, None, FLAT], [FLAT, TREE, empty, FLAT], [8, 6, 3, 8],
                          [Style.FLAT, Style.TREE, Style.SPANSET, Style.FLAT])
        assert [(r.exact, r.well_formed, r.intent_match, r.first_divergence, r.violations)
                for r in report.records[:3]] == [(False, False, False, 0, [])] * 2 + [
                    (False, False, None, 0, [])]
        assert (report.em_accuracy, report.well_formed_rate) == (0.25, 0.25)
        assert report.intent_accuracy == 1 / 3
        assert set(report.to_json()["violations"].values()) == {0}

    def test_first_divergence_position(self):
        shifted = TargetSequence.from_string(FLAT.to_string().replace("@ptr_7", "@ptr_6"))
        assert first_divergence(shifted, FLAT) == 7
        assert first_divergence(FLAT, FLAT) is None
        truncated = TargetSequence(FLAT.symbols[:-2])
        assert first_divergence(truncated, FLAT) == len(FLAT) - 2
