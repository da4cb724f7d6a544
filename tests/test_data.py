import json
from pathlib import Path

import pytest

from pointerparse.data import (
    AlignmentError,
    BracketParseError,
    CorpusExample,
    DataError,
    IllegalTagTransition,
    LexiconTooSmall,
    MisalignedFiles,
    SyntheticGrammar,
    corpus_stats,
    default_grammar,
    dumps_canonical,
    example_from_json,
    example_to_json,
    export_bio,
    generate_synthetic,
    import_bio,
    import_top,
    parse_bracketed,
    read_jsonl,
    write_jsonl,
)
from pointerparse.linearize import (
    Kind,
    LinearizeError,
    ParseNode,
    Query,
    SemanticParse,
    Style,
    delinearize,
    linearize,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _write_bio(tmp_path, tokens, tags, labels):
    paths = []
    for name, lines in [("t.tokens", tokens), ("t.tags", tags), ("t.labels", labels)]:
        p = tmp_path / name
        p.write_text("\n".join(lines) + "\n")
        paths.append(p)
    return paths


class TestBioImport:
    def test_unknown_policy_is_refused(self, tmp_path):
        paths = _write_bio(tmp_path, ["call mom"], ["O O"], ["CallIntent"])
        with pytest.raises(ValueError, match="unknown BIO policy 'guess'"):
            import_bio(*paths, policy="guess")

    def test_only_flat_examples_export(self):
        tree = generate_synthetic(default_grammar(), 60, 5)
        examples = [ex for split in tree.values() for ex in split if ex.style is Style.TREE]
        with pytest.raises(DataError, match="only flat examples have a BIO form"):
            export_bio(examples[:1])

    def test_weather_example(self, tmp_path):
        # One condition word and a four-token place name, everything else O.
        tokens = ["will there be fog in tahquamenon falls state park"]
        tags = ["O O O B-condition_description O B-geographic_poi I-geographic_poi I-geographic_poi I-geographic_poi"]
        labels = ["GetWeather"]
        (examples,) = [import_bio(*_write_bio(tmp_path, tokens, tags, labels))][0:1]
        ex = examples[0]
        assert ex.parse.root.label == "GetWeather"
        slots = ex.parse.root.children
        assert len(slots) == 2
        assert slots[0].label == "condition_description" and slots[0].token_indices == (3,)
        assert slots[1].label == "geographic_poi" and slots[1].token_indices == (5, 6, 7, 8)

    def test_all_o_line_gives_intent_only_parse(self, tmp_path):
        examples = import_bio(*_write_bio(tmp_path, ["turn it up"], ["O O O"], ["volume_up"]))
        assert examples[0].parse.root.children == ()

    def test_initial_i_tag_rejected(self, tmp_path):
        paths = _write_bio(tmp_path, ["hello there"], ["I-place O"], ["x"])
        with pytest.raises(IllegalTagTransition):
            import_bio(*paths, policy="reject")

    def test_initial_i_tag_repaired_as_b(self, tmp_path):
        paths = _write_bio(tmp_path, ["hello there"], ["I-place O"], ["x"])
        examples = import_bio(*paths, policy="repair")
        assert examples[0].parse.root.children[0].token_indices == (0,)

    def test_label_switch_without_b_rejected(self, tmp_path):
        paths = _write_bio(tmp_path, ["a b"], ["B-x I-y"], ["i"])
        with pytest.raises(IllegalTagTransition):
            import_bio(*paths)

    def test_misaligned_line_counts(self, tmp_path):
        paths = _write_bio(tmp_path, ["a b", "c"], ["O O"], ["i", "j"])
        with pytest.raises(MisalignedFiles):
            import_bio(*paths)

    def test_misaligned_tokens_and_tags(self, tmp_path):
        paths = _write_bio(tmp_path, ["a b c"], ["O O"], ["i"])
        with pytest.raises(MisalignedFiles):
            import_bio(*paths)

    def test_round_trip_on_fixture_is_byte_identical(self, tmp_path):
        examples = import_bio(
            FIXTURES / "bio.tokens", FIXTURES / "bio.tags", FIXTURES / "bio.labels"
        )
        assert len(examples) == 100
        tokens, tags, labels = export_bio(examples)
        assert "\n".join(tokens) + "\n" == (FIXTURES / "bio.tokens").read_text()
        assert "\n".join(tags) + "\n" == (FIXTURES / "bio.tags").read_text()
        assert "\n".join(labels) + "\n" == (FIXTURES / "bio.labels").read_text()


TOP_ROW = (
    "How far is the coffee shop\t"
    "[IN:GET_DISTANCE How far is [SL:DESTINATION [IN:GET_RESTAURANT_LOCATION the "
    "[SL:TYPE_FOOD coffee ] shop ] ] ]"
)


class TestTopImport:
    def test_nested_tree_recovered(self, tmp_path):
        path = tmp_path / "top.tsv"
        path.write_text(TOP_ROW + "\n")
        (ex,) = import_top(path)
        root = ex.parse.root
        assert root.label == "IN:GET_DISTANCE"
        assert root.token_indices == (0, 1, 2)
        (dest,) = root.children
        assert dest.label == "SL:DESTINATION" and dest.kind is Kind.SLOT
        (inner,) = dest.children
        assert inner.label == "IN:GET_RESTAURANT_LOCATION"
        assert inner.token_indices == (3, 5)
        (food,) = inner.children
        assert food.label == "SL:TYPE_FOOD" and food.token_indices == (4,)
        # The linearized form uses label-specific end brackets.
        assert linearize(ex.parse, ex.query).to_string() == (
            "[IN:GET_DISTANCE @ptr_0 @ptr_1 @ptr_2 [SL:DESTINATION "
            "[IN:GET_RESTAURANT_LOCATION @ptr_3 [SL:TYPE_FOOD @ptr_4 SL:TYPE_FOOD] "
            "@ptr_5 IN:GET_RESTAURANT_LOCATION] SL:DESTINATION] IN:GET_DISTANCE]"
        )

    def test_single_intent_row(self, tmp_path):
        path = tmp_path / "top.tsv"
        path.write_text("call mom\t[IN:CALL call mom ]\n")
        (ex,) = import_top(path)
        assert ex.parse.root.children == ()
        assert ex.parse.root.token_indices == (0, 1)

    def test_column_indices(self, tmp_path):
        path = tmp_path / "top.tsv"
        path.write_text("extra\tcall mom\t[IN:CALL call mom ]\n")
        (ex,) = import_top(path, utterance_col=1, parse_col=2)
        assert ex.query.raw == "call mom"

    def test_terminal_mismatch_is_alignment_error(self, tmp_path):
        path = tmp_path / "top.tsv"
        path.write_text("call mom\t[IN:CALL call dad ]\n")
        with pytest.raises(AlignmentError):
            import_top(path)

    def test_unbalanced_bracket_error_carries_row(self, tmp_path):
        path = tmp_path / "top.tsv"
        path.write_text("ok line\t[IN:CALL ok line ]\ncall mom\t[IN:CALL call mom\n")
        with pytest.raises(BracketParseError) as err:
            import_top(path)
        assert "row 2" in str(err.value)

    def test_unprefixed_label_rejected(self):
        with pytest.raises(BracketParseError):
            parse_bracketed("[CALL call mom ]", Query.from_text("call mom"))

    @pytest.mark.parametrize("annotation, error, message", [
        ("[IN:CALL call ] [IN:CALL mom ]", BracketParseError, "trailing annotation after root closed"),
        ("[IN:CALL call mom ] ]", BracketParseError, "unbalanced close bracket"),
        ("[IN:CALL call mom now ]", AlignmentError, "annotation has more terminals than the utterance"),
        ("[IN:CALL call ]", AlignmentError, "annotation covers 1 of 2 tokens"),
    ], ids=["second_root", "extra_close", "extra_terminal", "missing_terminal"])
    def test_annotation_errors_name_their_row(self, annotation, error, message):
        with pytest.raises(error, match=f"^row 4: {message}$"):
            parse_bracketed(annotation, Query.from_text("call mom"), row=4)

    def test_blank_lines_are_skipped_and_rows_keep_their_numbers(self, tmp_path):
        path = tmp_path / "top.tsv"
        path.write_text("call mom\t[IN:CALL call mom ]\n\n  \ncall dad\t[IN:CALL call dad\n")
        with pytest.raises(BracketParseError, match="row 4: "):
            import_top(path)
        path.write_text("\ncall mom\t[IN:CALL call mom ]\n\n")
        assert [ex.query.raw for ex in import_top(path)] == ["call mom"]

    def test_corpus_stats(self, tmp_path):
        path = tmp_path / "top.tsv"
        path.write_text(TOP_ROW + "\ncall mom\t[IN:CALL call mom ]\n")
        stats = corpus_stats(import_top(path))
        assert stats["examples"] == 2
        assert stats["intents"] == 3  # two roots plus the nested one
        assert stats["slots"] == 2


class TestCanonicalJsonl:
    def test_round_trip(self, tmp_path):
        splits = generate_synthetic(default_grammar(), 50, 3)
        path = tmp_path / "c.jsonl"
        write_jsonl(path, splits["train"])
        assert read_jsonl(path) == splits["train"]

    def test_import_idempotent_bytes(self, tmp_path):
        splits = generate_synthetic(default_grammar(), 50, 3)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(p1, splits["train"])
        write_jsonl(p2, read_jsonl(p1))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("children", ["none", {"label": "x"}])
    def test_children_that_are_not_a_list_are_refused(self, children):
        obj = {"query": "call mom", "style": "flat",
               "parse": {"label": "CallIntent", "kind": "intent", "indices": [],
                         "children": children}}
        with pytest.raises(DataError, match="'children' must be a list"):
            example_from_json(obj)

    def test_example_json_shape(self):
        splits = generate_synthetic(default_grammar(), 20, 4)
        obj = example_to_json(splits["train"][0])
        assert set(obj) == {"query", "style", "parse"}
        assert set(obj["parse"]) == {"label", "kind", "indices", "children"}
        assert example_from_json(json.loads(dumps_canonical(obj))) == splits["train"][0]

    def test_target_is_linearized_on_first_read_and_kept(self):
        generated = generate_synthetic(default_grammar(), 20, 4)["train"][0]
        example = CorpusExample(generated.query, generated.parse)
        assert "target" not in vars(example)
        assert example.target == linearize(example.parse, example.query)
        assert example.target is example.target
        assert example == generated and hash(example) == hash(generated)
        broken = CorpusExample(Query.from_text("a b"), SemanticParse(
            ParseNode("x", Kind.INTENT, (), (ParseNode("s", Kind.SLOT, (5,)),)), Style.FLAT))
        with pytest.raises(LinearizeError):
            broken.target


class TestSyntheticGrammar:
    def test_seed_determinism(self):
        import hashlib

        def corpus_hash(splits):
            blob = "\n".join(
                dumps_canonical(example_to_json(e))
                for split in ("train", "dev", "test")
                for e in splits[split]
            )
            return hashlib.sha256(blob.encode()).hexdigest()

        a = generate_synthetic(default_grammar(), 300, 17)
        b = generate_synthetic(default_grammar(), 300, 17)
        for split in ("train", "dev", "test"):
            assert a[split] == b[split]
        assert corpus_hash(a) == corpus_hash(b)

    def test_all_examples_round_trip(self):
        splits = generate_synthetic(default_grammar(), 400, 29)
        for split in splits.values():
            for ex in split:
                seq = linearize(ex.parse, ex.query)
                assert delinearize(seq, ex.query, ex.style) == ex.parse

    def test_contains_intent_in_slot_in_intent_nesting(self):
        splits = generate_synthetic(default_grammar(), 400, 17)
        found = False
        for ex in splits["train"] + splits["dev"] + splits["test"]:
            if ex.style is not Style.TREE:
                continue
            root = ex.parse.root
            for slot in root.children:
                if any(child.kind is Kind.INTENT for child in slot.children):
                    found = True
        assert found

    def test_splits_disjoint_in_surface_strings(self):
        splits = generate_synthetic(default_grammar(), 500, 8)
        surfaces = [set(e.query.raw for e in split) for split in splits.values()]
        assert surfaces[0] & surfaces[1] == set()
        assert surfaces[0] & surfaces[2] == set()
        assert surfaces[1] & surfaces[2] == set()
        assert sum(len(s) for s in surfaces) == 500

    def test_split_proportions(self):
        splits = generate_synthetic(default_grammar(), 1000, 17)
        assert len(splits["train"]) == 800
        assert len(splits["dev"]) == 100
        assert len(splits["test"]) == 100

    def test_count_below_one_is_refused(self):
        with pytest.raises(ValueError, match="count must be at least 1"):
            generate_synthetic(default_grammar(), 0, 1)

    def test_a_grammar_with_no_template_is_refused(self):
        grammar = SyntheticGrammar(lexicons={"x": ("a",)}, flat_templates=(),
                                   tree_templates=(), spanset_templates=())
        with pytest.raises(DataError, match="grammar has no templates"):
            generate_synthetic(grammar, 1, 1)

    def test_a_template_naming_an_unknown_lexicon_is_refused(self):
        grammar = SyntheticGrammar(lexicons={"x": ("a",)},
                                   flat_templates=(("only_intent", "do {thing:y}"),),
                                   tree_templates=(), spanset_templates=())
        with pytest.raises(DataError, match="template references unknown lexicon 'y'"):
            generate_synthetic(grammar, 1, 1)

    def test_lexicon_too_small(self):
        grammar = SyntheticGrammar(
            lexicons={"x": ("a", "b")},
            flat_templates=(("only_intent", "do {thing:x}"),),
            tree_templates=(),
            spanset_templates=(),
        )
        assert len(generate_synthetic(grammar, 2, 1)["train"]) == 2
        with pytest.raises(LexiconTooSmall):
            generate_synthetic(grammar, 3, 1)

    def test_spanset_examples_include_overlaps_and_gaps(self):
        splits = generate_synthetic(default_grammar(), 400, 13)
        spansets = [e for s in splits.values() for e in s if e.style is Style.SPANSET]
        assert spansets
        has_gap = has_overlap = False
        for ex in spansets:
            covered = [set(a.token_indices) for a in ex.parse.root.children]
            for c in covered:
                srt = sorted(c)
                if srt[-1] - srt[0] + 1 != len(srt):
                    has_gap = True
            for i in range(len(covered)):
                for j in range(i + 1, len(covered)):
                    if covered[i] & covered[j]:
                        has_overlap = True
        assert has_gap and has_overlap
