import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerparse.linearize import (
    BOS,
    EOS,
    BadSymbol,
    PAD,
    IndexOutOfRange,
    Kind,
    Malformed,
    ParseNode,
    Query,
    SemanticParse,
    Style,
    StyleViolation,
    SymKind,
    TargetSequence,
    Violation,
    delinearize,
    intent_tag,
    linearize,
    parse_symbol,
    pointer,
    slot_close,
    slot_open,
    validate,
)
from pointerparse.vocab import SymbolTable
from helpers import random_parse

FLAT_QUERY = Query.from_text("play the song don't stop believin by journey")
FLAT_PARSE = SemanticParse(
    ParseNode(
        "PlaySongIntent",
        Kind.INTENT,
        (),
        (
            ParseNode("SongName", Kind.SLOT, (3, 4, 5)),
            ParseNode("ArtistName", Kind.SLOT, (7,)),
        ),
    ),
    Style.FLAT,
)
FLAT_TARGET = (
    "PlaySongIntent SongName( @ptr_3 @ptr_4 @ptr_5 )SongName ArtistName( @ptr_7 )ArtistName"
)

TREE_QUERY = Query.from_text("How far is the coffee shop")
TREE_PARSE = SemanticParse(
    ParseNode(
        "IN:GET_DISTANCE",
        Kind.INTENT,
        (0, 1, 2),
        (
            ParseNode(
                "SL:DESTINATION",
                Kind.SLOT,
                (),
                (
                    ParseNode(
                        "IN:GET_RESTAURANT_LOCATION",
                        Kind.INTENT,
                        (3, 5),
                        (ParseNode("SL:TYPE_FOOD", Kind.SLOT, (4,)),),
                    ),
                ),
            ),
        ),
    ),
    Style.TREE,
)
TREE_TARGET = (
    "[IN:GET_DISTANCE @ptr_0 @ptr_1 @ptr_2 [SL:DESTINATION [IN:GET_RESTAURANT_LOCATION "
    "@ptr_3 [SL:TYPE_FOOD @ptr_4 SL:TYPE_FOOD] @ptr_5 IN:GET_RESTAURANT_LOCATION] "
    "SL:DESTINATION] IN:GET_DISTANCE]"
)

SPAN_QUERY = Query.from_text("The pt. was diagnosed with GI upper bleed today.")
SPAN_PARSE = SemanticParse(
    ParseNode(
        "",
        Kind.GROUP,
        (),
        (
            ParseNode("Bleeding_Event", Kind.SLOT, (5, 7)),
            ParseNode("Anatomical_Site", Kind.SLOT, (6,)),
        ),
    ),
    Style.SPANSET,
)
SPAN_TARGET = (
    "Bleeding_Event( @ptr_5 @ptr_7 )Bleeding_Event Anatomical_Site( @ptr_6 )Anatomical_Site"
)


class TestLinearizeListings:
    def test_flat_listing(self):
        assert linearize(FLAT_PARSE, FLAT_QUERY).to_string() == FLAT_TARGET

    def test_tree_listing_with_custom_end_brackets(self):
        assert linearize(TREE_PARSE, TREE_QUERY).to_string() == TREE_TARGET

    def test_spanset_listing(self):
        assert linearize(SPAN_PARSE, SPAN_QUERY).to_string() == SPAN_TARGET

    def test_intent_only_flat(self):
        parse = SemanticParse(ParseNode("NoSlots", Kind.INTENT), Style.FLAT)
        seq = linearize(parse, Query.from_text("do the thing"))
        assert seq.to_string() == "NoSlots"

    def test_no_framing_symbols(self):
        seq = linearize(TREE_PARSE, TREE_QUERY)
        assert all(s not in (BOS, EOS, PAD) for s in seq)


class TestLinearizeErrors:
    def test_index_out_of_range(self):
        parse = SemanticParse(
            ParseNode("X", Kind.INTENT, (), (ParseNode("s", Kind.SLOT, (9,)),)),
            Style.FLAT,
        )
        with pytest.raises(IndexOutOfRange):
            linearize(parse, Query.from_text("a b c"))

    def test_flat_slot_gap_rejected(self):
        parse = SemanticParse(
            ParseNode("X", Kind.INTENT, (), (ParseNode("s", Kind.SLOT, (0, 2)),)),
            Style.FLAT,
        )
        with pytest.raises(StyleViolation):
            linearize(parse, Query.from_text("a b c"))

    def test_flat_overlapping_slots_rejected(self):
        parse = SemanticParse(
            ParseNode(
                "X",
                Kind.INTENT,
                (),
                (ParseNode("s", Kind.SLOT, (0, 1)), ParseNode("t", Kind.SLOT, (1, 2))),
            ),
            Style.FLAT,
        )
        with pytest.raises(StyleViolation):
            linearize(parse, 3)

    def test_tree_label_prefix_required(self):
        parse = SemanticParse(ParseNode("GET_DISTANCE", Kind.INTENT, (0,)), Style.TREE)
        with pytest.raises(StyleViolation):
            linearize(parse, 1)

    def test_tree_gap_in_coverage_rejected(self):
        parse = SemanticParse(ParseNode("IN:X", Kind.INTENT, (0, 2)), Style.TREE)
        with pytest.raises(StyleViolation):
            linearize(parse, 3)


I, S, G = Kind.INTENT, Kind.SLOT, Kind.GROUP


def _flat(*slots, label="X", kind=I, direct=()):
    return SemanticParse(ParseNode(label, kind, direct, slots), Style.FLAT)


def _tree(root):
    return SemanticParse(root, Style.TREE)


def _spans(*anns, label="", kind=G, direct=()):
    return SemanticParse(ParseNode(label, kind, direct, anns), Style.SPANSET)


# One case per rule a parse must keep to linearize; every parse is over a
# four-token source and breaks exactly that rule.
RULE_CASES = {
    "flat root is a slot": _flat(ParseNode("s", S, (0,)), kind=S),
    "flat root is a group": _flat(ParseNode("s", S, (0,)), kind=G),
    "flat root has a tree prefix": _flat(ParseNode("s", S, (0,)), label="IN:X"),
    "flat root has direct indices": _flat(ParseNode("s", S, (1,)), direct=(0,)),
    "flat slot has children": _flat(ParseNode("s", S, (0,), (ParseNode("t", S, (1,)),))),
    "flat slot is an intent": _flat(ParseNode("s", I, (0,))),
    "flat slot is a group": _flat(ParseNode("s", G, (0,))),
    "flat slot has a tree prefix": _flat(ParseNode("SL:s", S, (0,))),
    "flat slot is empty": _flat(ParseNode("s", S, ())),
    "flat slot has a gap": _flat(ParseNode("s", S, (0, 2))),
    "flat slots overlap": _flat(ParseNode("s", S, (0, 1)), ParseNode("t", S, (1, 2))),
    "flat slots out of order": _flat(ParseNode("s", S, (2,)), ParseNode("t", S, (0,))),
    "tree root is a slot": _tree(ParseNode("SL:X", S, (0,))),
    "tree root is a group": _tree(ParseNode("SL:X", G, (0,))),
    "tree has a group node": _tree(ParseNode("IN:X", I, (0,), (ParseNode("SL:G", G, (1,)),))),
    "tree intent under an intent": _tree(ParseNode("IN:X", I, (0,), (ParseNode("IN:Y", I, (1,)),))),
    "tree slot under a slot": _tree(ParseNode("IN:X", I, (0,), (
        ParseNode("SL:A", S, (1,), (ParseNode("SL:B", S, (2,)),)),))),
    "tree intent lacks IN:": _tree(ParseNode("X", I, (0,))),
    "tree intent has SL:": _tree(ParseNode("SL:X", I, (0,))),
    "tree slot lacks SL:": _tree(ParseNode("IN:X", I, (0,), (ParseNode("A", S, (1,)),))),
    "tree slot has IN:": _tree(ParseNode("IN:X", I, (0,), (ParseNode("IN:A", S, (1,)),))),
    "tree root is empty": _tree(ParseNode("IN:X", I)),
    "tree child is empty": _tree(ParseNode("IN:X", I, (0,), (ParseNode("SL:A", S),))),
    "tree child covers a direct index": _tree(ParseNode("IN:X", I, (0, 1), (ParseNode("SL:A", S, (1,)),))),
    "tree siblings overlap": _tree(ParseNode("IN:X", I, (), (
        ParseNode("SL:A", S, (0, 1)), ParseNode("SL:B", S, (1, 2))))),
    "tree coverage has a gap": _tree(ParseNode("IN:X", I, (0, 2))),
    "tree child coverage has a gap": _tree(ParseNode("IN:X", I, (0,), (
        ParseNode("SL:A", S, (), (ParseNode("IN:Y", I, (1, 3)),)), ParseNode("SL:B", S, (2,))))),
    "tree children out of order": _tree(ParseNode("IN:X", I, (0,), (
        ParseNode("SL:B", S, (2,)), ParseNode("SL:A", S, (1,))))),
    "spanset root is an intent": _spans(ParseNode("A", S, (0,)), kind=I),
    "spanset root has a label": _spans(ParseNode("A", S, (0,)), label="R"),
    "spanset root has indices": _spans(ParseNode("A", S, (1,)), direct=(0,)),
    "spanset annotation has children": _spans(ParseNode("A", S, (0,), (ParseNode("B", S, (1,)),))),
    "spanset annotation is an intent": _spans(ParseNode("A", I, (0,))),
    "spanset annotation has a tree prefix": _spans(ParseNode("SL:A", S, (0,))),
    "spanset annotation is empty": _spans(ParseNode("A", S, ())),
    "spanset annotations out of index order": _spans(ParseNode("A", S, (2,)), ParseNode("B", S, (0,))),
    "spanset annotations out of label order": _spans(ParseNode("B", S, (0,)), ParseNode("A", S, (0, 1))),
    "spanset annotations out of index-tuple order": _spans(
        ParseNode("A", S, (0, 2)), ParseNode("A", S, (0, 1))),
}
for _bad in ("", "@x", "a b", "x("):
    RULE_CASES[f"flat intent label {_bad!r}"] = _flat(ParseNode("s", S, (0,)), label=_bad)
    RULE_CASES[f"flat slot label {_bad!r}"] = _flat(ParseNode(_bad, S, (0,)))
    RULE_CASES[f"spanset label {_bad!r}"] = _spans(ParseNode(_bad, S, (0,)))
    RULE_CASES[f"tree slot label {_bad!r}"] = _tree(ParseNode("IN:X", I, (0,), (
        ParseNode(_bad if _bad in ("", "@x") else "SL:" + _bad, S, (1,)),)))
# A flat intent tag is written as its bare label, so a framing surface would
# read back as framing.
for _framing in ("<bos>", "<eos>", "<pad>"):
    RULE_CASES[f"flat intent label {_framing!r}"] = _flat(ParseNode("s", S, (0,)), label=_framing)


def _with_index(node: ParseNode, i: int) -> ParseNode:
    """``node`` with ``i`` added to the last node of its pre-order walk."""
    if node.children:
        return ParseNode(node.label, node.kind, node.token_indices,
                         node.children[:-1] + (_with_index(node.children[-1], i),))
    return ParseNode(node.label, node.kind, node.token_indices + (i,))


def _framing_label_parses(style: Style, surface: str) -> list[SemanticParse]:
    """Parses of ``style`` over a four-token source with ``surface`` as the
    label of each node in turn."""
    return {
        Style.FLAT: [_flat(ParseNode("s", S, (0,)), label=surface), _flat(ParseNode(surface, S, (0,)))],
        Style.TREE: [_tree(ParseNode(surface, I, (0,))),
                     _tree(ParseNode("IN:X", I, (0,), (ParseNode(surface, S, (1,)),)))],
        Style.SPANSET: [_spans(ParseNode(surface, S, (0,)))],
    }[style]


class TestStyleRules:
    @pytest.mark.parametrize("surface", ["<bos>", "<eos>", "<pad>"])
    @pytest.mark.parametrize("style", list(Style))
    def test_framing_surface_labels_raise_or_read_back(self, style, surface):
        for parse in _framing_label_parses(style, surface):
            try:
                text = linearize(parse, 4).to_string()
            except StyleViolation:
                continue
            seq = TargetSequence.from_string(text)
            assert validate(seq, 4, style).ok, text
            assert delinearize(seq, 4, style) == parse

    @pytest.mark.parametrize("case", sorted(RULE_CASES))
    def test_rule_is_enforced(self, case):
        with pytest.raises(StyleViolation):
            linearize(RULE_CASES[case], 4)

    @pytest.mark.parametrize("case", sorted(RULE_CASES))
    def test_out_of_range_index_wins(self, case):
        parse = RULE_CASES[case]
        with pytest.raises(IndexOutOfRange):
            linearize(SemanticParse(_with_index(parse.root, 4), parse.style), 4)

    def test_valid_neighbours_are_accepted(self):
        # The parses the rule cases were broken from, so each case fails for
        # its own rule rather than for a defect the table shares.
        assert linearize(_flat(ParseNode("s", S, (0, 1)), ParseNode("t", S, (3,))), 4).to_string() == (
            "X s( @ptr_0 @ptr_1 )s t( @ptr_3 )t")
        tree = ParseNode("IN:X", I, (0,), (
            ParseNode("SL:A", S, (), (ParseNode("IN:Y", I, (1, 2)),)), ParseNode("SL:B", S, (3,))))
        assert linearize(_tree(tree), 4).to_string() == (
            "[IN:X @ptr_0 [SL:A [IN:Y @ptr_1 @ptr_2 IN:Y] SL:A] [SL:B @ptr_3 SL:B] IN:X]")
        assert linearize(_spans(ParseNode("A", S, (0, 1)), ParseNode("A", S, (0, 2)),
                                ParseNode("B", S, (0,))), 4).to_string() == (
            "A( @ptr_0 @ptr_1 )A A( @ptr_0 @ptr_2 )A B( @ptr_0 )B")


class TestDelinearize:
    def test_tree_listing_recovers_tree(self):
        seq = TargetSequence.from_string(TREE_TARGET)
        assert delinearize(seq, TREE_QUERY, Style.TREE) == TREE_PARSE

    def test_mismatched_close_label(self):
        seq = TargetSequence.from_string("PlaySongIntent SongName( @ptr_3 )ArtistName")
        with pytest.raises(Malformed) as err:
            delinearize(seq, 8, Style.FLAT)
        assert err.value.violation is Violation.MISMATCHED_CLOSE_LABEL

    def test_round_trip_reference_listings(self):
        for parse, query in [(FLAT_PARSE, FLAT_QUERY), (TREE_PARSE, TREE_QUERY), (SPAN_PARSE, SPAN_QUERY)]:
            seq = linearize(parse, query)
            assert delinearize(seq, query, parse.style) == parse

    def test_spanset_accepts_unordered_pointers(self):
        seq = TargetSequence.from_string("Event_A( @ptr_7 @ptr_5 )Event_A")
        parse = delinearize(seq, 8, Style.SPANSET)
        assert parse.root.children[0].token_indices == (5, 7)

    def test_flat_rejects_unordered_pointers(self):
        seq = TargetSequence.from_string("X slot_a( @ptr_2 @ptr_1 )slot_a")
        with pytest.raises(Malformed):
            delinearize(seq, 4, Style.FLAT)

    def test_missing_intent(self):
        seq = TargetSequence.from_string("slot_a( @ptr_0 )slot_a")
        with pytest.raises(Malformed) as err:
            delinearize(seq, 2, Style.FLAT)
        assert err.value.violation is Violation.MISSING_INTENT


class TestValidate:
    def test_well_formed_tree_listing(self):
        report = validate(TargetSequence.from_string(TREE_TARGET), len(TREE_QUERY), Style.TREE)
        assert report.ok and report.violations == []

    def test_unclosed_bracket(self):
        report = validate(TargetSequence.from_string("[IN:X @ptr_0"), 3, Style.TREE)
        assert not report.ok
        assert report.violations == [Violation.UNBALANCED_BRACKET]

    def test_pointer_out_of_range(self):
        report = validate(TargetSequence.from_string("[IN:X @ptr_9 IN:X]"), 3, Style.TREE)
        assert not report.ok
        assert report.violations == [Violation.POINTER_OUT_OF_RANGE]

    def test_agrees_with_delinearize_on_fuzz(self):
        # Random symbol soup: validate(t).ok must equal "delinearize succeeds".
        rng = random.Random(2024)
        pool = [
            intent_tag("X"),
            slot_open("slot_a"),
            slot_close("slot_a"),
            slot_open("SL:Y"),
            slot_close("SL:Y"),
            parse_symbol("[IN:X"),
            parse_symbol("IN:X]"),
            pointer(0),
            pointer(1),
            pointer(5),
        ]
        for _ in range(10_000):
            seq = TargetSequence(tuple(rng.choice(pool) for _ in range(rng.randint(0, 8))))
            style = rng.choice(list(Style))
            report = validate(seq, 4, style)
            try:
                delinearize(seq, 4, style)
                succeeded = True
            except Malformed:
                succeeded = False
            assert report.ok == succeeded


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    style=st.sampled_from(list(Style)),
    n=st.integers(1, 14),
)
def test_round_trip_identity(seed, style, n):
    rng = random.Random(seed)
    parse = random_parse(rng, style, n)
    seq = linearize(parse, n)
    assert delinearize(seq, n, style) == parse
    # Every emitted pointer is in range, and flat pointers ascend per slot.
    indices = [s.index for s in seq if s.sym is SymKind.POINTER]
    assert all(0 <= i < n for i in indices)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14))
def test_flat_pointer_order(seed, n):
    rng = random.Random(seed)
    parse = random_parse(rng, Style.FLAT, n)
    seq = linearize(parse, n)
    run: list[int] = []
    for sym in seq:
        if sym.sym is SymKind.POINTER:
            assert not run or sym.index == run[-1] + 1
            run.append(sym.index)
        else:
            run = []


def test_symbol_surface_round_trip():
    for text in ["PlaySongIntent", "SongName(", ")SongName", "[IN:A", "IN:A]", "[SL:B", "SL:B]", "@ptr_12", "<bos>", "<eos>", "<pad>"]:
        assert parse_symbol(text).surface() == text


@pytest.mark.parametrize("surface, message", [
    ("[", "empty bracket symbol"), ("]", "empty bracket symbol"),
    ("(", "empty bracket symbol"), (")", "empty bracket symbol"), ("", "empty symbol"),
])
def test_a_symbol_table_with_an_empty_symbol_is_refused(surface, message, tmp_path):
    """``from_string`` splits on whitespace and so never reads an empty
    token, but a ``symtab.json`` lists its surfaces as given."""
    path = tmp_path / "symtab.json"
    path.write_text(json.dumps({"symbols": ["<pad>", "<bos>", "<eos>", surface],
                                "max_src_len": 4}))
    with pytest.raises(BadSymbol, match=f"^{message}$"):
        SymbolTable.load(path)
