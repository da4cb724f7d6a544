import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerparse.linearize import (
    Kind,
    ParseNode,
    SemanticParse,
    Style,
    linearize,
    pointer,
)
from pointerparse.vocab import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    EmptyCorpus,
    SymbolTable,
    UnknownSymbol,
    SourceVocab,
    build_source_vocab,
    build_symbol_table,
)


def _flat(intent, slots, n):
    children = tuple(ParseNode(label, Kind.SLOT, span) for label, span in slots)
    return linearize(SemanticParse(ParseNode(intent, Kind.INTENT, (), children), Style.FLAT), n)


def test_seven_intent_corpus_vocab_size():
    # 7 intents and k distinct slots: |V| = 7 + 2k + 3 (open+close per slot,
    # one tag per intent, plus PAD/BOS/EOS).
    k = 5
    targets = []
    lengths = []
    for i in range(7):
        slots = [(f"slot{j}", (j,)) for j in range(k)] if i == 0 else [(f"slot{i % k}", (0,))]
        targets.append(_flat(f"intent{i}", slots, 10))
        lengths.append(10)
    table = build_symbol_table(targets, lengths)
    assert table.vocab_size == 7 + 2 * k + 3


def test_single_example_vocab():
    table = build_symbol_table([_flat("I", [], 1)], [1])
    assert [s.surface() for s in table.parse_symbols] == ["<pad>", "<bos>", "<eos>", "I"]
    assert table.vocab_size == 4


def test_pinned_special_ids():
    table = build_symbol_table([_flat("I", [("s", (0,))], 2)], [2])
    assert table.id_of(table.parse_symbols[PAD_ID]) == 0
    assert [s.surface() for s in table.parse_symbols[:3]] == ["<pad>", "<bos>", "<eos>"]
    assert table.id_of(table.parse_symbols[BOS_ID]) == BOS_ID
    assert table.id_of(table.parse_symbols[EOS_ID]) == EOS_ID


def test_lexicographic_assignment():
    targets = [_flat("zz", [("aa", (0,)), ("mm", (1,))], 3)]
    table = build_symbol_table(targets, [3])
    tail = [s.surface() for s in table.parse_symbols[3:]]
    assert tail == sorted(tail)


def test_pointer_block_layout():
    table = build_symbol_table([_flat("I", [], 1)], [5])
    assert table.id_of(pointer(2)) == table.vocab_size + 2
    assert table.symbol_of(table.vocab_size + 2) == pointer(2)


def test_pointer_ids_span_corpus_max_length():
    # A corpus whose longest sentence has 56 tokens gets pointer ids
    # |V| .. |V|+55.
    targets = [_flat("I", [("s", (55,))], 56)]
    table = build_symbol_table(targets, [3, 56, 12])
    assert table.max_src_len == 56
    assert table.total_size == table.vocab_size + 56
    assert table.id_of(pointer(55)) == table.total_size - 1
    with pytest.raises(UnknownSymbol):
        table.id_of(pointer(56))


def test_unknown_symbol():
    table = build_symbol_table([_flat("I", [], 1)], [4])
    unseen = _flat("I", [("new_slot", (0,))], 4)
    with pytest.raises(UnknownSymbol):
        table.encode(unseen)


@pytest.mark.parametrize("idx", [-1, "total_size"])
def test_an_id_outside_the_table_has_no_symbol(idx):
    table = build_symbol_table([_flat("I", [], 1)], [4])
    idx = table.total_size if idx == "total_size" else idx
    with pytest.raises(UnknownSymbol, match=f"id {idx}"):
        table.symbol_of(idx)
    assert table.symbol_of(table.total_size - 1) == pointer(3)


@pytest.mark.parametrize("lengths, limit", [([0, 0], None), ([4], 0)])
def test_a_pointer_limit_below_one_is_refused(lengths, limit):
    """No query token to point at: every query empty, or a limit of 0."""
    with pytest.raises(EmptyCorpus, match="max_src_len must be at least 1"):
        build_symbol_table([_flat("I", [], 1)], lengths, max_src_len=limit)


def test_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_symbol_table([], [])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_encode_decode_bijection(seed):
    rng = random.Random(seed)
    table = build_symbol_table(
        [_flat("I", [("s", (0,)), ("t", (1, 2))], 8), _flat("J", [], 8)], [8]
    )
    ids = [rng.randrange(table.total_size) for _ in range(rng.randint(0, 12))]
    assert table.encode(table.decode(ids)) == ids
    seq = table.decode(ids)
    assert table.decode(table.encode(seq)) == seq


def test_save_load_round_trip(tmp_path):
    table = build_symbol_table([_flat("I", [("s", (0, 1))], 6)], [6])
    path = tmp_path / "symtab.json"
    table.save(path)
    assert SymbolTable.load(path) == table


def test_source_vocab_unk_and_round_trip(tmp_path):
    vocab = build_source_vocab([["play", "the", "song"], ["the", "weather"]])
    assert vocab.encode(["play", "zzz"]) == [vocab.id_of("play"), vocab.unk_id]
    assert vocab.pad_id == 0 and vocab.unk_id == 1
    path = tmp_path / "src.json"
    vocab.save(path)
    loaded = type(vocab).load(path)
    assert loaded == vocab


TABLE = ["<pad>", "<bos>", "<eos>", "I", "[s", "s]"]


@pytest.mark.parametrize("symbols, message", [
    (TABLE[3:4] + TABLE[1:3] + TABLE[:1] + TABLE[4:], "must start <pad> <bos> <eos>"),
    (TABLE[:2] + TABLE[3:], "must start <pad> <bos> <eos>"),
    (TABLE + ["@ptr_0"], "pointer or special"),
    (TABLE + ["<bos>"], "pointer or special"),
    (TABLE + ["I"], "listed twice"),
])
def test_symbol_table_from_json_refuses_a_table_it_did_not_write(symbols, message):
    with pytest.raises(ValueError, match=message):
        SymbolTable.from_json({"symbols": symbols, "max_src_len": 4})
    table = SymbolTable.from_json({"symbols": TABLE, "max_src_len": 4})
    assert SymbolTable.from_json(table.to_json()) == table


@pytest.mark.parametrize("words, message", [
    (["the", "<unk>", "<pad>"], "must start <pad> <unk>"),
    (["<unk>", "<pad>", "the"], "must start <pad> <unk>"),
    (["<pad>", "<unk>", "the", "the"], "listed twice"),
    (["<pad>", "<unk>", "<pad>"], "listed twice"),
])
def test_source_vocab_from_json_refuses_words_it_did_not_write(words, message):
    with pytest.raises(ValueError, match=message):
        SourceVocab.from_json({"words": words})


def test_source_vocab_lists_the_reserved_words_once():
    """A query token spelled like a reserved word is not a second entry:
    ``<unk>`` reads as UNK and ``<pad>`` as PAD."""
    vocab = build_source_vocab([["play", "<unk>"], ["<pad>", "the"]])
    assert vocab.words == ("<pad>", "<unk>", "play", "the")
    assert vocab.encode(["<pad>", "<unk>", "play"]) == [vocab.pad_id, vocab.unk_id, 2]
    assert SourceVocab.from_json(vocab.to_json()) == vocab
