"""Target-side symbol table and source-side word vocabulary.

The symbol table owns the output vocabulary: ids ``[0, |V|)`` are parse
symbols (specials pinned at PAD=0, BOS=1, EOS=2, the rest sorted
lexicographically by surface form), and ids ``[|V|, |V| + max_src_len)`` are
the pointer block, so ``@ptr_i`` maps to ``|V| + i``.  Source words never
enter this table; the encoder has its own word vocabulary with an UNK entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

from .linearize import PAD, BOS, EOS, SymKind, TargetSequence, TargetSymbol, parse_symbol

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2

_SPECIALS = (PAD, BOS, EOS)


class EmptyCorpus(ValueError):
    pass


class UnknownSymbol(KeyError):
    """A parse symbol absent from the table (e.g. an unseen test-time slot)."""

    def __init__(self, surface: str):
        super().__init__(surface)
        self.surface = surface


@dataclass(frozen=True)
class SymbolTable:
    parse_symbols: tuple[TargetSymbol, ...]
    max_src_len: int

    def __post_init__(self):
        object.__setattr__(
            self, "_id_of", {s.surface(): i for i, s in enumerate(self.parse_symbols)}
        )

    @property
    def vocab_size(self) -> int:
        """|V|: number of non-pointer symbols, specials included."""
        return len(self.parse_symbols)

    @property
    def total_size(self) -> int:
        return self.vocab_size + self.max_src_len

    def id_of(self, symbol: TargetSymbol) -> int:
        if symbol.sym is SymKind.POINTER:
            if not 0 <= symbol.index < self.max_src_len:
                raise UnknownSymbol(symbol.surface())
            return self.vocab_size + symbol.index
        try:
            return self._id_of[symbol.surface()]
        except KeyError:
            raise UnknownSymbol(symbol.surface()) from None

    def symbol_of(self, idx: int) -> TargetSymbol:
        if 0 <= idx < self.vocab_size:
            return self.parse_symbols[idx]
        if self.vocab_size <= idx < self.total_size:
            return TargetSymbol(SymKind.POINTER, index=idx - self.vocab_size)
        raise UnknownSymbol(f"id {idx}")

    def encode(self, seq: TargetSequence) -> list[int]:
        return [self.id_of(s) for s in seq]

    def decode(self, ids: Iterable[int]) -> TargetSequence:
        return TargetSequence(tuple(self.symbol_of(i) for i in ids))

    def to_json(self) -> dict:
        return {
            "symbols": [s.surface() for s in self.parse_symbols],
            "max_src_len": self.max_src_len,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SymbolTable":
        """The table ``to_json`` wrote; ValueError unless it starts with the
        specials, holds no other special or pointer, and repeats no symbol."""
        symbols = tuple(parse_symbol(t) for t in obj["symbols"])
        if symbols[:len(_SPECIALS)] != _SPECIALS:
            raise ValueError(f"symbols must start {' '.join(s.surface() for s in _SPECIALS)}")
        if any(s.sym is SymKind.POINTER or s in _SPECIALS for s in symbols[len(_SPECIALS):]):
            raise ValueError("a pointer or special symbol among the parse symbols")
        if len({s.surface() for s in symbols}) != len(symbols):
            raise ValueError("a symbol is listed twice")
        return cls(parse_symbols=symbols, max_src_len=int(obj["max_src_len"]))

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SymbolTable":
        return cls.from_json(json.loads(Path(path).read_text()))


def build_symbol_table(
    targets: Sequence[TargetSequence],
    source_lengths: Sequence[int],
    max_src_len: int | None = None,
) -> SymbolTable:
    """Collect every parse symbol in the linearized corpus, specials pinned first."""
    if not targets:
        raise EmptyCorpus("no linearized targets to build a symbol table from")
    seen: dict[str, TargetSymbol] = {}
    for seq in targets:
        for sym in seq:
            if sym.sym is SymKind.POINTER or sym in _SPECIALS:
                continue
            seen.setdefault(sym.surface(), sym)
    ordered = tuple(_SPECIALS) + tuple(seen[k] for k in sorted(seen))
    limit = max(source_lengths) if max_src_len is None else max_src_len
    if limit < 1:
        raise EmptyCorpus("max_src_len must be at least 1")
    return SymbolTable(parse_symbols=ordered, max_src_len=limit)


UNK_WORD = "<unk>"
PAD_WORD = "<pad>"


@dataclass(frozen=True)
class SourceVocab:
    """Word-id map for encoder input; unseen words fall back to UNK."""

    words: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "_id_of", {w: i for i, w in enumerate(self.words)})

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    def id_of(self, word: str) -> int:
        return self._id_of.get(word, self.unk_id)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.id_of(t) for t in tokens]

    def to_json(self) -> dict:
        return {"words": list(self.words)}

    @classmethod
    def from_json(cls, obj: dict) -> "SourceVocab":
        """The vocabulary ``to_json`` wrote; ValueError unless its words
        start with PAD_WORD and UNK_WORD and none is listed twice."""
        words = tuple(obj["words"])
        if words[:2] != (PAD_WORD, UNK_WORD):
            raise ValueError(f"words must start {PAD_WORD} {UNK_WORD}")
        if len(set(words)) != len(words):
            raise ValueError("a word is listed twice")
        return cls(words=words)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SourceVocab":
        return cls.from_json(json.loads(Path(path).read_text()))


def build_source_vocab(token_lists: Iterable[Sequence[str]]) -> SourceVocab:
    """PAD_WORD and UNK_WORD, then every other corpus word, sorted."""
    vocab: set[str] = set()
    for tokens in token_lists:
        vocab.update(tokens)
    return SourceVocab(words=(PAD_WORD, UNK_WORD) + tuple(sorted(vocab - {PAD_WORD, UNK_WORD})))
