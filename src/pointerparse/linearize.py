"""Parse annotations as pointer-token sequences.

A semantic parse over a tokenized query is serialized into a flat sequence of
parse symbols (intent and slot delimiters) interleaved with pointer tokens
``@ptr_i``, each of which stands for "copy source token i".  Three annotation
styles are supported:

* ``flat``: one intent tag followed by non-overlapping slot spans,
* ``tree``: hierarchical parses whose intents and slots nest (labels carry
  ``IN:`` / ``SL:`` prefixes and are bracketed with ``[LABEL ... LABEL]``),
* ``spanset``: labeled token-index sets that may overlap or have gaps.

Close brackets are label-specific in every style (``)SongName``,
``SL:DESTINATION]``), which lets the validator catch mismatched closes.

``linearize`` and ``delinearize`` are exact inverses on well-formed input, and
a parse is well-formed exactly when its linearization reads back to it;
``validate`` reports, without raising, whether an arbitrary symbol sequence
(e.g. raw model output) is well-formed for a style.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Union


class Style(str, Enum):
    FLAT = "flat"
    TREE = "tree"
    SPANSET = "spanset"


class Kind(str, Enum):
    INTENT = "intent"
    SLOT = "slot"
    # Synthetic container for span-set annotations, which have no single root.
    GROUP = "group"


class LinearizeError(Exception):
    """Base class for annotation errors raised by this module."""


class IndexOutOfRange(LinearizeError):
    pass


class StyleViolation(LinearizeError):
    pass


class BadSymbol(LinearizeError, ValueError):
    """A surface string that spells no target symbol."""


class Violation(str, Enum):
    """Well-formedness defects a generated sequence can exhibit."""

    UNBALANCED_BRACKET = "unbalanced_bracket"
    MISMATCHED_CLOSE_LABEL = "mismatched_close_label"
    POINTER_OUT_OF_RANGE = "pointer_out_of_range"
    MISSING_INTENT = "missing_intent"
    EMPTY_SPAN = "empty_span"
    OVERLAPPING_SPANS = "overlapping_spans"
    NON_CONTIGUOUS_SPAN = "non_contiguous_span"
    OUT_OF_ORDER = "out_of_order"
    UNEXPECTED_SYMBOL = "unexpected_symbol"
    TRAILING_SYMBOLS = "trailing_symbols"


class Malformed(LinearizeError):
    """First violation found while reading a target sequence back."""

    def __init__(self, violation: Violation, message: str):
        super().__init__(f"{violation.value}: {message}")
        self.violation = violation
        self.message = message


# Labels enter the surface syntax, so bracket/pointer characters and
# whitespace inside them would make symbols ambiguous.
_FORBIDDEN_LABEL_CHARS = set("()[]") | set(" \t\n\r")


def _check_label(label: str) -> None:
    if not label:
        raise StyleViolation("empty label")
    if label.startswith("@") or any(c in _FORBIDDEN_LABEL_CHARS for c in label):
        raise StyleViolation(f"illegal characters in label {label!r}")
    # A flat intent tag is written as its bare label, which would read back
    # as framing.
    if label in _SPECIAL_SURFACE.values():
        raise StyleViolation(f"label {label!r} spells a framing symbol")


def _is_tree_label(label: str) -> bool:
    return label.startswith("IN:") or label.startswith("SL:")


@dataclass(frozen=True)
class Query:
    """Tokenized source utterance; the referent of every pointer token."""

    raw: str
    tokens: tuple[str, ...]

    @classmethod
    def from_text(cls, text: str) -> "Query":
        """Whitespace-tokenize ``text`` after NFC normalization."""
        return cls(raw=text, tokens=tuple(unicodedata.normalize("NFC", text).split()))

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class ParseNode:
    """One labeled annotation node.

    ``token_indices`` holds the source positions the node covers *directly*
    (not through children); it is normalized to a sorted, duplicate-free tuple.
    """

    label: str
    kind: Kind
    token_indices: tuple[int, ...] = ()
    children: tuple["ParseNode", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "token_indices", tuple(sorted(set(self.token_indices))))
        object.__setattr__(self, "children", tuple(self.children))

    def coverage(self) -> frozenset[int]:
        """All source positions covered by this node or its descendants."""
        cov = set(self.token_indices)
        for child in self.children:
            cov |= child.coverage()
        return frozenset(cov)

    def walk(self) -> Iterator["ParseNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class SemanticParse:
    """A parse annotation paired with the style that governs its invariants."""

    root: ParseNode
    style: Style


class SymKind(Enum):
    INTENT_TAG = "intent_tag"
    INTENT_OPEN = "intent_open"
    INTENT_CLOSE = "intent_close"
    SLOT_OPEN = "slot_open"
    SLOT_CLOSE = "slot_close"
    POINTER = "pointer"
    BOS = "bos"
    EOS = "eos"
    PAD = "pad"


_SPECIAL_SURFACE = {SymKind.BOS: "<bos>", SymKind.EOS: "<eos>", SymKind.PAD: "<pad>"}


@dataclass(frozen=True)
class TargetSymbol:
    """One output token: a parse symbol, a pointer, or framing.

    Pointers carry only their source index.  Open/close symbols carry the
    label so close brackets are label-specific.  The bracket family follows
    the label: ``IN:`` / ``SL:`` labels render as ``[LABEL`` ... ``LABEL]``,
    all others as ``LABEL(`` ... ``)LABEL``.
    """

    sym: SymKind
    label: Optional[str] = None
    index: Optional[int] = None

    def surface(self) -> str:
        k = self.sym
        if k is SymKind.POINTER:
            return f"@ptr_{self.index}"
        if k in _SPECIAL_SURFACE:
            return _SPECIAL_SURFACE[k]
        if k is SymKind.INTENT_TAG:
            return self.label
        square = _is_tree_label(self.label)
        if k in (SymKind.INTENT_OPEN, SymKind.SLOT_OPEN):
            return "[" + self.label if square else self.label + "("
        return self.label + "]" if square else ")" + self.label

    def __repr__(self) -> str:
        return f"TargetSymbol({self.surface()!r})"


def intent_tag(name: str) -> TargetSymbol:
    return TargetSymbol(SymKind.INTENT_TAG, label=name)


def intent_open(name: str) -> TargetSymbol:
    return TargetSymbol(SymKind.INTENT_OPEN, label=name)


def intent_close(name: str) -> TargetSymbol:
    return TargetSymbol(SymKind.INTENT_CLOSE, label=name)


def slot_open(name: str) -> TargetSymbol:
    return TargetSymbol(SymKind.SLOT_OPEN, label=name)


def slot_close(name: str) -> TargetSymbol:
    return TargetSymbol(SymKind.SLOT_CLOSE, label=name)


def pointer(i: int) -> TargetSymbol:
    return TargetSymbol(SymKind.POINTER, index=i)


BOS = TargetSymbol(SymKind.BOS)
EOS = TargetSymbol(SymKind.EOS)
PAD = TargetSymbol(SymKind.PAD)


def parse_symbol(text: str) -> TargetSymbol:
    """Read one symbol back from its surface form."""
    for kind, surf in _SPECIAL_SURFACE.items():
        if text == surf:
            return TargetSymbol(kind)
    if text.startswith("@ptr_"):
        try:
            return pointer(int(text[5:]))
        except ValueError:
            raise BadSymbol(f"bad pointer symbol {text!r}") from None
    if text.startswith("["):
        label = text[1:]
        if not label:
            raise BadSymbol("empty bracket symbol")
        return intent_open(label) if label.startswith("IN:") else slot_open(label)
    if text.endswith("]"):
        label = text[:-1]
        if not label:
            raise BadSymbol("empty bracket symbol")
        return intent_close(label) if label.startswith("IN:") else slot_close(label)
    if text.endswith("("):
        if len(text) == 1:
            raise BadSymbol("empty bracket symbol")
        return slot_open(text[:-1])
    if text.startswith(")"):
        if len(text) == 1:
            raise BadSymbol("empty bracket symbol")
        return slot_close(text[1:])
    if not text:
        raise BadSymbol("empty symbol")
    return intent_tag(text)


@dataclass(frozen=True)
class TargetSequence:
    """Linearized parse: parse symbols interleaved with pointer tokens."""

    symbols: tuple[TargetSymbol, ...]

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[TargetSymbol]:
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def to_string(self) -> str:
        return " ".join(s.surface() for s in self.symbols)

    @classmethod
    def from_string(cls, text: str) -> "TargetSequence":
        return cls(tuple(parse_symbol(tok) for tok in text.split()))

    def strip_framing(self) -> "TargetSequence":
        """Drop BOS/EOS/PAD symbols (used before exact-match comparison)."""
        keep = (SymKind.BOS, SymKind.EOS, SymKind.PAD)
        return TargetSequence(tuple(s for s in self.symbols if s.sym not in keep))


def linearize(parse: SemanticParse, query: Union[Query, int]) -> TargetSequence:
    """Serialize a valid parse into its target sequence (no BOS/EOS framing).

    Flat parses emit the intent tag then each slot as an open bracket, its
    pointers in ascending order, and the matching close.  Tree parses emit a
    pre-order traversal with direct pointers and subtrees interleaved in
    source order.  Span sets emit one bracketed group per annotation, sorted
    by (first index, label).

    A parse is valid exactly when its linearization reads back to it:
    ``delinearize(linearize(p, n), n, p.style) == p``.  The sequence readers
    own each style's structural rules (non-empty, contiguous, disjoint and
    ordered spans, bracket kinds and their alternation), so only what a
    sequence cannot show is checked on the parse itself, in this order:
    every index lies in ``range(n)`` (else IndexOutOfRange), every label is
    legal (non-empty, no bracket, whitespace or leading ``@``, and not the
    surface of BOS, EOS or PAD), tree labels carry their kind's ``IN:`` /
    ``SL:`` prefix while flat and span-set labels carry neither, and span-set
    annotations are sorted by (first index, label, indices).  Every defect
    raises StyleViolation.
    """
    n = len(query.tokens) if isinstance(query, Query) else int(query)
    root, style = parse.root, parse.style
    nodes = list(root.walk())
    for node in nodes:
        for i in node.token_indices:
            if not 0 <= i < n:
                raise IndexOutOfRange(f"token index {i} outside source of length {n}")
    for node in nodes:
        if style is Style.SPANSET and node is root:
            continue
        _check_label(node.label)
        if style is Style.TREE:
            prefix = "IN:" if node.kind is Kind.INTENT else "SL:"
            if not node.label.startswith(prefix):
                raise StyleViolation(f"tree {node.kind.value} label {node.label!r} must start with {prefix}")
        elif _is_tree_label(node.label):
            raise StyleViolation(f"{style.value} label {node.label!r} must not carry an IN:/SL: prefix")
    out: list[TargetSymbol] = []
    if style is Style.TREE:
        _emit_tree(root, out)
    else:
        if style is Style.FLAT:
            out.append(intent_tag(root.label))
        else:
            keys = [(ann.token_indices[:1], ann.label, ann.token_indices) for ann in root.children]
            if keys != sorted(keys):
                raise StyleViolation("annotations must be sorted by (first index, label)")
        for span in root.children:
            out.append(slot_open(span.label))
            out.extend(pointer(i) for i in span.token_indices)
            out.append(slot_close(span.label))
    seq = TargetSequence(tuple(out))
    try:
        read_back = delinearize(seq, n, style)
    except Malformed as exc:
        raise StyleViolation(str(exc)) from exc
    if read_back != parse:
        raise StyleViolation(f"{style.value} parse does not read back from its linearization")
    return seq


def _emit_tree(node: ParseNode, out: list[TargetSymbol]) -> None:
    opener = intent_open if node.kind is Kind.INTENT else slot_open
    closer = intent_close if node.kind is Kind.INTENT else slot_close
    out.append(opener(node.label))
    items: list[tuple[int, Optional[ParseNode]]] = [(i, None) for i in node.token_indices]
    # An empty child sorts first; the reader reports it as EMPTY_SPAN.
    items += [(min(child.coverage(), default=-1), child) for child in node.children]
    for pos, child in sorted(items, key=lambda kv: kv[0]):
        if child is None:
            out.append(pointer(pos))
        else:
            _emit_tree(child, out)
    out.append(closer(node.label))


def delinearize(
    target: TargetSequence, query: Union[Query, int], style: Style
) -> SemanticParse:
    """Rebuild the parse from a target sequence; raise Malformed otherwise.

    Accepts arbitrary model output, so every structural defect maps to a
    Malformed diagnostic rather than an assertion.  Inside span-set brackets
    pointer order is not enforced (indices are treated as a set); flat and
    tree styles require source order.
    """
    n = len(query.tokens) if isinstance(query, Query) else int(query)
    if style is Style.FLAT:
        root = _read_flat(target, n)
    elif style is Style.TREE:
        root = _read_tree(target, n)
    else:
        root = _read_spanset(target, n)
    return SemanticParse(root=root, style=style)


def _want_pointer_in_range(symbol: TargetSymbol, n: int) -> int:
    i = symbol.index
    if not 0 <= i < n:
        raise Malformed(Violation.POINTER_OUT_OF_RANGE, f"@ptr_{i} with source length {n}")
    return i


def _read_span(syms, pos: int, n: int, contiguous: bool) -> tuple[str, list[int], int]:
    """Read the ``label( @ptr ... )label`` group at ``pos``: its label, its
    pointer indices in emission order, and the position after its close.
    With ``contiguous`` each pointer must follow its predecessor by one."""
    head = syms[pos]
    if head.sym is not SymKind.SLOT_OPEN or _is_tree_label(head.label):
        raise Malformed(Violation.UNEXPECTED_SYMBOL, f"expected a label( bracket, got {head.surface()!r}")
    pos += 1
    indices: list[int] = []
    while pos < len(syms) and syms[pos].sym is SymKind.POINTER:
        i = _want_pointer_in_range(syms[pos], n)
        if contiguous and indices and i != indices[-1] + 1:
            raise Malformed(Violation.NON_CONTIGUOUS_SPAN, f"{head.label} pointers not consecutive")
        indices.append(i)
        pos += 1
    if not indices:
        raise Malformed(Violation.EMPTY_SPAN, f"{head.label} has no pointers")
    if pos >= len(syms) or syms[pos].sym is not SymKind.SLOT_CLOSE:
        raise Malformed(Violation.UNBALANCED_BRACKET, f"{head.label} never closed")
    if syms[pos].label != head.label:
        raise Malformed(Violation.MISMATCHED_CLOSE_LABEL, f"{head.label} closed by {syms[pos].surface()!r}")
    return head.label, indices, pos + 1


def _read_flat(target: TargetSequence, n: int) -> ParseNode:
    syms = target.symbols
    if not syms or syms[0].sym is not SymKind.INTENT_TAG:
        raise Malformed(Violation.MISSING_INTENT, "flat target must start with an intent tag")
    slots: list[ParseNode] = []
    prev_end = -1
    pos = 1
    while pos < len(syms):
        label, indices, pos = _read_span(syms, pos, n, contiguous=True)
        if indices[0] <= prev_end:
            raise Malformed(Violation.OUT_OF_ORDER, "slots overlap or are out of source order")
        prev_end = indices[-1]
        slots.append(ParseNode(label, Kind.SLOT, tuple(indices)))
    return ParseNode(syms[0].label, Kind.INTENT, (), tuple(slots))


def _read_tree(target: TargetSequence, n: int) -> ParseNode:
    syms = target.symbols
    if not syms or syms[0].sym is not SymKind.INTENT_OPEN:
        raise Malformed(Violation.MISSING_INTENT, "tree target must start with an intent bracket")
    # Each frame: (open symbol, direct indices, children, item starts in emission order)
    stack: list[tuple[TargetSymbol, list[int], list[ParseNode], list[int]]] = []
    root: Optional[ParseNode] = None
    # The root opens first and nothing may follow its close: the stack is never empty below.
    for pos, sym in enumerate(syms):
        if root is not None:
            raise Malformed(Violation.TRAILING_SYMBOLS, f"symbols after root close at position {pos}")
        if sym.sym in (SymKind.INTENT_OPEN, SymKind.SLOT_OPEN):
            if not _is_tree_label(sym.label):
                raise Malformed(Violation.UNEXPECTED_SYMBOL, f"non-tree bracket {sym.surface()!r}")
            if stack:
                want = SymKind.SLOT_OPEN if stack[-1][0].sym is SymKind.INTENT_OPEN else SymKind.INTENT_OPEN
                if sym.sym is not want:
                    raise Malformed(Violation.UNEXPECTED_SYMBOL, f"{sym.surface()!r} does not alternate with its parent")
            stack.append((sym, [], [], []))
        elif sym.sym is SymKind.POINTER:
            i = _want_pointer_in_range(sym, n)
            stack[-1][1].append(i)
            stack[-1][3].append(i)
        elif sym.sym in (SymKind.INTENT_CLOSE, SymKind.SLOT_CLOSE):
            opener, direct, children, starts = stack.pop()
            open_kind = SymKind.INTENT_OPEN if sym.sym is SymKind.INTENT_CLOSE else SymKind.SLOT_OPEN
            if opener.sym is not open_kind or opener.label != sym.label:
                raise Malformed(
                    Violation.MISMATCHED_CLOSE_LABEL,
                    f"{opener.surface()!r} closed by {sym.surface()!r}",
                )
            node = _finish_tree_node(opener, direct, children, starts)
            if stack:
                stack[-1][2].append(node)
                stack[-1][3].append(min(node.coverage()))
            else:
                root = node
        else:
            raise Malformed(Violation.UNEXPECTED_SYMBOL, f"{sym.surface()!r} in tree target")
    if root is None:
        raise Malformed(Violation.UNBALANCED_BRACKET, "target ended with open brackets")
    return root


def _finish_tree_node(
    opener: TargetSymbol, direct: list[int], children: list[ParseNode], starts: list[int]
) -> ParseNode:
    if not direct and not children:
        raise Malformed(Violation.EMPTY_SPAN, f"{opener.surface()!r} covers no tokens")
    kind = Kind.INTENT if opener.sym is SymKind.INTENT_OPEN else Kind.SLOT
    node = ParseNode(opener.label, kind, tuple(direct), tuple(children))
    cov = sorted(node.coverage())
    count = len(node.token_indices) + sum(len(c.coverage()) for c in children)
    if count != len(cov):
        raise Malformed(Violation.OVERLAPPING_SPANS, f"{opener.label} covers a token twice")
    if cov[-1] - cov[0] + 1 != len(cov):
        raise Malformed(Violation.NON_CONTIGUOUS_SPAN, f"coverage of {opener.label} has gaps")
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise Malformed(Violation.OUT_OF_ORDER, f"contents of {opener.label} not in source order")
    return node


def _read_spanset(target: TargetSequence, n: int) -> ParseNode:
    syms = target.symbols
    anns: list[ParseNode] = []
    pos = 0
    while pos < len(syms):
        label, indices, pos = _read_span(syms, pos, n, contiguous=False)
        anns.append(ParseNode(label, Kind.SLOT, tuple(indices)))
    return ParseNode("", Kind.GROUP, (), tuple(anns))


@dataclass
class WellFormedness:
    """Outcome of checking a sequence against a style's bracket grammar."""

    ok: bool
    violations: list[Violation] = field(default_factory=list)
    detail: Optional[str] = None


def validate(target: TargetSequence, n: int, style: Style) -> WellFormedness:
    """Total function: true plus no violations iff delinearize would succeed."""
    try:
        delinearize(target, n, style)
    except Malformed as exc:
        return WellFormedness(ok=False, violations=[exc.violation], detail=exc.message)
    return WellFormedness(ok=True)
