"""Corpus formats and the deterministic synthetic grammar.

Canonical corpus files are JSON lines, one object per example::

    {"query": "...", "style": "flat|tree|spanset",
     "parse": {"label": ..., "kind": ..., "indices": [...], "children": [...]}}

Importers exist for BIO-tagged slot-filling triples (tokens/tags/labels, one
sentence per line) and for TSV files carrying bracketed hierarchical
annotations with inline terminals.  The synthetic grammar generates a mixed
flat/tree/spanset corpus from templated utterances, deterministically from a
seed, with train/dev/test splits disjoint in surface strings.
"""

from __future__ import annotations

import json
import re
import sys
import unicodedata
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .linearize import (
    Kind,
    ParseNode,
    Query,
    SemanticParse,
    Style,
    linearize,
)


class DataError(ValueError):
    pass


class MisalignedFiles(DataError):
    pass


class IllegalTagTransition(DataError):
    pass


class BracketParseError(DataError):
    pass


class AlignmentError(DataError):
    pass


class LexiconTooSmall(DataError):
    pass


@dataclass(frozen=True)
class CorpusExample:
    query: Query
    parse: SemanticParse

    @property
    def style(self) -> Style:
        return self.parse.style


def node_to_json(node: ParseNode) -> dict:
    return {
        "label": node.label,
        "kind": node.kind.value,
        "indices": list(node.token_indices),
        "children": [node_to_json(c) for c in node.children],
    }


def enum_from_json(enum: type[Enum], value):
    """``enum(value)``, or DataError naming the values ``enum`` allows."""
    try:
        return enum(value)
    except ValueError:
        allowed = ", ".join(member.value for member in enum)
        raise DataError(f"unknown {enum.__name__.lower()} {value!r}; expected one of {allowed}") from None


def json_field(obj: dict, key: str, kind: type):
    """``obj[key]``, or DataError unless it is a ``kind`` (a bool is no int)."""
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise DataError(f"{key!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


def node_from_json(obj: dict) -> ParseNode:
    if not isinstance(obj, dict):
        raise DataError(f"a parse node must be a JSON object, got {obj!r}")
    indices = obj.get("indices", [])
    if not isinstance(indices, list) or not all(type(i) is int for i in indices):
        raise DataError(f"'indices' must be a list of integers, got {indices!r}")
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise DataError(f"'children' must be a list, got {children!r}")
    return ParseNode(
        label=json_field(obj, "label", str),
        kind=enum_from_json(Kind, obj["kind"]),
        token_indices=tuple(indices),
        children=tuple(node_from_json(c) for c in children),
    )


def example_to_json(example: CorpusExample) -> dict:
    return {
        "query": example.query.raw,
        "style": example.style.value,
        "parse": node_to_json(example.parse.root),
    }


def example_from_json(obj: dict) -> CorpusExample:
    return CorpusExample(
        query=Query.from_text(json_field(obj, "query", str)),
        parse=SemanticParse(node_from_json(obj["parse"]), enum_from_json(Style, obj["style"])),
    )


def dumps_canonical(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def write_jsonl(path, examples: Iterable[CorpusExample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(dumps_canonical(example_to_json(ex)) + "\n")


_SURROGATE = re.compile("[\ud800-\udfff]")


def json_lines(path) -> Iterator[dict]:
    """The JSON object on each non-blank line of a file, or of stdin.

    No string may hold a lone surrogate, which no output can encode: a
    ``\\u`` escape can spell one, and stdin read with ``surrogateescape``
    holds one for each byte that is not UTF-8.
    """
    source = open(path, encoding="utf-8") if path else sys.stdin
    try:
        for line in source:
            if line.strip():
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise DataError(f"each line must hold a JSON object, got {line.strip()!r}")
                if _SURROGATE.search(json.dumps(obj, ensure_ascii=False)):
                    raise DataError(f"a string holds a lone surrogate: {line.strip()!r}")
                yield obj
    finally:
        if path:
            source.close()


def read_jsonl(path) -> list[CorpusExample]:
    return [example_from_json(obj) for obj in json_lines(path)]


def corpus_stats(examples: Sequence[CorpusExample]) -> dict:
    intents: set[str] = set()
    slots: set[str] = set()
    styles: dict[str, int] = {}
    for ex in examples:
        styles[ex.style.value] = styles.get(ex.style.value, 0) + 1
        for node in ex.parse.root.walk():
            if node.kind is Kind.INTENT:
                intents.add(node.label)
            elif node.kind is Kind.SLOT:
                slots.add(node.label)
    return {
        "examples": len(examples),
        "intents": len(intents),
        "slots": len(slots),
        "styles": styles,
    }


# ---------------------------------------------------------------------------
# BIO slot-filling triples
# ---------------------------------------------------------------------------

def import_bio(tokens_path, tags_path, labels_path, policy: str = "reject") -> list[CorpusExample]:
    """Line-aligned BIO triple files into flat-style examples.

    ``policy`` decides what an I-tag without a matching B-tag does:
    ``"reject"`` raises IllegalTagTransition, ``"repair"`` reads it as a B.
    """
    if policy not in ("reject", "repair"):
        raise ValueError(f"unknown BIO policy {policy!r}")
    token_lines = Path(tokens_path).read_text(encoding="utf-8").splitlines()
    tag_lines = Path(tags_path).read_text(encoding="utf-8").splitlines()
    label_lines = Path(labels_path).read_text(encoding="utf-8").splitlines()
    if not len(token_lines) == len(tag_lines) == len(label_lines):
        raise MisalignedFiles(
            f"line counts differ: {len(token_lines)} tokens, "
            f"{len(tag_lines)} tags, {len(label_lines)} labels"
        )
    examples = []
    for row, (tok_line, tag_line, intent) in enumerate(zip(token_lines, tag_lines, label_lines), 1):
        query = Query.from_text(tok_line)
        tags = tag_line.split()
        if len(tags) != len(query.tokens):
            raise MisalignedFiles(f"line {row}: {len(query.tokens)} tokens but {len(tags)} tags")
        slots: list[ParseNode] = []
        span: list[int] = []
        span_label: Optional[str] = None

        def close_span():
            nonlocal span, span_label
            if span:
                slots.append(ParseNode(span_label, Kind.SLOT, tuple(span)))
            span, span_label = [], None

        for i, tag in enumerate(tags):
            if tag == "O":
                close_span()
            elif tag.startswith("B-"):
                close_span()
                span_label = tag[2:]
                span = [i]
            elif tag.startswith("I-"):
                if span and tag[2:] == span_label:
                    span.append(i)
                elif policy == "repair":
                    close_span()
                    span_label = tag[2:]
                    span = [i]
                else:
                    raise IllegalTagTransition(f"line {row}: {tag} at position {i} without B-{tag[2:]}")
            else:
                raise IllegalTagTransition(f"line {row}: unknown tag {tag!r}")
        close_span()
        parse = SemanticParse(ParseNode(intent.strip(), Kind.INTENT, (), tuple(slots)), Style.FLAT)
        linearize(parse, query)
        examples.append(CorpusExample(query, parse))
    return examples


def export_bio(examples: Sequence[CorpusExample]) -> tuple[list[str], list[str], list[str]]:
    """Inverse of import_bio for flat examples: (token, tag, label) lines."""
    token_lines, tag_lines, label_lines = [], [], []
    for ex in examples:
        if ex.style is not Style.FLAT:
            raise DataError("only flat examples have a BIO form")
        tags = ["O"] * len(ex.query.tokens)
        for slot in ex.parse.root.children:
            for j, idx in enumerate(slot.token_indices):
                tags[idx] = ("B-" if j == 0 else "I-") + slot.label
        token_lines.append(" ".join(ex.query.tokens))
        tag_lines.append(" ".join(tags))
        label_lines.append(ex.parse.root.label)
    return token_lines, tag_lines, label_lines


# ---------------------------------------------------------------------------
# Bracketed hierarchical annotations (TSV with inline terminals)
# ---------------------------------------------------------------------------

def parse_bracketed(annotation: str, query: Query, row: int = 0) -> ParseNode:
    """Read ``[IN:X terminal [SL:Y ...] ] `` syntax, aligning terminals
    left-to-right against the query tokens."""
    tokens = annotation.replace("]", " ] ").split()
    stack: list[tuple[str, Kind, list[int], list[ParseNode]]] = []
    cursor = 0
    root: Optional[ParseNode] = None
    for tok in tokens:
        if tok.startswith("["):
            label = tok[1:]
            if label.startswith("IN:"):
                kind = Kind.INTENT
            elif label.startswith("SL:"):
                kind = Kind.SLOT
            else:
                raise BracketParseError(f"row {row}: bracket label {label!r} lacks IN:/SL: prefix")
            if root is not None:
                raise BracketParseError(f"row {row}: trailing annotation after root closed")
            stack.append((label, kind, [], []))
        elif tok == "]":
            if not stack:
                raise BracketParseError(f"row {row}: unbalanced close bracket")
            label, kind, direct, children = stack.pop()
            node = ParseNode(label, kind, tuple(direct), tuple(children))
            if stack:
                stack[-1][3].append(node)
            else:
                root = node
        else:
            if not stack:
                raise BracketParseError(f"row {row}: terminal {tok!r} outside brackets")
            if cursor >= len(query.tokens):
                raise AlignmentError(f"row {row}: annotation has more terminals than the utterance")
            expected = unicodedata.normalize("NFC", tok)
            if expected != query.tokens[cursor]:
                raise AlignmentError(
                    f"row {row}: terminal {tok!r} does not match token "
                    f"{query.tokens[cursor]!r} at position {cursor}"
                )
            stack[-1][2].append(cursor)
            cursor += 1
    if stack or root is None:
        raise BracketParseError(f"row {row}: unbalanced open bracket")
    if cursor != len(query.tokens):
        raise AlignmentError(f"row {row}: annotation covers {cursor} of {len(query.tokens)} tokens")
    return root


def import_top(tsv_path, utterance_col: int = 0, parse_col: int = 1) -> list[CorpusExample]:
    """TSV rows with an utterance column and a bracketed-annotation column.

    Column indices are explicit because released files differ in layout.
    """
    examples = []
    with open(tsv_path, encoding="utf-8") as fh:
        for row, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if max(utterance_col, parse_col) >= len(cols):
                raise BracketParseError(f"row {row}: expected at least {max(utterance_col, parse_col) + 1} columns")
            query = Query.from_text(cols[utterance_col])
            root = parse_bracketed(cols[parse_col], query, row)
            parse = SemanticParse(root, Style.TREE)
            linearize(parse, query)
            examples.append(CorpusExample(query, parse))
    return examples


# ---------------------------------------------------------------------------
# Synthetic grammar
# ---------------------------------------------------------------------------

_PLACEHOLDER = re.compile(r"^\{([A-Za-z_][\w]*)(?::([\w]+))?\}$")


# Relative frequency of the flat, tree and span-set styles in a synthetic
# corpus, renormalized over the styles a grammar has templates for.
STYLE_WEIGHTS = (0.45, 0.35, 0.20)


@dataclass(frozen=True)
class SyntheticGrammar:
    """Templated utterance grammar with per-slot filler lexicons.

    Flat templates are ``(intent, pattern)`` where each ``{slot}`` or
    ``{slot:lexicon}`` placeholder becomes one slot span.  Tree templates use
    the bracketed annotation syntax with ``{lexicon}`` fillers as terminals.
    Spanset templates pair a pattern with annotations naming which
    placeholders each labeled set covers.
    """

    lexicons: dict[str, tuple[str, ...]]
    flat_templates: tuple[tuple[str, str], ...]
    tree_templates: tuple[str, ...]
    spanset_templates: tuple[tuple[str, tuple[tuple[str, tuple[str, ...]], ...]], ...]

    def styles_available(self) -> list[Style]:
        out = []
        if self.flat_templates:
            out.append(Style.FLAT)
        if self.tree_templates:
            out.append(Style.TREE)
        if self.spanset_templates:
            out.append(Style.SPANSET)
        return out


def default_grammar() -> SyntheticGrammar:
    lexicons = {
        "song": ("thunder road", "purple rain", "hey jude", "rolling in the deep",
                 "piano man", "take on me", "dancing queen", "sweet caroline",
                 "mr brightside", "wonderwall", "hallelujah", "vienna", "clocks",
                 "dreams", "landslide", "september"),
        "artist": ("springsteen", "prince", "adele", "the beatles", "billy joel",
                   "abba", "neil diamond", "the killers", "oasis", "coldplay",
                   "fleetwood mac", "earth wind and fire"),
        "city": ("boston", "seattle", "denver", "austin", "chicago", "portland",
                 "miami", "nashville", "tucson", "oakland", "memphis", "tulsa",
                 "fargo", "reno"),
        "restaurant": ("the rusty spoon", "casa verde", "lucky dragon", "blue olive",
                       "the corner bistro", "mamas kitchen", "the dockside grill",
                       "saffron table", "old mill diner", "the brass lantern",
                       "pepper and vine", "the tin roof"),
        "party_size": ("two", "three", "four", "five", "six", "seven", "eight"),
        "time": ("six am", "seven am", "noon", "five pm", "eight thirty",
                 "nine fifteen", "midnight", "ten pm", "quarter past four"),
        "item": ("milk", "eggs", "batteries", "coffee beans", "dog food",
                 "paper towels", "olive oil", "toothpaste", "apples", "rice",
                 "soap", "honey"),
        "list_name": ("grocery", "camping", "birthday", "hardware", "holiday", "weekend"),
        "rating": ("one", "two", "three", "four", "five"),
        "place": ("the airport", "union station", "the art museum", "city hall",
                  "the botanic garden", "pine street market", "the stadium",
                  "harbor point", "the public library", "maple park",
                  "the ferry terminal", "sunset pier", "the old courthouse",
                  "riverside plaza", "the observatory", "cedar grove"),
        "contact": ("maria", "devon", "priya", "carlos", "yuki", "amara",
                    "felix", "nadia", "omar", "ingrid", "tomas", "lena"),
        "food": ("sushi", "tacos", "ramen", "pizza", "falafel", "barbecue",
                 "pho", "curry", "dumpling", "bagel"),
        "event": ("jazz", "film", "craft", "comedy", "poetry", "science",
                  "dance", "book"),
        "diag_a": ("gi", "nasal", "oral", "rectal", "gastric", "renal"),
        "site": ("upper", "lower", "left", "right", "distal", "proximal"),
        "diag_b": ("bleed", "lesion", "swelling", "obstruction", "fracture"),
    }
    flat_templates = (
        ("play_music", "play {song_name:song} by {artist_name:artist}"),
        ("play_music", "play {song_name:song}"),
        ("get_weather", "what is the weather in {city}"),
        ("get_weather", "will it rain in {city}"),
        ("book_restaurant", "book a table at {restaurant} for {party_size} people"),
        ("book_restaurant", "reserve {restaurant} for {party_size}"),
        ("set_alarm", "set an alarm for {alarm_time:time}"),
        ("set_alarm", "wake me up at {alarm_time:time}"),
        ("add_to_list", "add {item} to my {list_name} list"),
        ("rate_item", "rate {item} {rating} stars"),
    )
    tree_templates = (
        "[IN:GET_DIRECTIONS directions to [SL:DESTINATION {place} ] ]",
        "[IN:GET_DIRECTIONS navigate to [SL:DESTINATION {place} ] ]",
        "[IN:GET_DIRECTIONS show me the way to [SL:DESTINATION {place} ] ]",
        "[IN:GET_DIRECTIONS directions to [SL:DESTINATION [IN:GET_LOCATION_HOME {contact} home ] ] ]",
        "[IN:GET_DIRECTIONS navigate to [SL:DESTINATION [IN:GET_LOCATION_HOME the home of {contact} ] ] ]",
        "[IN:GET_DISTANCE how far is [SL:DESTINATION {place} ] ]",
        "[IN:GET_DISTANCE what is the distance to [SL:DESTINATION {place} ] ]",
        "[IN:GET_DISTANCE how far is [SL:DESTINATION [IN:GET_RESTAURANT_LOCATION the {food} place ] ] ]",
        "[IN:GET_DISTANCE how far away is [SL:DESTINATION [IN:GET_RESTAURANT_LOCATION the {food} spot ] ] ]",
        "[IN:GET_EVENT find [SL:CATEGORY_EVENT {event} ] events near [SL:LOCATION {place} ] ]",
        "[IN:GET_EVENT what [SL:CATEGORY_EVENT {event} ] events are happening in [SL:LOCATION {city} ] ]",
        "[IN:GET_EVENT are there [SL:CATEGORY_EVENT {event} ] events in [SL:LOCATION {city} ] this weekend ]",
    )
    span_annotations = (("Diagnosis_Event", ("a", "b")), ("Body_Site", ("s",)))
    spanset_templates = (
        ("the pt was diagnosed with {a:diag_a} {s:site} {b:diag_b} today", span_annotations),
        ("notes indicate {a:diag_a} {s:site} {b:diag_b} this morning", span_annotations),
        ("chart shows {a:diag_a} {s:site} {b:diag_b} on admission", span_annotations),
        # Overlapping sets: the event covers all three fillers, the site one.
        ("imaging found {a:diag_a} {s:site} {b:diag_b} lesions",
         (("Diagnosis_Event", ("a", "s", "b")), ("Body_Site", ("s",)))),
    )
    return SyntheticGrammar(
        lexicons=lexicons,
        flat_templates=flat_templates,
        tree_templates=tree_templates,
        spanset_templates=spanset_templates,
    )


def _fill(pattern: str, rng: np.random.Generator, lexicons) -> tuple[list[str], dict[str, list[int]]]:
    """Expand placeholders; returns tokens and placeholder name -> positions."""
    tokens: list[str] = []
    spans: dict[str, list[int]] = {}
    for piece in pattern.split():
        m = _PLACEHOLDER.match(piece)
        if not m:
            tokens.append(piece)
            continue
        name, lex = m.group(1), m.group(2) or m.group(1)
        if lex not in lexicons:
            raise DataError(f"template references unknown lexicon {lex!r}")
        filler = lexicons[lex][rng.integers(len(lexicons[lex]))]
        words = filler.split()
        start = len(tokens)
        tokens.extend(words)
        spans[name] = list(range(start, start + len(words)))
    return tokens, spans


def _render_flat(grammar, rng) -> CorpusExample:
    intent, pattern = grammar.flat_templates[rng.integers(len(grammar.flat_templates))]
    tokens, spans = _fill(pattern, rng, grammar.lexicons)
    slots = [
        ParseNode(name, Kind.SLOT, tuple(positions)) for name, positions in spans.items()
    ]
    slots.sort(key=lambda s: s.token_indices[0])
    root = ParseNode(intent, Kind.INTENT, (), tuple(slots))
    return CorpusExample(Query.from_text(" ".join(tokens)), SemanticParse(root, Style.FLAT))


def _render_tree(grammar, rng) -> CorpusExample:
    template = grammar.tree_templates[rng.integers(len(grammar.tree_templates))]
    pieces, _ = _fill(template.replace("]", " ] "), rng, grammar.lexicons)
    query = Query.from_text(" ".join(p for p in pieces if not p.startswith("[") and p != "]"))
    root = parse_bracketed(" ".join(pieces), query)
    return CorpusExample(query, SemanticParse(root, Style.TREE))


def _render_spanset(grammar, rng) -> CorpusExample:
    pattern, annotations = grammar.spanset_templates[rng.integers(len(grammar.spanset_templates))]
    tokens, spans = _fill(pattern, rng, grammar.lexicons)
    anns = []
    for label, names in annotations:
        indices: list[int] = []
        for name in names:
            indices.extend(spans[name])
        anns.append(ParseNode(label, Kind.SLOT, tuple(indices)))
    anns.sort(key=lambda a: (a.token_indices[0], a.label, a.token_indices))
    root = ParseNode("", Kind.GROUP, (), tuple(anns))
    return CorpusExample(Query.from_text(" ".join(tokens)), SemanticParse(root, Style.SPANSET))


_RENDERERS = {
    Style.FLAT: _render_flat,
    Style.TREE: _render_tree,
    Style.SPANSET: _render_spanset,
}


def _renderer(grammar: SyntheticGrammar):
    """A function of an rng that renders one example of a style drawn by
    ``STYLE_WEIGHTS`` from the styles the grammar has."""
    styles = grammar.styles_available()
    if not styles:
        raise DataError("grammar has no templates")
    weights = np.array(
        [w for s, w in zip((Style.FLAT, Style.TREE, Style.SPANSET), STYLE_WEIGHTS) if s in styles],
        dtype=np.float64,
    )
    weights /= weights.sum()
    return lambda rng: _RENDERERS[styles[rng.choice(len(styles), p=weights)]](grammar, rng)


def sample_examples(grammar: SyntheticGrammar, count: int, seed: int) -> list[CorpusExample]:
    """Render ``count`` examples with surface repetition allowed.

    Used for property testing at volumes beyond the grammar's unique-surface
    capacity; corpus generation should use generate_synthetic instead.
    """
    render = _renderer(grammar)
    rng = np.random.default_rng(seed)
    return [render(rng) for _ in range(count)]


def generate_synthetic(
    grammar: SyntheticGrammar, count: int, seed: int
) -> dict[str, list[CorpusExample]]:
    """Deterministic corpus of ``count`` surface-unique examples, split 8/1/1.

    Raises LexiconTooSmall when the grammar cannot produce enough distinct
    surface strings for the requested count, and StyleViolation when a
    template renders a parse its style does not allow.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    render = _renderer(grammar)
    rng = np.random.default_rng(seed)
    unique: dict[str, CorpusExample] = {}
    stagnant = 0
    while len(unique) < count:
        if stagnant > 5000:
            raise LexiconTooSmall(
                f"only {len(unique)} distinct surface strings reachable; {count} requested"
            )
        example = render(rng)
        surface = example.query.raw
        if surface in unique:
            stagnant += 1
            continue
        linearize(example.parse, example.query)
        unique[surface] = example
        stagnant = 0
    items = list(unique.values())
    order = rng.permutation(len(items))
    shuffled = [items[int(i)] for i in order]
    n_eval = count // 10
    return {
        "test": shuffled[:n_eval],
        "dev": shuffled[n_eval : 2 * n_eval],
        "train": shuffled[2 * n_eval :],
    }
