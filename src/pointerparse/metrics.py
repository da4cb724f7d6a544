"""Prediction scoring: exact match, intent accuracy, well-formedness rate.

Exact match compares linearized symbol sequences after stripping BOS/EOS/PAD
framing; for deterministic linearization this equals tree equality.  Intent
accuracy only applies to styles with an intent root, so a corpus of span-set
annotations reports it as None (not applicable) rather than zero.  A report
also breaks exact match and well-formedness down by style and counts each
kind of well-formedness violation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from .linearize import Style, SymKind, TargetSequence, Violation, validate


class LengthMismatch(ValueError):
    pass


def exact_match(pred: TargetSequence, gold: TargetSequence) -> bool:
    """Symbol-for-symbol equality after removing BOS/EOS/PAD."""
    return pred.strip_framing().symbols == gold.strip_framing().symbols


def intent_of(seq: TargetSequence) -> Optional[str]:
    """The parse's intent: its first symbol, when that symbol is an intent."""
    stripped = seq.strip_framing()
    if not len(stripped):
        return None
    head = stripped[0]
    if head.sym in (SymKind.INTENT_TAG, SymKind.INTENT_OPEN):
        return head.label
    return None


def first_divergence(pred: TargetSequence, gold: TargetSequence) -> Optional[int]:
    """Position of the first differing symbol, or None when equal."""
    a = pred.strip_framing().symbols
    b = gold.strip_framing().symbols
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


@dataclass
class ExampleRecord:
    index: int
    style: Style
    exact: bool
    well_formed: bool
    intent_match: Optional[bool]  # None for styles without an intent root
    first_divergence: Optional[int]
    violations: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {**asdict(self), "style": self.style.value}


def _rates(records: Sequence[ExampleRecord]) -> dict:
    """``examples``, ``em_accuracy`` and ``well_formed_rate`` over ``records``;
    both rates read 0.0 over no records."""
    total = len(records)
    return {
        "examples": total,
        "em_accuracy": sum(r.exact for r in records) / total if total else 0.0,
        "well_formed_rate": sum(r.well_formed for r in records) / total if total else 0.0,
    }


@dataclass
class EvalReport:
    em_accuracy: float
    intent_accuracy: Optional[float]
    well_formed_rate: float
    records: list[ExampleRecord]

    def to_json(self) -> dict:
        """The headline figures, the same per style (for the styles present),
        and how often each violation kind occurred over all examples."""
        by_style: dict[str, list[ExampleRecord]] = {}
        for r in self.records:
            by_style.setdefault(r.style.value, []).append(r)
        violations = dict.fromkeys((v.value for v in Violation), 0)
        for r in self.records:
            for kind in r.violations:
                violations[kind] += 1
        return {
            "em_accuracy": self.em_accuracy,
            "intent_accuracy": self.intent_accuracy,
            "well_formed_rate": self.well_formed_rate,
            "examples": len(self.records),
            "by_style": {style: _rates(rs) for style, rs in by_style.items()},
            "violations": violations,
        }


def evaluate(
    predictions: Sequence[Optional[TargetSequence]],
    references: Sequence[TargetSequence],
    lengths: Sequence[int],
    styles: Sequence[Style],
) -> EvalReport:
    """Score aligned prediction/reference lists.

    ``lengths`` are the source lengths (pointer range for well-formedness);
    ``styles`` has one style per example.  A prediction of None, a query
    with no result, is a miss: not exact and not well-formed, with no
    violation, diverging at position 0 and matching no intent.
    References are assumed well-formed, which makes em <= well_formed_rate.
    """
    if len(predictions) != len(references) or len(predictions) != len(lengths):
        raise LengthMismatch(
            f"{len(predictions)} predictions, {len(references)} references, "
            f"{len(lengths)} lengths"
        )
    if len(styles) != len(predictions):
        raise LengthMismatch(f"{len(styles)} styles for {len(predictions)} predictions")

    records = []
    for i, (pred, gold, n, style) in enumerate(zip(predictions, references, lengths, styles)):
        intent_match: Optional[bool] = None
        if style is not Style.SPANSET:
            gold_intent = intent_of(gold)
            intent_match = pred is not None and intent_of(pred) == gold_intent and gold_intent is not None
        if pred is None:
            records.append(ExampleRecord(i, style, False, False, intent_match, 0))
            continue
        report = validate(pred.strip_framing(), n, style)
        records.append(
            ExampleRecord(
                index=i,
                style=style,
                exact=exact_match(pred, gold),
                well_formed=report.ok,
                intent_match=intent_match,
                first_divergence=first_divergence(pred, gold),
                violations=[v.value for v in report.violations],
            )
        )
    headline = _rates(records)
    intents = [r.intent_match for r in records if r.intent_match is not None]
    return EvalReport(
        em_accuracy=headline["em_accuracy"],
        intent_accuracy=sum(intents) / len(intents) if intents else None,
        well_formed_rate=headline["well_formed_rate"],
        records=records,
    )
