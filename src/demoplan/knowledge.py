"""Verb-object co-occurrence knowledge from a plain-text sentence corpus.

Sentences like "pick the apple" or "push the pear to the white plate"
describe how people act on household objects. Counting which objects appear
in sentences about each action gives a conditional model P(object | action)
that lets a planner decide, for example, that the banana goes into the plate
and not the other way around.

Counting is by sentence presence: one sentence contributes at most one count
per (action, object) pair no matter how often the object is repeated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .actions import ActionPrimitive
from .jsondoc import array, load_json, primitive, record, text

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")

SINGLE_OBJECT_ACTIONS = (ActionPrimitive.PICK, ActionPrimitive.PLACE, ActionPrimitive.ROTATE)


class EmptyModelError(ValueError):
    """Raised when a corpus yields no parseable (action, object) pairs."""


@dataclass(frozen=True)
class Lexicon:
    """Surface-verb mapping plus the object vocabulary the parser can match.

    Object names may span several tokens ("white plate") or carry internal
    hyphens ("black-bottle"); matching is greedy, longest phrase first.
    """

    verbs: Mapping[str, ActionPrimitive]
    objects: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "verbs", dict(self.verbs))
        object.__setattr__(self, "objects", frozenset(self.objects))

    @property
    def max_phrase_len(self) -> int:
        return max((len(o.split()) for o in self.objects), default=1)


@dataclass
class CooccurrenceModel:
    """Sentence-presence counts N(action, object) with per-action totals."""

    counts: dict[ActionPrimitive, dict[str, int]] = field(default_factory=dict)
    sentence_count: int = 0
    skipped_sentences: int = 0

    def action_total(self, action: ActionPrimitive) -> int:
        return sum(self.counts.get(action, {}).values())

    def count(self, action: ActionPrimitive, obj: str) -> int:
        return self.counts.get(action, {}).get(obj, 0)

    def objects(self) -> frozenset[str]:
        seen: set[str] = set()
        for table in self.counts.values():
            seen.update(table)
        return frozenset(seen)

    @classmethod
    def from_counts(cls, counts: Mapping[ActionPrimitive, Mapping[str, int]]) -> "CooccurrenceModel":
        table = {a: dict(objs) for a, objs in counts.items()}
        for a, objs in table.items():
            for o, n in objs.items():
                if n < 0:
                    raise ValueError(f"negative count for ({a.value}, {o})")
        return cls(counts=table, sentence_count=0, skipped_sentences=0)


def parse_sentence(line: str, lex: Lexicon) -> list[tuple[ActionPrimitive, str]]:
    """Extract (action, object) pairs from one sentence.

    The line is lowercased and tokenized; recognized verbs set the current
    action, and every vocabulary object mentioned after a verb (up to the
    next verb) pairs with it. Lines with no recognized verb or object yield
    an empty list.
    """
    tokens = _TOKEN_RE.findall(line.lower())
    pairs: list[tuple[ActionPrimitive, str]] = []
    current: ActionPrimitive | None = None
    i = 0
    n = len(tokens)
    max_len = lex.max_phrase_len
    while i < n:
        token = tokens[i]
        if token in lex.verbs:
            current = lex.verbs[token]
            i += 1
            continue
        matched = None
        if current is not None:
            for length in range(min(max_len, n - i), 0, -1):
                phrase = " ".join(tokens[i : i + length])
                if phrase in lex.objects:
                    matched = phrase
                    break
        if matched is not None:
            pairs.append((current, matched))
            i += len(matched.split())
        else:
            i += 1
    return pairs


def build_model(corpus: Sequence[str], lex: Lexicon) -> CooccurrenceModel:
    """Accumulate sentence-presence counts over a corpus.

    Each (action, object) pair found in a sentence increments its count at
    most once for that sentence. Unparseable sentences are skipped and
    tallied; a corpus with zero parseable sentences raises EmptyModelError.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    model = CooccurrenceModel()
    for line in corpus:
        pairs = set(parse_sentence(line, lex))
        model.sentence_count += 1
        if not pairs:
            model.skipped_sentences += 1
            continue
        for action, obj in pairs:
            table = model.counts.setdefault(action, {})
            table[obj] = table.get(obj, 0) + 1
    if model.skipped_sentences == model.sentence_count:
        raise EmptyModelError("no sentence in the corpus produced an (action, object) pair")
    return model


def conditional_probability(model: CooccurrenceModel, obj: str, action: ActionPrimitive) -> float:
    """P(obj | action) = N(action, obj) / N(action); 0 when the action is unseen."""
    total = model.action_total(action)
    if total == 0:
        return 0.0
    return model.count(action, obj) / total


def rank_candidates(model: CooccurrenceModel, action: ActionPrimitive, candidates: Iterable[str]) -> list[str]:
    """The distinct candidates ordered by (-N(action, obj), name).

    This is the one selection order: P(obj | action) = N(action, obj) / N(action)
    ranks objects as their counts do, and equal counts fall back to the
    lexicographically smaller name. A choice of the first k candidates is low
    confidence when the k-th has no count.
    """
    return sorted(set(candidates), key=lambda o: (-model.count(action, o), o))


@dataclass(frozen=True)
class SingleChoice:
    name: str
    low_confidence: bool = False


def select_single_object(
    model: CooccurrenceModel,
    action: ActionPrimitive,
    detected: Iterable[str],
) -> SingleChoice:
    """Argmax of P(obj | action) over the detected set for one-object actions.

    Ties break toward the lexicographically smaller name. When every detected
    object has zero probability the lexicographically smallest is returned
    flagged low confidence, so a plan can proceed rather than deadlock.
    """
    if action not in SINGLE_OBJECT_ACTIONS:
        raise ValueError(f"{action.value} is not a one-object action")
    ranked = rank_candidates(model, action, detected)
    if not ranked:
        raise ValueError("detected set must be non-empty")
    return SingleChoice(name=ranked[0], low_confidence=model.count(action, ranked[0]) == 0)


def load_corpus(path: str | Path) -> list[str]:
    """Read a sentence-per-line corpus; blank lines and '#' comments ignored."""
    sentences: list[str] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"corpus line {lineno} is not valid UTF-8") from None
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            sentences.append(line)
    return sentences


def load_lexicon(path: str | Path) -> Lexicon:
    doc = record(load_json(path, "lexicon"), "lexicon")
    verbs = {v.lower(): primitive(p, f"lexicon verb {v!r}") for v, p in record(doc["verbs"], "lexicon verbs").items()}
    objects = frozenset(text(o, "lexicon object").lower() for o in array(doc["objects"], "lexicon objects"))
    return Lexicon(verbs=verbs, objects=objects)


def stats_tsv(model: CooccurrenceModel) -> str:
    """Render the count table as TSV rows: action, object, count."""
    lines = ["action\tobject\tcount"]
    for action in sorted(model.counts, key=lambda a: a.value):
        table = model.counts[action]
        for obj in sorted(table):
            lines.append(f"{action.value}\t{obj}\t{table[obj]}")
    return "\n".join(lines) + "\n"
