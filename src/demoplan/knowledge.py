"""Verb-object co-occurrence knowledge from a plain-text sentence corpus.

Sentences like "pick the apple" or "push the pear to the white plate"
describe how people act on household objects. Counting which objects appear
in sentences about each action gives a conditional model P(object | action)
that lets a planner decide, for example, that the banana goes into the plate
and not the other way around.

Counting is by sentence presence: one sentence contributes at most one count
per (action, object) pair no matter how often the object is repeated.

select_single_object takes the first of rank_candidates for any action;
planner.CONTRACTS, not this module, says how many objects a step binds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .actions import ActionPrimitive
from .jsondoc import array, load_json, primitive, record, text

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")


@dataclass(frozen=True)
class Lexicon:
    """Surface-verb mapping plus the object vocabulary the parser can match.

    Object names may span several tokens ("white plate") or carry internal
    hyphens ("black-bottle"); matching is greedy, longest phrase first.
    containers, a subset of objects, are the classes a place or tilt may target.
    """

    verbs: Mapping[str, ActionPrimitive]
    objects: frozenset[str]
    containers: frozenset[str] = frozenset()
    max_phrase_len: int = field(init=False, repr=False, compare=False)  # tokens in the longest object name

    def __post_init__(self) -> None:
        object.__setattr__(self, "verbs", dict(self.verbs))
        object.__setattr__(self, "objects", frozenset(self.objects))
        object.__setattr__(self, "max_phrase_len", max((len(o.split()) for o in self.objects), default=1))


@dataclass
class CooccurrenceModel:
    """Sentence-presence counts N(action, object) with per-action totals, and the lexicon's containers."""

    counts: dict[ActionPrimitive, dict[str, int]] = field(default_factory=dict)
    containers: frozenset[str] = frozenset()

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
        return cls(counts=table)


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
    most once for that sentence; a sentence with no pair adds nothing. A
    corpus that yields no pair, empty or not, is a ValueError, which the CLI
    reports as exit 2 with one line.
    """
    model = CooccurrenceModel(containers=lex.containers)
    for line in corpus:
        for action, obj in set(parse_sentence(line, lex)):
            table = model.counts.setdefault(action, {})
            table[obj] = table.get(obj, 0) + 1
    if not model.counts:
        raise ValueError("no sentence in the corpus produced an (action, object) pair")
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
    """Argmax of P(obj | action) over the detected set, for any action.

    Ties break toward the lexicographically smaller name. When every detected
    object has zero probability the lexicographically smallest is returned
    flagged low confidence, so a plan can proceed rather than deadlock. An
    empty detected set is a ValueError.
    """
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
    """Read a lexicon; its required containers must each be one of its objects, compared lowercased."""
    doc = record(load_json(path, "lexicon"), "lexicon", ("verbs", "objects", "containers"))
    table = record(doc["verbs"], "lexicon verbs")
    spelled: dict[str, str] = {}
    for v in table:
        if spelled.setdefault(v.lower(), v) != v:
            raise ValueError(f"lexicon verbs {spelled[v.lower()]!r} and {v!r} differ only in case")
    verbs = {v.lower(): primitive(p, f"lexicon verb {v!r}") for v, p in table.items()}
    objects = frozenset(text(o, "lexicon object").lower() for o in array(doc["objects"], "lexicon objects"))
    containers = frozenset(text(c, "lexicon container").lower() for c in array(doc["containers"], "lexicon containers"))
    if not containers <= objects:
        raise ValueError(f"lexicon container {min(containers - objects)!r} is not a lexicon object")
    return Lexicon(verbs=verbs, objects=objects, containers=containers)


def stats_tsv(model: CooccurrenceModel) -> str:
    """Render the count table as TSV rows: action, object, count."""
    lines = ["action\tobject\tcount"]
    for action in sorted(model.counts, key=lambda a: a.value):
        table = model.counts[action]
        for obj in sorted(table):
            lines.append(f"{action.value}\t{obj}\t{table[obj]}")
    return "\n".join(lines) + "\n"
