"""Per-frame action primitive streams and the sliding-window mode filter.

A demonstration video is reduced upstream to one action primitive per frame.
That stream is noisy and over-segmented, so we extract the key action
sequence with a mode filter: slide a window over the stream, take the most
frequent primitive in each window, and append it to the output only when it
differs from the last appended key. Runs shorter than the window width are
suppressed; stable runs survive as single keys.

This module also ships a seeded synthetic stream generator so the filter can
be exercised without any recognition model in the loop.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain, count, islice
from pathlib import Path
from typing import Iterable, Sequence


class ActionPrimitive(str, Enum):
    """The closed set of seven primitives describing hand/end-effector activity.

    ``idle`` means no hand or end effector is present in the frame.
    """

    IDLE = "idle"
    MOVE = "move"
    PICK = "pick"
    PLACE = "place"
    PUSH = "push"
    TILT = "tilt"
    ROTATE = "rotate"

    @classmethod
    def parse(cls, token: str) -> "ActionPrimitive":
        """Parse an exact lowercase token; any other string is rejected."""
        try:
            return cls(token)
        except ValueError:
            raise ValueError(f"unknown action primitive {token!r}") from None


PRIMITIVES: tuple[ActionPrimitive, ...] = tuple(ActionPrimitive)
_BY_TOKEN = {p.value: p for p in PRIMITIVES}
_CHUNK_LINES = 256  # label lines per json.loads; keeps few records alive at once


@dataclass(frozen=True)
class PrimitiveStream:
    """A per-frame primitive sequence; index equals frame number from 0."""

    frames: tuple[ActionPrimitive, ...]

    def __post_init__(self) -> None:
        if len(self.frames) < 1:
            raise ValueError("stream must contain at least one frame")
        object.__setattr__(self, "frames", tuple(self.frames))

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class KeySequence:
    """Deduplicated key primitives; no two consecutive entries are equal."""

    keys: tuple[ActionPrimitive, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        for a, b in zip(self.keys, self.keys[1:]):
            if a == b:
                raise ValueError("key sequence has equal consecutive entries")

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        return iter(self.keys)


class LabelStreamError(ValueError):
    """Malformed label-stream file; carries the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def window_mode(window: Sequence[ActionPrimitive]) -> ActionPrimitive:
    """Most frequent primitive in the window.

    Ties are broken toward the primitive whose first occurrence in the
    window is latest. In a window straddling two runs the incoming run
    starts later, so tied boundary windows resolve to the newer primitive;
    this hysteresis stops the filter from flickering back and forth at run
    boundaries when frames are noisy. Deterministic and order-stable.
    """
    if not window:
        raise ValueError("window must be non-empty")
    counts: dict[ActionPrimitive, int] = {}
    for p in window:
        counts[p] = counts.get(p, 0) + 1
    best = None
    best_n = 0
    for p, n in counts.items():  # insertion order = first-occurrence order
        if n >= best_n:
            best, best_n = p, n
    assert best is not None
    return best


def window_filter(stream: PrimitiveStream, w: int) -> KeySequence:
    """Extract the key action sequence from a per-frame stream.

    Windows span w+1 consecutive frames {S_i, ..., S_{i+w}} and slide from
    i = 0 while i+w <= n-1. Each window's mode is appended to the output
    only when it differs from the last appended key. A stream of n <= w
    frames is processed as a single window, so the output then has exactly
    one key.
    """
    if w < 1:
        raise ValueError("window width must be >= 1")
    frames = stream.frames
    n = len(frames)
    if n <= w:
        return KeySequence((window_mode(frames),))
    # Running counts instead of a recount per window (Huang, Yang & Tang 1979;
    # Perreault & Hebert 2007). Each label keeps a deque of its positions
    # inside the window: the length is its count and the head its first
    # occurrence, so window_mode's winner is the largest (count, head). A
    # slide moves one frame out and one in; the mode needs a full rescan
    # only when one of its frames leaves and another label's enters.
    at = {p: deque() for p in dict.fromkeys(frames)}
    queues = list(at.values())
    label = {id(q): p for p, q in at.items()}
    for j in range(w + 1):
        at[frames[j]].append(j)
    keys = [window_mode(frames[: w + 1])]
    mq = at[keys[0]]
    slides = zip(map(at.__getitem__, frames), map(at.__getitem__, islice(frames, w + 1, None)))
    for j, (out, into) in enumerate(slides, start=w + 1):
        out.popleft()
        into.append(j)
        if out is mq and into is not mq:
            best = (0, 0)
            for q in queues:
                if q and (len(q), q[0]) > best:
                    best, mq = (len(q), q[0]), q
        elif into is not mq and (len(into), into[0]) > (len(mq), mq[0]):
            mq = into
        else:
            continue
        if label[id(mq)] != keys[-1]:
            keys.append(label[id(mq)])
    return KeySequence(tuple(keys))


def synthesize_stream(
    keys: KeySequence,
    frames_per_key: int,
    noise_rate: float,
    seed: int,
) -> PrimitiveStream:
    """Expand keys into a frame stream and corrupt it with label noise.

    Each key is repeated frames_per_key times in order; every frame is then
    independently replaced by a uniformly random different primitive with
    probability noise_rate. The generator is seeded, so identical arguments
    always produce the identical stream.
    """
    if not 0.0 <= noise_rate <= 1.0:
        raise ValueError("noise_rate must lie in [0, 1]")
    if frames_per_key < 1:
        raise ValueError("frames_per_key must be >= 1")
    if len(keys) == 0:
        raise ValueError("keys must be non-empty")
    rng = random.Random(seed)
    frames: list[ActionPrimitive] = []
    for key in keys:
        frames.extend([key] * frames_per_key)
    out: list[ActionPrimitive] = []
    for frame in frames:
        if rng.random() < noise_rate:
            others = [p for p in PRIMITIVES if p != frame]
            out.append(others[rng.randrange(len(others))])
        else:
            out.append(frame)
    return PrimitiveStream(tuple(out))


def load_label_stream(path: str | Path) -> PrimitiveStream:
    """Read a JSONL label stream: one {"frame": int, "label": str} per line.

    Frames must be contiguous ascending from 0. Raises LabelStreamError with
    the offending line number on any malformed record.
    """
    frames: list[ActionPrimitive] = []
    with open(path, "r", encoding="utf-8") as fh:
        for first in count(1, _CHUNK_LINES):
            block = list(islice(fh, _CHUNK_LINES))
            if not block:
                break
            if not _parse_block(block, frames):
                _parse_lines(chain(block, fh), first, frames)
                break
    if not frames:
        raise LabelStreamError(1, "label stream is empty")
    return PrimitiveStream(tuple(frames))


def _parse_block(block: list[str], frames: list[ActionPrimitive]) -> bool:
    """Append a block's labels read by one json.loads, or return False wherever _parse_lines could differ.

    Each non-blank line must hold exactly one "{" and one "}". N lines then
    carry N of each, and the frame check below admits only N parsed objects,
    which need all of them as their own braces. So no brace sits in a string
    or a nested value, and record i is exactly line i, the record the
    per-line parse reads.
    """
    lines = [s for s in map(str.strip, block) if s]
    if not all(s.count("{") == 1 == s.count("}") for s in lines):
        return False
    try:
        records = json.loads("[" + ",".join(lines) + "]")
    except (ValueError, RecursionError):
        return False
    if any(type(r) is not dict or "frame" not in r or "label" not in r for r in records):
        return False
    numbers = [r["frame"] for r in records]
    if any(type(f) is not int for f in numbers) or numbers != list(range(len(frames), len(frames) + len(lines))):
        return False
    try:
        labels = list(map(_BY_TOKEN.__getitem__, [r["label"] for r in records]))
    except (KeyError, TypeError):
        return False
    frames += labels
    return True


def _parse_lines(lines: Iterable[str], first: int, frames: list[ActionPrimitive]) -> None:
    """Append each line's label, raising LabelStreamError at the first bad record."""
    for lineno, raw in enumerate(lines, start=first):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise LabelStreamError(lineno, f"invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict) or "frame" not in record or "label" not in record:
            raise LabelStreamError(lineno, "record must carry 'frame' and 'label'")
        if type(record["frame"]) is not int or record["frame"] != len(frames):
            raise LabelStreamError(
                lineno, f"frame {record['frame']!r} breaks contiguous order (expected {len(frames)})"
            )
        try:
            frames.append(ActionPrimitive.parse(record["label"]))
        except ValueError as exc:
            raise LabelStreamError(lineno, str(exc)) from None


def dump_label_stream(stream: PrimitiveStream, path: str | Path) -> None:
    """Write a stream in the JSONL label format accepted by load_label_stream."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, label in enumerate(stream.frames):
            fh.write(json.dumps({"frame": i, "label": label.value}, sort_keys=True) + "\n")


def keys_from_names(names: Iterable[str]) -> KeySequence:
    return KeySequence(tuple(ActionPrimitive.parse(n) for n in names))
