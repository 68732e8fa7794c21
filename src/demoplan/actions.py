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
import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import islice
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
# The record form json.dumps writes; each space in the template stands for [ \t]*.
_PLAIN = re.compile(
    r'\{ "frame" : (0|[1-9][0-9]{0,17}) , "label" : "(%s)" \}'.replace(" ", "[ \t]*") % "|".join(_BY_TOKEN)
)


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
    # Running counts instead of a recount per window (Huang, Yang & Tang 1979;
    # Perreault & Hebert 2007). Each label keeps a deque of its positions
    # inside the window: the length is its count and the head its first
    # occurrence, so window_mode's winner is the largest (count, head). A
    # slide moves one frame out and one in; the mode needs a full rescan
    # only when one of its frames leaves and another label's enters.
    at = {p: deque() for p in dict.fromkeys(frames)}
    queues = list(at.values())
    label = {id(q): p for p, q in at.items()}
    first = frames[: w + 1]
    for j, p in enumerate(first):
        at[p].append(j)
    keys = [window_mode(first)]
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
    the offending line number on any malformed record, including one nested
    too deeply or holding an int too long to convert.

    A line that matches _PLAIN, the form json.dumps writes, is a JSON object
    with exactly the keys "frame", a non-negative int of at most 18 digits,
    and "label", one of the seven tokens; json.loads would read the same int
    and string from it. Every other line is read by json.loads, once it is
    known to hold no byte that is not UTF-8 (each decodes to a lone surrogate).
    """
    frames: list[ActionPrimitive] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            plain = _PLAIN.fullmatch(line)
            if plain:
                frame, label = int(plain[1]), plain[2]
            else:
                try:
                    line.encode("utf-8")
                    record = json.loads(line)
                except UnicodeEncodeError:
                    raise LabelStreamError(lineno, "not valid UTF-8") from None
                except RecursionError:
                    raise LabelStreamError(lineno, "JSON nested too deeply") from None
                except ValueError as exc:  # a JSONDecodeError, or an int over Python's digit limit
                    raise LabelStreamError(lineno, f"invalid JSON ({getattr(exc, 'msg', exc)})") from None
                if not isinstance(record, dict) or "frame" not in record or "label" not in record:
                    raise LabelStreamError(lineno, "record must carry 'frame' and 'label'")
                frame, label = record["frame"], record["label"]
            if type(frame) is not int or frame != len(frames):
                raise LabelStreamError(lineno, f"frame {frame!r} breaks contiguous order (expected {len(frames)})")
            try:
                frames.append(_BY_TOKEN[label])
            except (KeyError, TypeError):  # TypeError: a list or object label is unhashable
                raise LabelStreamError(lineno, f"unknown action primitive {label!r}") from None
    if not frames:
        raise LabelStreamError(1, "label stream is empty")
    return PrimitiveStream(tuple(frames))


def dump_label_stream(stream: PrimitiveStream, path: str | Path) -> None:
    """Write a stream in the JSONL label format accepted by load_label_stream."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, label in enumerate(stream.frames):
            fh.write(json.dumps({"frame": i, "label": label.value}, sort_keys=True) + "\n")


def keys_from_names(names: Iterable[str]) -> KeySequence:
    return KeySequence(tuple(ActionPrimitive.parse(n) for n in names))
