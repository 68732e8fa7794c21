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
from itertools import count, islice
from pathlib import Path
from typing import Iterable, Sequence

from .jsondoc import _Repeated, _fields, text


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


def primitive(value: object, name: str) -> ActionPrimitive:
    """The one reader of a token in a plan, a lexicon or a key list; any other value is a ValueError naming the field."""
    token = text(value, name)
    try:
        return ActionPrimitive(token)
    except ValueError:
        raise ValueError(f"{name} must be an action primitive, not {token!r}") from None


PRIMITIVES: tuple[ActionPrimitive, ...] = tuple(ActionPrimitive)
_BY_TOKEN = {p.value: p for p in PRIMITIVES}
# each primitive's noise draws: the other six, in PRIMITIVES order
_OTHERS = {p: tuple(q for q in PRIMITIVES if q != p) for p in PRIMITIVES}
# One record as dump_label_stream writes it; json.dumps(..., sort_keys=True) gives the same text.
_LINE = '{"frame": %d, "label": "%s"}\n'
# each token's line ends in these nine characters before its newline
_TAIL = {(_LINE % (0, t))[-10:-1]: t for t in _BY_TOKEN}
_BLOCK = 4096  # load_label_stream reads whole lines until they pass this many characters


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
    # slide moves one frame out and one in. The mode stays when the frame in
    # is its own, or when it still holds more than half of the w+1 frames, for
    # then no other label can tie it. Otherwise it needs a full rescan if one
    # of its frames left, and else only a comparison with the label that entered.
    # A label absent from the stream keeps an empty deque, which a rescan passes over.
    at = {p: deque() for p in PRIMITIVES}
    queues = list(at.values())
    qs = list(map(at.__getitem__, frames))
    for j, q in enumerate(qs[: w + 1]):
        q.append(j)
    keys = [window_mode(frames[: w + 1])]
    mq = at[keys[0]]
    half = (w + 1) // 2
    for out, into, j in zip(qs, islice(qs, w + 1, None), count(w + 1)):
        out.popleft()
        into.append(j)
        if into is mq or len(mq) > half:
            continue
        if out is mq:
            best = (0, 0)
            for q in queues:
                if q and (len(q), q[0]) > best:
                    best, mq = (len(q), q[0]), q
        elif (len(into), into[0]) > (len(mq), mq[0]):
            mq = into
        else:
            continue
        if frames[mq[0]] != keys[-1]:  # a deque holds only its label's positions, so its head frame names the mode
            keys.append(frames[mq[0]])
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

    The draws, in order: each frame takes one random(); a frame that draws
    below noise_rate takes one of the other six primitives, in PRIMITIVES
    order, at the index getrandbits(3) gives, redrawn while it is 6 or more.
    That is how CPython draws randrange(6), without its two Python-level
    calls per noisy frame.
    """
    if not 0.0 <= noise_rate <= 1.0:
        raise ValueError("noise_rate must lie in [0, 1]")
    if frames_per_key < 1:
        raise ValueError("frames_per_key must be >= 1")
    if len(keys) == 0:
        raise ValueError("keys must be non-empty")
    rng = random.Random(seed)
    draw, bits = rng.random, rng.getrandbits
    n = len(PRIMITIVES) - 1  # the others of each key
    k = n.bit_length()
    out: list[ActionPrimitive] = []
    for key in keys:
        others = _OTHERS[key]
        for _ in range(frames_per_key):
            if draw() < noise_rate:
                r = bits(k)
                while r >= n:
                    r = bits(k)
                out.append(others[r])
            else:
                out.append(key)
    return PrimitiveStream(tuple(out))


def _lines(first: int, tokens: Sequence[str]) -> str:
    """_LINE for each token in turn, numbered from frame `first`."""
    fill: list = [None] * (2 * len(tokens))
    fill[::2], fill[1::2] = range(first, first + len(tokens)), tokens
    return _LINE * len(tokens) % tuple(fill)


def load_label_stream(path: str | Path) -> PrimitiveStream:
    """Read a JSONL label stream: one {"frame": int, "label": str} per line.

    Frames must be contiguous ascending from 0. Raises LabelStreamError with
    the offending line number on any malformed record, including one nested
    too deeply, holding an int too long to convert or repeating a key.

    The file is read a block of whole lines at a time, never all at once and
    never by seeking. A block that is exactly the text dump_label_stream
    would write for its frames is taken whole. Any other block, such as one
    in another JSON spelling, is read line by line by json.loads, with the
    same records, errors and line numbers.
    """
    frames: list[ActionPrimitive] = []
    lineno = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while block := fh.readlines(_BLOCK):
            tokens = [_TAIL.get(line[-10:-1]) for line in block]
            # a None would fill in as "None", a label a line can spell out
            if None not in tokens and "".join(block) == _lines(len(frames), tokens):
                frames.extend(map(_BY_TOKEN.__getitem__, tokens))
            else:
                _load_lines(block, lineno, frames)
            lineno += len(block)
    if not frames:
        raise LabelStreamError(1, "label stream is empty")
    return PrimitiveStream(tuple(frames))


def _load_lines(lines: list[str], before: int, frames: list[ActionPrimitive]) -> None:
    """Append the records of `lines`, which follow line `before`, to frames, one json.loads each.

    A line is passed to json.loads once it is known to hold no byte that is
    not UTF-8 (each decodes to a lone surrogate). A repeated key is refused.
    """
    for lineno, raw in enumerate(lines, start=before + 1):
        line = raw.strip()
        if not line:
            continue
        try:
            line.encode("utf-8")
            record = json.loads(line, object_pairs_hook=_fields("label stream"))
        except UnicodeEncodeError:
            raise LabelStreamError(lineno, "not valid UTF-8") from None
        except RecursionError:
            raise LabelStreamError(lineno, "JSON nested too deeply") from None
        except _Repeated as exc:
            raise LabelStreamError(lineno, str(exc)) from None
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


def dump_label_stream(stream: PrimitiveStream, path: str | Path) -> None:
    """Write a stream in the JSONL label format accepted by load_label_stream, one _LINE per frame."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_lines(0, [p.value for p in stream.frames]))


def keys_from_names(names: Iterable[str]) -> KeySequence:
    return KeySequence(tuple(primitive(n, f"key {i}") for i, n in enumerate(names)))
