import itertools
import json
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from demoplan import actions, fixtures
from demoplan.actions import (
    ActionPrimitive,
    KeySequence,
    LabelStreamError,
    PrimitiveStream,
    PRIMITIVES,
    dump_label_stream,
    keys_from_names,
    load_label_stream,
    synthesize_stream,
    window_filter,
    window_mode,
)

IDLE = ActionPrimitive.IDLE
MOVE = ActionPrimitive.MOVE
PICK = ActionPrimitive.PICK
PLACE = ActionPrimitive.PLACE
PUSH = ActionPrimitive.PUSH


def stream_of(*runs: tuple[ActionPrimitive, int]) -> PrimitiveStream:
    frames: list[ActionPrimitive] = []
    for prim, count in runs:
        frames.extend([prim] * count)
    return PrimitiveStream(tuple(frames))


class TestActionPrimitive:
    def test_exactly_seven_values(self):
        assert len(PRIMITIVES) == 7
        assert {p.value for p in PRIMITIVES} == {
            "idle", "move", "pick", "place", "push", "tilt", "rotate",
        }

    def test_parse_round_trip(self):
        for p in PRIMITIVES:
            assert ActionPrimitive.parse(p.value) is p

    @pytest.mark.parametrize("token", ["grab", "Idle", "PICK", "", "pick "])
    def test_parse_rejects_unknown_tokens(self, token):
        with pytest.raises(ValueError):
            ActionPrimitive.parse(token)


class TestWindowMode:
    def test_strict_majority(self):
        assert window_mode([IDLE, IDLE, MOVE]) == IDLE

    def test_constant_window(self):
        assert window_mode([PICK, PICK, PICK]) == PICK

    def test_tie_goes_to_later_starting_primitive(self):
        # move and pick tie at 2; pick first occurs later in the window
        assert window_mode([MOVE, PICK, PICK, MOVE]) == PICK

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            window_mode([])


class TestWindowFilter:
    def test_hand_traced_pick_place_stream(self):
        stream = stream_of((IDLE, 4), (MOVE, 3), (PICK, 4), (MOVE, 3), (PLACE, 4))
        assert len(stream) == 18
        keys = window_filter(stream, 3)
        assert keys.keys == (IDLE, MOVE, PICK, MOVE, PLACE)

    def test_constant_stream_collapses_to_one_key(self):
        assert window_filter(stream_of((PUSH, 10)), 4).keys == (PUSH,)

    def test_short_stream_is_one_window(self):
        stream = PrimitiveStream((IDLE, PICK, IDLE, IDLE))
        assert window_filter(stream, 3).keys == (IDLE,)

    def test_stream_shorter_than_window(self):
        stream = stream_of((MOVE, 3))
        assert window_filter(stream, 15).keys == (MOVE,)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            window_filter(stream_of((IDLE, 5)), 0)

    def test_determinism(self):
        stream = stream_of((IDLE, 20), (MOVE, 17), (PICK, 22))
        a = window_filter(stream, 7)
        b = window_filter(stream, 7)
        assert a == b


key_sequences = st.lists(st.sampled_from(PRIMITIVES), min_size=1, max_size=8).map(
    lambda prims: [p for i, p in enumerate(prims) if i == 0 or p != prims[i - 1]]
)


class TestFilterProperties:
    @given(keys=key_sequences, w=st.integers(1, 20), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_idempotence_on_clean_runs(self, keys, w, data):
        """Repeating each key for at least w+1 frames recovers it exactly."""
        runs = [
            data.draw(st.integers(min_value=w + 1, max_value=4 * w), label=f"run{i}")
            for i in range(len(keys))
        ]
        frames: list[ActionPrimitive] = []
        for key, run in zip(keys, runs):
            frames.extend([key] * run)
        recovered = window_filter(PrimitiveStream(tuple(frames)), w)
        assert recovered.keys == tuple(keys)

    @given(
        frames=st.lists(st.sampled_from(PRIMITIVES), min_size=1, max_size=120),
        w=st.integers(1, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_output_never_repeats_consecutively(self, frames, w):
        keys = window_filter(PrimitiveStream(tuple(frames)), w)
        assert all(a != b for a, b in zip(keys.keys, keys.keys[1:]))
        assert 1 <= len(keys) <= len(frames)


def filter_by_definition(frames: tuple[ActionPrimitive, ...], w: int) -> tuple[ActionPrimitive, ...]:
    """window_mode over every window of w+1 frames, consecutive repeats dropped."""
    if len(frames) <= w:
        return (window_mode(frames),)
    keys: list[ActionPrimitive] = []
    for i in range(len(frames) - w):
        mode = window_mode(frames[i : i + w + 1])
        if not keys or keys[-1] != mode:
            keys.append(mode)
    return tuple(keys)


def noisy_runs(rng: random.Random, n: int, noise: float) -> tuple[ActionPrimitive, ...]:
    """Runs of random length and label, each frame replaced at the noise rate."""
    frames: list[ActionPrimitive] = []
    while len(frames) < n:
        frames.extend([rng.choice(PRIMITIVES)] * rng.randint(1, 40))
    return tuple(rng.choice(PRIMITIVES) if rng.random() < noise else f for f in frames[:n])


class TestFilterMatchesDefinition:
    """The running-count filter against window_mode applied to every window."""

    def check(self, frames, w):
        assert window_filter(PrimitiveStream(frames), w).keys == filter_by_definition(frames, w), (frames, w)

    @pytest.mark.parametrize("w", [1, 3, 5])
    def test_tied_windows(self, w):
        # w+1 even: every window of an alternating stream is a tie
        self.check((MOVE, PICK) * 20, w)
        self.check((IDLE, PICK, PICK, IDLE, MOVE, MOVE) * 8, w)
        self.check((IDLE,) * ((w + 1) // 2) + (PICK,) * (w + 1) + (IDLE,) * (w + 1), w)

    @pytest.mark.parametrize("w", [5, 6, 7, 8])
    @pytest.mark.parametrize("above", [-1, 0, 1])
    def test_mode_at_half_the_window_and_one_above(self, w, above):
        # w+1 is even for odd w: a mode of (w+1)//2 frames can then be tied, one more cannot
        half = (w + 1) // 2
        self.check((IDLE,) * (w + 1) + (PICK,) * (half + above) + (IDLE,) * (w + 1), w)
        self.check((IDLE,) * (w + 1) + (PICK,) * (half + above) + (MOVE,) + (IDLE,) * (w + 1), w)
        self.check((IDLE,) * (half + above) + (PICK,) * (w + 1 - half - above) + (MOVE,) * (w + 1), w)

    @pytest.mark.parametrize("w", [6, 8])
    def test_a_tie_the_entering_label_is_not_in(self, w):
        # in an odd window the mode can lose its majority to a third label and tie a label whose first frame is later
        half = (w + 1) // 2
        frames = (IDLE,) * (w + 1 - half) + (PICK,) * half + (MOVE,) * 3 + (PICK,) * 3
        assert window_mode(frames[1 : w + 2]) == PICK and frames[w + 1] == MOVE
        self.check(frames, w)

    def test_a_slide_that_brings_the_mode_a_frame_rescans_nothing(self, monkeypatch):
        # with period w+1 each slide moves one label's frame out and the same label's in; the mode
        # never holds a majority, and no queue is tested for emptiness, as a rescan would
        tested = []

        class Positions(deque):
            def __bool__(self):
                tested.append(self)
                return len(self) > 0

        monkeypatch.setattr(actions, "deque", Positions)
        frames = (IDLE, IDLE, PICK, MOVE) * 30
        assert window_filter(PrimitiveStream(frames), 3).keys == filter_by_definition(frames, 3) == (IDLE,)
        assert tested == []

    @pytest.mark.parametrize("w", [1, 2, 15])
    def test_window_at_least_as_wide_as_the_stream(self, w):
        rng = random.Random(w)
        for n in range(1, w + 2):
            self.check(tuple(rng.choice(PRIMITIVES) for _ in range(n)), w)

    @pytest.mark.parametrize("w", [1, 4, 15])
    def test_one_label(self, w):
        self.check((PLACE,) * 50, w)

    def test_seeded_random_streams(self):
        rng = random.Random(2024)
        for _ in range(1500):
            n = rng.randint(1, 200)
            w = rng.choice([1, 2, rng.randint(1, 30), n, n + 3])
            if rng.random() < 0.5:
                frames = tuple(rng.choice(PRIMITIVES[: rng.randint(1, 7)]) for _ in range(n))
            else:
                frames = noisy_runs(rng, n, 0.10)
            self.check(frames, w)

    @pytest.mark.parametrize("w", [1, 7, 15])
    def test_runs_with_ten_percent_noise(self, w):
        rng = random.Random(w)
        for _ in range(30):
            self.check(noisy_runs(rng, 600, 0.10), w)

    @pytest.mark.parametrize("w", range(1, 9))
    @pytest.mark.parametrize("n_labels", [1, 2, 7])
    def test_streams_that_use_only_some_primitives(self, w, n_labels):
        # every primitive has a queue; those absent from the stream stay empty and must never be a key
        rng = random.Random(100 * w + n_labels)
        for _ in range(40):
            used = rng.sample(PRIMITIVES, n_labels)
            frames: list[ActionPrimitive] = []
            while len(frames) < 80:
                frames.extend([rng.choice(used)] * rng.randint(1, 2 * w))
            frames = tuple(rng.choice(used) if rng.random() < 0.2 else f for f in frames)
            self.check(frames, w)
            assert set(window_filter(PrimitiveStream(frames), w).keys) <= set(used)


def synthesize_by_reference(keys, frames_per_key, noise_rate, seed):
    """The stream with each noisy frame's draw taken from a list of the other primitives built for that frame."""
    rng = random.Random(seed)
    out = []
    for frame in [key for key in keys for _ in range(frames_per_key)]:
        if rng.random() < noise_rate:
            others = [p for p in PRIMITIVES if p != frame]
            out.append(others[rng.randrange(len(others))])
        else:
            out.append(frame)
    return tuple(out)


class TestSynthesizeStream:
    def test_each_primitive_draws_from_the_other_six_in_order(self):
        assert list(actions._OTHERS) == list(PRIMITIVES)
        for p in PRIMITIVES:
            assert actions._OTHERS[p] == tuple(q for q in PRIMITIVES if q != p)

    @pytest.mark.parametrize("noise", [0.0, 0.1, 0.5, 1.0])
    def test_the_noise_draw_matches_the_reference(self, noise):
        rng = random.Random(noise)
        for seed in range(300):
            keys = KeySequence(tuple(k for k, _ in itertools.groupby(rng.choices(PRIMITIVES, k=rng.randint(1, 8)))))
            fpk = rng.randint(1, 40)
            assert synthesize_stream(keys, fpk, noise, seed).frames == synthesize_by_reference(keys, fpk, noise, seed)

    def test_zero_noise_single_key(self):
        keys = KeySequence((PICK,))
        stream = synthesize_stream(keys, 5, 0.0, seed=99)
        assert stream.frames == (PICK,) * 5

    def test_zero_noise_concatenates_in_order(self):
        keys = KeySequence((IDLE, MOVE))
        stream = synthesize_stream(keys, 3, 0.0, seed=7)
        assert stream.frames == (IDLE, IDLE, IDLE, MOVE, MOVE, MOVE)

    def test_seeded_noise_is_reproducible_and_recoverable(self):
        keys = keys_from_names(["idle", "move", "pick"])
        stream = synthesize_stream(keys, 30, 0.1, seed=42)
        again = synthesize_stream(keys, 30, 0.1, seed=42)
        assert stream == again
        assert len(stream) == 90
        clean = synthesize_stream(keys, 30, 0.0, seed=42)
        corrupted = sum(a != b for a, b in zip(stream.frames, clean.frames))
        assert 2 <= corrupted <= 20  # binomial(90, 0.1) stays near 9
        assert window_filter(stream, 15).keys == keys.keys

    def test_corruption_always_changes_the_label(self):
        keys = KeySequence((PICK,))
        stream = synthesize_stream(keys, 400, 1.0, seed=3)
        assert all(f != PICK for f in stream.frames)

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_noise_rate_bounds(self, rate):
        with pytest.raises(ValueError):
            synthesize_stream(KeySequence((PICK,)), 3, rate, seed=0)

    def test_frames_per_key_bounds(self):
        with pytest.raises(ValueError):
            synthesize_stream(KeySequence((PICK,)), 0, 0.0, seed=0)

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError, match="^keys must be non-empty$"):
            synthesize_stream(KeySequence(()), 30, 0.1, 0)

    def test_recovery_degrades_with_noise(self):
        """Exact-recovery rate at 5% noise is at least the rate at 20%."""
        keys = keys_from_names(["idle", "move", "pick", "move", "place"])
        rates = {}
        for noise in (0.05, 0.20):
            hits = 0
            for seed in range(100):
                stream = synthesize_stream(keys, 30, noise, seed)
                if window_filter(stream, 15).keys == keys.keys:
                    hits += 1
            rates[noise] = hits / 100
        assert rates[0.05] >= rates[0.20]


class TestTypes:
    def test_key_sequence_rejects_consecutive_duplicates(self):
        with pytest.raises(ValueError):
            KeySequence((IDLE, IDLE))

    def test_stream_rejects_empty(self):
        with pytest.raises(ValueError):
            PrimitiveStream(())


class TestLabelStreamIO:
    def test_round_trip(self, tmp_path):
        stream = stream_of((IDLE, 2), (MOVE, 3))
        path = tmp_path / "labels.jsonl"
        dump_label_stream(stream, path)
        assert load_label_stream(path) == stream

    def test_unknown_token_reports_line_number(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        lines = [json.dumps({"frame": i, "label": "idle"}) for i in range(6)]
        lines.append(json.dumps({"frame": 6, "label": "grab"}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LabelStreamError) as exc:
            load_label_stream(path)
        assert exc.value.line_number == 7
        assert "grab" in str(exc.value)

    def test_non_contiguous_frames_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text(
            json.dumps({"frame": 0, "label": "idle"})
            + "\n"
            + json.dumps({"frame": 2, "label": "move"})
            + "\n"
        )
        with pytest.raises(LabelStreamError) as exc:
            load_label_stream(path)
        assert exc.value.line_number == 2

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"frame": 0, "label": "idle"}\nnot json\n')
        with pytest.raises(LabelStreamError) as exc:
            load_label_stream(path)
        assert exc.value.line_number == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text("")
        with pytest.raises(LabelStreamError):
            load_label_stream(path)


def load_label_stream_per_line(path):
    """The per-line loader the bulk parse must agree with, kept here as the oracle."""
    frames = []
    with open(path, "r", encoding="utf-8") as fh:
        expected = 0
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise LabelStreamError(lineno, f"invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict) or "frame" not in record or "label" not in record:
                raise LabelStreamError(lineno, "record must carry 'frame' and 'label'")
            if type(record["frame"]) is not int or record["frame"] != expected:
                raise LabelStreamError(
                    lineno, f"frame {record['frame']!r} breaks contiguous order (expected {expected})"
                )
            try:
                frames.append(ActionPrimitive.parse(record["label"]))
            except ValueError as exc:
                raise LabelStreamError(lineno, str(exc)) from None
            expected += 1
    if not frames:
        raise LabelStreamError(1, "label stream is empty")
    return PrimitiveStream(tuple(frames))


def outcome(load, path):
    try:
        return load(path)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


def damaged_stream(rng: random.Random) -> str:
    """A short label stream with up to three random faults of the kinds a file can carry."""
    records = [{"frame": i, "label": rng.choice(PRIMITIVES).value} for i in range(rng.randint(0, 8))]
    for _ in range(rng.randint(0, 3)):
        if not records:
            break
        r = rng.choice(records)
        kind = rng.randrange(7)
        if kind == 0:
            r["frame"] = rng.choice([rng.randint(-1, 9), True, 0.0, "0", None])
        elif kind == 1:
            r["label"] = rng.choice(["grab", "IDLE", 5, ["idle"], {"a": "idle"}, None, ""])
        elif kind == 2:
            r.pop(rng.choice(["frame", "label"]), None)
        elif kind == 3:
            r["extra"] = rng.choice([1, "idle", {}])
        elif kind == 4:
            r["label"] = {"label": r.get("label")}
        elif kind == 5:
            records.remove(r)
        else:
            records.insert(records.index(r), dict(r))
    lines = [json.dumps(r, separators=rng.choice([(",", ":"), (", ", ": ")])) for r in records]
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(lines) + 1)
        kind = rng.randrange(9)
        if kind == 0:
            lines.insert(i, rng.choice(["", "   ", "\t"]))
        elif kind == 1:
            lines.insert(i, rng.choice(["not json", "[]", "{}", "5", "null", '"idle"', "{", "}", "{]}"]))
        elif kind == 2 and i + 1 < len(lines):
            lines[i : i + 2] = [lines[i] + rng.choice([",", ", ", " "]) + lines[i + 1]]
        elif kind == 3 and i < len(lines) and len(lines[i]) > 2:
            cut = rng.randrange(1, len(lines[i]))
            lines[i : i + 1] = [lines[i][:cut], lines[i][cut:]]
        elif kind == 4 and i < len(lines):
            lines[i] = rng.choice([" ", "\t", ""]) + lines[i] + rng.choice([" ", "\t", "", ","])
        elif kind == 5 and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif kind == 6 and i < len(lines):
            lines[i] = lines[i].replace("{", "{ ", 1).replace('"frame"', '"frame": 99, "frame"', rng.randrange(2))
        elif kind == 7 and i < len(lines):
            lines[i] = "[" + lines[i] + "]"
        elif kind == 8 and i < len(lines):
            # a repeated "label" key whose first value is nested or runs over two lines
            value = rng.choice(['[{}\n{}]', '"}\n{"', '{"a": 1}', '"idle"'])
            lines[i : i + 1] = lines[i].replace('"label"', f'"label": {value}, "label"', 1).split("\n")
    return "\n".join(lines) + rng.choice(["", "\n", "\n\n"])


class TestBulkLabelParse:
    def test_two_records_on_one_line_and_one_split_over_two(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        one_line = '{"frame": 0, "label": "idle"}, {"frame": 1, "label": "move"}'
        for lines in (
            [one_line, '{"frame": 2,', '"label": "pick"}'],
            [one_line, '{"frame": 2, "label": [{}', '{}]}'],
            # joined with a comma these read as two good records, one per line
            ['{"frame": 0, "label": "idle"}, {"frame": 1', '"label": "move"}'],
            # a repeated "label" key overrides a value spanning two lines
            [one_line, '{"frame": 2, "label": [{}', '{}], "label": "idle"}'],
            [one_line, '{"frame": 2, "label": "}', '{", "label": "idle"}'],
        ):
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(LabelStreamError) as exc:
                load_label_stream(path)
            assert exc.value.line_number == 1
            assert outcome(load_label_stream, path) == outcome(load_label_stream_per_line, path)

    def test_blank_lines_and_padding_keep_line_numbers(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('\n  {"frame": 0, "label": "idle"}\t\n\n{"frame": 1, "label": "tilt"}\n{"frame": 3, "label": "idle"}\n')
        with pytest.raises(LabelStreamError) as exc:
            load_label_stream(path)
        assert exc.value.line_number == 5

    def test_long_stream_reports_a_late_fault_by_line(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        lines = [json.dumps({"frame": i, "label": PRIMITIVES[i % 7].value}) for i in range(10_000)]
        path.write_text("\n".join(lines) + "\n")
        assert load_label_stream(path).frames == tuple(PRIMITIVES[i % 7] for i in range(10_000))
        lines[8_499] = json.dumps({"frame": 8_499, "label": "grab"})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LabelStreamError) as exc:
            load_label_stream(path)
        assert exc.value.line_number == 8_500 and "grab" in str(exc.value)

    def test_lines_at_the_edge_of_the_plain_form_match_per_line_loop(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        loaded = 0
        for line in (
            '{"frame": 01, "label": "idle"}',
            '{"frame": -0, "label": "idle"}',
            '{"frame": 100000000000000000, "label": "idle"}',  # 18 digits
            '{"frame": 1000000000000000000, "label": "idle"}',  # 19 digits
            '{"frame": 0, "label": "\\u0069dle"}',
            '{"frame": 0, "label": "IDLE"}',
            '{"frame": 0, "label": "idle "}',
            '{"frame":0,"label":"idle"}',
            '{\t"frame"\t:\t0\t,\t"label"\t:\t"idle"\t}',
            '{"label": "idle", "frame": 0}',
            '{"frame": 0, "label": "grab", "label": "idle"}',
            '{"frame": 0, "label": "idle"}}',
            '{"frame": 0, "label": "idle", }',
        ):
            path.write_text(line + "\n")
            expected = outcome(load_label_stream_per_line, path)
            assert outcome(load_label_stream, path) == expected, line
            loaded += isinstance(expected, PrimitiveStream)
        assert loaded == 6

    def test_seeded_damage_matches_per_line_loop(self, tmp_path):
        rng = random.Random(20261018)
        path = tmp_path / "labels.jsonl"
        loaded = 0
        for _ in range(2000):
            path.write_text(damaged_stream(rng))
            expected = outcome(load_label_stream_per_line, path)
            assert outcome(load_label_stream, path) == expected, path.read_text()
            loaded += isinstance(expected, PrimitiveStream)
        assert 100 < loaded < 1900  # both the fast path and the error path were exercised


def block_stream(n_blocks: int) -> list[str]:
    """Template-form lines of a seeded stream long enough to fill n_blocks reads of actions._BLOCK."""
    rng = random.Random(n_blocks)
    return [actions._LINE % (i, rng.choice(PRIMITIVES).value) for i in range(n_blocks * actions._BLOCK // 28)]


def block_sizes(path) -> list[int]:
    """Lines in each block that load_label_stream reads from path."""
    with open(path, "r", encoding="utf-8") as fh:
        return [len(block) for block in iter(lambda: fh.readlines(actions._BLOCK), [])]


class TestLabelBlocks:
    @pytest.mark.parametrize("token", [p.value for p in PRIMITIVES])
    def test_the_line_template_is_the_json_dumps_form(self, token):
        for i in (0, 9, 10, 12345, 10**17):
            assert actions._LINE % (i, token) == json.dumps({"frame": i, "label": token}, sort_keys=True) + "\n"

    @pytest.mark.parametrize("task", fixtures.TASKS)
    def test_redumping_a_fixture_label_file_reproduces_it(self, tmp_path, task):
        path = tmp_path / "labels.jsonl"
        dump_label_stream(load_label_stream(fixtures.labels_path(task)), path)
        assert path.read_bytes() == fixtures.labels_path(task).read_bytes()

    @staticmethod
    def faults(line: str) -> list[str]:
        """The line with a bad label, a wrong frame or broken JSON, each of the same length."""
        record = json.loads(line)
        frame = str(record["frame"])
        wrong = frame[:-1] + str((int(frame[-1]) + 1) % 10)
        return [
            line.replace(f'"{record["label"]}"', f'"{record["label"][::-1]}"'),
            line.replace(f'"frame": {frame},', f'"frame": {wrong},'),
            line.replace("}", "]"),
        ]

    def test_a_fault_at_each_block_edge_matches_per_line_loop(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        lines = block_stream(4)
        path.write_text("".join(lines))
        sizes = block_sizes(path)
        assert len(sizes) >= 4
        second, last = sizes[0], len(lines) - 1  # the second block's first line, the file's last
        places = {0, second - 1, second, second + sizes[1] // 2, second + sizes[1] - 1, last - sizes[-1] // 2, last}
        for i in sorted(places):
            for bad in self.faults(lines[i]):
                path.write_text("".join(lines[:i] + [bad] + lines[i + 1 :]))
                assert block_sizes(path) == sizes
                got = outcome(load_label_stream, path)
                assert got == outcome(load_label_stream_per_line, path)
                assert got[0] is LabelStreamError and got[2] == i + 1

    def test_a_label_spelt_none_is_refused_by_line(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        lines = block_stream(3)
        path.write_text("".join(lines))
        second = block_sizes(path)[0]
        for i in (0, second, len(lines) - 1):
            path.write_text("".join(lines[:i] + [actions._LINE % (i, "None")] + lines[i + 1 :]))
            got = outcome(load_label_stream, path)
            assert got == outcome(load_label_stream_per_line, path)
            assert got == (LabelStreamError, f"line {i + 1}: unknown action primitive 'None'", i + 1)

    def test_other_spellings_across_blocks_match_per_line_loop(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        lines = block_stream(4)
        path.write_text("".join(lines))
        sizes = block_sizes(path)
        edge, end = sizes[0], sizes[0] + sizes[1]  # the second block's bounds
        compact = [json.dumps(json.loads(line), separators=(",", ":")) + "\n" for line in lines]
        last = len(lines) - 2
        bad = self.faults(lines[last])[0]
        variants = {
            "blank line between blocks": lines[:edge] + ["\n"] + lines[edge:],
            "blank lines at both ends": ["\n"] + lines + ["  \n"],
            "no final newline": lines[:-1] + [lines[-1].rstrip("\n")],
            "crlf": [line.replace("\n", "\r\n") for line in lines],
            "compact block 2": lines[:edge] + compact[edge:end] + lines[end:],
            "compact block 2, a fault": lines[:edge] + compact[edge:end] + lines[end:last] + [bad, lines[-1]],
        }
        for name, text in variants.items():
            path.write_bytes("".join(text).encode())
            expected = outcome(load_label_stream_per_line, path)
            assert outcome(load_label_stream, path) == expected, name
            if name.endswith("a fault"):
                assert expected[2] == last + 1
            else:
                assert len(expected) == len(lines), name

    def test_a_template_form_stream_never_reaches_the_per_line_reader(self, tmp_path, monkeypatch):
        calls = []
        per_line = actions._load_lines

        def spy(lines, *rest):
            calls.append(len(lines))
            return per_line(lines, *rest)

        monkeypatch.setattr(actions, "_load_lines", spy)
        keys = keys_from_names(["idle", "move", "pick", "move", "place", "tilt", "rotate", "push"])
        stream = synthesize_stream(keys, 150, 0.1, seed=3)
        path = tmp_path / "labels.jsonl"
        dump_label_stream(stream, path)
        assert len(block_sizes(path)) >= 3
        assert load_label_stream(path) == stream
        assert calls == []
        # the spy sees a block in another spelling
        text = path.read_text().splitlines(keepends=True)
        text[-1] = text[-1].replace(", ", ",")
        path.write_text("".join(text))
        assert load_label_stream(path) == stream
        assert len(calls) == 1
