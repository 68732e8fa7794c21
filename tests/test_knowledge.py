import itertools
import random

import pytest

from demoplan.actions import ActionPrimitive, KeySequence
from demoplan.knowledge import (
    CooccurrenceModel,
    EmptyModelError,
    Lexicon,
    SingleChoice,
    build_model,
    conditional_probability,
    load_corpus,
    load_lexicon,
    parse_sentence,
    rank_candidates,
    select_single_object,
    stats_tsv,
)
from demoplan import fixtures
from demoplan.planner import LOW_CONFIDENCE, bind_plan
from demoplan.pose import ObjectPose

PICK = ActionPrimitive.PICK
PLACE = ActionPrimitive.PLACE
PUSH = ActionPrimitive.PUSH
TILT = ActionPrimitive.TILT
ROTATE = ActionPrimitive.ROTATE


@pytest.fixture(scope="module")
def lex():
    return load_lexicon(fixtures.lexicon_path())


@pytest.fixture(scope="module")
def fixture_model(lex):
    return build_model(load_corpus(fixtures.corpus_path()), lex)


class TestParseSentence:
    def test_simple_verb_object(self, lex):
        assert parse_sentence("pick the apple", lex) == [(PICK, "apple")]

    def test_two_objects_after_one_verb(self, lex):
        pairs = parse_sentence("push the pear to the white plate", lex)
        assert pairs == [(PUSH, "pear"), (PUSH, "white plate")]

    def test_no_verb_no_object(self, lex):
        assert parse_sentence("hello world", lex) == []

    def test_object_before_verb_is_not_paired(self, lex):
        assert parse_sentence("the apple is nice to pick", lex) == []

    def test_multiword_objects_match_longest_first(self, lex):
        pairs = parse_sentence("set it on the white plate", lex)
        assert pairs == [(PLACE, "white plate")]

    def test_hyphenated_object(self, lex):
        assert parse_sentence("open the blue-bottle", lex) == [(ROTATE, "blue-bottle")]

    def test_case_and_punctuation_insensitive(self, lex):
        assert parse_sentence("Pick the Apple!", lex) == [(PICK, "apple")]

    def test_second_verb_switches_action(self, lex):
        pairs = parse_sentence("pick the apple and put it on the plate", lex)
        assert pairs == [(PICK, "apple"), (PLACE, "plate")]


class TestBuildModel:
    def test_hand_counted_three_sentences(self, lex):
        model = build_model(["pick the apple", "pick the apple", "pick the banana"], lex)
        assert model.count(PICK, "apple") == 2
        assert model.count(PICK, "banana") == 1
        assert model.action_total(PICK) == 3

    def test_presence_counting_dedupes_within_a_sentence(self, lex):
        model = build_model(["pick the apple next to the apple"], lex)
        assert model.count(PICK, "apple") == 1

    def test_empty_corpus_rejected(self, lex):
        with pytest.raises(ValueError):
            build_model([], lex)

    def test_unparseable_corpus_rejected(self, lex):
        with pytest.raises(EmptyModelError):
            build_model(["hello world", "nothing to see"], lex)

    def test_skipped_tally(self, lex):
        model = build_model(["pick the apple", "hello world"], lex)
        assert model.sentence_count == 2
        assert model.skipped_sentences == 1

    def test_counts_match_naive_scan_on_fixture_corpus(self, lex, fixture_model):
        # oracle: independent nested-loop counter over per-sentence pair sets
        sentences = load_corpus(fixtures.corpus_path())
        for action in ActionPrimitive:
            for obj in fixture_model.objects():
                expected = sum(
                    1 for s in sentences if (action, obj) in set(parse_sentence(s, lex))
                )
                assert fixture_model.count(action, obj) == expected


class TestConditionalProbability:
    def test_two_thirds(self, lex):
        model = build_model(["pick the apple", "pick the apple", "pick the banana"], lex)
        assert conditional_probability(model, "apple", PICK) == pytest.approx(2 / 3)

    def test_absent_action_is_zero(self, lex):
        model = build_model(["pick the apple"], lex)
        assert conditional_probability(model, "apple", PUSH) == 0.0

    def test_normalization(self, fixture_model):
        total = sum(
            conditional_probability(fixture_model, o, PICK) for o in fixture_model.objects()
        )
        assert total == pytest.approx(1.0)


class TestRankCandidates:
    def test_count_descending_then_name_without_duplicates(self):
        model = CooccurrenceModel.from_counts({PICK: {"pear": 2, "corn": 2, "apple": 0, "grape": 5}})
        ranked = rank_candidates(model, PICK, ["pear", "", "apple", "corn", "pear", "grape", "kiwi"])
        assert ranked == ["grape", "corn", "pear", "", "apple", "kiwi"]

    def test_unseen_action_is_lexicographic(self):
        model = CooccurrenceModel.from_counts({PICK: {"pear": 2}})
        assert rank_candidates(model, PUSH, {"pear", "corn"}) == ["corn", "pear"]

class TestSelectSingleObject:
    def test_place_prefers_the_container(self, lex):
        corpus = ["place it on the plate"] * 4 + ["place the banana on the plate"]
        model = build_model(corpus, lex)
        choice = select_single_object(model, PLACE, {"banana", "plate"})
        assert choice == SingleChoice("plate", low_confidence=False)

    def test_singleton_detected_set(self, lex):
        model = build_model(["pick the banana"], lex)
        choice = select_single_object(model, PICK, {"apple"})
        assert choice.name == "apple"
        assert choice.low_confidence

    def test_argmax_by_hand_count(self, lex):
        model = build_model(["pick the apple", "pick the apple", "pick the banana"], lex)
        assert select_single_object(model, PICK, {"apple", "banana"}).name == "apple"

    def test_tie_breaks_lexicographically(self):
        model = CooccurrenceModel.from_counts({PICK: {"pear": 3, "corn": 3}})
        assert select_single_object(model, PICK, {"pear", "corn"}).name == "corn"

    def test_zero_evidence_fallback(self):
        model = CooccurrenceModel.from_counts({PICK: {"apple": 5}})
        choice = select_single_object(model, PICK, {"grape", "corn"})
        assert choice == SingleChoice("corn", low_confidence=True)

    def test_two_object_action_rejected(self, fixture_model):
        with pytest.raises(ValueError):
            select_single_object(fixture_model, PUSH, {"apple", "pear"})

    def test_empty_detected_rejected(self, fixture_model):
        with pytest.raises(ValueError):
            select_single_object(fixture_model, PICK, set())


def literal_pair_oracle(counts, action, detected):
    """The pair rule as worded: ranked hits first, then lexicographic fill.

    Corpus objects ranked by N(action, obj) descending (ties lexicographic)
    fill the slots in order when detected; slots the ranking cannot fill take
    the remaining detected objects lexicographically and mark the choice low
    confidence.
    """
    table = counts.get(action, {})
    ranked = sorted((o for o, n in table.items() if n > 0), key=lambda o: (-table[o], o))
    chosen = [o for o in ranked if o in detected][:2]
    low_confidence = len(chosen) < 2
    chosen += [o for o in sorted(detected) if o not in chosen][: 2 - len(chosen)]
    return chosen[0], chosen[1], low_confidence


def bind_pair(model, action, detected):
    """(primary, target, low confidence) of a one-key push or tilt plan bound with an empty gripper."""
    poses = [ObjectPose(0.3, 0.3, 0.0, name) for name in sorted(detected)]
    step = bind_plan(KeySequence((action,)), poses, model).steps[0]
    return step.primary.class_name, step.target.class_name, step.confidence == LOW_CONFIDENCE


class TestPairMatchesLiteralOracle:
    @pytest.mark.parametrize(
        "counts, action, detected, expected",
        [
            ({PUSH: {"carrot": 5, "plate": 4, "grape": 1}}, PUSH, {"grape", "plate"}, ("plate", "grape", False)),
            ({PUSH: {"grape": 3, "croissant": 2}}, PUSH, {"grape", "croissant"}, ("grape", "croissant", False)),
            ({PUSH: {"apple": 2}}, PUSH, {"pear", "corn"}, ("corn", "pear", True)),
            ({TILT: {"bowl": 4}}, TILT, {"bowl", "cup", "apple"}, ("bowl", "apple", True)),
        ],
        ids=["hand_ranking", "fixture_style", "zero_count_fallback", "partial_ranking"],
    )
    def test_hand_cases(self, counts, action, detected, expected):
        assert literal_pair_oracle(counts, action, detected) == expected
        assert bind_pair(CooccurrenceModel.from_counts(counts), action, detected) == expected

    def test_random_count_tables_and_pools(self):
        rng = random.Random(3)
        names = ["", "apple", "bowl", "corn", "cup", "grape", "pear", "plate"]
        for _ in range(3000):
            counts = {
                action: {o: rng.randint(0, 4) for o in rng.sample(names, rng.randint(0, len(names)))}
                for action in (PUSH, TILT)
                if rng.random() < 0.9
            }
            model = CooccurrenceModel.from_counts(counts)
            detected = set(rng.sample(names, rng.randint(2, 6)))
            for action in (PUSH, TILT):
                expected = literal_pair_oracle(counts, action, detected)
                assert bind_pair(model, action, detected) == expected, (counts, action, detected)


def brute_force_single(sentences, lex, action, detected):
    """Independent oracle: exhaustive scan, explicit argmax with sorting."""
    counts = {obj: 0 for obj in detected}
    total = 0
    for sentence in sentences:
        pairs = set(parse_sentence(sentence, lex))
        mentioned = {o for a, o in pairs if a == action}
        total += len(mentioned)
        for obj in mentioned & set(detected):
            counts[obj] += 1
    if total == 0 or all(v == 0 for v in counts.values()):
        return sorted(detected)[0]
    scored = sorted(counts.items(), key=lambda kv: (-kv[1] / total, kv[0]))
    return scored[0][0]


class TestBruteForceEquivalence:
    def test_selection_matches_oracle_on_small_subsets(self, lex, fixture_model):
        sentences = load_corpus(fixtures.corpus_path())
        pool = sorted(fixture_model.objects())
        for action in (PICK, PLACE, ROTATE):
            for size in (1, 2, 3):
                for subset in itertools.combinations(pool[:8], size):
                    got = select_single_object(fixture_model, action, set(subset)).name
                    expected = brute_force_single(sentences, lex, action, set(subset))
                    assert got == expected, (action, subset)


class TestModelProperties:
    @pytest.mark.parametrize("scale", [2, 10, 1000])
    def test_argmax_scale_invariance(self, scale, fixture_model):
        model = fixture_model
        scaled = CooccurrenceModel.from_counts(
            {a: {o: n * scale for o, n in t.items()} for a, t in model.counts.items()}
        )
        detected = {"banana", "plastic-box", "apple"}
        for action in (PICK, PLACE, ROTATE):
            assert (
                select_single_object(model, action, detected).name
                == select_single_object(scaled, action, detected).name
            )
        assert rank_candidates(model, PUSH, detected) == rank_candidates(scaled, PUSH, detected)

    def test_adding_a_pairing_never_decreases_probability(self, lex):
        base = ["pick the apple", "pick the banana", "pick the banana"]
        model = build_model(base, lex)
        grown = build_model(base + ["pick the apple"], lex)
        assert conditional_probability(grown, "apple", PICK) >= conditional_probability(
            model, "apple", PICK
        )

    def test_insertion_order_does_not_matter(self, lex):
        sentences = ["pick the apple", "push the pear", "pick the banana", "push the grape"]
        a = build_model(sentences, lex)
        b = build_model(list(reversed(sentences)), lex)
        pool = a.objects() | b.objects()
        for action in (PICK, PUSH):
            assert rank_candidates(a, action, pool) == rank_candidates(b, action, pool)
            assert a.counts.get(action) == b.counts.get(action)


class TestCorpusIO:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("# header\n\npick the apple\n  \n# trailing\n")
        assert load_corpus(path) == ["pick the apple"]

    def test_lexicon_validates_primitives(self, tmp_path):
        path = tmp_path / "lexicon.json"
        path.write_text('{"verbs": {"yank": "grabble"}, "objects": ["apple"]}')
        with pytest.raises(ValueError, match="lexicon verb 'yank' must be an action primitive"):
            load_lexicon(path)

    def test_lexicon_lowercases(self, tmp_path):
        path = tmp_path / "lexicon.json"
        path.write_text('{"verbs": {"Pick": "pick"}, "objects": ["Apple"]}')
        lex = load_lexicon(path)
        assert parse_sentence("pick the apple", lex) == [(PICK, "apple")]

    def test_stats_tsv_shape(self, lex):
        model = build_model(["pick the apple", "push the pear"], lex)
        lines = stats_tsv(model).strip().split("\n")
        assert lines[0] == "action\tobject\tcount"
        assert "pick\tapple\t1" in lines
        assert "push\tpear\t1" in lines
