import itertools
import random

import pytest

from demoplan.actions import ActionPrimitive
from demoplan.knowledge import (
    CooccurrenceModel,
    EmptyModelError,
    Lexicon,
    PairChoice,
    SelectionError,
    SingleChoice,
    build_model,
    conditional_probability,
    load_corpus,
    load_lexicon,
    parse_sentence,
    rank_candidates,
    rank_objects,
    select_object_pair,
    select_single_object,
    stats_tsv,
)
from demoplan import fixtures

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


class TestSelectObjectPair:
    def test_rank_and_filter_by_hand(self):
        model = CooccurrenceModel.from_counts({PUSH: {"carrot": 5, "plate": 4, "grape": 1}})
        choice = select_object_pair(model, PUSH, {"grape", "plate"})
        assert (choice.primary, choice.target) == ("plate", "grape")
        assert not choice.low_confidence

    def test_fixture_style_ranking(self):
        model = CooccurrenceModel.from_counts({PUSH: {"grape": 3, "croissant": 2}})
        choice = select_object_pair(model, PUSH, {"grape", "croissant"})
        assert (choice.primary, choice.target) == ("grape", "croissant")

    def test_zero_count_pair_falls_back_deterministically(self):
        model = CooccurrenceModel.from_counts({PUSH: {"apple": 2}})
        choice = select_object_pair(model, PUSH, {"pear", "corn"})
        assert choice == PairChoice(primary="corn", target="pear", low_confidence=True)

    def test_partial_ranking_completes_lexicographically(self):
        model = CooccurrenceModel.from_counts({TILT: {"bowl": 4}})
        choice = select_object_pair(model, TILT, {"bowl", "cup", "apple"})
        assert choice.primary == "bowl"
        assert choice.target == "apple"
        assert choice.low_confidence

    def test_fewer_than_two_detected_rejected(self, fixture_model):
        with pytest.raises(SelectionError):
            select_object_pair(fixture_model, PUSH, {"apple"})

    def test_single_object_action_rejected(self, fixture_model):
        with pytest.raises(ValueError):
            select_object_pair(fixture_model, PICK, {"apple", "pear"})


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
    return PairChoice(primary=chosen[0], target=chosen[1], low_confidence=low_confidence)


class TestPairMatchesLiteralOracle:
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
                assert select_object_pair(model, action, detected) == expected, (counts, action, detected)


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
        pair_a = select_object_pair(model, PUSH, detected)
        pair_b = select_object_pair(scaled, PUSH, detected)
        assert (pair_a.primary, pair_a.target) == (pair_b.primary, pair_b.target)

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
        for action in (PICK, PUSH):
            assert rank_objects(a, action) == rank_objects(b, action)
            assert a.counts.get(action) == b.counts.get(action)


class TestCorpusIO:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("# header\n\npick the apple\n  \n# trailing\n")
        assert load_corpus(path) == ["pick the apple"]

    def test_lexicon_validates_primitives(self, tmp_path):
        path = tmp_path / "lexicon.json"
        path.write_text('{"verbs": {"yank": "grabble"}, "objects": ["apple"]}')
        with pytest.raises(ValueError):
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
