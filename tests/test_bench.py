import math

import pytest

from demoplan import fixtures
from demoplan.actions import keys_from_names
from demoplan.bench import BenchConfig, run_benchmark, run_trial
from demoplan.knowledge import build_model, load_corpus, load_lexicon
from demoplan.pose import load_calibration, load_mask_file, sense_scene
from demoplan.sim import load_scenario


@pytest.fixture(scope="module")
def model():
    return build_model(load_corpus(fixtures.corpus_path()), load_lexicon(fixtures.lexicon_path()))


class TestRunTrial:
    """Each failure stage of one noise-free trial, with its reason and executed steps."""

    @pytest.mark.parametrize(
        "names, masks_task, scenario_task, reason, steps",
        [
            (["idle", "move", "pick", "move", "pick"], "pick_place", "pick_place", "validation: step 4: pick while holding", 0),
            (["idle"], "pick_place", "pick_place", "predicate: task goal not reached", 1),
            (["idle", "move", "pick", "move", "place"], "pick_place", "push_away", "execution: no banana in the world", 3),
            (
                ["idle", "move", "pick", "move", "place", "move", "pick", "move", "place", "move", "pick"],
                "pick_place",
                "pick_place",
                "binding: step 10: no candidate object left to pick",
                0,
            ),
        ],
        ids=["validation", "predicate", "execution", "binding"],
    )
    def test_failure_reason_and_steps(self, model, names, masks_task, scenario_task, reason, steps):
        poses = sense_scene(load_mask_file(fixtures.masks_path(masks_task)), load_calibration(fixtures.calibration_path()))
        inputs = keys_from_names(names), poses, load_scenario(fixtures.scenario_path(scenario_task))
        assert run_trial(inputs, model, 0, BenchConfig()) == (reason, steps)


class TestBenchConfig:
    """A config refuses its own bad settings, wherever it is built, so every result has at least one trial."""

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"trials": 0}, "trials must be >= 1"),
            ({"noise_rate": 1.5}, "noise_rate must lie in [0, 1]"),
            ({"noise_rate": math.nan}, "noise_rate must lie in [0, 1]"),
            ({"window_width": 0}, "window width must be >= 1"),
            ({"frames_per_key": 0}, "frames_per_key must be >= 1"),
        ],
        ids=["trials", "noise_rate", "noise_rate_nan", "window_width", "frames_per_key"],
    )
    def test_a_bad_setting_is_refused(self, setting, message):
        with pytest.raises(ValueError) as exc:
            BenchConfig(**setting)
        assert str(exc.value) == message

    def test_each_task_counts_every_trial(self):
        results = run_benchmark(BenchConfig(trials=3, noise_rate=0.3, seed=5))
        assert {task: r.trials for task, r in results.items()} == dict.fromkeys(fixtures.TASKS, 3)
