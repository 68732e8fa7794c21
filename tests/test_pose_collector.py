"""load_mask_file pauses the cyclic garbage collector for the whole load and hands it back as it found it."""

import gc
import json
from contextlib import nullcontext

import pytest

from demoplan.pose import load_mask_file

DOCS = {
    "loads": json.dumps({"objects": [{"class": "x", "points": [[1, 2], [3, 4]]}]}),
    "duplicate": json.dumps({"objects": [{"class": "x", "points": [[1, 2], [3, 4], [1, 2]]}]}),
    "bool_value": json.dumps({"objects": [{"class": "x", "points": [[1, 2], [True, 4]]}]}),
    "short_row": json.dumps({"objects": [{"class": "x", "points": [[1, 2], [3]]}]}),
    "not_json": '{"objects": [',
}
REFUSALS = {
    "duplicate": "contains duplicate points",
    "bool_value": "points must be lists of 2 integers",
    "short_row": "points must be lists of 2 integers",
    "not_json": "mask file is not valid JSON",
}


@pytest.fixture
def collector():
    """Sets the collector on or off through the test, then restores it."""
    was = gc.isenabled()

    def set_state(enabled):
        (gc.enable if enabled else gc.disable)()

    yield set_state
    set_state(was)


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", DOCS)
def test_the_collector_is_left_as_the_caller_had_it(tmp_path, collector, name, enabled):
    path = tmp_path / "masks.json"
    path.write_text(DOCS[name])
    collector(enabled)
    with pytest.raises(ValueError, match=REFUSALS[name]) if name in REFUSALS else nullcontext():
        load_mask_file(path)
    assert gc.isenabled() is enabled


def test_no_collection_runs_during_the_load_nor_at_the_next_allocation(tmp_path, collector):
    """The pixel rows are freed before the collector resumes, so they never trigger a collection."""
    side = 2 * int(gc.get_threshold()[0] ** 0.5) + 2  # side**2 rows: over four times the young generation's threshold
    path = tmp_path / "masks.json"
    path.write_text(json.dumps({"objects": [{"class": "x", "points": [[x, y] for x in range(side) for y in range(side)]}]}))
    collector(True)
    starts = []
    gc.collect()
    gc.callbacks.append(lambda phase, info: starts.append(info) if phase == "start" else None)
    try:
        masks = load_mask_file(path)
        [[i] for i in range(10)]  # tracked allocations, at which a collection that is due would start
    finally:
        gc.callbacks.pop()
    assert starts == []
    assert masks[0].moments[0] == side * side
