import pytest

from demoplan.jsondoc import load_json, record


def test_the_missing_field_class_is_made_once_per_document_name(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": {"b": 1}}')
    first, second = load_json(path, "scenario"), load_json(path, "scenario")
    assert type(first) is type(second) is type(first["a"])
    plan = load_json(path, "plan")
    assert type(plan) is not type(first)
    with pytest.raises(ValueError, match=r"^scenario is missing field 'c'$"):
        first["a"]["c"]
    with pytest.raises(ValueError, match=r"^plan is missing field 'c'$"):
        plan["c"]


def test_a_record_given_its_keys_refuses_any_other_by_name():
    doc = {"scale": 1, "origin": [0, 0]}
    assert record(doc, "calibration", ("scale", "origin", "image_size")) is doc
    assert record({**doc, "sclae": 2}, "calibration") is not None  # no keys given: any key is taken
    with pytest.raises(ValueError, match=r"^calibration takes no sclae$"):
        record({**doc, "sclae": 2}, "calibration", ("scale", "origin", "image_size"))
