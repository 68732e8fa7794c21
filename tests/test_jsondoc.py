import pytest

from demoplan.jsondoc import load_json


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
