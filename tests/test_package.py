import demoplan


def test_every_public_name_is_bound():
    assert [name for name in demoplan.__all__ if not hasattr(demoplan, name)] == []
