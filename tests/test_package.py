import nfdof


def test_every_exported_name_resolves():
    assert [name for name in nfdof.__all__ if not hasattr(nfdof, name)] == []
    assert len(set(nfdof.__all__)) == len(nfdof.__all__)
