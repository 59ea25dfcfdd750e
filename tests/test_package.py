import heatsphere


def test_every_public_name_resolves_once():
    names = heatsphere.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(heatsphere, name)]
    assert missing == []
