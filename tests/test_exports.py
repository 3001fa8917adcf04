import hsfuse


def test_every_exported_name_resolves():
    # names load lazily, so a stale entry would only fail where it is used
    missing = [name for name in hsfuse.__all__ if not hasattr(hsfuse, name)]
    assert missing == []
