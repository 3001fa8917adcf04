import importlib
import pkgutil

import hsfuse


def test_every_exported_name_resolves():
    # names load lazily, so a stale entry would only fail where it is used
    missing = [name for name in hsfuse.__all__ if not hasattr(hsfuse, name)]
    assert missing == []


def test_every_submodule_export_resolves():
    # __main__ runs the command line when imported
    names = [m.name for m in pkgutil.iter_modules(hsfuse.__path__) if m.name != "__main__"]
    missing = []
    for name in names:
        module = importlib.import_module(f"hsfuse.{name}")
        missing += [f"{name}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_dir_lists_every_lazy_export_and_the_version():
    names = dir(hsfuse)
    assert set(hsfuse.__all__) <= set(names)
    assert "__version__" in names and names == sorted(names)
