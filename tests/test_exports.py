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


def test_top_level_exports_are_their_submodules_objects_once_every_submodule_is_imported():
    # importing a submodule binds its name on the package, over a lazy export of that name
    names = [m.name for m in pkgutil.iter_modules(hsfuse.__path__) if m.name != "__main__"]
    for name in names:
        importlib.import_module(f"hsfuse.{name}")
    wrong = [
        name
        for name, module in hsfuse._EXPORTS.items()
        if getattr(hsfuse, name) is not getattr(importlib.import_module(f"hsfuse.{module}"), name)
    ]
    assert wrong == []
