"""The public surface: each module declares its names once, in ``__all__``."""

import importlib
import pkgutil

import proverb


def public_modules():
    for info in pkgutil.iter_modules(proverb.__path__):
        module = importlib.import_module(f"proverb.{info.name}")
        if hasattr(module, "__all__"):
            yield module


def test_every_public_name_resolves():
    modules = list(public_modules())
    assert {m.__name__ for m in modules} >= {"proverb.matrix", "proverb.controller"}
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_no_public_name_is_declared_twice():
    owner = {}
    for module in public_modules():
        for name in module.__all__:
            assert name not in owner, (name, owner.get(name), module.__name__)
            owner[name] = module.__name__


def test_package_namespace_re_exports_nothing():
    public = {name for name in vars(proverb) if not name.startswith("_")}
    assert public <= {info.name for info in pkgutil.iter_modules(proverb.__path__)}
