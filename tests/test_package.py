"""The public surface: each module declares its names once, in ``__all__``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import proverb

ROOT = Path(__file__).resolve().parents[1]


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


def test_every_public_name_is_used_outside_the_tests():
    # A name is used where package code or a demo loads it; its definition,
    # its import and its entry in ``__all__`` do not count.
    used = set()
    for path in [*(ROOT / "src" / "proverb").glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    for module in public_modules():
        unused = [name for name in module.__all__ if name not in used]
        assert not unused, (module.__name__, unused)
