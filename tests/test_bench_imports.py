"""The package names the benchmark under ``bench/`` relies on.

The harness imports names from ``equidrift`` and, for its traced runs, looks
names up on ``equidrift.cli`` and wraps them. Its own tests are not part of
this suite, so these checks read its files with ``ast`` and fail as soon as
the package stops providing a name the harness needs.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import equidrift
import equidrift.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: The names the traced runs wrap on ``equidrift.cli``.
TRACED = {"load_csv", "load_french", "rolling_backtest", "simulate_paths", "replay_wealth"}


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _code(tree: ast.Module):
    """``tree`` and the parse of each string in it that is Python code (the
    harness hands some to a child interpreter)."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                pass


def _equidrift_imports(tree: ast.Module):
    """(module, name) for each ``from equidrift... import name`` in ``tree``,
    and (module, None) for each ``import equidrift...``."""
    for code in _code(tree):
        for node in ast.walk(code):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "equidrift":
                yield from ((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from (
                    (alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "equidrift"
                )


@pytest.mark.parametrize("name", ["workloads.py", "run.py"])
def test_every_imported_name_exists(name):
    imports = list(_equidrift_imports(_tree(name)))
    assert imports
    for module, attr in imports:
        found = importlib.import_module(module)
        assert attr is None or hasattr(found, attr), f"bench/{name}: {module}.{attr}"


def test_cli_binds_the_traced_names():
    looked_up = set()
    for node in ast.walk(_tree("workloads.py")):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "traced_main":
            layers = node.args[2]
            assert isinstance(layers, ast.Dict)
            looked_up.update(ast.literal_eval(key) for key in layers.keys)
    assert looked_up == TRACED
    for name in sorted(TRACED):
        assert hasattr(equidrift.cli, name), name


def test_package_surface_is_the_modules_lists():
    # every public module but the command line declares its names once, in
    # its own __all__, and the package re-exports exactly those
    modules = [
        importlib.import_module(f"equidrift.{info.name}")
        for info in pkgutil.iter_modules(equidrift.__path__)
        if not info.name.startswith("_") and info.name != "cli"
    ]
    names = equidrift.__all__
    assert len(names) == len(set(names))
    listed = [getattr(module, "__all__", []) for module in modules]
    assert set(names) == {"__version__", "EquidriftError"}.union(*listed)
    for name in names:
        assert hasattr(equidrift, name), name
    for file in ("workloads.py", "run.py"):
        for module, attr in _equidrift_imports(_tree(file)):
            if module == "equidrift" and attr is not None:
                assert attr in names, f"bench/{file}: {attr}"
