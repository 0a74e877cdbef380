"""Stale-export guard: a name deleted from a module must leave its module's
__all__ and the package's re-exports with it."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import hxplore
from hxplore.explore import RunResult

MODULES = sorted(info.name for info in pkgutil.iter_modules(hxplore.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"hxplore.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(hxplore.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"hxplore.{node.module}")
        for alias in node.names:
            assert alias.name in getattr(module, "__all__", ()), (node.module, alias.name)
            assert getattr(hxplore, alias.asname or alias.name) is getattr(module, alias.name)


@pytest.mark.parametrize("name", MODULES)
def test_package_attribute_is_the_module(name):
    # a re-exported name equal to a module's, like explore(), would hide the module
    assert getattr(hxplore, name) is importlib.import_module(f"hxplore.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_are_used(name):
    # the package's __init__ imports only to re-export, and is not a module of MODULES
    tree = ast.parse(Path(hxplore.__file__).with_name(f"{name}.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {k: v for k, v in imported.items() if k not in used} == {}


SEEDING_NAMES = {"default_rng", "SeedSequence", "PCG64"}
SEEDING_HELPER = ("util", "seeded_generators")


def test_generators_are_seeded_only_by_the_helper():
    # a second seeding path could drift from the streams of util.seeded_generators
    found = []
    for name in MODULES:
        tree = ast.parse(Path(hxplore.__file__).with_name(f"{name}.py").read_text())
        helper = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and (name, fn.name) == SEEDING_HELPER
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):  # an import of the name
                used = node.name.rpartition(".")[2]
            else:
                used = getattr(node, "id", None) or getattr(node, "attr", None)
            if used in SEEDING_NAMES and id(node) not in helper:
                found.append((name, node.lineno))
    assert found == []


FLOAT_FORMATTERS = {("mc", "fmt17"), ("cli", "_float_fields")}


def test_reals_are_formatted_only_by_fmt17_and_the_block_writer():
    # a second '%.17g' path could drift from the bytes of the CSV block writer
    found = []
    for name in MODULES:
        text = Path(hxplore.__file__).with_name(f"{name}.py").read_text()
        allowed = {line for fn in ast.walk(ast.parse(text))
                   if isinstance(fn, ast.FunctionDef) and (name, fn.name) in FLOAT_FORMATTERS
                   for line in range(fn.lineno, fn.end_lineno + 1)}
        found += [(name, i) for i, line in enumerate(text.splitlines(), 1)
                  if ".17g" in line and i not in allowed]
    assert found == []


REPLAY = ("mc", "CellContext", "replay")
T1_FAULT = "too short for the t1 horizon"


def test_runs_are_replayed_only_by_the_cell():
    # a second replay path could drift from the t1 rule of the replicate it replays
    calls, faults = [], []
    for name in MODULES:
        text = Path(hxplore.__file__).with_name(f"{name}.py").read_text()
        tree = ast.parse(text)
        replay = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and (name, cls.name) == REPLAY[:2]
                  for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == REPLAY[2]
                  for node in ast.walk(fn)}
        calls += [(name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in replay
                  and "decompose" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
        owner = {line for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and (name, fn.name) == ("doob", "decompose")
                 for line in range(fn.lineno, fn.end_lineno + 1)}
        faults += [(name, i) for i, line in enumerate(text.splitlines(), 1)
                   if T1_FAULT in line and i not in owner]
    assert calls == [] and faults == []


SCHEDULER_MODULES = {"multiprocessing", "concurrent", "subprocess"}
FORK = ("mc", "_fork_share")


def test_cells_are_split_only_by_the_fork_map():
    # a second scheduler could deal replicates differently from mc.run_cell
    imports, forks = [], []
    for name in MODULES:
        tree = ast.parse(Path(hxplore.__file__).with_name(f"{name}.py").read_text())
        owner = {id(node) for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and (name, fn.name) == FORK
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            imports += [(name, node.lineno) for module in modules
                        if module.partition(".")[0] in SCHEDULER_MODULES]
            if isinstance(node, ast.alias):  # an import of the name
                used = node.name.rpartition(".")[2]
            else:
                used = getattr(node, "id", None) or getattr(node, "attr", None)
            if used == "fork" and id(node) not in owner:
                forks.append((name, node.lineno))
    assert imports == [] and forks == []


def test_only_the_fork_map_pickles():
    # results and exceptions cross processes only through mc._fork_map and its child
    users = []
    for name in MODULES:
        tree = ast.parse(Path(hxplore.__file__).with_name(f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            users += [name for module in modules if module.partition(".")[0] == "pickle"]
    assert users == ["mc"]


def test_every_run_result_field_is_read():
    # a field that no code in src/ or bench/ names, as an attribute or a string, is stale
    named = set()
    root = Path(__file__).resolve().parents[1]
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "bench").rglob("*.py")]):
        tree = ast.parse(path.read_text())
        body = {id(node) for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef) and cls.name == "RunResult" for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if id(node) not in body and isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif id(node) not in body and isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    assert [f.name for f in dataclasses.fields(RunResult) if f.name not in named] == []
