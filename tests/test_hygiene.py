"""Source hygiene: every name a package module imports is used in it, every
module-level private name is read somewhere in the package, the README's
code references resolve, and its CLI section names exactly the CLI's flag
table and the flags each command reads."""

import ast
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "relayexp"
# __init__ imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    """Names bound by the module's imports that no other node refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_detects_unused_import():
    source = ("import numpy as np\nfrom os import path, sep as s\n"
              "x = np.zeros(1)\n")
    assert _unused_imports(source) == [(2, "path"), (2, "s")]


def _unused_private_names(sources):
    """Module-level names with one leading underscore that some source of
    `sources` binds and none of them reads, as (source index, name)."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = []
    for i, tree in enumerate(trees):
        bound = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                bound.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
        unused += [(i, name) for name in sorted(bound - read)
                   if name.startswith("_") and not name.startswith("__")]
    return unused


def test_private_names_are_used():
    # a private helper that the package no longer calls is dead code
    paths = sorted(SRC.glob("*.py"))
    unused = _unused_private_names([p.read_text() for p in paths])
    assert [f"{paths[i].name}:{name}" for i, name in unused] == []


def test_detects_unused_private_name():
    sources = ["_A = 1\n_B, _C = 2, 3\ndef _f():\n    return _A\n"
               "class _K:\n    pass\n__all__ = []\n",
               "import m\ndef g():\n    return m._C + _f()\n"]
    assert _unused_private_names(sources) == [(0, "_B"), (0, "_K")]


README = SRC.parents[1] / "README.md"


def test_readme_import_block_imports():
    block = re.search(r"^from relayexp import \([^)]*\)$", README.read_text(),
                      re.M)
    assert block is not None
    exec(block.group(0), {})


def _unused_exports(init_source, sources):
    """Names the `__init__` source imports that no source of `sources`
    loads, not counting loads inside the definition binding the name."""
    exported = {alias.asname or alias.name
                for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    loaded = set()
    for tree in map(ast.parse, sources):
        for top in tree.body:
            nodes = list(ast.walk(top))
            names = {n.id for n in nodes if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Load)}
            names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            loaded |= names - {getattr(top, "name", None)}
    return exported - loaded


def test_exports_are_used_or_documented():
    # a name the package exports is one it uses itself or one the README's
    # import block documents; test-only helpers live in tests/reference.py
    block = re.search(r"^from relayexp import \([^)]*\)$", README.read_text(),
                      re.M)
    documented = {alias.name for alias in ast.parse(block.group(0)).body[0]
                  .names}
    unused = _unused_exports((SRC / "__init__.py").read_text(),
                             [p.read_text() for p in MODULES])
    assert sorted(unused - documented) == []


def test_detects_unused_export():
    init = "from .a import f, g, h\nfrom .b import K\n"
    sources = ["def f():\n    return f()\ndef g():\n    return 1\n",
               "class K:\n    pass\ndef h():\n    return g() + m.K\n"]
    assert _unused_exports(init, sources) == {"f", "h"}


def test_readme_module_references_resolve():
    # `module.name` and `relayexp.module.name`, with or without a call's
    # arguments after the name, for every module of the package
    modules = {p.stem for p in SRC.glob("*.py")}
    refs = [(mod, name) for mod, name in re.findall(
                r"`(?:relayexp\.)?(\w+)\.(\w+)", README.read_text())
            if mod in modules]
    assert len(refs) >= 5
    missing = [f"{mod}.{name}" for mod, name in refs
               if not hasattr(importlib.import_module(f"relayexp.{mod}"),
                              name)]
    assert missing == []


def _cli_section():
    section = re.search(r"^## CLI\n(.*?)^## ", README.read_text(),
                        re.M | re.S)
    assert section is not None
    return section.group(1)


_FLAG = r"(?<![\w-])--[a-z][\w-]*"


def test_readme_cli_flags_match_parser():
    # every --flag the README's CLI section names is in the CLI's flag table
    # or is --help, and every one of them is documented there
    from relayexp.cli_sweeps import FLAGS
    documented = set(re.findall(_FLAG, _cli_section()))
    assert documented == set(FLAGS) | {"--help"}


def test_flag_table_covers_sweep_spec():
    # one flag per SweepSpec field but the command, in field order, so the
    # table and the dataclass whose defaults it uses cannot drift apart
    from dataclasses import fields

    from relayexp.cli_sweeps import FLAGS, SweepSpec
    assert [field for field, _ in FLAGS.values()] == [
        f.name for f in fields(SweepSpec) if f.name != "command"]


def test_readme_command_flags_match_cli():
    # the README's table of the flags each command reads is the table the
    # CLI checks command lines against, row for row and in order
    from relayexp.cli_sweeps import COMMAND_FLAGS
    rows = re.findall(r"^\s*\| `([a-z-]+)` \| (.*) \|$", _cli_section(),
                      re.M)
    assert {command: " ".join(re.findall(_FLAG, flags))
            for command, flags in rows} == COMMAND_FLAGS
