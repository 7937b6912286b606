"""Every public module-level function and class of vbspool has a caller.

A public name passes if code under src/vbspool refers to it outside its
own definition, or if README's "Library" section names it as
`vbspool.<module>.<name>`. A name with neither is surface kept alive only
by the tests. Likewise every name a module imports is read in it, unless
the import is marked `# noqa: F401`.
"""

import ast
import re
from pathlib import Path

import vbspool

SRC = Path(vbspool.__file__).resolve().parent
README = SRC.parents[1] / "README.md"


def _references(node, modules):
    """Names a statement reads: bare names, and module.attr for the
    package's own modules."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in modules
        ):
            found.add(sub.attr)
    return found


def unreferenced(sources: dict, documented: set) -> list:
    """`module.name` for each public top-level def or class of `sources`
    (module name -> source text) that no other top-level statement reads
    and that `documented` ((module, name) pairs) does not hold."""
    refs = []  # (module, defining name or None, names read)
    public = []
    for mod, text in sources.items():
        for node in ast.parse(text).body:
            name = getattr(node, "name", None)
            refs.append((mod, name, _references(node, sources)))
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_def and not name.startswith("_"):
                public.append((mod, name))
    return [
        f"{mod}.{name}"
        for mod, name in public
        if (mod, name) not in documented
        and not any(name in read and (m, n) != (mod, name) for m, n, read in refs)
    ]


def unused_imports(text: str) -> list:
    """Names a module imports and never reads as a bare name, skipping
    `from __future__` and import statements marked `# noqa: F401`."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        marked = lines[node.lineno - 1 : node.end_lineno]
        if getattr(node, "module", None) == "__future__" or any(
            "# noqa: F401" in line for line in marked
        ):
            continue
        imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    return [name for name in imported if name not in read]


def documented_names() -> set:
    section = README.read_text().split("## Library", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"vbspool\.(\w+)\.(\w+)", section))


def test_every_public_name_has_a_caller_or_is_documented():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced(sources, documented_names()) == []


def test_documented_names_exist():
    for mod, name in documented_names():
        tree = ast.parse((SRC / f"{mod}.py").read_text())
        defined = {getattr(node, "name", None) for node in tree.body}
        assert name in defined, f"vbspool.{mod}.{name}"


def test_unused_and_self_recursive_helpers_are_caught():
    sources = {
        "a": "def used():\n    pass\n\n\ndef spare():\n    used()\n",
        "b": "import a\n\n\ndef loop():\n    loop()\n\n\nclass Kept:\n    pass\n\n\n"
        "x = a.spare\n",
    }
    assert unreferenced(sources, set()) == ["b.loop", "b.Kept"]
    assert unreferenced(sources, {("b", "Kept")}) == ["b.loop"]


def test_every_import_is_read():
    unused = {
        p.stem: unused_imports(p.read_text()) for p in sorted(SRC.glob("*.py"))
    }
    assert {mod: names for mod, names in unused.items() if names} == {}


def test_unused_imports_are_caught():
    text = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import inf, pi\n"
        "from . import kept  # noqa: F401\n"
        "from .erlang import (  # noqa: F401\n"
        "    erlang_b,\n"
        ")\n"
        "x = np.zeros(1) + inf\n"
    )
    assert unused_imports(text) == ["os", "pi"]
