"""The package exports exactly the names README's "Public API" lists,
and defines nothing that neither the package nor that list names."""

import ast
import inspect
import re
from pathlib import Path

import uavsched

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src" / "uavsched"

# Defined names that nothing in src/ names, kept on purpose.
UNREFERENCED_ALLOWED = {
    # argparse calls it on a bad flag
    "_Parser.error",
    # the reader of the schedule CSV format, for auditing external
    # schedules (ROADMAP item 6's `check` command)
    "read_schedule_csv",
}


def documented_names() -> set[str]:
    """Backticked names in the bullets of README's "## Public API"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = section[section.index("\n- "):]
    return set(re.findall(r"`([A-Za-z_]\w*)`", bullets))


def exported_names() -> set[str]:
    """Public attributes of the package, its submodules left out."""
    return {name for name, value in vars(uavsched).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def test_exports_match_readme():
    assert exported_names() == documented_names()


def test_section_is_found():
    names = documented_names()
    assert {"run_pso", "fitness", "build_schedule", "ProblemInstance"} <= names
    assert "uavsched" not in names


def defined_names():
    """(name to report, name to look for) of every module-level function
    and class in src/uavsched and of their non-dunder methods."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        yield f"{node.name}.{item.name}", item.name


def referenced_names() -> set[str]:
    """Every name src/uavsched uses: loaded or stored names, attributes
    and imports (a definition itself is none of these)."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_no_unreferenced_definitions():
    # a function only tests call is a second way to do something the
    # pipeline already does; delete it or document it
    known = referenced_names() | documented_names()
    unreferenced = {shown for shown, name in defined_names()
                    if name not in known}
    assert unreferenced == UNREFERENCED_ALLOWED


# Imported names a module binds for others, by module.
UNUSED_IMPORTS_ALLOWED = {
    # the package's re-exports
    "__init__": exported_names(),
    # wrapped by the benchmark's tracer as names of `uavsched.pso`
    "pso": {"repair", "apply_swaps"},
}


def unused_imports():
    """(module, name) of every name a src/uavsched module imports and
    never uses."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0]
                             for a in node.names}
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        allowed = UNUSED_IMPORTS_ALLOWED.get(path.stem, set())
        yield from sorted((path.stem, name)
                          for name in imported - used - allowed)


def test_no_unused_imports():
    assert list(unused_imports()) == []


def stored_private_attributes():
    """(class.attribute, attribute) of every `self._x = ...` (plain,
    augmented or unpacking) in a method of a src/uavsched class."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and node.attr.startswith("_")
                        and not node.attr.startswith("__")):
                    yield f"{cls.name}.{node.attr}", node.attr


def read_attributes() -> set[str]:
    """Every attribute name src/uavsched reads, on any object."""
    return {node.attr for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_no_unread_private_attributes():
    # a private attribute nothing reads is a stash that outlived its
    # reader: a second copy of state kept up to date for no one
    stored = dict(stored_private_attributes())
    assert stored, "the walk found no stored private attribute"
    read = read_attributes()
    unread = {shown for shown, name in stored.items() if name not in read}
    assert unread == set()
