"""Every function and method in the package is named somewhere outside its def,
and every module-level import is named in the module that makes it.

Names are collected from the ASTs of src/, tests/ and perfbench/.  A
module-level function counts as used when its name appears as a plain name,
an attribute or an import; a method only when it appears as an attribute,
so a local variable of the same name does not keep a dead method alive.  A
helper that no code or test reaches is reported by module and name, and so
is an import its module never names (__init__.py re-exports are exempt).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tdual"


def _defined(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}"


def _named() -> tuple[set, set]:
    """(all plain, attribute and imported names; attribute names alone)."""
    names, attrs = set(), set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names | attrs, attrs


def test_no_unused_functions_or_methods():
    named, attrs = _named()
    unused = [
        f"{path.stem}.{qual}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qual in _defined(ast.parse(path.read_text(encoding="utf-8")))
        if qual.rsplit(".", 1)[-1] not in (attrs if "." in qual else named)
    ]
    assert not unused, f"functions named nowhere but their def: {unused}"


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - named)]
    assert not unused, f"imports their module never names: {unused}"
