"""Every function and method in the package is named by the engine, and every
module-level import is named in the module that makes it.

Callers are collected from the ASTs of src/ (its __init__.py re-exports
excepted) and perfbench/; a test is not a caller.  A module-level function
counts as used when its name appears as a plain name, an attribute or an
import; a method only when it appears as an attribute, so a local variable
of the same name does not keep a dead method alive.  The few definitions
kept as reference API for tests and the README are listed in REFERENCE.
A helper nothing else reaches is reported by module and name, and so is an
import its module never names (__init__.py re-exports are exempt).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tdual"

# module.qualname of definitions kept although the engine never calls them
REFERENCE = {
    "cech.Nerve.circle",                 # the README sketch's base space
    "cech.Nerve.sphere",                 # the README sketch's other base space
    "triples.verify_involution",         # the README sketch's involution check
    "cech.TwistCocycle.edge_values",     # acceptance criterion 3 reads the twist
    "lca.Section.defect",                # test oracle for the section cocycle
    "linops.unit_phase",                 # test oracle for the phase tables
    "triples.trivial_triple",            # the acceptance criteria's trivial data
    "cli.run_checks",                    # the README's checks on a Workspace, refused
                                         # through preflight (cmd_run preflights first)
}


def _defined(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}"


def _named(root: pathlib.Path) -> tuple[set, set]:
    """(all plain, attribute and imported names; attribute names alone)."""
    names, attrs = set(), set()
    for top in ("src", "perfbench"):
        for path in (root / top).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names | attrs, attrs


def unused_definitions(root: pathlib.Path, reference=frozenset()) -> list:
    """module.qualname of each package definition that src/ and perfbench/ never name."""
    named, attrs = _named(root)
    found = []
    for path in sorted((root / "src").glob("*/*.py")):
        for qual in _defined(ast.parse(path.read_text(encoding="utf-8"))):
            full = f"{path.stem}.{qual}"
            if full not in reference and \
                    qual.rsplit(".", 1)[-1] not in (attrs if "." in qual else named):
                found.append(full)
    return found


def test_no_unused_functions_or_methods():
    unused = unused_definitions(ROOT, REFERENCE)
    assert not unused, f"functions the engine never names: {unused}"


def test_reference_is_short_and_current():
    assert len(REFERENCE) <= 10
    defined = {f"{path.stem}.{qual}" for path in PACKAGE.glob("*.py")
               for qual in _defined(ast.parse(path.read_text(encoding="utf-8")))}
    assert REFERENCE <= defined, f"REFERENCE names no definition: {REFERENCE - defined}"


def test_tests_and_reexports_are_not_callers(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (pkg / "core.py").write_text(
        "def only_tested():\n    pass\n\n\n"
        "def only_reexported():\n    pass\n\n\n"
        "def kept():\n    pass\n\n\n"
        "def used():\n    pass\n\n\n"
        "class Box:\n"
        "    def method(self):\n        pass\n\n"
        "    def run(self):\n        used()\n        self.method()\n")
    (pkg / "__init__.py").write_text("from .core import Box, only_reexported\n")
    (tmp_path / "perfbench" / "bench.py").write_text(
        "from pkg.core import Box\n\nBox().run()\n")
    (tmp_path / "tests" / "test_core.py").write_text(
        "from pkg.core import only_tested\n\nonly_tested()\n")
    assert unused_definitions(tmp_path, {"core.kept"}) == [
        "core.only_tested", "core.only_reexported"]


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
