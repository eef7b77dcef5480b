"""zmodlin owns the Smith form: no other module under src/ names smith_form,
SmithForm or module_quotient, so every complex reaches its factorisations
through zmodlin.Complex.

Names are collected from the ASTs as plain names, attributes and imports,
so `zmodlin.smith_form` and `from .zmodlin import smith_form` both count.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "tdual"
OWNED = {"smith_form", "SmithForm", "module_quotient"}


def _names(tree: ast.Module) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_only_zmodlin_names_the_smith_form():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        named = OWNED & _names(ast.parse(path.read_text(encoding="utf-8")))
        if named and path.stem != "zmodlin":
            found[path.stem] = sorted(named)
    assert not found, f"modules besides zmodlin naming its Smith form: {found}"
