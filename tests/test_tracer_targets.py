"""Every tdual name the bench reaches for still exists, so a rename in src/
fails here before it can break a `perfbench/run.py` run.

The tracer wraps the span layers' public functions by scanning their
modules; PATCHED lists the ones its Tracer.install reaches for explicitly.
The workloads call the engine through the cech, groupcoh, triples and cli
modules and import a few names from tdual submodules; each attribute chain
and import is read from the workloads' AST.
"""

import ast
import importlib
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"
PATCHED = ("lca.pairing", "linops.snap_phase", "lca.FiniteLcaGroup.add", "cli.COMMANDS",
           "zmodlin.smith_form", "groupcoh.d_group", "groupcoh.total_matrix")
ENGINE = ("cech", "groupcoh", "triples", "cli")


def _install_source() -> str:
    text = TRACER.read_text(encoding="utf-8")
    tracer = next(node for node in ast.parse(text).body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer")
    install = next(node for node in tracer.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    return ast.get_source_segment(text, install)


def _missing(names) -> list:
    """The dotted names module.attr... that tdual no longer has."""
    missing = []
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"tdual.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr)
    return missing


def _workload_names() -> set:
    """Each attribute chain on an ENGINE module, and each name imported from tdual.*."""
    names = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            attrs, root = [], node
            while isinstance(root, ast.Attribute):
                attrs.append(root.attr)
                root = root.value
            if isinstance(root, ast.Name) and root.id in ENGINE:
                names.add(".".join([root.id] + attrs[::-1]))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tdual."):
            names.update(f"{node.module[len('tdual.'):]}.{alias.name}" for alias in node.names)
    return names


def test_tracer_targets_exist():
    source = _install_source()
    for name in PATCHED:
        assert name.rsplit(".", 1)[-1] in source, f"Tracer.install no longer patches {name}"
    missing = _missing(PATCHED)
    assert not missing, f"Tracer.install patches names tdual no longer has: {missing}"


def test_workload_names_exist():
    names = _workload_names()
    # the scan reaches chains through classes, and the names imported whole
    assert {"cech.TwistedCochain.from_flat", "groupcoh.total_differential",
            "triples.extract_total_cocycle", "cli.main", "errors.max_matrix_dim"} <= names
    missing = _missing(sorted(names))
    assert not missing, f"perfbench/workloads.py names what tdual no longer has: {missing}"
