"""Every tdual name that perfbench/tracer.py's Tracer.install patches by name
still exists, so a deletion in src/ cannot break a `run.py --trace 1` bench run.

The tracer wraps the span layers' public functions by scanning their
modules; the names below are the ones it reaches for explicitly.
"""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
PATCHED = ("lca.pairing", "linops.snap_phase", "lca.FiniteLcaGroup.add", "cli.COMMANDS",
           "zmodlin.smith_form", "groupcoh.d_group", "groupcoh.total_matrix")


def _install_source() -> str:
    text = TRACER.read_text(encoding="utf-8")
    tracer = next(node for node in ast.parse(text).body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer")
    install = next(node for node in tracer.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    return ast.get_source_segment(text, install)


def test_tracer_targets_exist():
    source = _install_source()
    missing = []
    for name in PATCHED:
        assert name.rsplit(".", 1)[-1] in source, f"Tracer.install no longer patches {name}"
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"tdual.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert not missing, f"Tracer.install patches names tdual no longer has: {missing}"
