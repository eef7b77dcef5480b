"""Schema-valid scenarios either run or are refused from counts.

A hypothesis strategy draws scenarios the schema accepts, small enough that
a run that is not refused ends in milliseconds, and each runs through
cli.main under a small TDUAL_MAX_DIM.  The contract: exit 0 means every
check passed, 1 that one failed, 2 a malformed scenario and 3 a cap, and
nothing is raised.  An exit 3 comes from cli.preflight before a Nerve or a
DualityContext is built, and the run itself, called directly, then meets
the same cap with the same message.  run_checks refuses through preflight
too, so the sizes preflight predicts from counts are checked against the
ones read off the built Workspace.  The ROADMAP's probes, which once took
seconds or died in numpy allocations, are explicit examples at their full
sizes: preflight reads only counts, so nothing grows with them.

`scenarios` is importable, for other property tests to reuse.
"""

import contextlib
import json
import math
import os
import tempfile
import time

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from tdual import cech, cli, groupcoh, triples
from tdual.errors import ResourceCapError

CAPS = (16, 64, 256)
CIRCLE = {"vertices": 3, "simplices": [[0, 1], [0, 2], [1, 2]]}


@st.composite
def scenarios(draw, max_vertices=5, max_factor=6):
    """A scenario the schema accepts: groups of rank 1 or 2, up to
    max_vertices vertices and fiber_dim up to 4.  One in five has a flaw
    that load_scenario or cmd_run refuse with exit 2: a generator of the
    wrong length, a vertex out of range, a modulus that is not a multiple of
    the exponent or a snap tolerance too wide; a twist may also break the
    cocycle law."""
    flaw = draw(st.sampled_from((None,) * 16 + ("generator", "vertex", "modulus", "snap")))
    factors = draw(st.lists(st.integers(2, max_factor), min_size=1, max_size=2))
    coords = st.lists(st.integers(-2, 7), min_size=len(factors), max_size=len(factors))
    gens = draw(st.lists(coords, max_size=2))
    if flaw == "generator":
        length = draw(st.sampled_from([k for k in range(4) if k != len(factors)]))
        gens.append(draw(st.lists(st.integers(0, 3), min_size=length, max_size=length)))
    vertices = draw(st.integers(1, max_vertices))
    top = vertices if flaw == "vertex" else vertices - 1
    simplices = draw(st.lists(st.lists(st.integers(0, top), max_size=5), max_size=4))
    scenario = {"groups": {"factors": factors, "N": gens},
                "nerve": {"vertices": vertices, "simplices": simplices},
                "command": draw(st.sampled_from(sorted(cli.COMMANDS)))}
    edges = sorted({(a, b) for s in simplices for a in s for b in s if a < b})
    if edges and draw(st.booleans()):
        keyed = draw(st.lists(st.sampled_from(edges), min_size=1, unique=True))
        scenario["twist"] = {f"{a},{b}": draw(coords) for a, b in keyed}
    exponent = math.lcm(*factors)
    optional = {
        "fiber_dim": st.integers(1, 4),
        "seed": st.integers(0, 2 ** 16),
        "trials": st.integers(1, 3) | st.just(10 ** 6),
        "modulus": st.integers(1, 3).map(lambda k: k * exponent),
        "tolerances": st.fixed_dictionaries({}, optional={
            "snap": st.sampled_from([1e-12, 1e-6]),
            "operator": st.sampled_from([1e-20, 1e-9]),
            "pipeline": st.sampled_from([1e-20, 1e-8])}),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            scenario[key] = draw(values)
    if flaw == "modulus":
        scenario["modulus"] = draw(st.integers(1, exponent - 1))
    if flaw == "snap":
        scenario.setdefault("tolerances", {})["snap"] = 0.9
    return scenario


@contextlib.contextmanager
def _spied(cap):
    """TDUAL_MAX_DIM at cap, and a count of the Nerves and DualityContexts built."""
    built = {"Nerve": 0, "DualityContext": 0}
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("TDUAL_MAX_DIM", str(cap))
        for cls in (cech.Nerve, triples.DualityContext):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
                built[_name] += 1
                _init(self, *args, **kw)
            mp.setattr(cls, "__init__", counting)
        yield built


def _run(scenario, cap, capsys):
    """(exit code, report or None, stderr, what was built) of one tdual run."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "s.json"), os.path.join(tmp, "r.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        capsys.readouterr()
        with _spied(cap) as built:
            rc = cli.main(["run", path, "-o", out])
        report = None
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
    return rc, report, capsys.readouterr().err, dict(built)


def _built_sizes(ws, cap):
    """The sizes preflight names, read off a built Workspace: the total
    dimensions of its nerve and groups, and the Cech sides from its nerve's
    faces in the order check_cech builds them (the untwisted differential
    in every degree, then the twisted one in degrees 0 and 1), the first
    over cap, else the largest."""
    ctx, nerve = ws.ctx, ws.nerve
    n, q = ctx.G.order, ctx.quotient.order
    side = n * q * ws.d ** 2
    faces = [len(nerve.simplices(k)) for k in range(nerve.dimension + 2)]
    sides = ([max(a, b) for a, b in zip(faces, faces[1:])]
             + [q * max(a, b) for a, b in zip(faces[:2], faces[1:3])])
    return {
        "certificate matrix dimension": max(groupcoh.total_dimension(
            nerve, ctx.G, ctx.quotient, ctx.m, p) for p in (1, 2)),
        "dualisability matrix dimension": n * n * q,
        "crossed-point matrix dimension": side,
        "crossed-glue trial batch size": ws.trials * side,
        "Cech matrix dimension": next((s for s in sides if s > cap), max(sides)),
    }


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(scenario=scenarios(), cap=st.sampled_from(CAPS))
def test_a_run_passes_fails_or_is_refused_from_counts(scenario, cap, capsys):
    rc, report, err, built = _run(scenario, cap, capsys)
    event(f"exit {rc}")
    assert rc in (0, 1, 2, 3)
    if rc in (0, 1):
        assert report["all_passed"] is (rc == 0)
        assert rc == 0 or any(not c["passed"] for c in report["checks"])
        return
    assert report is None
    if rc == 2:
        return
    assert built == {"Nerve": 0, "DualityContext": 0}, err
    # the run refuses on its own too, with the same message where preflight
    # knows the size exactly
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("TDUAL_MAX_DIM", str(cap))
        ws = cli.Workspace(scenario)
        with pytest.raises(ResourceCapError) as ei:
            cli.run_checks(ws, scenario["command"])
        bounds = cli.preflight(scenario, scenario["command"], refuse=False)
    if "at least" not in err:
        assert err == f"resource cap: {ei.value}\n"
        assert {b.name: b.size for b in bounds} == _built_sizes(ws, cap)


# The ROADMAP's probes, with the size each refuses at TDUAL_MAX_DIM = 32.
# Before preflight they ended after 2-26 s: two in numpy allocation errors
# (exit 1), three in an exit 3 once the nerve and the context were built.
Z2 = {"factors": [2], "N": [[1]]}
PROBES = {
    "fiber_dim_300_crossed_point": (
        {"groups": Z2, "nerve": CIRCLE, "fiber_dim": 300, "command": "crossed-point"},
        "matrix dimension 180000 exceeds cap 32 (TDUAL_MAX_DIM)"),
    "trials_1e6_crossed_glue": (
        {"groups": Z2, "nerve": CIRCLE, "trials": 10 ** 6, "command": "crossed-glue"},
        "trial batch size 2000000 exceeds cap 1024 (TDUAL_MAX_DIM squared)"),
    "3e6_vertices_cohomology": (
        {"groups": Z2, "nerve": {"vertices": 3_000_000, "simplices": []},
         "command": "cohomology"},
        "matrix dimension 3000000 exceeds cap 32 (TDUAL_MAX_DIM)"),
    # its first over-cap Cech matrix takes the 17 vertices to the 136 edges
    "17_vertex_simplex_cohomology": (
        {"groups": Z2, "nerve": {"vertices": 17, "simplices": [list(range(17))]},
         "command": "cohomology"},
        "matrix dimension 136 exceeds cap 32 (TDUAL_MAX_DIM)"),
    "fiber_dim_40_all": (
        {"groups": Z2, "nerve": CIRCLE, "fiber_dim": 40, "command": "all"},
        "matrix dimension 3200 exceeds cap 32 (TDUAL_MAX_DIM)"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_roadmap_probe_is_refused_before_anything_is_built(probe, capsys):
    scenario, message = PROBES[probe]
    cli.load_scenario("z6_circle")      # builds the schema validator outside the clock
    start = time.perf_counter()
    rc, report, err, built = _run(scenario, 32, capsys)
    elapsed = time.perf_counter() - start
    assert (rc, report, err) == (3, None, f"resource cap: {message}\n")
    assert built == {"Nerve": 0, "DualityContext": 0}
    assert elapsed < 0.1, elapsed
