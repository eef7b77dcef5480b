#!/usr/bin/env python3
"""Record the canonical outputs the benchmark's oracle compares against.

    python3 perfbench/record_goldens.py

Writes perfbench/goldens.json from the tdual under ./src:
  scenario_all       per scenario: exit code and the seed-independent part
                     of the report (derived, check names, pass flags,
                     invariant factors), confirmed equal on two seeds;
  complex_laws       per seed 0..GOLDEN_SEEDS-1 and rung: a digest of d(f);
  cohomology_ladder  per rung: the invariant factors, confirmed on two seeds.
Residuals and certificates are not recorded: the benchmark re-verifies
them by their defining equations.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tdual import cli  # noqa: E402
import workloads  # noqa: E402

GOLDEN_SEEDS = 40


def scenario_goldens(workdir):
    wl = workloads.ScenarioAll(0, workdir, {})
    out = {}
    for key, (_, _, defect_checks) in workloads.SCENARIOS.items():
        seen = []
        for seed in (11, 12):
            path = os.path.join(workdir, "report.json")
            if os.path.exists(path):
                os.unlink(path)
            rc = cli.main(["run", wl.paths[key], "--seed", str(seed), "-o", path])
            proj = None
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    proj = workloads.report_projection(json.load(fh), defect_checks)
            seen.append((rc, proj))
        if seen[0] != seen[1]:
            raise SystemExit(f"{key}: canonical output depends on the seed")
        out[key] = {"exit": seen[0][0], "projection": seen[0][1]}
        print(f"scenario {key}: exit {seen[0][0]}", flush=True)
    return out


def complex_goldens(workdir):
    keys = [r["key"] for r in workloads.complex_rungs()]
    digests = {}
    for seed in range(GOLDEN_SEEDS):
        wl = workloads.ComplexLaws(seed, workdir, {})
        row = []
        for rung in wl.rungs:
            once, d2_zero = wl._op(rung).call()
            if not d2_zero:
                raise SystemExit(f"seed {seed} {rung['key']}: d(d(f)) != 0")
            row.append(workloads.digest(once))
        digests[str(seed)] = " ".join(row)
        print(f"complex_laws seed {seed}", flush=True)
    return {"rungs": keys, "digests": digests}


def ladder_goldens(workdir):
    found = {}
    for seed in (11, 12):
        wl = workloads.CohomologyLadder(seed, workdir, {})
        for op in wl.cycle(0):
            factors = op.call()[0]
            if found.setdefault(op.key, factors) != factors:
                raise SystemExit(f"{op.key}: factors depend on the seed")
    return {k: found[k] for k in sorted(found)}


def main():
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        goldens = {
            "scenario_all": scenario_goldens(workdir),
            "complex_laws": complex_goldens(workdir),
            "cohomology_ladder": ladder_goldens(workdir),
        }
    with open(workloads.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
