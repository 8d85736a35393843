"""Print one sha256 over the metrics of a fixed, seeded evaluation set.

    PYTHONPATH=src python tools/eval_fingerprint.py [--verbose]

Two checkouts print the same digest exactly when candidate evaluation
returns the same floats, bit for bit, on this set (about 5 s on a
2-CPU x86_64 container):

* the ten Table-1 rows of ``benchmarks/paper_tables.py`` plus Table-3
  OpAmp1 (``benchmarks/bench_table3_opamps.py``), each in the APE box
  and the standalone box, walked by 60 annealer-like one-variable moves
  at two seeds (2640 ``OpAmpSizingProblem.evaluate`` calls; a move to
  a failing candidate is hashed and then undone);
* the best cost and metrics of a few ``synthesize_opamp`` runs, one of
  them a robust tt/ss/ff worst-case run;
* the same eleven rows at ``generic_12um``, both boxes, one walk each
  (682 calls): the box-clamped template point, then 30 moves, of which
  the 10th and 30th shrink a W by 1e-3 (an E301 lint rejection) and
  the 20th an L (a ``SizingError``).  Each call hashes its metrics,
  the Diagnostics it recorded and its ``lint_rejections`` step, so the
  lint gate and the failure path are covered too.

Every float enters the digest through ``float.hex``.  ``--verbose``
also prints one digest per part, to show which part moved.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from bench_table3_opamps import OPAMPS  # noqa: E402
from paper_tables import TABLE1  # noqa: E402

from repro.opamp import coarse_design_opamp  # noqa: E402
from repro.runtime.diagnostics import DiagnosticLog  # noqa: E402
from repro.synthesis import synthesize_opamp  # noqa: E402
from repro.synthesis.problems import (  # noqa: E402
    OpAmpSizingProblem,
    ape_ranges,
    standalone_ranges,
)
from repro.synthesis.robust import RobustSpec  # noqa: E402
from repro.technology import generic_05um, generic_12um  # noqa: E402

SEEDS = (1, 2)
MOVES = 60
#: Log-scale step of one move: a mid-run annealer step (the default
#: schedule starts at 0.8 and shrinks with the temperature).
STEP = 0.3
#: Moves of one lint-gate walk; every tenth leaves the box.
GATE_MOVES = 30


def _metrics_text(metrics: dict[str, float] | None) -> str:
    if metrics is None:
        return "None"
    return ",".join(
        f"{key}={float(value).hex()}" for key, value in sorted(metrics.items())
    )


def _rows():
    rows = [(row.name, row.spec(), row.topology()) for row in TABLE1]
    name, spec, topology = OPAMPS[0]
    rows.append((name, spec, topology))
    return rows


def _walk(tech, name, spec, topology, mode: str, seed: int, digest) -> None:
    """60 one-variable moves from the box-clamped APE point."""
    template, _notes = coarse_design_opamp(tech, spec, topology, name=name)
    if mode == "ape":
        variables = ape_ranges(template)
    else:
        variables = standalone_ranges(template)
    problem = OpAmpSizingProblem(template, variables)
    start = template.initial_point()
    point = {
        v.name: min(max(start.get(v.name, v.lo), v.lo), v.hi)
        for v in variables
    }
    rng = random.Random(f"{name}/{mode}/{seed}")
    for _ in range(MOVES):
        var = rng.choice(variables)
        moved = dict(point)
        value = point[var.name] * math.exp(rng.gauss(0.0, STEP))
        moved[var.name] = min(max(value, var.lo), var.hi)
        metrics = problem.evaluate(moved)
        digest.update(f"{var.name}:{_metrics_text(metrics)}\n".encode())
        if metrics is not None:
            point = moved


def _gate_walk(tech, name, spec, topology, mode: str, digest) -> None:
    """The template point, then 30 moves, every tenth out of the box."""
    template, _notes = coarse_design_opamp(tech, spec, topology, name=name)
    if mode == "ape":
        variables = ape_ranges(template)
    else:
        variables = standalone_ranges(template)
    log = DiagnosticLog(mirror=False)
    problem = OpAmpSizingProblem(template, variables, diagnostics=log)
    start = template.initial_point()
    point = {
        v.name: min(max(start.get(v.name, v.lo), v.lo), v.hi)
        for v in variables
    }

    def evaluate(label: str, params: dict[str, float]):
        seen = len(log)
        rejections = problem.lint_rejections
        metrics = problem.evaluate(params)
        recorded = ";".join(
            f"{d.subsystem}|{d.severity}|{d.message}|"
            f"{sorted(d.context.items())!r}"
            for d in list(log)[seen:]
        )
        digest.update(
            f"{label}:{_metrics_text(metrics)}:"
            f"{problem.lint_rejections - rejections}:{recorded}\n".encode()
        )
        return metrics

    evaluate("start", point)
    rng = random.Random(f"{name}/{mode}/gate")
    for move in range(1, GATE_MOVES + 1):
        moved = dict(point)
        if move % 10 == 0:
            axis = ".l" if move % 20 == 0 else ".w"
            var = rng.choice([v for v in variables if v.name.endswith(axis)])
            moved[var.name] = point[var.name] * 1e-3
        else:
            var = rng.choice(variables)
            value = point[var.name] * math.exp(rng.gauss(0.0, STEP))
            moved[var.name] = min(max(value, var.lo), var.hi)
        if evaluate(var.name, moved) is not None:
            point = moved


def _synthesis_runs():
    """(label, (spec, topology), synthesize_opamp options) per run."""
    rows = {name: (spec, topology) for name, spec, topology in _rows()}
    robust = RobustSpec(corners=("tt", "ss", "ff"), mode="worst")
    return [
        ("oa1 ape", rows["oa1"], {"seed": 3}),
        ("oa3 ape", rows["oa3"], {"seed": 5}),
        ("oa6 standalone", rows["oa6"], {"seed": 7, "mode": "standalone"}),
        (
            "OpAmp1 robust",
            rows["OpAmp1"],
            {"seed": 11, "robust": robust, "max_evaluations": 24},
        ),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--verbose", action="store_true", help="print one digest per part"
    )
    args = parser.parse_args(argv)
    tech = generic_05um()
    total = hashlib.sha256()
    started = time.perf_counter()
    evaluations = 0
    for name, spec, topology in _rows():
        for mode in ("ape", "standalone"):
            for seed in SEEDS:
                part = hashlib.sha256()
                _walk(tech, name, spec, topology, mode, seed, part)
                evaluations += MOVES
                total.update(part.digest())
                if args.verbose:
                    print(f"{part.hexdigest()[:16]}  {name} {mode} seed {seed}")
    runs = _synthesis_runs()
    for label, (spec, topology), options in runs:
        kwargs = {"max_evaluations": 40, "name": label.split()[0], **options}
        result = synthesize_opamp(tech, spec, topology, **kwargs)
        part = hashlib.sha256(
            f"{label}:{float(result.best_cost).hex()}:"
            f"{_metrics_text(result.metrics)}\n".encode()
        )
        total.update(part.digest())
        if args.verbose:
            print(f"{part.hexdigest()[:16]}  synthesize {label}")
    tech_12 = generic_12um()
    for name, spec, topology in _rows():
        for mode in ("ape", "standalone"):
            part = hashlib.sha256()
            _gate_walk(tech_12, name, spec, topology, mode, part)
            evaluations += GATE_MOVES + 1
            total.update(part.digest())
            if args.verbose:
                print(f"{part.hexdigest()[:16]}  {name} {mode} generic_12um gate")
    elapsed = time.perf_counter() - started
    print(
        f"{total.hexdigest()}  ({evaluations} evaluations + "
        f"{len(runs)} syntheses, {elapsed:.1f} s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
