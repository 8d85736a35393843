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
  them a robust tt/ss/ff worst-case run.  Each run is made twice: with
  the default memo, which is hashed, and with ``memo=False``, which is
  not; the tool exits 1, naming the run, when the two differ in a bit
  of the best cost, params or metrics, so it also holds the contract
  that the memo never changes a result;
* the same eleven rows at ``generic_12um``, both boxes, one walk each
  (682 calls): the box-clamped template point, then 30 moves, of which
  the 10th and 30th shrink a W by 1e-3 (an E301 lint rejection) and
  the 20th an L (a ``SizingError``).  Each call hashes its metrics,
  the Diagnostics it recorded and its ``lint_rejections`` step, so the
  lint gate and the failure path are covered too;
* robust family walks of OpAmp1 and oa3, both boxes, under the corners
  ``tt,ss,ff,ss@-40C,4.5V`` plus one Monte Carlo sample (244 families
  through ``RobustEvaluator.variants``): the template point, then 60
  moves.  Each family hashes every variant's metrics and its screen
  verdict, so the stacked family evaluation and the members it leaves
  to their own ``evaluate`` are covered too.

Every float enters the digest through ``float.hex``.  ``--verbose``
also prints one digest per part, to show which part moved.  The digest
line is printed last, also when the memo cross-check fails.

A change that moves result bits bumps ``EVALUATOR_VERSION``, and a
hash cannot vouch for it.  So the tool also writes every call's
metrics, keyed by part and call, and compares two such files:

    PYTHONPATH=src python tools/eval_fingerprint.py --write base.json
    PYTHONPATH=src python tools/eval_fingerprint.py --compare base.json head.json

The comparison prints each metric's largest relative deviation, on all
walks and on the APE-box walks, and the count of calls that flipped
between evaluated and failed (a NaN against a number counts as a
flip).  It exits 1 beyond the bound: no flips, and the metrics of
:data:`BOUNDED` within :data:`BOUND_ALL` on every walk and within
:data:`BOUND_APE` on the APE-box walks.  ``offset``, which no cost
reads, and the syntheses' best costs are reported but not bounded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
    EVALUATOR_VERSION,
    OpAmpSizingProblem,
    ape_ranges,
    standalone_ranges,
)
from repro.synthesis.robust import RobustEvaluator, RobustSpec  # noqa: E402
from repro.synthesis.specs import opamp_synthesis_spec  # noqa: E402
from repro.technology import generic_05um, generic_12um  # noqa: E402

SEEDS = (1, 2)
MOVES = 60
#: Log-scale step of one move: a mid-run annealer step (the default
#: schedule starts at 0.8 and shrinks with the temperature).
STEP = 0.3
#: Moves of one lint-gate walk; every tenth leaves the box.
GATE_MOVES = 30
#: Rows, corners and Monte Carlo samples of the robust family walks.
ROBUST_ROWS = ("OpAmp1", "oa3")
ROBUST_CORNERS = ("tt", "ss", "ff", "ss@-40C,4.5V")
ROBUST_MC = 1
#: Metrics a cost reads, bounded by the comparison.
BOUNDED = ("gain", "ugf", "phase_margin", "gate_area", "dc_power", "i_ref")
#: Largest relative deviation of a bounded metric on any walk.
BOUND_ALL = 1e-2
#: Largest relative deviation of a bounded metric on an APE-box walk.
BOUND_APE = 1e-4


def _metrics_text(metrics: dict[str, float] | None) -> str:
    if metrics is None:
        return "None"
    return ",".join(
        f"{key}={float(value).hex()}" for key, value in sorted(metrics.items())
    )


def _hex_metrics(metrics: dict[str, float] | None) -> dict[str, str] | None:
    if metrics is None:
        return None
    return {key: float(value).hex() for key, value in sorted(metrics.items())}


def _rows():
    rows = [(row.name, row.spec(), row.topology()) for row in TABLE1]
    name, spec, topology = OPAMPS[0]
    rows.append((name, spec, topology))
    return rows


def _walk(
    tech, name, spec, topology, mode: str, seed: int, digest, calls: list
) -> None:
    """60 one-variable moves from the box-clamped APE point.

    Each call's metrics are appended to ``calls``.
    """
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
        calls.append(metrics)
        digest.update(f"{var.name}:{_metrics_text(metrics)}\n".encode())
        if metrics is not None:
            point = moved


def _gate_walk(
    tech, name, spec, topology, mode: str, digest, calls: list
) -> None:
    """The template point, then 30 moves, every tenth out of the box.

    Each call's metrics are appended to ``calls``.
    """
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
        calls.append(metrics)
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


def _robust_walk(tech, name, spec, topology, mode, digest, calls: dict) -> int:
    """The template point, then 60 moves, each a robust family.

    Each family's variants go to ``calls`` under their labels; returns
    the number of families.
    """
    template, _notes = coarse_design_opamp(tech, spec, topology, name=name)
    if mode == "ape":
        variables = ape_ranges(template)
    else:
        variables = standalone_ranges(template)
    evaluator = RobustEvaluator(
        template,
        variables,
        RobustSpec(corners=ROBUST_CORNERS, mc_samples=ROBUST_MC),
        opamp_synthesis_spec(spec),
    )
    start = template.initial_point()
    point = {
        v.name: min(max(start.get(v.name, v.lo), v.lo), v.hi)
        for v in variables
    }
    rng = random.Random(f"{name}/{mode}/robust")
    moved, label = point, "start"
    for move in range(MOVES + 1):
        if move:
            var = rng.choice(variables)
            moved = dict(point)
            value = point[var.name] * math.exp(rng.gauss(0.0, STEP))
            moved[var.name] = min(max(value, var.lo), var.hi)
            label = var.name
        screened = evaluator.screened_candidates
        family = evaluator.variants(moved)
        verdict = "screened" if evaluator.screened_candidates > screened else "kept"
        digest.update(f"{label}:{verdict}\n".encode())
        for variant, metrics in family.items():
            calls[f"{name} {mode} robust#{move} {variant}"] = metrics
            digest.update(f"  {variant}:{_metrics_text(metrics)}\n".encode())
        if family["nominal"] is not None:
            point = moved
    return MOVES + 1


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


def _hex_result(result) -> tuple:
    """A synthesis result's best cost, params and metrics by ``float.hex``."""
    return (
        float(result.best_cost).hex(),
        _hex_metrics(result.params),
        _hex_metrics(result.metrics),
    )


def _relative(head: float, base: float) -> float:
    if head == base:
        return 0.0
    if base == 0.0:
        return math.inf
    return abs(head - base) / abs(base)


def _flipped(head: dict | None, base: dict | None) -> bool:
    """True when one side evaluated and the other failed.

    A metric that is NaN on one side only, or present on one side only,
    counts as a flip too.
    """
    if head is None or base is None:
        return head is not base
    if head.keys() != base.keys():
        return True
    return any(
        math.isnan(float.fromhex(head[k])) != math.isnan(float.fromhex(base[k]))
        for k in head
    )


def compare(base: dict, head: dict) -> tuple[list[str], bool]:
    """The deviation report of ``head`` against ``base``: ``(lines, ok)``.

    Both are files written by ``--write``.  ``ok`` holds when no call
    flipped and every metric of :data:`BOUNDED` stays within its bound.
    """
    if base["calls"].keys() != head["calls"].keys():
        raise SystemExit("the two files hold different walks")
    worst: dict[tuple[str, bool], tuple[float, str]] = {}
    flips = []
    for key, base_metrics in base["calls"].items():
        head_metrics = head["calls"][key]
        if _flipped(head_metrics, base_metrics):
            flips.append(key)
            continue
        if head_metrics is None:
            continue
        ape = " ape " in key
        for metric, text in head_metrics.items():
            dev = _relative(float.fromhex(text), float.fromhex(base_metrics[metric]))
            if math.isnan(dev):  # NaN on both sides
                dev = 0.0
            for scope in {False, ape}:
                if dev > worst.get((metric, scope), (-1.0, ""))[0]:
                    worst[(metric, scope)] = (dev, key)
    lines = [
        f"evaluator {base['evaluator']} ({base['solver']}) -> "
        f"{head['evaluator']} ({head['solver']}), {len(base['calls'])} calls",
        f"{'metric':<14}{'all walks':>12}{'bound':>8}"
        f"{'APE boxes':>12}{'bound':>8}  worst call",
    ]
    ok = not flips
    for metric in sorted({metric for metric, _ in worst}):
        dev_all, key = worst[(metric, False)]
        dev_ape = worst.get((metric, True), (0.0, ""))[0]
        bounded = metric in BOUNDED
        if bounded and not (dev_all <= BOUND_ALL and dev_ape <= BOUND_APE):
            ok = False
        lines.append(
            f"{metric:<14}{dev_all:>12.2g}"
            f"{f'{BOUND_ALL:g}' if bounded else '-':>8}"
            f"{dev_ape:>12.2g}{f'{BOUND_APE:g}' if bounded else '-':>8}"
            f"  {key if dev_all else '-'}"
        )
    lines.append(f"flips: {len(flips)} (bound 0) {' '.join(flips[:5])}".rstrip())
    for label, base_run in base["syntheses"].items():
        head_cost = float.fromhex(head["syntheses"][label]["best_cost"])
        base_cost = float.fromhex(base_run["best_cost"])
        lines.append(
            f"synthesis {label}: best cost {base_cost:.6g} -> {head_cost:.6g}"
            f" (rel {_relative(head_cost, base_cost):.2g}, not bounded)"
        )
    lines.append("within the bound" if ok else "BEYOND THE BOUND")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--verbose", action="store_true", help="print one digest per part"
    )
    parser.add_argument(
        "--write", metavar="FILE", help="also write every call's metrics"
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("BASE", "HEAD"),
        help="report HEAD's deviation from BASE (two --write files) and "
        "exit 1 beyond the bound; runs no evaluation",
    )
    args = parser.parse_args(argv)
    if args.compare:
        base, head = (json.loads(Path(p).read_text()) for p in args.compare)
        lines, ok = compare(base, head)
        print("\n".join(lines))
        return 0 if ok else 1
    tech = generic_05um()
    total = hashlib.sha256()
    started = time.perf_counter()
    evaluations = 0
    calls: dict[str, dict[str, str] | None] = {}

    def record(label: str, metrics: list) -> None:
        for index, value in enumerate(metrics):
            calls[f"{label}#{index}"] = _hex_metrics(value)

    for name, spec, topology in _rows():
        for mode in ("ape", "standalone"):
            for seed in SEEDS:
                part = hashlib.sha256()
                walked: list = []
                _walk(tech, name, spec, topology, mode, seed, part, walked)
                record(f"{name} {mode} seed {seed}", walked)
                evaluations += MOVES
                total.update(part.digest())
                if args.verbose:
                    print(f"{part.hexdigest()[:16]}  {name} {mode} seed {seed}")
    runs = _synthesis_runs()
    syntheses = {}
    memo_mismatches = []
    for label, (spec, topology), options in runs:
        kwargs = {"max_evaluations": 40, "name": label.split()[0], **options}
        result = synthesize_opamp(tech, spec, topology, **kwargs)
        uncached = synthesize_opamp(tech, spec, topology, memo=False, **kwargs)
        if _hex_result(result) != _hex_result(uncached):
            memo_mismatches.append(label)
        part = hashlib.sha256(
            f"{label}:{float(result.best_cost).hex()}:"
            f"{_metrics_text(result.metrics)}\n".encode()
        )
        syntheses[label] = {
            "best_cost": float(result.best_cost).hex(),
            "metrics": _hex_metrics(result.metrics),
        }
        total.update(part.digest())
        if args.verbose:
            print(f"{part.hexdigest()[:16]}  synthesize {label}")
    tech_12 = generic_12um()
    for name, spec, topology in _rows():
        for mode in ("ape", "standalone"):
            part = hashlib.sha256()
            walked = []
            _gate_walk(tech_12, name, spec, topology, mode, part, walked)
            record(f"{name} {mode} generic_12um gate", walked)
            evaluations += GATE_MOVES + 1
            total.update(part.digest())
            if args.verbose:
                print(f"{part.hexdigest()[:16]}  {name} {mode} generic_12um gate")
    families = 0
    for name, spec, topology in _rows():
        if name not in ROBUST_ROWS:
            continue
        for mode in ("ape", "standalone"):
            part = hashlib.sha256()
            walked: dict = {}
            families += _robust_walk(tech, name, spec, topology, mode, part, walked)
            for key, value in walked.items():
                calls[key] = _hex_metrics(value)
            total.update(part.digest())
            if args.verbose:
                print(f"{part.hexdigest()[:16]}  {name} {mode} robust family")
    elapsed = time.perf_counter() - started
    if args.write:
        from repro.spice.linalg import solver_mode

        Path(args.write).write_text(
            json.dumps(
                {
                    "evaluator": EVALUATOR_VERSION,
                    "solver": solver_mode(),
                    "calls": calls,
                    "syntheses": syntheses,
                },
                indent=0,
            )
        )
    for label in memo_mismatches:
        print(
            f"memo cross-check: synthesis {label!r} differs from its "
            "memo=False run in best cost, params or metrics",
            file=sys.stderr,
        )
    print(
        f"{total.hexdigest()}  ({evaluations} evaluations + "
        f"{len(runs)} syntheses + {families} robust families, "
        f"{elapsed:.1f} s)"
    )
    return 1 if memo_mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
