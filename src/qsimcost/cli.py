"""Command-line interface for the resource-estimation pipeline.

Subcommands mirror the pipeline stages: ingest, trotter-bound,
oracle-validate, logical, par, nesting, physical, report. All output is
JSON on stdout unless a Markdown format is requested. Exit codes: 0 on
success, 2 on validation errors, 3 when --strict is set and a
tolerance-based comparison fails or oracle-validate checks no step size.

The CLI parses and prints: scenarios owns the published anchors and the
tolerances of every comparison with them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .costs import (
    PhaseEstimationModel,
    SynthesisModel,
    evaluate_cost,
    optimize_budget,
    strategy_report,
)
from .hamiltonian import (
    enumerate_terms,
    export_terms,
    parse_fcidump,
)
from .oracle import DEFAULT_QUBIT_CAP, _check_cap, strang_error_scan
from .par import (
    ParParams,
    nesting_batches,
    nesting_parallelism,
    par_expected_rotations,
    par_factory_time_no_feed_forward,
    par_factory_time_per_rotation,
    par_rotation_factories,
    par_rotation_factories_linear_bound,
)
from .scenarios import (
    ANCHOR_STRUCTURE,
    PHYSICAL_LAYOUT,
    STRATEGY_GROUP_LABELS,
    STRATEGY_LABELS,
    Scenario,
    check_epsilon_target,
    emit,
    load_presets,
    logical_dict,
    logical_table,
    physical_cells,
    physical_dict,
    reference_physical_report,
    run_scenario,
    t_count_gaps,
)
from .trotter import estimate_error_constant

_PE_ALIASES = {
    "optimal": "optimal_surrogate",
    "optimal_surrogate": "optimal_surrogate",
    "rfpe": "rfpe",
    "standard": "standard_qpe",
    "standard_qpe": "standard_qpe",
}
_SYNTH_ALIASES = {
    "average": "fallback_average",
    "fallback_average": "fallback_average",
    "worst": "deterministic_worst_case",
    "deterministic_worst_case": "deterministic_worst_case",
}
_COMBINATION_ALIASES = {
    "worst": "worst_case",
    "worst_case": "worst_case",
    "variance": "variance",
}


def _print_json(data, stream=None):
    print(json.dumps(data, indent=2, sort_keys=True), file=stream or sys.stdout)


def _load_terms(args):
    table = parse_fcidump(args.fcidump)
    return enumerate_terms(table, drop_threshold=args.drop_threshold)


def _add_fcidump_flags(parser):
    parser.add_argument("--fcidump", required=True, help="FCIDUMP input file")
    parser.add_argument(
        "--drop-threshold", type=float, default=1e-10,
        help="drop merged terms below this absolute coefficient",
    )


def _cmd_ingest(args):
    terms = _load_terms(args)
    summary = {
        "source": args.fcidump,
        "n_spatial": terms.n_spin_orbitals // 2,
        "n_spin_orbitals": terms.n_spin_orbitals,
        "n_electrons": terms.n_electrons,
        "core_energy": terms.core_energy,
        "n_terms": len(terms),
        "per_class": {c: len(p) for c, p in terms.by_class().items() if p},
        "one_norm": sum(terms.norms.tolist()),
    }
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(export_terms(terms))
        summary["exported_to"] = args.out
    _print_json(summary)
    return 0


def _cmd_trotter_bound(args):
    terms = _load_terms(args)
    for flag, value, low in (
        ("--samples-per-class", args.samples_per_class, 1), ("--seed", args.seed, 0),
    ):
        if value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
    estimate = estimate_error_constant(
        terms, method=args.method, samples_per_stratum=args.samples_per_class,
        seed=args.seed,
    )
    _print_json({
        "source": args.fcidump,
        "h_bound": estimate.value,
        "method": estimate.method,
        "std_error": estimate.std_error,
        "relative_std_error": estimate.relative_std_error(),
        "samples": estimate.samples,
        "population": estimate.population,
        "seed": estimate.seed,
        "per_class": {
            ",".join(stratum): contribution
            for stratum, contribution in sorted(estimate.per_stratum.items())
        },
    })
    return 0


def _cmd_oracle_validate(args):
    for flag, t in (("--t-min", args.t_min), ("--t-max", args.t_max)):
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"{flag} must be finite and positive, got {t}")
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    terms = _load_terms(args)
    # refuse a register past the oracle's cap before the O(M^3) exhaustive h
    _check_cap(terms.n_spin_orbitals, DEFAULT_QUBIT_CAP)
    estimate = estimate_error_constant(terms)
    t_top = max(args.t_min, args.t_max)
    if not math.isfinite(estimate.value * (t_top * t_top)):
        flag = "--t-max" if t_top == args.t_max else "--t-min"
        raise ValueError(
            f"{flag} {t_top:g} overflows h t^2 with h = {estimate.value:g}"
        )
    ts = np.geomspace(args.t_min, args.t_max, args.points)
    rows = strang_error_scan(terms, ts)
    bounds = [estimate.value * row.t**2 for row in rows]
    violations = [
        {"t": row.t, "bound": bound, "delta_e": row.delta_e}
        for row, bound in zip(rows, bounds)
        if not row.phase_wrapped and bound < row.delta_e
    ]
    checked = sum(1 for row in rows if not row.phase_wrapped)
    _print_json({
        "source": args.fcidump,
        "h_bound": estimate.value,
        "rows": [dict(row.row(), bound=bound)
                 for row, bound in zip(rows, bounds)],
        "checked": checked,
        "violations": violations,
    })
    if violations:
        print(
            f"bound violated at {len(violations)} of {len(rows)} step sizes",
            file=sys.stderr,
        )
    if checked == 0:
        print(
            f"no step size checked: all {len(rows)} rows wrapped their phase",
            file=sys.stderr,
        )
    return 3 if args.strict and (violations or checked == 0) else 0


def _logical_report_from_args(args):
    check_epsilon_target(args.epsilon)
    pe = PhaseEstimationModel.preset(_PE_ALIASES[args.pe])
    synth = SynthesisModel.preset(_SYNTH_ALIASES[args.synthesis])
    combination = _COMBINATION_ALIASES[args.combination]
    budget = optimize_budget(
        args.m, args.epsilon, args.beta, pe, synth, combination=combination
    )
    base = evaluate_cost(
        args.m, budget, args.beta, pe, synth,
        n_spin_orbitals=args.n_spin_orbitals,
    )
    kwargs = {}
    if args.strategy == "nesting":
        if args.parallelism is None:
            raise ValueError("nesting needs --parallelism")
        kwargs["parallelism"] = args.parallelism
    if args.strategy == "par":
        kwargs["par_params"] = ParParams(
            args.par_n, args.par_cached, args.par_c
        )
    return strategy_report(
        base, args.strategy, n_spin_orbitals=args.n_spin_orbitals, **kwargs
    )


def _cmd_logical(args):
    logical = logical_dict(_logical_report_from_args(args))
    if args.format == "markdown":
        print("\n".join(logical_table("Input", [logical])))
    else:
        _print_json(logical)
    return 0


def _cmd_par(args):
    params = ParParams(args.n, args.cached, args.c)
    _print_json({
        "n_levels": params.n_levels,
        "rotations_cached": params.rotations_cached,
        "synthesis_cost": params.synthesis_cost,
        "expected_rotations": par_expected_rotations(params),
        "factory_time_per_rotation": par_factory_time_per_rotation(params),
        "factory_time_no_feed_forward": par_factory_time_no_feed_forward(params),
        "rotation_factories": par_rotation_factories(params),
        "rotation_factories_linear_bound":
            par_rotation_factories_linear_bound(params),
        "t_per_rotation_deterministic": params.n_levels * params.synthesis_cost,
    })
    return 0


def _cmd_nesting(args):
    terms = _load_terms(args)
    sizes = nesting_batches(terms)
    _print_json({
        "source": args.fcidump,
        "n_terms": len(terms),
        "n_batches": len(sizes),
        "mean_batch_size": (sum(sizes) / len(sizes)) if sizes else 1.0,
        "parallelism": nesting_parallelism(terms),
        "batch_sizes": sizes,
    })
    return 0


def _physical_rows(report):
    """The fault-tolerance table column of one report, nested by group."""
    rows = {}
    for (group, label, *_), value in zip(
        PHYSICAL_LAYOUT, physical_cells(physical_dict(report))
    ):
        (rows if group is None else rows.setdefault(group, {}))[label] = value
    return rows


def _cmd_physical(args):
    presets = load_presets()
    output, comparisons = {}, []
    for strategy in args.strategies:
        report, lines = reference_physical_report(
            args.structure, strategy, args.scenario, args.p,
            epsilon=args.epsilon, p_inject=args.inject, presets=presets,
        )
        output[STRATEGY_GROUP_LABELS[strategy]] = _physical_rows(report)
        comparisons += lines
    output["Error Rate"] = args.p
    output["comparisons"] = [line for line, ok in comparisons if ok] + [
        f"OUT OF TOLERANCE: {line}" for line, ok in comparisons if not ok
    ]
    _print_json(output)
    if args.strict and not all(ok for _, ok in comparisons):
        return 3
    return 0


def _scenario_from_args(args):
    config = {}
    if args.config:
        with open(args.config) as handle:
            try:
                config = json.load(handle)
            except ValueError as exc:  # not JSON, or not text
                raise ValueError(f"--config {args.config}: {exc}") from None
        if not isinstance(config, dict):
            raise ValueError(f"--config {args.config}: must hold a JSON object")
    overrides = {
        "structure": args.structure,
        "fcidump": args.fcidump,
        "m_terms": args.m,
        "n_spin_orbitals": args.n_spin_orbitals,
        "beta": args.beta,
        "beta_case": args.beta_case,
        "epsilon_targets": args.epsilons,
        "strategies": args.strategies,
        "error_rates": args.error_rates,
        "p_inject": args.inject,
        "pe_model": _PE_ALIASES[args.pe] if args.pe else None,
        "synthesis_model":
            _SYNTH_ALIASES[args.synthesis] if args.synthesis else None,
        "combination":
            _COMBINATION_ALIASES[args.combination] if args.combination else None,
        "seed": args.seed,
    }
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    known = {field.name for field in Scenario.__dataclass_fields__.values()}
    unknown = set(config) - known
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    return Scenario(**config)


def _cmd_report(args):
    presets = load_presets()
    scenario = _scenario_from_args(args)
    bundle = run_scenario(scenario, presets)
    blob = emit(bundle, args.format)
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(blob)
        print(f"wrote {len(blob)} bytes to {args.out}")
    else:
        sys.stdout.write(blob.decode())
    gaps = t_count_gaps(bundle.scenario, bundle.points, presets)
    failures = [line for _, line, ok in gaps if not ok]
    for line in failures:
        print(f"OUT OF TOLERANCE: {line}", file=sys.stderr)
    if failures and args.strict:
        return 3
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsimcost",
        description="Resource estimator for product-formula quantum "
                    "simulation of chemistry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse an FCIDUMP and enumerate terms")
    _add_fcidump_flags(p)
    p.add_argument("--out", help="write the term list to this file")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser(
        "trotter-bound", help="estimate the Trotter error constant"
    )
    _add_fcidump_flags(p)
    p.add_argument(
        "--method", choices=("exhaustive", "stratified"),
        default="exhaustive",
    )
    p.add_argument(
        "--samples-per-class", type=int, default=200,
        help="stratified samples per class-signature stratum",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_trotter_bound)

    p = sub.add_parser(
        "oracle-validate",
        help="check the error bound against exact step errors",
    )
    _add_fcidump_flags(p)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--t-min", type=float, default=1e-3)
    p.add_argument("--t-max", type=float, default=0.2)
    p.add_argument(
        "--strict", action="store_true",
        help="exit 3 when the bound is violated anywhere or no step size "
        "is checked",
    )
    p.set_defaults(func=_cmd_oracle_validate)

    p = sub.add_parser("logical", help="optimized logical gate counts")
    p.add_argument("--m", type=float, required=True, help="Hamiltonian terms")
    p.add_argument("--beta", type=float, required=True, help="Trotter number")
    p.add_argument("--epsilon", type=float, required=True, help="target, Ha")
    p.add_argument("--n-spin-orbitals", type=int)
    p.add_argument("--pe", choices=sorted(_PE_ALIASES), default="optimal")
    p.add_argument(
        "--synthesis", choices=sorted(_SYNTH_ALIASES), default="average"
    )
    p.add_argument(
        "--strategy", choices=tuple(STRATEGY_LABELS), default="serial"
    )
    p.add_argument(
        "--combination", choices=sorted(_COMBINATION_ALIASES), default="worst"
    )
    p.add_argument("--parallelism", type=float)
    p.add_argument("--par-n", type=int, default=9)
    p.add_argument("--par-c", type=int, default=0)
    p.add_argument("--par-cached", type=int, default=1)
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.set_defaults(func=_cmd_logical)

    p = sub.add_parser("par", help="PAR gadget closed forms")
    p.add_argument("--n", type=int, required=True, help="doubling levels")
    p.add_argument("--c", type=int, required=True, help="synthesis T cost")
    p.add_argument("--cached", type=int, default=1, help="rotations cached")
    p.set_defaults(func=_cmd_par)

    p = sub.add_parser("nesting", help="disjoint-support nesting analysis")
    _add_fcidump_flags(p)
    p.set_defaults(func=_cmd_nesting)

    p = sub.add_parser(
        "physical", help="fault-tolerant layout at published anchors"
    )
    p.add_argument("--p", type=float, required=True, help="Clifford error")
    p.add_argument("--inject", type=float, help="raw magic-state error")
    p.add_argument(
        "--scenario", choices=("table3", "topological"), default="table3",
        help="layout preset, compared with its published matrix",
    )
    p.add_argument("--structure", default=ANCHOR_STRUCTURE)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument(
        "--strategies", nargs="+", default=["serial", "par", "nesting"],
        choices=tuple(STRATEGY_LABELS),
    )
    p.add_argument(
        "--strict", action="store_true",
        help="exit 3 when a published cell is outside tolerance",
    )
    p.set_defaults(func=_cmd_physical)

    p = sub.add_parser("report", help="full scenario grid report")
    p.add_argument("--config", help="JSON file of scenario fields")
    p.add_argument("--structure")
    p.add_argument("--fcidump")
    p.add_argument("--m", type=float)
    p.add_argument("--n-spin-orbitals", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--beta-case", dest="beta_case")
    p.add_argument("--epsilons", nargs="+", type=float)
    p.add_argument(
        "--strategies", nargs="+", choices=tuple(STRATEGY_LABELS)
    )
    p.add_argument("--error-rates", nargs="+", type=float)
    p.add_argument("--inject", type=float)
    p.add_argument("--pe", choices=sorted(_PE_ALIASES))
    p.add_argument("--synthesis", choices=sorted(_SYNTH_ALIASES))
    p.add_argument("--combination", choices=sorted(_COMBINATION_ALIASES))
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument(
        "--strict", action="store_true",
        help="exit 3 when a published comparison is outside tolerance",
    )
    p.set_defaults(func=_cmd_report)
    return parser


# built on the first main() call; parsing leaves a parser as it was
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
