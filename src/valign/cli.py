"""Command-line front end for building, solving, and benchmarking.

Subcommands: validate, build, solve, oracle, bench, report.

Exit codes are a stable scripting contract: 0 success, 1 validation,
re-pricing or optimization failure, 2 usage error, 3 solver failure, 4 timeout.
"""

from __future__ import annotations

import argparse
import csv
import glob
import os
import sys
from dataclasses import asdict

from valign.bench import (
    BenchmarkRecord,
    performance_profile,
    profile_svg,
    run_matrix,
)
from valign.builder import (
    BuildError,
    BuilderConfig,
    QNF_COST_PAIRS,
    build,
)
from valign.gateway import DecodeError, SolverLimits, decode, solve
from valign.instance import HaulClass, InstanceError, RoadInstance
from valign.instance_io import (
    KNOWN_CONFIG_NAMES,
    RunConfig,
    parse_config,
    parse_instance,
)
from valign.mps import emit_mps
from valign.oracle import OracleInfeasible, allocation_cost, enumerate_optimal
from valign.validate import recompute_cost, repricing_error, validate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_TIMEOUT = 4


def _fail(message: str, code: int) -> int:
    print(f"valign: {message}", file=sys.stderr)
    return code


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("mhqnf", "qnf", "ctg"),
                   default="mhqnf", help="model family (default mhqnf)")
    p.add_argument("--haul", choices=sorted(QNF_COST_PAIRS),
                   help="haul class for --model qnf")
    p.add_argument("--blocks", choices=("basic", "sos1"), default="basic",
                   help="block removal formulation (default basic)")
    p.add_argument("--volumes",
                   choices=("linear", "piecewise-sos2", "piecewise-binary"),
                   default="linear",
                   help="volume law formulation (default linear)")


def _config_from_flags(parser: argparse.ArgumentParser,
                       args: argparse.Namespace) -> BuilderConfig:
    if args.model == "qnf":
        if args.haul is None:
            parser.error("--model qnf requires --haul")
        loading, per_m = QNF_COST_PAIRS[args.haul]
        haul = HaulClass(args.haul, loading_cost=loading,
                         unit_haul_cost=per_m)
        subset: tuple[HaulClass, ...] | None = (haul,)
        name = f"QNF-{args.haul}"
    else:
        if args.haul is not None:
            parser.error("--haul applies only to --model qnf")
        subset = None
        name = args.model.upper()
    return BuilderConfig(model=args.model.upper(), haul_subset=subset,
                         block_technique=args.blocks,
                         volume_mode=args.volumes,
                         name=f"{name}-{args.blocks}")


def _solver_command(parser: argparse.ArgumentParser,
                    args: argparse.Namespace) -> str:
    command = args.solver or os.environ.get("VALIGN_SOLVER_CMD")
    if not command:
        parser.error("no solver command: pass --solver or set "
                     "VALIGN_SOLVER_CMD (template tokens {mps} {sol} "
                     "{timelimit} {gap})")
    return command


def _limits(parser: argparse.ArgumentParser, args: argparse.Namespace,
            **defaults: float) -> SolverLimits:
    """SolverLimits from defaults (a run-config file's, else the class's),
    each overridden by an explicit --time-limit or --gap."""
    flags = {"time_limit": args.time_limit, "mip_gap": args.gap}
    defaults.update((name, value) for name, value in flags.items()
                    if value is not None)
    try:
        return SolverLimits(**defaults)
    except ValueError as exc:
        parser.error(str(exc))


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver",
                   help="solver command template; default $VALIGN_SOLVER_CMD")
    p.add_argument("--time-limit", type=float,
                   help="per-solve wall limit in seconds (default 600)")
    p.add_argument("--gap", type=float,
                   help="relative MIP gap (default 0.01)")
    p.add_argument("--sol-format", choices=("auto", "pairs", "xml"),
                   default="auto", help="solution file dialect")


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        instance = parse_instance(args.instance)
    except InstanceError as exc:
        for line in str(exc).splitlines():
            print(line, file=sys.stderr)
        return EXIT_INVALID
    print(f"{args.instance}: valid; sections={instance.n} "
          f"segments={instance.segment_layout.segment_count} "
          f"materials={len(instance.cost_model.materials)} "
          f"hauls={len(instance.cost_model.hauls)} "
          f"borrow={len(instance.borrow_pits)} "
          f"waste={len(instance.waste_pits)} "
          f"blocks={len(instance.blocks)} "
          f"access_roads={len(instance.access_roads)}")
    return EXIT_OK


def cmd_build(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> int:
    try:
        instance = parse_instance(args.instance)
        config = _config_from_flags(parser, args)
        model = build(instance, config)
        emit_mps(model, args.output)
    except (InstanceError, BuildError) as exc:
        return _fail(str(exc), EXIT_INVALID)
    print(f"{args.output}: variables={len(model.columns)} "
          f"constraints={len(model.row_order)} "
          f"binaries={model.binary_count} sos_sets={len(model.sos_sets)}")
    return EXIT_OK


def _result_lines(result, report, recomputed: float) -> list[str]:
    lines = [f"status {result.status}",
             f"objective {result.objective!r}",
             f"recomputed_cost {recomputed!r}",
             f"validation {'pass' if report.passed else 'fail'}"]
    for g, (a1, a2, a3) in enumerate(result.coefficients, start=1):
        lines.append(f"segment {g} {a1!r} {a2!r} {a3!r}")
    for i, u in enumerate(result.offsets, start=1):
        cut = result.section_cut[i - 1]
        fill = result.section_fill[i - 1]
        lines.append(f"section {i} offset {u!r} cut {cut!r} fill {fill!r}")
    for j, used in enumerate(result.borrow_used, start=1):
        lines.append(f"borrow {j} {used!r}")
    for k, used in enumerate(result.waste_used, start=1):
        lines.append(f"waste {k} {used!r}")
    for (k, t), y in sorted(result.removal.items()):
        lines.append(f"removal {k} {t} {y!r}")
    return lines


def cmd_solve(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> int:
    command = _solver_command(parser, args)
    limits = _limits(parser, args, feasibility_tol=args.feasibility_tol)
    try:
        instance = parse_instance(args.instance)
        config = _config_from_flags(parser, args)
        model = build(instance, config)
    except (InstanceError, BuildError) as exc:
        return _fail(str(exc), EXIT_INVALID)

    solution = solve(model, command, limits, workdir=args.workdir,
                     sol_format=args.sol_format)
    if solution.status == "timeout":
        note = f" (logs in {args.workdir})" if args.workdir else ""
        return _fail(f"solver hit the {limits.time_limit:g}s limit{note}",
                     EXIT_TIMEOUT)
    if solution.status == "error":
        return _fail(f"solver failed (log: {solution.solver_log_path})",
                     EXIT_SOLVER)
    if solution.status == "infeasible":
        return _fail("model proven infeasible", EXIT_INVALID)

    try:
        result = decode(solution, instance, config, model=model)
    except DecodeError as exc:
        return _fail(f"cannot decode solution: {exc}", EXIT_SOLVER)
    report = validate(instance, config, result,
                      tolerance=args.feasibility_tol)
    recomputed = recompute_cost(instance, config, result)

    text = "\n".join(_result_lines(result, report, recomputed)) + "\n"
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(report.summary())
    if not report.passed:
        return EXIT_INVALID
    mismatch = repricing_error(recomputed, result.objective)
    return _fail(mismatch, EXIT_INVALID) if mismatch else EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        instance = parse_instance(args.instance)
    except InstanceError as exc:
        return _fail(str(exc), EXIT_INVALID)
    try:
        if args.at:
            offsets = tuple(float(tok) for tok in args.at.split(","))
            cost = allocation_cost(instance, offsets)
        else:
            grids = []
            for i in range(1, instance.n + 1):
                sec = instance.section(i)
                step = (sec.offset_hi - sec.offset_lo) / (args.grid - 1) \
                    if args.grid > 1 else 0.0
                grids.append([sec.offset_lo + step * k
                              for k in range(args.grid)])
            offsets, cost = enumerate_optimal(instance, grids)
    except OracleInfeasible as exc:
        return _fail(f"no feasible allocation: {exc}", EXIT_INVALID)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    print(f"cost {cost!r}")
    print("offsets " + " ".join(repr(u) for u in offsets))
    return EXIT_OK


def _load_suite(parser: argparse.ArgumentParser,
                suite_dir: str) -> list[tuple[str, RoadInstance]]:
    paths = sorted(glob.glob(os.path.join(suite_dir, "*.json")))
    if not paths:
        parser.error(f"empty suite: no *.json under {suite_dir}")
    suite = []
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        suite.append((name, parse_instance(path)))
    return suite


def _run_config(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> RunConfig:
    if args.run_config:
        base = parse_config(args.run_config)
        command = args.solver or os.environ.get("VALIGN_SOLVER_CMD") \
            or base.solver_command
        configs = tuple(args.configs.split(",")) if args.configs \
            else base.configs
        return RunConfig(solver_command=command,
                         limits=_limits(parser, args, **asdict(base.limits)),
                         configs=configs, sol_format=base.sol_format)
    command = _solver_command(parser, args)
    configs = tuple(args.configs.split(",")) if args.configs else ("MQN-B",)
    unknown = [c for c in configs if c not in KNOWN_CONFIG_NAMES]
    if unknown:
        parser.error(f"unknown configs: {', '.join(unknown)} "
                     f"(known: {', '.join(sorted(KNOWN_CONFIG_NAMES))})")
    return RunConfig(solver_command=command,
                     limits=_limits(parser, args),
                     configs=configs, sol_format=args.sol_format)


def _summarize(records: list[BenchmarkRecord]) -> None:
    configs = sorted({r.config for r in records})
    print(f"{'config':10s} {'cells':>5s} {'solved':>6s} {'success':>7s} "
          f"{'mean|E|':>9s} {'mean_s':>8s}")
    for cfg in configs:
        rows = [r for r in records if r.config == cfg]
        solved = [r for r in rows if r.status in ("optimal", "feasible")]
        errs = [abs(r.relative_error) for r in solved
                if r.relative_error is not None]
        mean_err = f"{sum(errs) / len(errs):9.4f}" if errs else "      n/a"
        times = [r.wall_time for r in solved]
        mean_t = f"{sum(times) / len(times):8.2f}" if times else "     n/a"
        print(f"{cfg:10s} {len(rows):5d} {len(solved):6d} "
              f"{sum(1 for r in rows if r.success):7d} {mean_err} {mean_t}")


def cmd_bench(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> int:
    run = _run_config(parser, args)
    try:
        suite = _load_suite(parser, args.suite)
    except InstanceError as exc:
        return _fail(str(exc), EXIT_INVALID)
    os.makedirs(args.out, exist_ok=True)
    progress = (lambda line: print(line, file=sys.stderr)) \
        if args.verbose else None
    records = run_matrix(suite, run.configs, run, out_dir=args.out,
                         workers=args.workers, progress=progress)
    _summarize(records)
    written = f"{args.out}/times.csv, accuracy.csv, profile.csv"
    if args.svg:
        curves = performance_profile(records)
        for curve in curves:
            print(f"{curve.config}: success rate {curve.success_rate:.2f}")
        written += ", " + profile_svg(curves, args.svg)
    print(f"wrote {written}")
    return EXIT_OK


def _print_csv(path: str, title: str) -> None:
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return
    widths = [max(len(row[c]) for row in rows if c < len(row))
              for c in range(len(rows[0]))]
    print(title)
    for row in rows:
        print("  " + "  ".join(cell.ljust(widths[c])
                               for c, cell in enumerate(row)))
    print()


def cmd_report(args: argparse.Namespace) -> int:
    names = ("times.csv", "accuracy.csv", "profile.csv")
    paths = [os.path.join(args.out, n) for n in names]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        return _fail(f"missing report inputs: {', '.join(missing)}",
                     EXIT_USAGE)
    for path, name in zip(paths, names):
        _print_csv(path, name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valign",
        description="Vertical alignment and earthwork optimization tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")

    p = sub.add_parser("build", help="write the model as an MPS file")
    p.add_argument("instance")
    _add_model_flags(p)
    p.add_argument("-o", "--output", required=True, help="MPS output path")

    p = sub.add_parser("solve", help="build, solve, decode, validate")
    p.add_argument("instance")
    _add_model_flags(p)
    _add_solver_flags(p)
    p.add_argument("--feasibility-tol", type=float, default=1e-6)
    p.add_argument("--workdir", help="keep MPS/solution/log files here")
    p.add_argument("-o", "--output", help="result file (default stdout)")

    p = sub.add_parser("oracle", help="brute-force reference optimum")
    p.add_argument("instance")
    p.add_argument("--grid", type=int, default=3,
                   help="offset grid points per section (default 3)")
    p.add_argument("--at", help="price fixed offsets u1,u2,... instead")

    p = sub.add_parser("bench", help="run the full benchmark matrix")
    p.add_argument("suite", help="directory of instance *.json files")
    p.add_argument("--configs", help="comma-separated config names")
    p.add_argument("--run-config",
                   help="run configuration JSON file; its limits hold "
                   "unless --time-limit or --gap is given")
    _add_solver_flags(p)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--verbose", action="store_true",
                   help="print per-cell progress to stderr")
    p.add_argument("--svg",
                   help="also draw the performance profile curves here")

    p = sub.add_parser("report", help="pretty-print bench CSV reports")
    p.add_argument("out", help="directory holding the bench CSVs")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "build":
            return cmd_build(parser, args)
        if args.command == "solve":
            return cmd_solve(parser, args)
        if args.command == "oracle":
            return cmd_oracle(args)
        if args.command == "bench":
            return cmd_bench(parser, args)
        return cmd_report(args)
    except OSError as exc:
        return _fail(str(exc), EXIT_INVALID)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
