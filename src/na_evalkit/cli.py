"""Command-line front end: validate, evaluate, normalize, compare, whatif.

Reports go to stdout (table, json, or csv), diagnostics to stderr.
Exit codes: 0 success, 1 I/O or usage error, 2 domain error. Table mode
renders fidelities as percentages with two decimals (half-to-even); json
and csv carry full precision. Set NA_EVALKIT_COLOR=always|never|auto to
control ANSI styling of table headers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import __version__, grid, normalize
from .arch import ArchitectureSpec, parse_architecture
from .errors import EvalKitError, IllegalStage
from .models import Model, WhatIfInput, evaluate_model, whatif_collapse
from .rsqasm import Program, parse_program, serialize_program

TOOL = "na-evalkit"

# column -> kind; "percent" formats as 100*x with 2 decimals in table mode
_METRIC_COLUMNS = [
    ("f_decoherence", "percent"),
    ("f_gates", "percent"),
    ("f_movements", "percent"),
    ("asp", "percent"),
    ("t_total_us", "number"),
    ("t_idle_us", "number"),
    ("gate_count", "int"),
    ("one_qubit_gate_count", "int"),
    ("two_qubit_gate_count", "int"),
    ("move_count", "int"),
    ("stage_count", "int"),
    ("total_move_distance_cells", "number"),
]


def _use_color() -> bool:
    mode = os.environ.get("NA_EVALKIT_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return sys.stdout.isatty()


def _fmt_number(value: float) -> str:
    text = f"{value:.4f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


def _fmt_cell(value, kind: str) -> str:
    if value is None:
        return ""
    if kind == "percent":
        return f"{100.0 * value:.2f}"
    if kind == "number":
        return _fmt_number(value)
    return str(value)


def _render_table(columns: list[tuple[str, str]], rows: list[dict]) -> str:
    headers = [name for name, _ in columns]
    cells = [[_fmt_cell(row.get(name), kind) for name, kind in columns] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    if _use_color():
        header_line = f"\x1b[1m{header_line}\x1b[0m"
    lines = [header_line]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(columns: list[tuple[str, str]], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([name for name, _ in columns])
    for row in rows:
        writer.writerow([row.get(name, "") for name, _ in columns])
    return buf.getvalue()


def _emit(report: dict, columns: list[tuple[str, str]], rows: list[dict], fmt: str):
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    elif fmt == "csv":
        sys.stdout.write(_render_csv(columns, rows))
    else:
        sys.stdout.write(_render_table(columns, rows))


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(circuit_path: str, arch_path: str) -> tuple[Program, ArchitectureSpec]:
    program = parse_program(_read(circuit_path))
    spec = parse_architecture(_read(arch_path))
    return program, spec


def _fields(obj, columns: list[tuple[str, str]]) -> dict:
    return {name: getattr(obj, name) for name, _ in columns}


def cmd_validate(args) -> int:
    program, spec = _load(args.circuit, args.arch)
    occupancy = grid.initial_state(spec).occupancy
    failures = 0
    for index, stage in enumerate(program.stages):
        try:
            diagnosis = grid.advance(
                occupancy, spec.grid_side, stage, index, args.interaction_radius
            )
        except IllegalStage as exc:
            diagnosis = exc.diagnosis
        for warning in diagnosis.warnings:
            print(f"warning: stage {index}: {warning}", file=sys.stderr)
        if not diagnosis.legal:
            print(f"error[IllegalStage]: stage {index}: {diagnosis}", file=sys.stderr)
            failures += 1
    if failures:
        return 2
    print(f"ok: {len(program.stages)} stage(s), {len(occupancy)} atom(s)")
    return 0


def cmd_evaluate(args) -> int:
    program, spec = _load(args.circuit, args.arch)
    breakdown = evaluate_model(program, spec, args.model)
    metrics = _fields(breakdown, _METRIC_COLUMNS)
    row = {"model": breakdown.model, **metrics}
    report = {
        "tool": TOOL,
        "version": __version__,
        "model": breakdown.model,
        "circuit": args.circuit,
        "architecture": args.arch,
        **metrics,
    }
    _emit(report, [("model", "str")] + _METRIC_COLUMNS, [row], args.format)
    return 0


_NORMALIZE_COLUMNS = [
    ("moves_before", "int"),
    ("moves_after", "int"),
    ("distance_before_cells", "number"),
    ("distance_after_cells", "number"),
    ("saved_distance_cells", "number"),
]


def cmd_normalize(args) -> int:
    program, spec = _load(args.circuit, args.arch)
    collapsed, rep = normalize.collapse(program, spec)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(serialize_program(collapsed))
    fields = _fields(rep, _NORMALIZE_COLUMNS)
    row = {**fields, "rewrites": len(rep.rewrites_applied)}
    report = {
        "tool": TOOL,
        "version": __version__,
        "circuit": args.circuit,
        "architecture": args.arch,
        **fields,
        "rewrites_applied": [
            {"rule": ev.rule, "stages": list(ev.stages)} for ev in rep.rewrites_applied
        ],
    }
    _emit(report, _NORMALIZE_COLUMNS + [("rewrites", "int")], [row], args.format)
    return 0


def cmd_compare(args) -> int:
    spec = parse_architecture(_read(args.arch))
    rows = []
    failed = False
    for path in args.circuits:
        try:
            program = parse_program(_read(path))
            breakdown = evaluate_model(program, spec, args.model)
            rows.append({"circuit": path, **_fields(breakdown, _METRIC_COLUMNS), "error": None})
        except EvalKitError as exc:
            failed = True
            rows.append({"circuit": path, "error": f"{exc.code}: {exc}"})
    report = {
        "tool": TOOL,
        "version": __version__,
        "model": args.model,
        "architecture": args.arch,
        "rows": rows,
    }
    columns = [("circuit", "str")] + _METRIC_COLUMNS + [("error", "str")]
    _emit(report, columns, rows, args.format)
    return 2 if failed else 0


_WHATIF_COLUMNS = [
    ("delta_t_move_us", "number"),
    ("delta_t_idle_us", "number"),
    ("t_idle_new_us", "number"),
    ("f_decoherence", "percent"),
    ("f_movements", "percent"),
]


def cmd_whatif(args) -> int:
    spec = parse_architecture(_read(args.arch))
    result = whatif_collapse(
        WhatIfInput(
            old_t_idle_us=args.old_idle,
            saved_distance_cells=args.saved_distance,
            old_move_count=args.moves_before,
            new_move_count=args.moves_after,
            n=args.n,
        ),
        spec,
    )
    row = _fields(result, _WHATIF_COLUMNS)
    report = {"tool": TOOL, "version": __version__, "architecture": args.arch, **row}
    _emit(report, _WHATIF_COLUMNS, [row], args.format)
    return 0


class _Parser(argparse.ArgumentParser):
    # spec'd exit-code contract reserves 2 for domain errors; usage errors are 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_format(parser):
    parser.add_argument(
        "--format", choices=["table", "json", "csv"], default="table",
        help="report format (default: table)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=TOOL, description=__doc__.split("\n", 1)[0])
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a circuit and simulate it on the grid")
    p.add_argument("circuit")
    p.add_argument("arch")
    p.add_argument(
        "--interaction-radius", type=float, default=None,
        help="warn (advisory only) when cz operands are farther apart than this many cells",
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("evaluate", help="compute the fidelity breakdown of a circuit")
    p.add_argument("circuit")
    p.add_argument("arch")
    p.add_argument(
        "--model", choices=[m.value for m in Model], default=Model.UNIFIED.value,
    )
    _add_format(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("normalize", help="collapse redundant movement and report savings")
    p.add_argument("circuit")
    p.add_argument("arch")
    p.add_argument("--emit", metavar="PATH", help="write the collapsed circuit here")
    _add_format(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("compare", help="evaluate several circuits against one architecture")
    p.add_argument("circuits", nargs="+", metavar="circuit")
    p.add_argument("--arch", required=True)
    p.add_argument(
        "--model", choices=[m.value for m in Model], default=Model.UNIFIED.value,
    )
    _add_format(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "whatif", help="recompute decoherence/movement fidelity for a collapsed schedule"
    )
    p.add_argument("arch")
    p.add_argument("--old-idle", type=float, required=True, help="idle time before, us")
    p.add_argument(
        "--saved-distance", type=float, required=True, help="distance saved, cell units"
    )
    p.add_argument("--moves-before", type=int, required=True)
    p.add_argument("--moves-after", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="qubit count")
    _add_format(p)
    p.set_defaults(func=cmd_whatif)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EvalKitError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
