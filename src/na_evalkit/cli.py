"""Command-line front end: validate, evaluate, normalize, compare, whatif.

Reports go to stdout (table, json, or csv), diagnostics to stderr. Exit codes:
0 success, 1 I/O or usage error, 2 domain error, which ``main`` reports in one
``error[<code>]: ...`` line; a command that walks a circuit stops at its first
illegal stage. A report's table and csv columns are the scalar fields of its
dataclass, in field order. Table mode renders fidelities as percentages with
two decimals (half-to-even), and magnitudes from 1e16 on in scientific
notation; json and csv carry full precision. Set NA_EVALKIT_COLOR=always|never|auto
to control ANSI styling of table headers. ``normalize --emit`` writes the
collapsed circuit a few stage lines at a time, and only csv output imports ``csv``.

Each command runs with Python's cyclic garbage collector paused: its records
are acyclic tuples that reference counting frees, so the collector would only
walk them again and again. ``main`` restores the caller's setting when the
command returns or raises.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import io
import json
import os
import sys
import warnings

from . import __version__, grid, normalize
from .arch import ArchitectureSpec, parse_architecture
from .errors import EvalKitError
from .evaluator import FidelityBreakdown
from .models import Model, WhatIfInput, WhatIfResult, evaluate_model, whatif_collapse
from .rsqasm import Program, parse_program, serialize_program

TOOL = "na-evalkit"

# field annotation -> column kind; "percent" formats as 100*x with 2 decimals
# in table mode. Fields of any other annotation are not columns.
_KINDS = {"Fidelity": "percent", "float": "number", "int": "int", "str": "str"}


def _columns(report: type) -> list[tuple[str, str]]:
    """(name, kind) of each scalar field of a report dataclass, in field order."""
    return [(f.name, _KINDS[f.type]) for f in dataclasses.fields(report) if f.type in _KINDS]


_EVALUATE_COLUMNS = _columns(FidelityBreakdown)  # "model" first, then the metrics
_METRIC_COLUMNS = [column for column in _EVALUATE_COLUMNS if column[0] != "model"]
_NORMALIZE_COLUMNS = _columns(normalize.NormalizationReport)
_WHATIF_COLUMNS = _columns(WhatIfResult)


def _use_color() -> bool:
    mode = os.environ.get("NA_EVALKIT_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return sys.stdout.isatty()


def _fmt_number(value: float) -> str:
    if abs(value) >= 1e16:
        return f"{value:.4e}"
    return f"{value:.4f}".rstrip("0").rstrip(".")


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
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([name for name, _ in columns])
    for row in rows:
        writer.writerow([row.get(name, "") for name, _ in columns])
    return buf.getvalue()


def _emit(report: dict, columns: list[tuple[str, str]], rows: list[dict], fmt: str):
    """Write ``rows`` as a table or csv, or ``report`` as json under the tool's head."""
    if fmt == "json":
        report = {"tool": TOOL, "version": __version__, **report}
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    elif fmt == "csv":
        sys.stdout.write(_render_csv(columns, rows))
    else:
        sys.stdout.write(_render_table(columns, rows))


def _load_program(path: str) -> Program:
    """Parse a circuit file; its bytes reach the parser unchanged."""
    with open(path, "rb") as fh:
        return parse_program(fh.read())


def _load_arch(path: str) -> ArchitectureSpec:
    """Parse a hardware file's unchanged bytes, printing its unknown-key warnings
    to stderr as ``warning: ...`` lines, also when the parse fails. They come
    object by object, not in text order: an object's own before its nested objects'."""
    with open(path, "rb") as fh, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return parse_architecture(fh.read())
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)


def _fields(obj, columns: list[tuple[str, str]]) -> dict:
    return {name: getattr(obj, name) for name, _ in columns}


def cmd_validate(args) -> int:
    radius = args.interaction_radius
    grid.require_interaction_radius(radius)  # before any file is read
    program, spec = _load_program(args.circuit), _load_arch(args.arch)
    state = grid.initial_state(spec)
    for index, stage in enumerate(program.stages):
        if radius is not None:  # printed before advance raises, so before main's error line
            for warning in grid.validate_stage(state, stage, radius).warnings:
                print(f"warning: stage {index}: {warning}", file=sys.stderr)
        grid.advance(state.occupancy, state.side, stage, index)
    print(f"ok: {len(program.stages)} stage(s), {len(state.occupancy)} atom(s)")
    return 0


def cmd_evaluate(args) -> int:
    program, spec = _load_program(args.circuit), _load_arch(args.arch)
    breakdown = evaluate_model(program, spec, args.model)
    row = _fields(breakdown, _EVALUATE_COLUMNS)
    # "model" keeps its place ahead of the paths when ``row`` fills in the rest
    report = {"model": breakdown.model, "circuit": args.circuit, "architecture": args.arch, **row}
    _emit(report, _EVALUATE_COLUMNS, [row], args.format)
    return 0


def cmd_normalize(args) -> int:
    program, spec = _load_program(args.circuit), _load_arch(args.arch)
    collapsed, rep = normalize.collapse(program, spec)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8", newline="\n") as fh:  # LF on every platform
            serialize_program(collapsed, fh)
    fields = _fields(rep, _NORMALIZE_COLUMNS)
    row = {**fields, "rewrites": len(rep.rewrites_applied)}
    report = {
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
    spec = _load_arch(args.arch)
    rows = []
    for path in args.circuits:
        try:
            program = _load_program(path)
            breakdown = evaluate_model(program, spec, args.model)
            rows.append({"circuit": path, **_fields(breakdown, _METRIC_COLUMNS), "error": None})
        except EvalKitError as exc:
            rows.append({"circuit": path, "error": f"{exc.code}: {exc}"})
    report = {"model": args.model, "architecture": args.arch, "rows": rows}
    columns = [("circuit", "str")] + _METRIC_COLUMNS + [("error", "str")]
    _emit(report, columns, rows, args.format)
    return 2 if any(row["error"] for row in rows) else 0


def cmd_whatif(args) -> int:
    spec = _load_arch(args.arch)
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
    _emit({"architecture": args.arch, **row}, _WHATIF_COLUMNS, [row], args.format)
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
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except EvalKitError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
