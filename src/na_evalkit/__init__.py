"""Evaluation toolkit for staged neutral-atom circuit schedules.

Parses a unified JSON hardware description and a stage-based circuit text
format, simulates grid occupancy, computes fidelity breakdowns under a
unified model and under three earlier compilers' cost models, and collapses
redundant shuttling patterns.

The flat-QASM adapter's five names load :mod:`na_evalkit.ingest` on first
access, since no command uses it.
"""

from .arch import (
    ArchitectureSpec,
    QubitPlacement,
    effective_coherence_time,
    parse_architecture,
    serialize_architecture,
)
from .errors import EvalKitError
from .evaluator import (
    FidelityBreakdown,
    ProgramTrace,
    instruction_duration,
    trace_program,
)
from .grid import GridState, StageDiagnosis, apply_stage, cell_distance, initial_state, simulate, validate_stage
from .models import (
    Model,
    WhatIfInput,
    WhatIfResult,
    evaluate_dasatom,
    evaluate_enola,
    evaluate_hybridmapper,
    evaluate_model,
    evaluate_unified,
    whatif_collapse,
)
from .normalize import NormalizationReport, RewriteEvent, collapse
from .rsqasm import Gate, Move, Program, Stage, parse_program, serialize_program

__version__ = "0.1.0"

__all__ = [
    "ArchitectureSpec",
    "QubitPlacement",
    "parse_architecture",
    "serialize_architecture",
    "effective_coherence_time",
    "EvalKitError",
    "Program",
    "Stage",
    "Gate",
    "Move",
    "parse_program",
    "serialize_program",
    "GridState",
    "StageDiagnosis",
    "initial_state",
    "cell_distance",
    "validate_stage",
    "apply_stage",
    "simulate",
    "FidelityBreakdown",
    "ProgramTrace",
    "trace_program",
    "instruction_duration",
    "evaluate_unified",
    "Model",
    "evaluate_model",
    "evaluate_hybridmapper",
    "evaluate_dasatom",
    "evaluate_enola",
    "WhatIfInput",
    "WhatIfResult",
    "whatif_collapse",
    "NormalizationReport",
    "RewriteEvent",
    "collapse",
    "FlatCircuit",
    "FlatGate",
    "FlatBarrier",
    "parse_flat_qasm",
    "to_rsqasm",
    "__version__",
]

_INGEST = frozenset({"FlatBarrier", "FlatCircuit", "FlatGate", "parse_flat_qasm", "to_rsqasm"})


def __getattr__(name: str):
    if name in _INGEST:
        from . import ingest
        return getattr(ingest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _INGEST)
