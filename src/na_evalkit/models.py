"""The four fidelity models, and a what-if recomputation for collapsed
movement schedules.

The toolchains disagree because they assume different things: how long a
move travels, what idle time leaves out, which coherence time it decays
over, which gates cost fidelity, and whether idle atoms pay for each
stage's exposure. Each model is one row of ``_PRESETS``, which holds its
run-time law with the rest, and one evaluator reads any row over the one
trace of a program. Unless a row decays atom by atom, its idle time, summed
over all atoms, decays as ``exp(-t_idle/t_coh)``.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import partial
from operator import attrgetter
from typing import Callable, NamedTuple

from .arch import ArchitectureSpec, effective_coherence_time
from .errors import CoherenceBudgetExceeded, InvalidInput, NonFiniteResult
from .evaluator import (
    Fidelity,
    FidelityBreakdown,
    ProgramTrace,
    decoherence_fidelity,
    gate_duration,
    gate_fidelity,
    movement_fidelity,
    require_finite,
    trace_program,
)
from .rsqasm import Program


class Model(str, Enum):
    UNIFIED = "unified"
    HYBRIDMAPPER = "hybridmapper"
    DASATOM = "dasatom"
    ENOLA = "enola"


def _linear_travel(distance_um: float, spec: ArchitectureSpec) -> float:
    return distance_um / spec.move_speed


def _published_enola_travel(distance_um: float, spec: ArchitectureSpec) -> float:
    # as published: distance / speed**2, acceleration-flavoured but
    # dimensionally inconsistent; kept verbatim on purpose
    return distance_um / spec.move_speed**2


def _travel_run_time(travel, trace: ProgramTrace, spec: ArchitectureSpec) -> float:
    """The run time when a move takes its two transfers plus ``travel(distance_um, spec)``."""
    d = spec.inter_qubit_distance
    return trace.run_time_us(lambda cells: 2.0 * spec.aod_transfer_time + travel(cells * d, spec))


def _dasatom_run_time(trace: ProgramTrace, spec: ArchitectureSpec) -> float:
    """DasAtom's synthetic run time, from its row's law below."""
    gate_stages = 0
    d_um = 0.0  # a plain running sum, as in ProgramTrace.run_time_us
    for gate_us, cells in trace.stages:
        gate_stages += gate_us is not None
        if cells is not None:
            d_um += cells * spec.inter_qubit_distance
    t_cz, s = gate_duration("cz", spec), 2 * trace.move_count
    return gate_stages * t_cz + s * spec.aod_transfer_time + _linear_travel(d_um, spec)


class _Preset(NamedTuple):
    """One toolchain's assumptions, a field per column of the README's table."""

    # (trace, spec) -> run time in us; a travel law (distance_um, spec) -> us, bound
    # by _travel_run_time, must be non-decreasing in the distance
    run_time: Callable[[ProgramTrace, ArchitectureSpec], float]
    # what n*T leaves out: "gates", "gates+transfers" or "cz"; or "per-atom",
    # each atom q decaying over its own idle time T_q by prod(1 - T_q/t_coh)
    idle: str
    coherence: Callable[[ArchitectureSpec], float]
    cz_only: bool  # f_gates from cz gates alone: one-qubit gates are free
    exposure: bool  # each stage costs every atom outside a cz excitement_fidelity


_LINEAR = partial(_travel_run_time, _linear_travel)
_PRESETS = {
    # The paper's model: idle time is n*T minus every gate once, over
    # t_eff = t1*t2/(t1 + t2). Moves stretch the run for all n atoms, so
    # shuttling costs decoherence; its direct cost is the transfers counted in
    # f_movements.
    Model.UNIFIED: _Preset(_LINEAR, "gates", effective_coherence_time, False, False),
    # HybridMapper also counts both transfers of every move as operations and
    # takes 2*t_trans per move off idle time, so shuttling never lowers its
    # decoherence factor below the unified one; without moves the two agree.
    Model.HYBRIDMAPPER: _Preset(_LINEAR, "gates+transfers", effective_coherence_time, False, False),
    # DasAtom runs for T = h*t_cz + s*t_trans + D/v: h gate-bearing stages,
    # s = 2*move_count transfers, and D the sum over stages of the longest
    # physical move distance, so parallel moves cost only their slowest member.
    # It idles n*T - m*t_cz with m cz gates and decays over the bare t2.
    Model.DASATOM: _Preset(_dasatom_run_time, "cz", attrgetter("t2"), True, False),
    # Enola times moves by d/v**2 as published (evaluate_enola's travel_time
    # substitutes a corrected law), decays atom by atom over t2, and charges
    # the n*S - 2*g2 exposures of S stages with g2 cz gates.
    Model.ENOLA: _Preset(
        partial(_travel_run_time, _published_enola_travel), "per-atom", attrgetter("t2"), True, True
    ),
}


@contextmanager
def _finite():
    """Raise a power or quotient leaving the float range in a block, or in a function
    decorated ``@_finite()``, as NonFiniteResult; each report checks its own fields."""
    try:
        yield
    except ArithmeticError as exc:  # ZeroDivisionError after an underflow, or OverflowError
        raise NonFiniteResult(f"the inputs leave the float range: {exc}") from exc


@_finite()
def _evaluate(
    trace: ProgramTrace, spec: ArchitectureSpec, model: Model, preset: _Preset | None = None
) -> FidelityBreakdown:
    """``model``'s breakdown of ``trace`` from the run time, idle time,
    decoherence factor and gate factor of ``preset`` or the model's own row.

    Raises NonFiniteResult when the hardware numbers take a reported field, or
    a power or quotient on the way, out of the finite floats.
    """
    run_time, idle, coherence, cz_only, exposure = preset or _PRESETS[model]
    t_total = run_time(trace, spec)
    t_coh = coherence(spec)
    if idle == "per-atom":
        factors = []
        t_idle = 0.0
        for atom, busy_us in trace.busy_us.items():
            t_q = t_total - busy_us
            factor = 1.0 - t_q / t_coh
            if factor <= 0.0:  # where the first-order approximation stops being meaningful
                raise CoherenceBudgetExceeded(
                    f"atom {atom} idles {t_q} us, at or beyond the dephasing time {t_coh} us"
                )
            factors.append(factor)
            t_idle += t_q
        f_decoherence = math.prod(factors)
    else:
        if idle == "cz":
            t_idle = spec.qubit_count * t_total - trace.two_qubit_gates * gate_duration("cz", spec)
        else:
            t_idle = spec.qubit_count * t_total - trace.gate_time_us
            if idle == "gates+transfers":
                t_idle -= 2.0 * spec.aod_transfer_time * trace.move_count
        # n*T and the sums it is reduced by round apart, so a program that keeps
        # every atom busy can land a few ulps below zero; within that rounding
        # bound the idle time is zero, and anything further below still raises
        terms = len(trace.stages) + trace.one_qubit_gates + trace.two_qubit_gates + 2
        if -terms * sys.float_info.epsilon * spec.qubit_count * t_total <= t_idle < 0.0:
            t_idle = 0.0
        f_decoherence = decoherence_fidelity(t_idle, t_coh)
    g2 = trace.two_qubit_gates
    f_gates = gate_fidelity("cz", spec) ** g2 if cz_only else trace.f_gates
    if exposure:
        f_gates *= spec.excitement_fidelity ** (spec.qubit_count * len(trace.stages) - 2 * g2)
    return trace.breakdown(
        model.value,
        spec,
        f_decoherence=f_decoherence,
        f_gates=f_gates,
        t_total_us=t_total,
        t_idle_us=t_idle,
    )


def evaluate_unified(program: Program, spec: ArchitectureSpec) -> FidelityBreakdown:
    """The paper's unified model."""
    return _evaluate(trace_program(program, spec), spec, Model.UNIFIED)


def evaluate_hybridmapper(program: Program, spec: ArchitectureSpec) -> FidelityBreakdown:
    """HybridMapper's model: trap transfers count as operations, off idle time."""
    return _evaluate(trace_program(program, spec), spec, Model.HYBRIDMAPPER)


def evaluate_dasatom(program: Program, spec: ArchitectureSpec) -> FidelityBreakdown:
    """DasAtom's model: a synthetic run time, decaying over t2, cz gates only."""
    return _evaluate(trace_program(program, spec), spec, Model.DASATOM)


def evaluate_enola(
    program: Program,
    spec: ArchitectureSpec,
    travel_time: Callable[[float, ArchitectureSpec], float] = _published_enola_travel,
) -> FidelityBreakdown:
    """Enola's model: first-order per-atom decoherence with bystander exposure.

    ``travel_time(distance_um, spec)`` replaces the published ``d/v**2``
    travel law and must be non-decreasing in the distance. Raises
    CoherenceBudgetExceeded when an atom idles for t2 or longer.
    """
    preset = _PRESETS[Model.ENOLA]._replace(run_time=partial(_travel_run_time, travel_time))
    return _evaluate(trace_program(program, spec), spec, Model.ENOLA, preset)


def evaluate_model(
    program: Program, spec: ArchitectureSpec, model: Model | str
) -> FidelityBreakdown:
    """Evaluate one of the four models, given as a :class:`Model` or its name."""
    return _evaluate(trace_program(program, spec), spec, Model(model))


@dataclass(frozen=True)
class WhatIfInput:
    """Observed quantities of an already-evaluated circuit, pre-collapse."""

    old_t_idle_us: float
    saved_distance_cells: float
    old_move_count: int
    new_move_count: int
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.old_t_idle_us) and math.isfinite(self.saved_distance_cells)):
            raise InvalidInput("idle time and saved distance must be finite")
        if self.saved_distance_cells < 0:
            raise InvalidInput("saved distance must be >= 0")
        if self.new_move_count > self.old_move_count:
            raise InvalidInput("move count cannot grow under collapsing")
        if self.new_move_count < 0 or self.old_move_count < 0:
            raise InvalidInput("move counts must be >= 0")
        if self.n < 1:
            raise InvalidInput("qubit count must be >= 1")
        if self.old_t_idle_us < 0:
            raise InvalidInput("idle time must be >= 0")
        # read a zero as +0.0, so no result can carry the sign of a -0.0
        object.__setattr__(self, "old_t_idle_us", self.old_t_idle_us + 0.0)
        object.__setattr__(self, "saved_distance_cells", self.saved_distance_cells + 0.0)


@dataclass(frozen=True)
class WhatIfResult:
    delta_t_move_us: float
    delta_t_idle_us: float
    t_idle_new_us: float
    f_decoherence: Fidelity
    f_movements: Fidelity

    def __post_init__(self):
        require_finite(self)


@_finite()
def whatif_collapse(w: WhatIfInput, spec: ArchitectureSpec) -> WhatIfResult:
    """Recompute decoherence and movement fidelity after removing moves.

    The saved travel time is delta_T = saved_distance * spacing / speed; it
    shortens the schedule for all n qubits at once, so idle time drops by
    n * delta_T. Raises InvalidInput when the resulting idle time would be
    negative, and NonFiniteResult when the inputs take a field, or a product
    or quotient on the way, out of the finite floats.
    """
    delta_t_move = _linear_travel(w.saved_distance_cells * spec.inter_qubit_distance, spec)
    delta_t_idle = w.n * delta_t_move
    t_idle_new = w.old_t_idle_us - delta_t_idle
    if t_idle_new < 0:
        raise InvalidInput(f"collapsing would drive idle time negative ({t_idle_new} us)")
    return WhatIfResult(
        delta_t_move_us=delta_t_move,
        delta_t_idle_us=delta_t_idle,
        t_idle_new_us=t_idle_new,
        f_decoherence=decoherence_fidelity(t_idle_new, effective_coherence_time(spec)),
        f_movements=movement_fidelity(w.new_move_count, spec.transfer_fidelity),
    )
