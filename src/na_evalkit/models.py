"""Success-probability models of three earlier toolchains, re-computed over
the same program/architecture inputs, plus a what-if recomputation for
collapsed movement schedules.

All three models share the breakdown schema of the unified evaluator but
differ in accounting:

* ``hybridmapper`` uses the exponential decoherence factor over the
  effective coherence time, with the operation set taken as all executed
  gates plus both trap transfers of every move. Transfer durations are
  subtracted from idle time, so under this accounting shuttling improves
  the decoherence factor; its decoherence term is therefore never below the
  unified model's.
* ``dasatom`` replaces the measured run time with the synthetic estimate
  ``T = h*t_cz + s*t_trans + D/v`` (h gate-bearing stages, s transfer
  events, D the summed per-stage maxima of physical move distances), uses
  the bare dephasing time t2, and ignores one-qubit gates entirely.
* ``enola`` uses a first-order per-qubit decoherence product
  ``prod(1 - T_q/t2)`` instead of an exponential, forces the one-qubit gate
  fidelity to 1, adds a bystander-exposure factor per stage, and times moves
  as ``distance / v**2`` (kept exactly as published, dimensional oddity and
  all; pass ``travel_time`` to substitute a corrected law).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

from .arch import ArchitectureSpec, effective_coherence_time
from .errors import CoherenceBudgetExceeded, InvalidInput
from .evaluator import (
    FidelityBreakdown,
    decoherence_fidelity,
    evaluate_unified,
    gate_duration,
    gate_fidelity,
    movement_fidelity,
    trace_program,
)
from .rsqasm import Program


class Model(str, Enum):
    UNIFIED = "unified"
    HYBRIDMAPPER = "hybridmapper"
    DASATOM = "dasatom"
    ENOLA = "enola"


def evaluate_hybridmapper(program: Program, spec: ArchitectureSpec) -> FidelityBreakdown:
    """Exponential decoherence over t_eff with transfers treated as operations.

    Idle time is n*T minus the durations of *all* operations: every gate
    once, plus 2 * aod_transfer_time per move. With zero moves this
    coincides with the unified model.
    """
    base = evaluate_unified(program, spec)
    transfer_time_sum = 2.0 * spec.aod_transfer_time * base.move_count
    t_idle = base.t_idle_us - transfer_time_sum
    f_decoherence = decoherence_fidelity(t_idle, effective_coherence_time(spec))
    return replace(
        base,
        model=Model.HYBRIDMAPPER.value,
        f_decoherence=f_decoherence,
        asp=f_decoherence * base.f_gates * base.f_movements,
        t_idle_us=t_idle,
    )


def evaluate_dasatom(program: Program, spec: ArchitectureSpec) -> FidelityBreakdown:
    """Synthetic-runtime model over the bare dephasing time.

    T = h*t_cz + s*t_trans + D/v with h the number of gate-bearing stages,
    s = 2*move_count transfer events, and D the sum over stages of the
    longest physical move distance in each stage (parallel moves cost only
    their slowest member). One-qubit gates contribute neither time nor
    fidelity; P = exp(-t_idle/t2) * f_cz**m * f_trans**s with
    t_idle = n*T - m*t_cz.
    """
    trace = trace_program(program, spec)
    t_cz = gate_duration("cz", spec)
    f_cz = gate_fidelity("cz", spec)

    s = 2 * trace.move_count
    gate_stages = sum(1 for gate_us, _ in trace.stages if gate_us is not None)
    d_um = sum(
        cells * spec.inter_qubit_distance for _, cells in trace.stages if cells is not None
    )
    t_total = gate_stages * t_cz + s * spec.aod_transfer_time + d_um / spec.move_speed
    t_idle = spec.qubit_count * t_total - trace.cz_gates * t_cz
    return trace.breakdown(
        Model.DASATOM.value,
        spec,
        f_decoherence=decoherence_fidelity(t_idle, spec.t2),
        f_gates=f_cz**trace.cz_gates,
        t_total_us=t_total,
        t_idle_us=t_idle,
    )


def _published_enola_travel(distance_um: float, spec: ArchitectureSpec) -> float:
    # as published: distance / speed**2, acceleration-flavoured but
    # dimensionally inconsistent; kept verbatim on purpose
    return distance_um / spec.move_speed**2


def evaluate_enola(
    program: Program,
    spec: ArchitectureSpec,
    travel_time: Callable[[float, ArchitectureSpec], float] = _published_enola_travel,
) -> FidelityBreakdown:
    """First-order per-qubit decoherence with bystander-exposure cost.

    P = f_cz**g2 * f_exc**(n*S - 2*g2) * f_trans**s * prod(1 - T_q/t2)
    with one-qubit gate fidelity forced to 1, S the stage count, s the
    transfer count (2 per move), and T_q the idle time of atom q: total run
    time minus the time q spent inside gates. Moves last
    ``2*aod_transfer_time + travel_time(distance_um, spec)``; ``travel_time``
    must be non-decreasing in the distance, because a stage is timed by its
    longest move.

    Raises CoherenceBudgetExceeded when any factor 1 - T_q/t2 drops to or
    below zero, where the first-order approximation stops being meaningful.
    """
    trace = trace_program(program, spec)
    t_total = trace.run_time_us(
        lambda cells: 2.0 * spec.aod_transfer_time
        + travel_time(cells * spec.inter_qubit_distance, spec)
    )

    idle_factors = []
    t_idle = 0.0
    for atom, busy_us in trace.busy_us.items():
        t_q = t_total - busy_us
        factor = 1.0 - t_q / spec.t2
        if factor <= 0.0:
            raise CoherenceBudgetExceeded(
                f"atom {atom} idles {t_q} us, at or beyond the dephasing time {spec.t2} us"
            )
        idle_factors.append(factor)
        t_idle += t_q

    g2 = trace.two_qubit_gates
    exposure_exponent = spec.qubit_count * len(trace.stages) - 2 * g2
    f_cz = gate_fidelity("cz", spec)
    return trace.breakdown(
        Model.ENOLA.value,
        spec,
        f_decoherence=math.prod(idle_factors),
        f_gates=f_cz**g2 * spec.excitement_fidelity**exposure_exponent,
        t_total_us=t_total,
        t_idle_us=t_idle,
    )


_EVALUATORS = {
    Model.UNIFIED: evaluate_unified,
    Model.HYBRIDMAPPER: evaluate_hybridmapper,
    Model.DASATOM: evaluate_dasatom,
    Model.ENOLA: evaluate_enola,
}


def evaluate_model(
    program: Program, spec: ArchitectureSpec, model: Model | str
) -> FidelityBreakdown:
    """Dispatch to one of the four models by name."""
    return _EVALUATORS[Model(model)](program, spec)


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


@dataclass(frozen=True)
class WhatIfResult:
    delta_t_move_us: float
    delta_t_idle_us: float
    t_idle_new_us: float
    f_decoherence: float
    f_movements: float


def whatif_collapse(w: WhatIfInput, spec: ArchitectureSpec) -> WhatIfResult:
    """Recompute decoherence and movement fidelity after removing moves.

    The saved travel time is delta_T = saved_distance * spacing / speed; it
    shortens the schedule for all n qubits at once, so idle time drops by
    n * delta_T. Raises InvalidInput when the resulting idle time would be
    negative.
    """
    delta_t_move = w.saved_distance_cells * spec.inter_qubit_distance / spec.move_speed
    delta_t_idle = w.n * delta_t_move
    t_idle_new = w.old_t_idle_us - delta_t_idle
    if t_idle_new < 0:
        raise InvalidInput(
            f"collapsing would drive idle time negative ({t_idle_new} us)"
        )
    return WhatIfResult(
        delta_t_move_us=delta_t_move,
        delta_t_idle_us=delta_t_idle,
        t_idle_new_us=t_idle_new,
        f_decoherence=decoherence_fidelity(t_idle_new, effective_coherence_time(spec)),
        f_movements=movement_fidelity(w.new_move_count, spec.transfer_fidelity),
    )
