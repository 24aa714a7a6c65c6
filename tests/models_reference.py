"""Reference models: one hand-written function per toolchain.

These are the original bodies of :func:`na_evalkit.evaluate_unified`,
:func:`~na_evalkit.evaluate_hybridmapper`, :func:`~na_evalkit.evaluate_dasatom`
and :func:`~na_evalkit.evaluate_enola`, kept verbatim as an oracle for the one
evaluator that now reads a table of assumptions. Two edits:

* DasAtom counted ``trace.cz_gates``, a field equal to
  ``trace.two_qubit_gates`` because ``cz`` is the only two-qubit gate, and it
  reads the latter here.
* DasAtom added its distance ``D`` with the built-in ``sum()``, which
  compensates rounding from Python 3.12 on. It adds ``D`` one stage at a time
  here, a plain running sum in stage order, as the evaluator does.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

from na_evalkit.arch import ArchitectureSpec, effective_coherence_time
from na_evalkit.errors import CoherenceBudgetExceeded
from na_evalkit.evaluator import (
    FidelityBreakdown,
    decoherence_fidelity,
    gate_duration,
    gate_fidelity,
    move_duration,
    trace_program,
)
from na_evalkit.models import Model
from na_evalkit.rsqasm import Program

UNIFIED = "unified"


def evaluate_unified(program: Program, spec: ArchitectureSpec) -> FidelityBreakdown:
    """Evaluate the unified model; see the module docstring for the formulas."""
    trace = trace_program(program, spec)
    t_total = trace.run_time_us(lambda cells: move_duration(cells, spec))
    t_idle = spec.qubit_count * t_total - trace.gate_time_us
    return trace.breakdown(
        UNIFIED,
        spec,
        f_decoherence=decoherence_fidelity(t_idle, effective_coherence_time(spec)),
        f_gates=trace.f_gates,
        t_total_us=t_total,
        t_idle_us=t_idle,
    )


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
    d_um = 0.0
    for _, cells in trace.stages:
        if cells is not None:
            d_um += cells * spec.inter_qubit_distance
    t_total = gate_stages * t_cz + s * spec.aod_transfer_time + d_um / spec.move_speed
    t_idle = spec.qubit_count * t_total - trace.two_qubit_gates * t_cz
    return trace.breakdown(
        Model.DASATOM.value,
        spec,
        f_decoherence=decoherence_fidelity(t_idle, spec.t2),
        f_gates=f_cz**trace.two_qubit_gates,
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


MODELS = {
    Model.UNIFIED: evaluate_unified,
    Model.HYBRIDMAPPER: evaluate_hybridmapper,
    Model.DASATOM: evaluate_dasatom,
    Model.ENOLA: evaluate_enola,
}
