"""Surface-code layout, magic-state distillation, and physical totals.

A logical gate count is turned into physical qubits in three blocks:

    processor           logical data qubits at the processor code distance
    rotation factories  cached-rotation units, one logical qubit each,
                        also at the processor distance
    T factories         distillation pipelines sized by the round distances

Logical failure follows p_L(d) = a (p / p_th)^((d+1)/2). Distillation
follows the 15-to-1 recursion eps_{k+1} = 35 eps_k^3 from raw injected
states at eps_0 = p_inject. Round k of the pipeline runs at a code distance
chosen so its logical noise does not spoil the states it handles; the
requirement propagates backward from the final output target.

Several constants here are calibrated to reproduce published tabulations
rather than derived: the per-T budget factor, the per-round distance
margin and the factory throughput constant, which are FTParams fields, and
the one-logical-qubit rotation-factory footprint.
"""

from __future__ import annotations

import dataclasses
import math

from .par import par_rotation_factories

__all__ = [
    "DISTILLATION_OUTPUT_SCALE",
    "FTParams",
    "PhysicalCostReport",
    "logical_error_rate",
    "code_distance",
    "qubits_per_logical",
    "distillation_rounds",
    "distillation_error_after",
    "distillation_round_distances",
    "t_factory_footprint",
    "t_factory_count",
    "rotation_factory_count",
    "physical_report",
]

# c in the 15-to-1 output error eps_out = c eps_in^3
DISTILLATION_OUTPUT_SCALE = 35.0
# logical footprint of one cached rotation factory (calibrated)
_ROTATION_FACTORY_LOGICAL_QUBITS = 1


@dataclasses.dataclass(frozen=True)
class FTParams:
    """Fault-tolerance scenario parameters.

    Attributes:
        p_clifford: physical error probability per Clifford operation.
        p_inject: raw magic-state error; defaults to p_clifford.
        t_phys: seconds per physical gate (default 10 ns).
        target_total_failure: acceptable probability that the whole run
            fails (default 0.1).
        logical_a: prefactor a of the logical error model.
        p_threshold: threshold p_th of the logical error model.
        kappa_factory: calibrated throughput constant; T factories needed
            per unit (rate x mean distance x t_phys).
        distill_budget_factor: calibrated multiplier on the per-T error
            budget (10 reproduces the published distillation distances; 1
            gives the literal even split of target_total_failure).
        round_distance_margin: calibrated ratio between a round's state
            budget and the logical error target of its code patches.
    """

    p_clifford: float
    p_inject: float | None = None
    t_phys: float = 1e-8
    target_total_failure: float = 0.1
    logical_a: float = 0.1
    p_threshold: float = 1e-2
    kappa_factory: float = 7.6
    distill_budget_factor: float = 10.0
    round_distance_margin: float = 1000.0

    def __post_init__(self):
        if not 0.0 < self.p_clifford < self.p_threshold:
            raise ValueError(
                f"need 0 < p_clifford < p_threshold, got {self.p_clifford} "
                f"vs threshold {self.p_threshold}"
            )
        if self.p_inject is not None and not 0.0 < self.p_inject < 1.0:
            raise ValueError(f"p_inject out of range: {self.p_inject}")
        if self.t_phys <= 0:
            raise ValueError(f"t_phys must be positive, got {self.t_phys}")
        if not 0.0 < self.target_total_failure < 1.0:
            raise ValueError(
                f"target_total_failure out of range: {self.target_total_failure}"
            )

    @property
    def injected_error(self):
        return self.p_clifford if self.p_inject is None else self.p_inject


def logical_error_rate(d, params):
    """Per-logical-operation failure a (p/p_th)^((d+1)/2) at distance d."""
    return params.logical_a * (params.p_clifford / params.p_threshold) ** (
        (d + 1) / 2.0
    )


def code_distance(per_operation_error_target, params):
    """Smallest odd distance meeting a per-operation error target."""
    if not 0.0 < per_operation_error_target < 1.0:
        raise ValueError(
            f"error target out of range: {per_operation_error_target}"
        )
    if params.p_clifford >= params.p_threshold:
        raise ValueError(
            f"target unreachable: p {params.p_clifford} is at or above "
            f"threshold {params.p_threshold}"
        )
    if per_operation_error_target >= params.logical_a:
        return 1
    # (d+1)/2 >= log(target/a) / log(p/p_th); round up to the next odd d
    ratio = math.log(per_operation_error_target / params.logical_a) / math.log(
        params.p_clifford / params.p_threshold
    )
    d = max(1, 2 * math.ceil(ratio) - 1)
    while logical_error_rate(d, params) > per_operation_error_target:
        d += 2
    while d > 1 and logical_error_rate(d - 2, params) <= per_operation_error_target:
        d -= 2
    return d


def qubits_per_logical(d):
    """Physical qubits per logical qubit at distance d: ceil(12.5 d^2)."""
    if d < 1:
        raise ValueError(f"need distance >= 1, got {d}")
    return math.ceil(12.5 * d * d)


def distillation_rounds(p_inject, per_t_error_target):
    """Rounds of 15-to-1 distillation to reach a per-T error target."""
    if not 0.0 < p_inject < 1.0:
        raise ValueError(f"p_inject out of range: {p_inject}")
    if per_t_error_target <= 0.0:
        raise ValueError(f"target must be positive: {per_t_error_target}")
    if DISTILLATION_OUTPUT_SCALE * p_inject**2 >= 1.0:
        raise ValueError(
            f"distillation diverges from raw error {p_inject}: "
            f"{DISTILLATION_OUTPUT_SCALE:g} p^2 >= 1"
        )
    error = p_inject
    rounds = 0
    while error > per_t_error_target:
        error = DISTILLATION_OUTPUT_SCALE * error**3
        rounds += 1
    return rounds


def distillation_error_after(p_inject, rounds):
    """Output error of the 15-to-1 recursion after the given rounds."""
    error = p_inject
    for _ in range(rounds):
        error = DISTILLATION_OUTPUT_SCALE * error**3
    return error


def distillation_round_distances(per_t_error_target, rounds, params):
    """Code distance of each distillation round, first round first.

    The final round's patches must sit a margin below the output target;
    each earlier round must deliver states clean enough that the next
    round's cubic still lands on its own requirement, so the requirement
    propagates backward via eps = (next_requirement / 35)^(1/3).
    """
    if rounds == 0:
        return []
    requirements = [per_t_error_target]
    for _ in range(rounds - 1):
        requirements.append((requirements[-1] / DISTILLATION_OUTPUT_SCALE) ** (1 / 3))
    # requirements[0] is the final round; reverse into execution order
    requirements.reverse()
    return [
        code_distance(req / params.round_distance_margin, params)
        for req in requirements
    ]


def t_factory_footprint(rounds, distances):
    """Physical qubits of one T factory.

    Args:
        rounds: distillation rounds (0, 1, or 2).
        distances: per-round code distances, first round first; length
            max(rounds, 1).

    One round is 16 logical qubits at the round's distance. Two rounds run
    15 first-round blocks in parallel to feed the second, so the footprint
    is set by 240 logical qubits at the first-round distance.
    """
    if len(distances) != max(rounds, 1):
        raise ValueError(
            f"need {max(rounds, 1)} distances for {rounds} rounds, "
            f"got {len(distances)}"
        )
    if rounds == 0:
        return 0
    if rounds == 1:
        return 16 * qubits_per_logical(distances[0])
    if rounds == 2:
        return 240 * qubits_per_logical(distances[0])
    raise ValueError(f"distillation beyond two rounds unsupported: {rounds}")


def t_factory_count(t_rate, distances, params):
    """T factories needed to sustain a T-gate consumption rate.

    Calibrated throughput model: ceil(rate x kappa x mean distance x
    t_phys), at least one factory.
    """
    if t_rate <= 0:
        raise ValueError(f"need a positive T rate, got {t_rate}")
    if not distances:
        raise ValueError("need at least one distillation distance")
    mean_distance = sum(distances) / len(distances)
    return max(
        1, math.ceil(t_rate * params.kappa_factory * mean_distance * params.t_phys)
    )


def rotation_factory_count(logical):
    """Cached-rotation factories implied by a logical report.

    PAR keeps n (C + n) staggered factories; nesting keeps one per
    concurrently executing rotation; serial synthesizes inline.
    """
    if logical.strategy == "par":
        if logical.par_params is None:
            raise ValueError("par report carries no ParParams")
        return par_rotation_factories(logical.par_params)
    if logical.strategy == "nesting":
        if logical.parallelism is None:
            raise ValueError("nesting report carries no parallelism")
        return round(logical.parallelism)
    return 0


@dataclasses.dataclass(frozen=True)
class PhysicalCostReport:
    """Physical resources for one logical run.

    Attributes:
        code_distances: distillation distances from last round to first,
            then the processor distance (mirrors published listings).
        qubits_per_logical: physical qubits per logical qubit at the
            processor distance.
        processor_logical_qubits: logical qubits charged to the processor
            block (rotation-factory logical qubits are charged to their
            own block).
        processor_qubits: physical qubits of the processor block.
        rotation_factory_count: cached-rotation factories.
        rotation_factory_qubits: physical qubits of the rotation block.
        t_factory_count: distillation pipelines.
        qubits_per_t_factory: physical qubits of one pipeline.
        t_factory_qubits: physical qubits of the T block.
        total_physical_qubits: exact sum of the three blocks.
        distillation_rounds: rounds of 15-to-1 distillation per T gate.
        distillation_distances: per-round distances, first round first.
        processor_code_distance: processor patch distance.
        per_t_error_target: error budget per distilled T state.
        per_operation_error_target: error budget per logical operation.
        t_rate: T gates consumed per second.
        params: the FTParams evaluated.
    """

    code_distances: tuple
    qubits_per_logical: int
    processor_logical_qubits: int
    processor_qubits: int
    rotation_factory_count: int
    rotation_factory_qubits: int
    t_factory_count: int
    qubits_per_t_factory: int
    t_factory_qubits: int
    total_physical_qubits: int
    distillation_rounds: int
    distillation_distances: tuple
    processor_code_distance: int
    per_t_error_target: float
    per_operation_error_target: float
    t_rate: float
    params: FTParams


def physical_report(logical, params):
    """Assemble the three physical blocks for a logical cost report.

    Args:
        logical: LogicalCostReport with positive t_count and wall_time and
            a logical_qubits count.
        params: FTParams.

    Returns:
        PhysicalCostReport; the total is the exact three-block sum.
    """
    if logical.t_count <= 0 or logical.wall_time <= 0:
        raise ValueError("logical report must have positive t_count and wall_time")
    factories = rotation_factory_count(logical)
    if logical.logical_qubits is None:
        raise ValueError("logical report carries no qubit count")
    # the rotation-factory logical qubits are charged to the rotation block
    processor_logical_qubits = logical.logical_qubits - factories
    if processor_logical_qubits < 1:
        raise ValueError(
            f"nonpositive processor register: {processor_logical_qubits}"
        )

    per_t_target = (
        params.distill_budget_factor
        * params.target_total_failure
        / logical.t_count
    )
    per_op_target = params.target_total_failure / (
        logical.t_count * processor_logical_qubits
    )

    rounds = distillation_rounds(params.injected_error, per_t_target)
    round_distances = distillation_round_distances(per_t_target, rounds, params)
    d_processor = code_distance(per_op_target, params)
    qpl = qubits_per_logical(d_processor)

    processor_qubits = processor_logical_qubits * qpl
    rotation_qubits = factories * qpl * _ROTATION_FACTORY_LOGICAL_QUBITS

    t_rate = logical.t_count / logical.wall_time
    if rounds == 0:
        footprint = 0
        n_t_factories = 0
        t_block = 0
    else:
        footprint = t_factory_footprint(rounds, round_distances)
        n_t_factories = t_factory_count(t_rate, round_distances, params)
        t_block = n_t_factories * footprint

    return PhysicalCostReport(
        code_distances=tuple(reversed(round_distances)) + (d_processor,),
        qubits_per_logical=qpl,
        processor_logical_qubits=processor_logical_qubits,
        processor_qubits=processor_qubits,
        rotation_factory_count=factories,
        rotation_factory_qubits=rotation_qubits,
        t_factory_count=n_t_factories,
        qubits_per_t_factory=footprint,
        t_factory_qubits=t_block,
        total_physical_qubits=processor_qubits + rotation_qubits + t_block,
        distillation_rounds=rounds,
        distillation_distances=tuple(round_distances),
        processor_code_distance=d_processor,
        per_t_error_target=per_t_target,
        per_operation_error_target=per_op_target,
        t_rate=t_rate,
        params=params,
    )
