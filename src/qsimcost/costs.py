"""Logical gate-count model and error-budget optimization.

The total T-gate cost of one phase-estimation run splits into four factors:

    C = 2M * ceil(alpha / e1) * ceil(beta * sqrt(e / e2))
           * (gamma * log2(2M * steps / e3) + delta)

where M is the merged term count, alpha the phase-estimation repetition
constant, beta the Trotter number at the full accuracy budget e, and
(gamma, delta) the per-rotation synthesis line. e1, e2, e3 are the portions
of e allotted to phase estimation, Trotter truncation, and rotation
synthesis. Two combination rules tie them to e: worst_case adds them
linearly; variance adds the two unbiased-error components in quadrature
before the systematic Trotter term. optimize_budget picks the split by
scoring whole grids of candidate splits as numpy arrays; evaluate_cost,
which every report prints, stays scalar math.

The execution strategies differ only downstream of the rotation count:
serial synthesizes rotations one by one with the average-cost line, nesting
runs disjoint-support rotations concurrently with worst-case deterministic
synthesis, and PAR trades T-count for wall time through cached-rotation
cascades. Wall time follows from each schedule, with t the T count and tau
the T-gate time: t * tau serially, t * tau / parallelism nested, and
rotations * (expected cascade periods per rotation) * tau for PAR.
evaluate_cost, strategy_report and with_t_count apply these identities
through one helper, and the first two share one helper for the Clifford
total (counted from a term list, else a calibrated ratio to the T count).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .par import ParParams, par_factory_time_per_rotation, par_rotation_factories

__all__ = [
    "T_GATE_TIME",
    "CLIFFORD_T_RATIO",
    "PhaseEstimationModel",
    "SynthesisModel",
    "ErrorBudget",
    "LogicalCostReport",
    "evaluate_cost",
    "evaluate_cost_smooth",
    "optimize_budget",
    "strategy_report",
    "with_t_count",
    "logical_qubit_count",
]

T_GATE_TIME = 1e-8

# Clifford-to-T ratios used when no term list is available to count from;
# PAR performs its Cliffords inside the cascade, so only the teleportation
# overhead of roughly one Clifford per T remains
CLIFFORD_T_RATIO = {"serial": 1.55, "nesting": 1.55, "par": 1.00}

_PE_PRESETS = {
    "standard_qpe": 8.0 * math.pi,
    "rfpe": 2.3,
    "optimal_surrogate": math.pi / 2.0,
}

_SYNTHESIS_PRESETS = {
    "deterministic_worst_case": (4.0, 11.0),
    "fallback_average": (1.15, 9.2),
}


@dataclasses.dataclass(frozen=True)
class PhaseEstimationModel:
    """Phase-estimation repetition model: repetitions = ceil(alpha / e1).

    Attributes:
        name: preset label or free-form description.
        alpha: dimensionless repetition constant.
    """

    name: str
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    @classmethod
    def preset(cls, name):
        try:
            return cls(name=name, alpha=_PE_PRESETS[name])
        except KeyError:
            raise ValueError(
                f"unknown phase-estimation preset {name!r}; "
                f"available: {', '.join(_PE_PRESETS)}"
            ) from None


@dataclasses.dataclass(frozen=True)
class SynthesisModel:
    """Per-rotation T-count line: gamma * bits + delta.

    Attributes:
        name: preset label or free-form description.
        gamma: slope against the required precision bits.
        delta: constant offset.
    """

    name: str
    gamma: float
    delta: float

    @classmethod
    def preset(cls, name):
        try:
            gamma, delta = _SYNTHESIS_PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown synthesis preset {name!r}; "
                f"available: {', '.join(_SYNTHESIS_PRESETS)}"
            ) from None
        return cls(name=name, gamma=gamma, delta=delta)

    def t_per_rotation(self, bits):
        """T gates for one rotation at the given precision bits."""
        return self.gamma * bits + self.delta


@dataclasses.dataclass(frozen=True)
class ErrorBudget:
    """Split of the total energy-error tolerance, all in Hartree.

    Attributes:
        epsilon_total: overall accuracy target.
        epsilon1_pe: phase-estimation share.
        epsilon2_trotter: Trotter-truncation share.
        epsilon3_synth: rotation-synthesis share.
        combination: "worst_case" (linear sum) or "variance" (the two
            unbiased components combine in quadrature).
    """

    epsilon_total: float
    epsilon1_pe: float
    epsilon2_trotter: float
    epsilon3_synth: float
    combination: str = "worst_case"

    def __post_init__(self):
        self.validate()

    def combined(self):
        """The left-hand side of the budget constraint."""
        if self.combination == "worst_case":
            return self.epsilon1_pe + self.epsilon2_trotter + self.epsilon3_synth
        if self.combination == "variance":
            return self.epsilon2_trotter + math.hypot(
                self.epsilon1_pe, self.epsilon3_synth
            )
        raise ValueError(f"unknown combination rule {self.combination!r}")

    def validate(self):
        parts = (
            self.epsilon_total,
            self.epsilon1_pe,
            self.epsilon2_trotter,
            self.epsilon3_synth,
        )
        if any(p <= 0 for p in parts):
            raise ValueError(f"error budget components must be positive: {self}")
        if self.combined() > self.epsilon_total * (1.0 + 1e-12):
            raise ValueError(
                f"budget violates the {self.combination} constraint: "
                f"combined {self.combined():.6e} > total {self.epsilon_total:.6e}"
            )


@dataclasses.dataclass(frozen=True)
class LogicalCostReport:
    """Logical-level cost of one phase-estimation run.

    Attributes:
        strategy: "serial", "nesting", or "par".
        t_count: total T gates.
        clifford_count: total Clifford gates (counted or ratio-derived).
        rotation_count: arbitrary-angle rotations executed.
        trotter_steps_per_unit_time: second-order steps per inverse Hartree.
        pe_repetitions: phase-estimation repetitions.
        logical_qubits: processor logical qubits, None if the register
            width was not supplied.
        wall_time: seconds.
        budget: the ErrorBudget the run was evaluated at.
        m_terms: merged Hamiltonian term count M.
        pe: phase-estimation model used.
        synthesis: synthesis model used for this strategy.
        synthesis_bits: precision bits of each rotation, log2(2M steps/e3).
        t_per_rotation: T gates per rotation under this strategy.
        clifford_mode: "counted" when derived from a term list,
            "ratio_calibrated" when derived from the T-count.
        t_gate_time: seconds per logical T gate.
        parallelism: nesting parallelism in force, if any.
        par_params: ParParams in force for the PAR strategy, if any.
    """

    strategy: str
    t_count: float
    clifford_count: float
    rotation_count: float
    trotter_steps_per_unit_time: int
    pe_repetitions: int
    logical_qubits: int | None
    wall_time: float
    budget: ErrorBudget
    m_terms: float
    pe: PhaseEstimationModel
    synthesis: SynthesisModel
    synthesis_bits: float
    t_per_rotation: float
    clifford_mode: str
    t_gate_time: float
    parallelism: float | None = None
    par_params: ParParams | None = None


def _check_problem(m_terms, beta):
    if not (math.isfinite(m_terms) and m_terms >= 1):
        raise ValueError(f"m_terms must be finite and >= 1, got {m_terms}")
    if not (math.isfinite(beta) and beta >= 1):
        raise ValueError(f"beta must be finite and >= 1, got {beta}")


def _check_parallelism(parallelism):
    if parallelism is None or not (
        math.isfinite(parallelism) and parallelism >= 1
    ):
        raise ValueError(
            f"nesting needs a finite parallelism >= 1, got {parallelism}"
        )


def _core_counts(m_terms, budget, beta, pe):
    _check_problem(m_terms, beta)
    steps = math.ceil(
        beta * math.sqrt(budget.epsilon_total / budget.epsilon2_trotter)
    )
    pe_reps = math.ceil(pe.alpha / budget.epsilon1_pe)
    log_arg = 2.0 * m_terms * steps / budget.epsilon3_synth
    if log_arg <= 1.0:
        raise ValueError(
            f"degenerate budget: synthesis log argument {log_arg:g} <= 1"
        )
    return steps, pe_reps, math.log2(log_arg)


def _clifford_count(strategy, t_count, steps, pe_reps, clifford_per_step):
    """(count, mode): counted from the term list when one is known, else
    the strategy's calibrated Clifford-to-T ratio."""
    if clifford_per_step is not None:
        clifford = float(clifford_per_step.total_clifford) * steps * pe_reps
        return clifford, "counted"
    return CLIFFORD_T_RATIO[strategy] * t_count, "ratio_calibrated"


def _wall_time(strategy, t_count, rotations, t_gate_time, parallelism=None,
               par_params=None):
    if strategy == "serial":
        return t_count * t_gate_time
    if strategy == "nesting":
        return t_count * t_gate_time / parallelism
    return rotations * par_factory_time_per_rotation(par_params) * t_gate_time


def evaluate_cost(m_terms, budget, beta, pe, synth, n_spin_orbitals=None,
                  clifford_per_step=None, t_gate_time=T_GATE_TIME):
    """Evaluate the logical cost formula at a fixed budget.

    The report is the serial one: rotations run one after another with the
    given synthesis line. strategy_report derives the other strategies.

    Args:
        m_terms: merged Hamiltonian term count M.
        budget: ErrorBudget (already validated by construction).
        beta: Trotter number at the full budget epsilon_total.
        pe: PhaseEstimationModel.
        synth: SynthesisModel for the per-rotation T line.
        n_spin_orbitals: register width for the logical-qubit count.
        clifford_per_step: CliffordStepCount from a real term list; when
            given, Clifford totals are counted rather than ratio-derived.
        t_gate_time: seconds per logical T gate.

    Returns:
        LogicalCostReport.
    """
    steps, pe_reps, bits = _core_counts(m_terms, budget, beta, pe)
    rotations = 2.0 * m_terms * steps * pe_reps
    per_rotation = synth.t_per_rotation(bits)
    t_count = rotations * per_rotation
    clifford, clifford_mode = _clifford_count(
        "serial", t_count, steps, pe_reps, clifford_per_step
    )
    qubits = (
        logical_qubit_count(n_spin_orbitals, "serial")
        if n_spin_orbitals is not None
        else None
    )
    return LogicalCostReport(
        strategy="serial",
        t_count=t_count,
        clifford_count=clifford,
        rotation_count=rotations,
        trotter_steps_per_unit_time=steps,
        pe_repetitions=pe_reps,
        logical_qubits=qubits,
        wall_time=_wall_time("serial", t_count, rotations, t_gate_time),
        budget=budget,
        m_terms=float(m_terms),
        pe=pe,
        synthesis=synth,
        synthesis_bits=bits,
        t_per_rotation=per_rotation,
        clifford_mode=clifford_mode,
        t_gate_time=t_gate_time,
    )


def evaluate_cost_smooth(m_terms, e1, e2, e3, epsilon_total, beta, pe, synth):
    """The cost formula without ceilings; used for optimization and
    monotonicity analysis. e1, e2, e3 broadcast as numpy arrays; the result
    is inf where a component is <= 0 or the log argument is <= 1, and a
    float for scalar input."""
    e1, e2, e3 = (np.asarray(e, dtype=float) for e in (e1, e2, e3))
    with np.errstate(all="ignore"):
        steps = beta * np.sqrt(epsilon_total / e2)
        log_arg = 2.0 * m_terms * steps / e3
        per_rotation = synth.t_per_rotation(np.log2(log_arg))
        cost = 2.0 * m_terms * (pe.alpha / e1) * steps * per_rotation
    feasible = (e1 > 0) & (e2 > 0) & (e3 > 0) & (log_arg > 1.0)
    cost = np.where(feasible, cost, math.inf)
    return cost if cost.ndim else float(cost)


def _e2_from_rule(epsilon_total, e1, e3, combination):
    if combination == "worst_case":
        return epsilon_total - e1 - e3
    return epsilon_total - math.hypot(e1, e3)


def _ceiled_t_counts(m_terms, epsilon_total, beta, pe, synth, combination,
                     e1, e3):
    """evaluate_cost's T count at each broadcast (e1, e3), e2 saturating the
    combination rule; inf exactly where ErrorBudget or _core_counts would
    reject the point (a saturated e2 meets the combined constraint)."""
    with np.errstate(all="ignore"):
        if combination == "worst_case":
            e2 = epsilon_total - e1 - e3
        else:
            e2 = epsilon_total - np.hypot(e1, e3)
        steps = np.ceil(beta * np.sqrt(epsilon_total / e2))
        log_arg = 2.0 * m_terms * steps / e3
        rotations = 2.0 * m_terms * steps * np.ceil(pe.alpha / e1)
        t_count = rotations * synth.t_per_rotation(np.log2(log_arg))
    valid = (e1 > 0) & (e2 > 0) & (e3 > 0) & (log_arg > 1.0)
    return np.where(valid, t_count, math.inf)


def _first_minimum(values):
    """(value, index) of the first minimum in row-major order."""
    index = np.unravel_index(np.argmin(values), values.shape)
    return values[index], index


def _no_finite_budget(m_terms, epsilon_total, beta, pe, synth, combination):
    """The error for a problem whose every candidate split costs inf. When
    the smallest problem, M = beta = 1, has a finite cost at this
    epsilon_total, the inf is the T count of m_terms and beta overflowing
    float64, not too small an epsilon_total."""
    if (m_terms, beta) != (1, 1):
        try:
            approx_optimal_budget(1, epsilon_total, 1, pe, synth, combination)
        except ValueError:
            pass
        else:
            return ValueError(
                f"the T count overflows float64 at m_terms={m_terms:g} and "
                f"beta={beta:g}"
            )
    return ValueError("no feasible budget found; epsilon_total too small")


def approx_optimal_budget(m_terms, epsilon_total, beta, pe, synth,
                          combination="worst_case"):
    """Closed-form-guided seed for the budget optimizer.

    For the worst_case rule the smooth cost with a constant synthesis term
    is stationary at e1 = 2 * e2, so the seed scans e3 over a 120-point log
    grid and splits the remainder that way. For the variance rule the seed
    is the first minimum of the smooth cost on the 120 x 120 log grid over
    (e1, e3). Either grid is one evaluate_cost_smooth call. The budget
    constraint is saturated in both cases since the cost is monotone
    decreasing in every component. Returns None if the seed fails
    ErrorBudget validation.
    """
    if epsilon_total * 1e-9 == 0:  # the seed axis would start at 0
        raise ValueError("no feasible budget found; epsilon_total too small")
    axis = np.geomspace(epsilon_total * 1e-9, epsilon_total * (1.0 - 1e-9),
                        120)
    if combination == "worst_case":
        rest = epsilon_total - axis
        e1, e2 = 2.0 * rest / 3.0, rest / 3.0
        best, (i,) = _first_minimum(evaluate_cost_smooth(
            m_terms, e1, e2, axis, epsilon_total, beta, pe, synth
        ))
        e1, e2, e3 = e1[i], e2[i], axis[i]
    else:
        rows = axis[:, None]
        best, (i, j) = _first_minimum(evaluate_cost_smooth(
            m_terms, rows, epsilon_total - np.hypot(rows, axis), axis,
            epsilon_total, beta, pe, synth,
        ))
        e1, e3 = axis[i], axis[j]
        e2 = _e2_from_rule(epsilon_total, e1, e3, combination)
    if not best < math.inf:
        raise _no_finite_budget(m_terms, epsilon_total, beta, pe, synth,
                                combination)
    try:
        return ErrorBudget(epsilon_total, e1, e2, e3, combination)
    except ValueError:
        return None


def optimize_budget(m_terms, epsilon_total, beta, pe, synth,
                    combination="worst_case"):
    """Minimize the ceiled cost formula over the budget split.

    Seeds from approx_optimal_budget plus an equal-split fallback, then
    refines with five shrinking 17 x 17 log grids over (e1, e3), each
    scored as one array of evaluate_cost's ceiled T count with e2 from the
    saturated combination rule. A grid moves the best point only if its
    first minimum in row-major order is strictly lower; only the final
    point becomes an ErrorBudget.

    Args:
        m_terms, epsilon_total, beta, pe, synth: as in evaluate_cost.
        combination: budget rule; see ErrorBudget.

    Returns:
        The best ErrorBudget found.
    """
    if epsilon_total <= 0:
        raise ValueError(f"epsilon_total must be positive, got {epsilon_total}")
    _check_problem(m_terms, beta)
    problem = (m_terms, epsilon_total, beta, pe, synth, combination)
    seed = approx_optimal_budget(*problem)
    points = [] if seed is None else [(seed.epsilon1_pe, seed.epsilon3_synth)]
    fallback = epsilon_total / (
        3.0 if combination == "worst_case" else 2.0 * math.sqrt(2.0)
    )
    points.append((fallback, fallback))
    best_cost, (i,) = _first_minimum(
        _ceiled_t_counts(*problem, *np.array(points).T)
    )
    if not best_cost < math.inf:
        raise _no_finite_budget(*problem)
    e1, e3 = points[i]
    for span in (30.0, 6.0, 1.6, 1.15, 1.03):
        grid1 = np.geomspace(e1 / span, min(e1 * span, epsilon_total), 17)
        grid3 = np.geomspace(e3 / span, min(e3 * span, epsilon_total), 17)
        cost, (i, j) = _first_minimum(
            _ceiled_t_counts(*problem, grid1[:, None], grid3)
        )
        if cost < best_cost:
            best_cost, e1, e3 = cost, grid1[i], grid3[j]
    e1, e3 = float(e1), float(e3)
    e2 = _e2_from_rule(epsilon_total, e1, e3, combination)
    return ErrorBudget(epsilon_total, e1, e2, e3, combination)


def logical_qubit_count(n_spin_orbitals, strategy, parallelism=None,
                        par_ancillas=None):
    """Processor logical qubits for a strategy.

    The additive constants (system register plus phase-estimation and
    scratch ancillas) are calibrated, not derived: serial and nesting carry
    3 extra logical qubits, PAR carries 2 plus its rotation-factory block.
    """
    if n_spin_orbitals < 1:
        raise ValueError(
            f"n_spin_orbitals must be a positive register width, got "
            f"{n_spin_orbitals}"
        )
    if strategy == "serial":
        return n_spin_orbitals + 3
    if strategy == "nesting":
        _check_parallelism(parallelism)
        return n_spin_orbitals + 3 + math.ceil(parallelism)
    if strategy == "par":
        if par_ancillas is None or par_ancillas < 0:
            raise ValueError("par needs a nonnegative ancilla count")
        return n_spin_orbitals + 2 + int(par_ancillas)
    raise ValueError(f"unknown strategy {strategy!r}")


def strategy_report(base, strategy, parallelism=None, par_params=None,
                    n_spin_orbitals=None, clifford_per_step=None):
    """Re-derive a logical report under an execution strategy.

    Args:
        base: LogicalCostReport carrying the problem size and budget.
        strategy: "serial", "nesting", or "par".
        parallelism: mean simultaneous rotations (nesting only).
        par_params: ParParams for the PAR cascade; synthesis_cost defaults
            to the deterministic per-rotation count at this budget's
            precision when the given value is 0.
        n_spin_orbitals: register width; falls back to the base report.
        clifford_per_step: optional counted Clifford totals per step.

    Returns:
        LogicalCostReport for the strategy.
    """
    bits = base.synthesis_bits
    rotations = base.rotation_count
    if strategy == "serial":
        synth = SynthesisModel.preset("fallback_average")
        per_rotation = synth.t_per_rotation(bits)
        par_params = None
    elif strategy == "nesting":
        _check_parallelism(parallelism)
        synth = SynthesisModel.preset("deterministic_worst_case")
        per_rotation = synth.t_per_rotation(bits)
        par_params = None
    elif strategy == "par":
        if par_params is None:
            raise ValueError("par needs ParParams")
        synth = SynthesisModel.preset("deterministic_worst_case")
        if par_params.synthesis_cost == 0:
            par_params = dataclasses.replace(
                par_params, synthesis_cost=math.ceil(synth.t_per_rotation(bits))
            )
        per_rotation = float(par_params.n_levels * par_params.synthesis_cost)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    t_count = rotations * per_rotation
    if n_spin_orbitals:
        ancillas = par_rotation_factories(par_params) if par_params else None
        qubits = logical_qubit_count(
            n_spin_orbitals, strategy, parallelism, ancillas
        )
    else:
        qubits = base.logical_qubits if strategy == "serial" else None
    clifford, clifford_mode = _clifford_count(
        strategy, t_count, base.trotter_steps_per_unit_time,
        base.pe_repetitions, clifford_per_step,
    )
    return dataclasses.replace(
        base,
        strategy=strategy,
        t_count=t_count,
        clifford_count=clifford,
        logical_qubits=qubits,
        wall_time=_wall_time(
            strategy, t_count, rotations, base.t_gate_time, parallelism,
            par_params,
        ),
        synthesis=synth,
        t_per_rotation=per_rotation,
        clifford_mode=clifford_mode,
        parallelism=parallelism,
        par_params=par_params,
    )


def with_t_count(report, t_count):
    """The report moved to another total T count at the same per-rotation
    cost; rotation count and wall time follow the strategy's identities."""
    rotations = t_count / report.t_per_rotation
    return dataclasses.replace(
        report,
        t_count=t_count,
        rotation_count=rotations,
        wall_time=_wall_time(
            report.strategy, t_count, rotations, report.t_gate_time,
            report.parallelism, report.par_params,
        ),
    )
