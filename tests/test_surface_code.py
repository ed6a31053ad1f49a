import pytest

from qsimcost import (
    ErrorBudget,
    ParParams,
    PhaseEstimationModel,
    SynthesisModel,
    par_factory_time_per_rotation,
)
from qsimcost.costs import LogicalCostReport
from qsimcost.surface_code import (
    FTParams,
    code_distance,
    distillation_error_after,
    distillation_round_distances,
    distillation_rounds,
    logical_error_rate,
    physical_report,
    qubits_per_logical,
    rotation_factory_count,
    t_factory_count,
    t_factory_footprint,
)

BUDGET = ErrorBudget(1e-4, 6.6e-5, 3.3e-5, 9.9e-7, "worst_case")

# published reference points: T counts, logical qubits, wall seconds
SERIAL_T = 1.1e15
NESTING_T = 3.5e15
PAR_T = 3.1e16
PAR_PARAMS = ParParams(9, 1, 199)


def reference_logical(strategy):
    if strategy == "serial":
        t_count, qubits, wall, par, parp = SERIAL_T, 111, SERIAL_T * 1e-8, None, None
    elif strategy == "nesting":
        t_count, qubits, par, parp = NESTING_T, 138, 26.43, None
        wall = NESTING_T * 1e-8 / par
    else:
        t_count, qubits, par, parp = PAR_T, 1982, None, PAR_PARAMS
        wall = PAR_T / (9 * 199) * par_factory_time_per_rotation(PAR_PARAMS) * 1e-8
    return LogicalCostReport(
        strategy=strategy,
        t_count=t_count,
        clifford_count=1.55 * t_count,
        rotation_count=t_count / 60.0,
        trotter_steps_per_unit_time=300,
        pe_repetitions=20000,
        logical_qubits=qubits,
        wall_time=wall,
        budget=BUDGET,
        m_terms=6.1e6,
        pe=PhaseEstimationModel.preset("optimal_surrogate"),
        synthesis=SynthesisModel.preset("fallback_average"),
        synthesis_bits=50.0,
        t_per_rotation=60.0,
        clifford_mode="reference",
        t_gate_time=1e-8,
        parallelism=par,
        par_params=parp,
    )


def test_logical_error_model():
    params = FTParams(p_clifford=1e-3)
    assert logical_error_rate(3, params) == pytest.approx(0.1 * (0.1) ** 2)
    # each distance increment of 2 buys one factor of p/p_th
    assert logical_error_rate(5, params) / logical_error_rate(3, params) == pytest.approx(0.1)


def test_code_distance_examples():
    assert code_distance(1e-16, FTParams(p_clifford=1e-6)) == 7
    assert code_distance(1e-15, FTParams(p_clifford=1e-9)) == 5
    assert code_distance(0.5, FTParams(p_clifford=1e-3)) == 1
    # returned distance meets the target and the next smaller odd one fails
    for p, target in ((1e-3, 1e-18), (1e-6, 1e-20), (1e-9, 3e-16)):
        params = FTParams(p_clifford=p)
        d = code_distance(target, params)
        assert d % 2 == 1
        assert logical_error_rate(d, params) <= target
        if d > 1:
            assert logical_error_rate(d - 2, params) > target


def test_code_distance_validation():
    with pytest.raises(ValueError, match="threshold"):
        FTParams(p_clifford=2e-2)
    with pytest.raises(ValueError, match="out of range"):
        code_distance(0.0, FTParams(p_clifford=1e-3))


def test_qubits_per_logical_table_fit():
    assert [qubits_per_logical(d) for d in (5, 9, 17, 35, 37)] == [
        313, 1013, 3613, 15313, 17113,
    ]
    assert qubits_per_logical(1) == 13
    with pytest.raises(ValueError, match="distance"):
        qubits_per_logical(0)


def test_distillation_rounds():
    assert distillation_rounds(1e-3, 1e-15) == 2
    assert distillation_rounds(1e-6, 1e-15) == 1
    assert distillation_rounds(1e-3, 1e-2) == 0
    with pytest.raises(ValueError, match="diverges"):
        distillation_rounds(0.2, 1e-15)
    with pytest.raises(ValueError, match="positive"):
        distillation_rounds(1e-3, 0.0)


def test_distillation_recursion_agrees_with_iteration():
    assert distillation_error_after(1e-3, 1) == pytest.approx(3.5e-8)
    assert distillation_error_after(1e-3, 2) == pytest.approx(35 * 3.5e-8**3)
    for p in (1e-3, 1e-4, 1e-6):
        target = 1e-18
        rounds = distillation_rounds(p, target)
        assert distillation_error_after(p, rounds) <= target
        if rounds:
            assert distillation_error_after(p, rounds - 1) > target
    # error strictly decreases round over round in the convergent regime
    errors = [distillation_error_after(1e-3, k) for k in range(4)]
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_round_distances_backward_induction():
    params = FTParams(p_clifford=1e-3)
    per_t = 1.0 / SERIAL_T
    dists = distillation_round_distances(per_t, 2, params)
    assert dists == [15, 35]
    # final round sits a margin below the output target; the first round
    # only has to feed the cube of the second
    assert dists[-1] == code_distance(per_t / 1000.0, params)
    assert dists[0] == code_distance((per_t / 35.0) ** (1 / 3) / 1000.0, params)
    assert distillation_round_distances(per_t, 0, params) == []


def test_t_factory_footprint():
    assert t_factory_footprint(1, [9]) == 16208
    assert t_factory_footprint(2, [5, 9]) == 75120
    assert t_factory_footprint(2, [17, 35]) == 867120
    assert t_factory_footprint(2, [3, 9]) == 27120
    assert t_factory_footprint(0, [1]) == 0
    with pytest.raises(ValueError, match="distances"):
        t_factory_footprint(2, [9])
    with pytest.raises(ValueError, match="unsupported"):
        t_factory_footprint(3, [3, 5, 9])


def test_t_factory_count():
    params = FTParams(p_clifford=1e-3)
    assert t_factory_count(1e8, [17, 35], params) == 198
    assert t_factory_count(1e8, [9], params) == 69
    assert t_factory_count(1e-3, [9], params) == 1
    with pytest.raises(ValueError, match="rate"):
        t_factory_count(0.0, [9], params)
    with pytest.raises(ValueError, match="distance"):
        t_factory_count(1e8, [], params)


def test_rotation_factory_counts_by_strategy():
    assert rotation_factory_count(reference_logical("serial")) == 0
    assert rotation_factory_count(reference_logical("nesting")) == 26
    assert rotation_factory_count(reference_logical("par")) == 1872


def test_params_validation():
    with pytest.raises(ValueError, match="p_inject"):
        FTParams(p_clifford=1e-3, p_inject=1.5)
    with pytest.raises(ValueError, match="t_phys"):
        FTParams(p_clifford=1e-3, t_phys=0.0)
    with pytest.raises(ValueError, match="target_total_failure"):
        FTParams(p_clifford=1e-3, target_total_failure=0.0)
    assert FTParams(p_clifford=1e-6).injected_error == 1e-6
    assert FTParams(p_clifford=1e-6, p_inject=1e-4).injected_error == 1e-4


# published fault-tolerance matrix: distances (final round first), T-factory
# count, per-factory footprint, grand total
REFERENCE_MATRIX = {
    ("serial", 1e-3): ((35, 17), 202, 8.7e5, 1.8e8),
    ("serial", 1e-6): ((9,), 68, 1.7e4, 1.2e6),
    ("serial", 1e-9): ((5,), 38, 5.0e3, 2.3e5),
    ("par", 1e-3): ((37, 19), 166462, 1.1e6, 1.8e11),
    ("par", 1e-6): ((9, 5), 41110, 7.5e4, 3.1e9),
    ("par", 1e-9): ((5,), 29659, 5.0e3, 1.5e8),
    ("nesting", 1e-3): ((37, 17), 5845, 8.7e5, 5.1e9),
    ("nesting", 1e-6): ((9,), 1842, 1.7e4, 3.0e7),
    ("nesting", 1e-9): ((5,), 1029, 5.2e3, 5.2e6),
}


@pytest.mark.parametrize("strategy,p", sorted(REFERENCE_MATRIX, key=str))
def test_reference_matrix(strategy, p):
    distances, count, footprint, total = REFERENCE_MATRIX[(strategy, p)]
    report = physical_report(reference_logical(strategy), FTParams(p_clifford=p))
    mine = report.code_distances[:-1]
    assert report.distillation_rounds == len(distances)
    assert all(abs(a - b) <= 2 for a, b in zip(mine, distances))
    tolerance = 0.20 if strategy == "par" else 0.15
    assert report.t_factory_count == pytest.approx(count, rel=tolerance)
    assert 0.5 * total <= report.total_physical_qubits <= 2.0 * total
    assert report.total_physical_qubits == (
        report.processor_qubits
        + report.rotation_factory_qubits
        + report.t_factory_qubits
    )


def test_processor_block_conventions():
    # the rotation-factory logical qubits are charged to their own block
    serial = physical_report(reference_logical("serial"), FTParams(p_clifford=1e-6))
    assert serial.processor_logical_qubits == 111
    assert serial.rotation_factory_qubits == 0
    par = physical_report(reference_logical("par"), FTParams(p_clifford=1e-6))
    assert par.processor_logical_qubits == 1982 - 1872
    assert par.rotation_factory_qubits == 1872 * par.qubits_per_logical
    nest = physical_report(reference_logical("nesting"), FTParams(p_clifford=1e-6))
    assert nest.processor_logical_qubits == 138 - 26


def test_processor_distance_from_per_operation_target():
    report = physical_report(reference_logical("serial"), FTParams(p_clifford=1e-3))
    params = FTParams(p_clifford=1e-3)
    expected = code_distance(0.1 / (SERIAL_T * 111), params)
    assert report.processor_code_distance == expected
    assert report.code_distances[-1] == expected
    assert report.qubits_per_logical == qubits_per_logical(expected)
    assert report.processor_qubits == 111 * report.qubits_per_logical


def test_topological_scenario_distances_exact():
    # fixed raw magic-state error while the Clifford error drops
    expected = {
        ("serial", 1e-6): (9, 3),
        ("serial", 1e-9): (5, 3),
        ("par", 1e-6): (9, 5),
        ("par", 1e-9): (5, 3),
        ("nesting", 1e-6): (9, 3),
        ("nesting", 1e-9): (5, 3),
    }
    for (strategy, p), distances in expected.items():
        params = FTParams(p_clifford=p, p_inject=1e-4)
        report = physical_report(reference_logical(strategy), params)
        assert report.code_distances[:-1] == distances


def test_totals_monotone_in_clifford_error():
    for strategy in ("serial", "nesting", "par"):
        logical = reference_logical(strategy)
        defaults = [
            physical_report(logical, FTParams(p_clifford=p)).total_physical_qubits
            for p in (1e-3, 1e-6, 1e-9)
        ]
        assert defaults[0] >= defaults[1] >= defaults[2]
        fixed = [
            physical_report(
                logical, FTParams(p_clifford=p, p_inject=1e-4)
            ).total_physical_qubits
            for p in (1e-6, 1e-9)
        ]
        assert fixed[0] >= fixed[1]


def test_clifford_error_reduction_factors():
    # default scenario: better Cliffords also mean better raw T states, so
    # the serial totals drop by roughly a factor of five per three decades
    serial = reference_logical("serial")
    a = physical_report(serial, FTParams(p_clifford=1e-6)).total_physical_qubits
    b = physical_report(serial, FTParams(p_clifford=1e-9)).total_physical_qubits
    assert 3.0 <= a / b <= 8.0
    # topological scenario: raw states pinned at 1e-4, so only the code
    # distances shrink; PAR still drops about fivefold, serial and nesting
    # only by about half because the same two distillation rounds remain
    par = reference_logical("par")
    a = physical_report(par, FTParams(p_clifford=1e-6, p_inject=1e-4)).total_physical_qubits
    b = physical_report(par, FTParams(p_clifford=1e-9, p_inject=1e-4)).total_physical_qubits
    assert 3.0 <= a / b <= 8.0
    a = physical_report(serial, FTParams(p_clifford=1e-6, p_inject=1e-4)).total_physical_qubits
    b = physical_report(serial, FTParams(p_clifford=1e-9, p_inject=1e-4)).total_physical_qubits
    assert 1.3 <= a / b <= 2.5


def test_literal_budget_split_also_within_distance_tolerance():
    # with the calibration factor off, the per-T budget is ten times
    # tighter and every distance grows by at most one step
    calibrated = physical_report(
        reference_logical("serial"), FTParams(p_clifford=1e-3)
    )
    literal = physical_report(
        reference_logical("serial"),
        FTParams(p_clifford=1e-3, distill_budget_factor=1.0),
    )
    assert literal.distillation_rounds == calibrated.distillation_rounds
    for a, b in zip(literal.code_distances, calibrated.code_distances):
        assert 0 <= a - b <= 2


def test_physical_report_validation():
    import dataclasses

    logical = reference_logical("serial")
    broken = dataclasses.replace(logical, t_count=0.0)
    with pytest.raises(ValueError, match="positive"):
        physical_report(broken, FTParams(p_clifford=1e-3))
    no_qubits = dataclasses.replace(logical, logical_qubits=None)
    with pytest.raises(ValueError, match="qubit"):
        physical_report(no_qubits, FTParams(p_clifford=1e-3))
