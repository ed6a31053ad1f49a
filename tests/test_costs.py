import math

import mpmath
import numpy as np
import pytest
from oracles import scalar_cost_smooth, scalar_optimize_budget

from qsimcost import (
    CLIFFORD_T_RATIO,
    T_GATE_TIME,
    ErrorBudget,
    ParParams,
    PhaseEstimationModel,
    SynthesisModel,
    clifford_count_per_step,
    enumerate_terms,
    evaluate_cost,
    evaluate_cost_smooth,
    load_molecule,
    logical_qubit_count,
    optimize_budget,
    par_factory_time_per_rotation,
    strategy_report,
)
from qsimcost.costs import (
    _PE_PRESETS,
    _SYNTHESIS_PRESETS,
    _ceiled_t_counts,
    approx_optimal_budget,
)

PE = PhaseEstimationModel.preset("optimal_surrogate")
SYN = SynthesisModel.preset("fallback_average")

# larger problem size of the two reference structures
M_LARGE = 6.1e6
BETA_LARGE = 166.0


def worst_budget(eps, e1, e2, e3):
    return ErrorBudget(eps, e1, e2, e3, "worst_case")


def mp_cost(m, e1, e2, e3, eps, alpha, beta, gamma, delta):
    # arbitrary-precision rebuild of the ceiled cost formula; the ceilings
    # reproduce the double-precision products so a representable value just
    # under an integer boundary rounds the same way
    with mpmath.workdps(50):
        pe = mpmath.ceil(mpmath.mpf(float(alpha / e1)))
        steps = mpmath.ceil(mpmath.mpf(float(beta * math.sqrt(eps / e2))))
        arg = 2 * mpmath.mpf(m) * steps / mpmath.mpf(e3)
        synth = mpmath.mpf(gamma) * mpmath.log(arg, 2) + mpmath.mpf(delta)
        return float(2 * mpmath.mpf(m) * pe * steps * synth)


def test_formula_matches_arbitrary_precision_on_random_sets():
    rng = np.random.default_rng(404)
    for _ in range(50):
        m = float(10 ** rng.uniform(2, 7))
        eps = float(10 ** rng.uniform(-5, -2))
        shares = rng.dirichlet((1.0, 1.0, 1.0)) * 0.999
        e1, e2, e3 = (float(eps * s) for s in shares)
        alpha = float(10 ** rng.uniform(-0.5, 1.5))
        beta = float(10 ** rng.uniform(0.5, 4))
        gamma = float(rng.uniform(0.5, 5.0))
        delta = float(rng.uniform(5.0, 15.0))
        budget = worst_budget(eps, e1, e2, e3)
        pe = PhaseEstimationModel("random", alpha)
        syn = SynthesisModel("random", gamma, delta)
        got = evaluate_cost(m, budget, beta, pe, syn).t_count
        want = mp_cost(m, e1, e2, e3, eps, alpha, beta, gamma, delta)
        assert got == pytest.approx(want, rel=1e-12)


def test_documented_point_evaluation():
    budget = worst_budget(1e-4, 5e-5, 2.5e-5, 2.5e-5)
    report = evaluate_cost(1e6, budget, 100.0, PE, SYN)
    assert report.trotter_steps_per_unit_time == 200
    assert report.pe_repetitions == 31416
    assert report.t_count == pytest.approx(7.5e14, rel=1e-2)
    assert report.rotation_count == pytest.approx(2e6 * 200 * 31416)
    assert report.wall_time == report.t_count * T_GATE_TIME


def test_trotter_share_square_root_is_exact():
    # binary-clean shares make eps/e2 = 4, so the step factor is exactly 2
    eps, e1, e2, e3 = 2.0**-10, 2.0**-11, 2.0**-12, 2.0**-12
    report = evaluate_cost(1e4, worst_budget(eps, e1, e2, e3), 137.0, PE, SYN)
    assert report.trotter_steps_per_unit_time == 274
    # with the full budget on the Trotter share the factor collapses to beta
    smooth = evaluate_cost_smooth(1e4, e1, eps, e3, eps, 137.0, PE, SYN)
    direct = 2.0 * 1e4 * (PE.alpha / e1) * 137.0 * SYN.t_per_rotation(
        math.log2(2.0 * 1e4 * 137.0 / e3)
    )
    assert smooth == pytest.approx(direct, rel=1e-14)


def test_halving_pe_share_doubles_repetitions():
    # scaling alpha by powers of two keeps the quotient exact
    alpha = PE.alpha
    b1 = worst_budget(1e-3, alpha * 2.0**-13, 4e-4, 4e-4)
    b2 = worst_budget(1e-3, alpha * 2.0**-14, 4e-4, 4e-4)
    assert evaluate_cost(1e5, b1, 50.0, PE, SYN).pe_repetitions == 2**13
    assert evaluate_cost(1e5, b2, 50.0, PE, SYN).pe_repetitions == 2**14


def test_degenerate_synthesis_budget_rejected():
    # the log argument falls below 1 when e3 dwarfs the step count
    budget = ErrorBudget(300.0, 1.0, 200.0, 99.0, "worst_case")
    with pytest.raises(ValueError, match="log argument"):
        evaluate_cost(2.0, budget, 1.0, PE, SYN)


def test_parameter_validation():
    budget = worst_budget(1e-4, 5e-5, 2.5e-5, 2.5e-5)
    with pytest.raises(ValueError, match="term"):
        evaluate_cost(0, budget, 100.0, PE, SYN)
    with pytest.raises(ValueError, match="beta"):
        evaluate_cost(1e6, budget, 0.5, PE, SYN)
    with pytest.raises(ValueError, match="alpha"):
        PhaseEstimationModel("bad", 0.0)
    with pytest.raises(ValueError, match="preset"):
        PhaseEstimationModel.preset("unknown")
    with pytest.raises(ValueError, match="preset"):
        SynthesisModel.preset("unknown")


def test_budget_validation():
    with pytest.raises(ValueError, match="positive"):
        ErrorBudget(1e-4, -1e-5, 5e-5, 5e-5, "worst_case")
    with pytest.raises(ValueError, match="constraint"):
        ErrorBudget(1e-4, 6e-5, 5e-5, 5e-5, "worst_case")
    with pytest.raises(ValueError, match="combination"):
        ErrorBudget(1e-4, 1e-5, 1e-5, 1e-5, "pessimistic")
    # the variance rule admits splits the linear rule rejects
    ErrorBudget(1e-4, 6e-5, 1e-5, 6e-5, "variance")
    with pytest.raises(ValueError, match="constraint"):
        ErrorBudget(1e-4, 8e-5, 1e-5, 8e-5, "variance")


def test_preset_constants():
    assert PhaseEstimationModel.preset("standard_qpe").alpha == pytest.approx(8 * math.pi)
    assert PhaseEstimationModel.preset("rfpe").alpha == pytest.approx(2.3)
    assert PhaseEstimationModel.preset("optimal_surrogate").alpha == pytest.approx(math.pi / 2)
    det = SynthesisModel.preset("deterministic_worst_case")
    avg = SynthesisModel.preset("fallback_average")
    assert (det.gamma, det.delta) == (4.0, 11.0)
    assert (avg.gamma, avg.delta) == (1.15, 9.2)


def test_synthesis_lower_bound_check():
    # the worst-case synthesis floor is 4 log2(1/eps) - 9 T gates
    det = SynthesisModel.preset("deterministic_worst_case")
    avg = SynthesisModel.preset("fallback_average")
    for bits in (10.0, 30.0, 50.0):
        assert det.t_per_rotation(bits) >= 4.0 * bits - 9.0
    # the average-cost line dips below the worst-case floor at high precision
    assert avg.t_per_rotation(50.0) < 4.0 * 50.0 - 9.0


def test_smooth_cost_monotone_in_each_component():
    rng = np.random.default_rng(11)
    for _ in range(20):
        eps = float(10 ** rng.uniform(-5, -3))
        base = rng.dirichlet((1.0, 1.0, 1.0)) * eps * 0.9
        beta = float(10 ** rng.uniform(1, 3))
        m = float(10 ** rng.uniform(3, 7))
        for axis in range(3):
            values = []
            for scale in (1.0, 1.3, 1.7, 2.3):
                parts = base.copy()
                parts[axis] *= scale
                values.append(
                    evaluate_cost_smooth(m, *parts, eps, beta, PE, SYN)
                )
            assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))


def grid_minimum(m, eps, beta, pe, syn, combination, points=200):
    axis = np.geomspace(eps * 1e-7, eps, points)
    e1, e3 = np.meshgrid(axis, axis, indexing="ij")
    best = math.inf
    for e2_axis in axis:
        if combination == "worst_case":
            feasible = e1 + e2_axis + e3 <= eps
        else:
            feasible = e2_axis + np.sqrt(e1**2 + e3**2) <= eps
        if not feasible.any():
            continue
        steps = np.ceil(beta * np.sqrt(eps / e2_axis))
        pe_reps = np.ceil(pe.alpha / e1)
        arg = 2.0 * m * steps / e3
        with np.errstate(invalid="ignore"):
            synth = syn.gamma * np.log2(arg) + syn.delta
        cost = np.where(feasible & (arg > 1.0), 2.0 * m * pe_reps * steps * synth, np.inf)
        best = min(best, float(cost.min()))
    return best


@pytest.mark.parametrize("combination", ["worst_case", "variance"])
def test_optimizer_within_tenth_percent_of_grid(combination):
    cases = [
        (M_LARGE, 1e-4, BETA_LARGE),
        (3.3e4, 1e-3, 40.0),
    ]
    for m, eps, beta in cases:
        budget = optimize_budget(m, eps, beta, PE, SYN, combination)
        got = evaluate_cost(m, budget, beta, PE, SYN).t_count
        reference = grid_minimum(m, eps, beta, PE, SYN, combination)
        assert got <= reference * 1.001


@pytest.mark.parametrize("combination", ["worst_case", "variance"])
def test_optimizer_dominates_equal_split(combination):
    rng = np.random.default_rng(2)
    for _ in range(5):
        m = float(10 ** rng.uniform(3, 7))
        eps = float(10 ** rng.uniform(-5, -3))
        beta = float(10 ** rng.uniform(1, 3))
        if combination == "worst_case":
            equal = ErrorBudget(eps, eps / 3, eps / 3, eps / 3, combination)
        else:
            share = eps / (2.0 * math.sqrt(2.0))
            equal = ErrorBudget(eps, share, eps / 2, share, combination)
        best = optimize_budget(m, eps, beta, PE, SYN, combination)
        assert (
            evaluate_cost(m, best, beta, PE, SYN).t_count
            <= evaluate_cost(m, equal, beta, PE, SYN).t_count
        )


def test_constant_synthesis_recovers_stationarity():
    # with gamma = 0 the smooth optimum sits exactly at e1 = 2 e2
    flat = SynthesisModel("flat", 0.0, 60.0)
    seed = approx_optimal_budget(1e6, 1e-4, 150.0, PE, flat, "worst_case")
    assert seed.epsilon1_pe == pytest.approx(2.0 * seed.epsilon2_trotter, rel=1e-12)
    polished = optimize_budget(1e6, 1e-4, 150.0, PE, flat, "worst_case")
    assert polished.epsilon1_pe == pytest.approx(
        2.0 * polished.epsilon2_trotter, rel=0.25
    )


def test_smooth_cost_on_arrays_matches_scalar_calls():
    rng = np.random.default_rng(17)
    eps, m, beta = 1e-3, 40.0, 3.0
    e1, e2, e3 = (eps * 10 ** rng.uniform(-9, 0.5, (3, 64, 64)))
    # components <= 0 and log arguments <= 1 (e3 far above 2 m steps)
    e1[0, :8], e2[1, :8], e3[2, :8] = 0.0, -1e-4, -eps
    e3[3] = 1e9
    got = evaluate_cost_smooth(m, e1, e2, e3, eps, beta, PE, SYN)
    assert got.shape == (64, 64)
    for (i, j), value in np.ndenumerate(got):
        point = (m, e1[i, j], e2[i, j], e3[i, j], eps, beta, PE, SYN)
        scalar = evaluate_cost_smooth(*point)
        assert type(scalar) is float
        reference = scalar_cost_smooth(*point)
        if math.isinf(reference):
            assert value == scalar == math.inf
        else:
            assert value == pytest.approx(scalar, rel=1e-15, abs=0)
            assert value == pytest.approx(reference, rel=1e-15, abs=0)
    assert np.isinf(got[:3, :8]).all() and np.isinf(got[3]).all()
    assert np.isfinite(got[4:]).any()


def _t_count_or_inf(m, eps, e1, e3, beta, pe, syn, combination):
    if combination == "worst_case":
        e2 = eps - e1 - e3
    else:
        e2 = eps - math.hypot(e1, e3)
    try:
        budget = ErrorBudget(eps, e1, e2, e3, combination)
        return evaluate_cost(m, budget, beta, pe, syn).t_count
    except ValueError:
        return math.inf


@pytest.mark.parametrize("combination", ["worst_case", "variance"])
@pytest.mark.parametrize("m, eps, beta", [
    (M_LARGE, 1e-4, BETA_LARGE),
    (3.3e4, 1e-3, 40.0),
    # small enough that e3 near eps leaves a log argument <= 1
    (1.0, 10.0, 1.0),
])
def test_ceiled_t_counts_match_evaluate_cost(combination, m, eps, beta):
    grid = np.geomspace(eps * 1e-6, eps, 41)
    got = _ceiled_t_counts(m, eps, beta, PE, SYN, combination, grid[:, None],
                           grid)
    infeasible = 0
    for (i, j), value in np.ndenumerate(got):
        want = _t_count_or_inf(m, eps, float(grid[i]), float(grid[j]), beta,
                               PE, SYN, combination)
        if math.isinf(want):
            infeasible += 1
            assert value == math.inf
        else:
            assert value == pytest.approx(want, rel=1e-15, abs=0)
    assert 0 < infeasible < got.size


def _budget_or_message(optimizer, *args):
    try:
        budget = optimizer(*args)
    except ValueError as error:
        return str(error)
    return budget.epsilon1_pe, budget.epsilon2_trotter, budget.epsilon3_synth


@pytest.mark.parametrize("combination", ["worst_case", "variance"])
@pytest.mark.parametrize("synth_name", sorted(_SYNTHESIS_PRESETS))
@pytest.mark.parametrize("pe_name", sorted(_PE_PRESETS))
def test_optimizer_matches_scalar_reference_bit_for_bit(pe_name, synth_name,
                                                        combination):
    # 34 seeded cases per preset pair and rule, 408 in all
    pe = PhaseEstimationModel.preset(pe_name)
    syn = SynthesisModel.preset(synth_name)
    rng = np.random.default_rng([
        sorted(_PE_PRESETS).index(pe_name),
        sorted(_SYNTHESIS_PRESETS).index(synth_name),
        combination == "variance",
    ])
    for _ in range(34):
        m = float(10 ** rng.uniform(math.log10(3.0), 10.0))
        eps = float(10 ** rng.uniform(-8.0, -1.0))
        beta = float(10 ** rng.uniform(0.0, 8.0))
        args = (m, eps, beta, pe, syn, combination)
        assert _budget_or_message(optimize_budget, *args) == \
            _budget_or_message(scalar_optimize_budget, *args)


@pytest.mark.parametrize("combination, m, eps, beta", [
    (combination, *problem)
    for combination in ("worst_case", "variance")
    for problem in (
        (0.5, 1e-3, 10.0),
        (math.inf, 1e-3, 10.0),
        (10.0, 1e-3, 0.5),
        (10.0, 1e-3, math.nan),
        (10.0, 0.0, 10.0),
        (10.0, -1e-3, 10.0),
    )
] + [
    # every seed point has a synthesis log argument <= 1
    ("worst_case", 1.0, 1e12, 1.0),
])
def test_optimizer_raises_like_scalar_reference(combination, m, eps, beta):
    args = (m, eps, beta, PE, SYN, combination)
    want = _budget_or_message(scalar_optimize_budget, *args)
    assert isinstance(want, str)
    assert _budget_or_message(optimize_budget, *args) == want


@pytest.mark.parametrize("combination", ["worst_case", "variance"])
def test_optimizer_blames_an_overflowing_t_count_on_m_terms_and_beta(
    combination
):
    # every split is feasible, but the T count of M = beta = 1e300 is inf
    with pytest.raises(ValueError, match=(
        r"^the T count overflows float64 at m_terms=1e\+300 and beta=1e\+300$"
    )):
        optimize_budget(1e300, 1e-4, 1e300, PE, SYN, combination)
    # where even M = beta = 1 has no finite cost, epsilon_total is too small,
    # also where a billionth of it underflows to 0
    for epsilon_total in (1e-305, 1e-320):
        with pytest.raises(ValueError, match="epsilon_total too small"):
            optimize_budget(M_LARGE, epsilon_total, BETA_LARGE, PE, SYN,
                            combination)


def test_reference_structure_optimum_within_factor_five():
    # the linear-rule evaluation of the cost formula lands well above the
    # published optimum; the gap stays under a factor of five
    budget = optimize_budget(M_LARGE, 1e-4, BETA_LARGE, PE, SYN, "worst_case")
    cost = evaluate_cost(M_LARGE, budget, BETA_LARGE, PE, SYN).t_count
    assert 1.2e15 < cost < 5.0 * 1.2e15
    budget_v = optimize_budget(M_LARGE, 1e-4, BETA_LARGE, PE, SYN, "variance")
    cost_v = evaluate_cost(M_LARGE, budget_v, BETA_LARGE, PE, SYN).t_count
    assert 1.1e15 < cost_v < 5.0 * 1.1e15
    # the quadrature rule frees budget, so it can only help
    assert cost_v <= cost


def test_accuracy_relaxation_ratio():
    tight = optimize_budget(M_LARGE, 1e-4, BETA_LARGE, PE, SYN, "variance")
    loose_beta = BETA_LARGE / math.sqrt(10.0)
    loose = optimize_budget(M_LARGE, 1e-3, loose_beta, PE, SYN, "variance")
    ratio = (
        evaluate_cost(M_LARGE, tight, BETA_LARGE, PE, SYN).t_count
        / evaluate_cost(M_LARGE, loose, loose_beta, PE, SYN).t_count
    )
    assert 8.0 <= ratio <= 35.0


def base_report():
    budget = optimize_budget(M_LARGE, 1e-4, BETA_LARGE, PE, SYN, "worst_case")
    return evaluate_cost(M_LARGE, budget, BETA_LARGE, PE, SYN, n_spin_orbitals=108)


def test_serial_wall_time_identity():
    report = base_report()
    assert report.wall_time == report.t_count * T_GATE_TIME
    again = strategy_report(report, "serial", n_spin_orbitals=108)
    assert again.wall_time == again.t_count * T_GATE_TIME
    assert again.t_count == pytest.approx(report.t_count)


def test_nesting_report():
    report = base_report()
    nest = strategy_report(report, "nesting", parallelism=26.43, n_spin_orbitals=108)
    bits = report.synthesis_bits
    expected_ratio = (4.0 * bits + 11.0) / (1.15 * bits + 9.2)
    assert nest.t_count / report.t_count == pytest.approx(expected_ratio, rel=1e-12)
    assert 3.0 <= nest.t_count / report.t_count <= 3.4
    assert nest.wall_time == pytest.approx(nest.t_count * T_GATE_TIME / 26.43)
    assert nest.rotation_count == report.rotation_count
    assert nest.logical_qubits == 108 + 3 + 27


def test_degenerate_nesting_equals_serial_wall():
    report = base_report()
    nest = strategy_report(report, "nesting", parallelism=1.0)
    assert nest.wall_time == pytest.approx(nest.t_count * T_GATE_TIME)


def test_par_report():
    report = base_report()
    params = ParParams(9, 1, 199)
    par = strategy_report(report, "par", par_params=params, n_spin_orbitals=108)
    assert par.t_count == pytest.approx(report.rotation_count * 9 * 199)
    per_rotation_time = par_factory_time_per_rotation(params)
    assert par.wall_time == pytest.approx(
        report.rotation_count * per_rotation_time * T_GATE_TIME
    )
    assert par.logical_qubits == 108 + 2 + 1872
    assert par.par_params == params


def test_par_derives_synthesis_cost_when_unset():
    report = base_report()
    par = strategy_report(report, "par", par_params=ParParams(9, 1, 0))
    expected = math.ceil(4.0 * report.synthesis_bits + 11.0)
    assert par.par_params.synthesis_cost == expected
    assert par.t_count == pytest.approx(report.rotation_count * 9 * expected)


def test_strategy_validation():
    report = base_report()
    with pytest.raises(ValueError, match="parallelism"):
        strategy_report(report, "nesting")
    with pytest.raises(ValueError, match="ParParams"):
        strategy_report(report, "par")
    with pytest.raises(ValueError, match="strategy"):
        strategy_report(report, "hybrid")


def test_logical_qubit_counts():
    assert logical_qubit_count(108, "serial") == 111
    assert logical_qubit_count(114, "nesting", parallelism=27.83) == 145
    assert logical_qubit_count(108, "par", par_ancillas=1872) == 1982
    with pytest.raises(ValueError, match="parallelism"):
        logical_qubit_count(108, "nesting")
    with pytest.raises(ValueError, match="ancilla"):
        logical_qubit_count(108, "par")
    with pytest.raises(ValueError, match="strategy"):
        logical_qubit_count(108, "teleport")
    with pytest.raises(ValueError, match="register"):
        logical_qubit_count(0, "serial")


def test_clifford_ratio_mode():
    report = base_report()
    assert report.clifford_mode == "ratio_calibrated"
    assert report.clifford_count == pytest.approx(1.55 * report.t_count)
    par = strategy_report(report, "par", par_params=ParParams(9, 1, 199))
    assert par.clifford_count == pytest.approx(1.00 * par.t_count)
    assert CLIFFORD_T_RATIO["nesting"] == 1.55


def test_clifford_counted_mode():
    terms = enumerate_terms(load_molecule("h4_chain"))
    step = clifford_count_per_step(terms)
    budget = worst_budget(1e-3, 5e-4, 2.5e-4, 2.5e-4)
    report = evaluate_cost(
        terms.m, budget, 12.0, PE, SYN, clifford_per_step=step,
        n_spin_orbitals=terms.n_spin_orbitals,
    )
    assert report.clifford_mode == "counted"
    expected = step.total_clifford * report.trotter_steps_per_unit_time * report.pe_repetitions
    assert report.clifford_count == pytest.approx(expected)
