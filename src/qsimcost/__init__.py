"""Resource estimation for product-formula quantum simulation of chemistry.

The package is organized as a pipeline:

    hamiltonian  FCIDUMP ingestion and merged-term enumeration
    trotter      commutator-bound error constants and Trotter numbers
    oracle       dense exact validation of the product-formula error
    costs        gate-count model, error-budget optimization, strategies
    par          parallel rotation synthesis and term-nesting analysis
    surface_code fault-tolerant layout, distillation, physical totals
    scenarios    end-to-end resource reports for preset problem sizes
    datasets     bundled small-molecule integrals
"""

from .hamiltonian import (
    CliffordCostTable,
    CliffordStepCount,
    HamiltonianTerm,
    IntegralTable,
    TermList,
    clifford_count_per_step,
    enumerate_terms,
    export_terms,
    parse_fcidump,
    parse_terms,
    write_fcidump,
)
from .oracle import (
    OverlapReport,
    TrotterExactReport,
    build_matrix,
    empirical_trotter_number,
    hartree_fock_overlap,
    strang_error_scan,
    term_matrix,
)
from .trotter import (
    ErrorConstantEstimate,
    estimate_error_constant,
    trotter_number,
)
from .costs import (
    CLIFFORD_T_RATIO,
    T_GATE_TIME,
    ErrorBudget,
    LogicalCostReport,
    PhaseEstimationModel,
    SynthesisModel,
    evaluate_cost,
    evaluate_cost_smooth,
    logical_qubit_count,
    optimize_budget,
    strategy_report,
)
from .par import (
    ParParams,
    nesting_batches,
    nesting_parallelism,
    par_expected_rotations,
    par_factory_time_no_feed_forward,
    par_factory_time_per_rotation,
    par_rotation_factories,
    par_rotation_factories_linear_bound,
    simulate_par_factory_time,
    simulate_par_rotations,
)
from .surface_code import (
    FTParams,
    PhysicalCostReport,
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
from .scenarios import (
    GridPoint,
    Scenario,
    ScenarioBundle,
    emit,
    load_presets,
    reference_logical_report,
    run_scenario,
)
from .datasets import bundled_molecules, load_molecule

__version__ = "0.1.0"
