import json

import pytest

from qsimcost import (
    FTParams,
    Scenario,
    emit,
    load_molecule,
    load_presets,
    physical_report,
    reference_logical_report,
    run_scenario,
)
from qsimcost.par import par_factory_time_per_rotation
from qsimcost.scenarios import eps_key

PRESETS = load_presets()


def test_presets_shape():
    assert set(PRESETS["structures"]) == {"struct-1", "struct-2"}
    for entry in PRESETS["structures"].values():
        assert set(entry["beta"]) == {
            "rigorous", "pessimistic", "rescaled", "optimistic",
        }
        assert entry["n_spin_orbitals"] % 2 == 0
        # published rows exist for both accuracy targets
        assert set(entry["reference_logical"]) == {"1e-04", "1e-03"}
        # fault-tolerance matrices are keyed by the same accuracy targets
        assert set(entry.get("reference_fault_tolerance", {})) <= set(
            entry["reference_logical"]
        )
    assert PRESETS["structures"]["struct-1"]["m_terms"] == 6.1e6
    assert PRESETS["structures"]["struct-2"]["m_terms"] == 8.2e6


def test_scenario_validation():
    with pytest.raises(ValueError, match="exactly one input"):
        Scenario()
    with pytest.raises(ValueError, match="exactly one input"):
        Scenario(structure="struct-1", fcidump="x.fcidump")
    with pytest.raises(ValueError, match="at least one strategy"):
        Scenario(structure="struct-1", strategies=())
    with pytest.raises(ValueError, match="at least one epsilon"):
        Scenario(structure="struct-1", epsilon_targets=())
    with pytest.raises(ValueError, match="unknown strategy"):
        Scenario(structure="struct-1", strategies=("qubitization",))
    with pytest.raises(ValueError, match="direct input"):
        Scenario(m_terms=1e6)
    with pytest.raises(ValueError, match="error rate"):
        Scenario(structure="struct-1", error_rates=(2.0,))
    with pytest.raises(ValueError, match="combination"):
        Scenario(structure="struct-1", combination="median")
    for seed in (-1, "7", 2.0):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            Scenario(structure="struct-1", seed=seed)
    with pytest.raises(ValueError, match="unknown structure"):
        run_scenario(Scenario(structure="femoco"), PRESETS)


def test_reference_reports_keep_strategy_identities():
    serial = reference_logical_report("struct-1", "serial", 1e-4, PRESETS)
    assert serial.t_count == 1.1e15
    assert serial.wall_time == serial.t_count * serial.t_gate_time
    assert serial.logical_qubits == 111

    nesting = reference_logical_report("struct-1", "nesting", 1e-4, PRESETS)
    assert nesting.t_count == 3.5e15
    assert nesting.wall_time == pytest.approx(
        nesting.t_count * nesting.t_gate_time / nesting.parallelism
    )
    assert nesting.logical_qubits == 135

    par = reference_logical_report("struct-1", "par", 1e-4, PRESETS)
    assert par.t_count == 3.1e16
    per_rotation = par.par_params.n_levels * par.par_params.synthesis_cost
    assert par.rotation_count == pytest.approx(par.t_count / per_rotation)
    assert par.wall_time == pytest.approx(
        par.rotation_count
        * par_factory_time_per_rotation(par.par_params)
        * par.t_gate_time
    )
    assert par.logical_qubits == 1982

    with pytest.raises(ValueError, match="no published row"):
        reference_logical_report("struct-1", "serial", 1e-5, PRESETS)
    with pytest.raises(ValueError, match="unknown structure preset 'nope'"):
        reference_logical_report("nope", "serial", 1e-4, PRESETS)


@pytest.mark.parametrize("epsilon, label", [
    (1e-4, "1e-04"), (1e-3, "1e-03"), (2e-9, "2e-09"), (1.4e-4, "1.4e-04"),
    (1.25e-3, "1.25e-03"), (0.1 + 0.2, "3.0000000000000004e-01"),
])
def test_eps_key_is_the_shortest_label_that_reads_back(epsilon, label):
    assert eps_key(epsilon) == label


def test_reference_reports_reproduce_processor_conventions():
    # the published processor block lists 111/110/109 logical qubits
    for strategy, expected in (("serial", 111), ("par", 110), ("nesting", 109)):
        logical = reference_logical_report("struct-1", strategy, 1e-4, PRESETS)
        report = physical_report(logical, FTParams(p_clifford=1e-6))
        assert report.processor_logical_qubits == expected


def test_run_scenario_grid_shape_and_order():
    scenario = Scenario(
        structure="struct-1",
        epsilon_targets=(1e-4, 1e-3),
        strategies=("serial", "par"),
        error_rates=(1e-3, 1e-6),
    )
    bundle = run_scenario(scenario, PRESETS)
    keys = [(p.strategy, p.epsilon, p.error_rate) for p in bundle.points]
    assert keys == [
        ("serial", 1e-4, 1e-3), ("serial", 1e-4, 1e-6),
        ("par", 1e-4, 1e-3), ("par", 1e-4, 1e-6),
        ("serial", 1e-3, 1e-3), ("serial", 1e-3, 1e-6),
        ("par", 1e-3, 1e-3), ("par", 1e-3, 1e-6),
    ]
    # logical reports are shared across error rates within a cell
    assert bundle.points[0].logical is bundle.points[1].logical
    assert all(p.physical is not None for p in bundle.points)
    # without error rates the grid is logical-only
    logical_only = run_scenario(
        Scenario(structure="struct-1", strategies=("serial",)), PRESETS
    )
    assert all(p.physical is None for p in logical_only.points)
    assert all(p.error_rate is None for p in logical_only.points)


def test_run_scenario_warnings_compare_to_published_rows():
    bundle = run_scenario(
        Scenario(structure="struct-1", strategies=("serial",)), PRESETS
    )
    assert len(bundle.warnings) == 2
    assert all("published" in w for w in bundle.warnings)
    # the computed optimum sits within a factor of ~5 of the published row
    t_count = bundle.points[0].logical.t_count
    assert 1.1e15 < t_count < 5 * 1.1e15
    # no published rows for file inputs, so no warnings
    molecule = load_molecule("h2_sto3g")
    del molecule


def test_wall_times_follow_the_presets_t_gate_time():
    scenario = Scenario(structure="struct-1", error_rates=(1e-6,))
    slower = json.loads(json.dumps(PRESETS))
    slower["t_gate_time_seconds"] = 2e-8
    base = run_scenario(scenario, PRESETS)
    bundle = run_scenario(scenario, slower)
    assert bundle.constants["t_gate_time_seconds"]["value"] == 2e-8
    assert len(bundle.points) == len(base.points) == 6
    for a, b in zip(base.points, bundle.points):
        assert b.logical.t_gate_time == 2e-8
        assert b.logical.wall_time == 2 * a.logical.wall_time


def test_emit_json_deterministic_and_round_trip():
    scenario = Scenario(
        structure="struct-1",
        epsilon_targets=(1e-4,),
        strategies=("serial", "nesting"),
        error_rates=(1e-6,),
    )
    bundle = run_scenario(scenario, PRESETS)
    blob = emit(bundle, "json")
    assert blob == emit(bundle, "json")
    parsed = json.loads(blob)
    assert emit(parsed, "json") == blob
    assert parsed["schema"] == 1
    assert parsed["rows"][0]["logical"]["t_count"] > 0
    with pytest.raises(ValueError, match="bundle"):
        emit({"schema": 2}, "json")
    with pytest.raises(ValueError, match="format"):
        emit(bundle, "yaml")


def test_emit_markdown_mirrors_published_layout():
    scenario = Scenario(
        structure="struct-1",
        epsilon_targets=(1e-4, 1e-3),
        error_rates=(1e-3, 1e-6, 1e-9),
    )
    bundle = run_scenario(scenario, PRESETS)
    text = emit(bundle, "markdown").decode()
    assert emit(bundle, "markdown").decode() == text
    assert "| Struct. 1 | T-Gates | Clifford Gates | Time | Log. Qubits |" in text
    assert "Quantitatively accurate simulation (0.1 mHa)" in text
    assert "Qualitatively accurate simulation (1 mHa)" in text
    for row_name in (
        "Required code distance",
        "Logical qubits",
        "Physical qubits per logical qubit",
        "Total physical qubits for processor",
        "Physical qubits per factory",
        "Total physical qubits for rotations",
        "Total physical qubits for T factories",
        "Total physical qubits",
    ):
        assert row_name in text
    for group in ("Serial rotations", "Nested rotations", "PAR rotations"):
        assert group in text
    for line in ("Serial |", "Nesting |", "PAR |"):
        assert line in text


def test_every_number_carries_provenance():
    scenario = Scenario(
        structure="struct-1", epsilon_targets=(1e-4,), error_rates=(1e-6,)
    )
    bundle = run_scenario(scenario, PRESETS)
    data = bundle.to_dict()
    tags = data["field_provenance"]

    def walk(node, key):
        if isinstance(node, dict):
            for child_key, child in node.items():
                walk(child, child_key)
        elif isinstance(node, list):
            for child in node:
                walk(child, key)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            assert key in tags, f"untagged field {key!r}"
            assert tags[key] in {"reference", "calibrated", "computed", "input"}

    walk(data["rows"], "rows")
    for entry in list(data["parameters"].values()) + list(
        data["constants"].values()
    ):
        assert entry["provenance"] in {
            "reference", "calibrated", "computed", "input",
        }
    # a stripped tag table makes emission fail loudly
    broken = json.loads(emit(bundle, "json"))
    del broken["field_provenance"]["t_count"]
    with pytest.raises(ValueError, match="untagged"):
        emit(broken, "json")


def test_fcidump_scenario_is_deterministic(tmp_path):
    source = load_molecule("h4_chain")
    from qsimcost import write_fcidump

    path = tmp_path / "h4.fcidump"
    write_fcidump(source, path)
    scenario = Scenario(
        fcidump=str(path),
        epsilon_targets=(1e-3,),
        strategies=("serial", "nesting"),
        seed=7,
    )
    first = run_scenario(scenario, PRESETS)
    second = run_scenario(scenario, PRESETS)
    assert emit(first, "json") == emit(second, "json")
    assert first.parameters["m_terms"]["provenance"] == "computed"
    assert first.parameters["m_terms"]["value"] == 110.0
    # counted Clifford mode for real term lists
    assert first.points[0].logical.clifford_mode == "counted"
    assert not first.warnings


def test_direct_scenario_matches_documented_cost_point():
    scenario = Scenario(
        m_terms=1e6, n_spin_orbitals=50, beta=100.0,
        epsilon_targets=(1e-4,), strategies=("serial",),
        combination="worst_case",
    )
    bundle = run_scenario(scenario, PRESETS)
    point = bundle.points[0]
    assert point.logical.t_count < 7.5e14
    assert bundle.parameters["beta"]["value"]["1e-04"] == 100.0
    assert bundle.parameters["m_terms"]["provenance"] == "input"
