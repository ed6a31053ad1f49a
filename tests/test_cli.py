import importlib.resources
import json
import math
import pathlib
import time
import warnings

import numpy as np
import pytest

from qsimcost import IntegralTable, load_molecule, write_fcidump
from qsimcost.cli import build_parser, main

_DATA = importlib.resources.files("qsimcost.data")
H2 = str(_DATA.joinpath("h2_sto3g.fcidump"))
H4 = str(_DATA.joinpath("h4_chain.fcidump"))
FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
H6 = str(FIXTURES / "h6_chain.fcidump")
H8 = str(FIXTURES / "h8_chain.fcidump")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_ingest_summary(capsys):
    data = run_json(capsys, "ingest", "--fcidump", H2)
    assert data["n_spatial"] == 2
    assert data["n_spin_orbitals"] == 4
    assert data["n_terms"] == 12
    assert data["per_class"] == {"PP": 4, "PQQP": 6, "PQRS": 2}
    assert data["one_norm"] > 0


def test_ingest_export(tmp_path, capsys):
    out = tmp_path / "terms.txt"
    data = run_json(capsys, "ingest", "--fcidump", H2, "--out", str(out))
    assert data["exported_to"] == str(out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 12
    # line-oriented "class indices coefficient" rows
    first = lines[0].split()
    assert first[0] in {"PP", "PQ", "PQQP", "PQQR", "PQRS"}
    float(first[-1])


def test_ingest_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "ingest", "--fcidump", "no_such.fcidump")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("refusal", [
    MemoryError("Unable to allocate 7.28 TiB for an array"),
    ValueError("array is too big; `arr.size * arr.dtype.itemsize` is larger "
               "than the maximum possible size."),
], ids=["memory", "too-big"])
@pytest.mark.parametrize("command", ["report", "ingest"])
def test_unallocatable_norb_is_named_on_line_1(tmp_path, capsys, monkeypatch,
                                               command, refusal):
    # NORB = 1000 asks for 7.28 TiB of two-body integrals; numpy refuses
    # such a request with either error. The stand-in refuses anything past
    # 1e9 elements, so no test asks the system for the memory
    zeros = np.zeros

    def refusing_zeros(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) > 1e9:
            raise refusal
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refusing_zeros)
    path = tmp_path / "wide.fcidump"
    path.write_text(" &FCI NORB=1000,NELEC=2,\n &END\n  0.5 1 1 0 0\n")
    code, out, err = run(capsys, command, "--fcidump", str(path))
    assert code == 2
    assert out == ""
    assert err == ("error: line 1: NORB = 1000 asks for 7,450.6 GiB of "
                   "integral tables, more than can be allocated\n")


def test_trotter_bound_exhaustive(capsys):
    data = run_json(capsys, "trotter-bound", "--fcidump", H2)
    assert data["method"] == "exhaustive"
    assert data["std_error"] == 0.0
    assert data["h_bound"] == pytest.approx(57.98183305185067)
    assert data["population"] == 12**3
    assert sum(data["per_class"].values()) == pytest.approx(data["h_bound"])


def test_register_past_64_spin_orbitals(tmp_path, capsys):
    # a 33-site chain: 66 spin orbitals, two support words per term
    table = IntegralTable(33, n_electrons=2, core_energy=1.0)
    for p in range(1, 34):
        table.set_one_body(p, p, -1.0 + 0.01 * p)
        table.set_two_body(p, p, p, p, 0.5)
        if p < 33:
            table.set_one_body(p, p + 1, -0.2)
            table.set_two_body(p, p, p + 1, p + 1, 0.1)
    path = str(tmp_path / "chain33.fcidump")
    write_fcidump(table, path)
    bound = run_json(capsys, "trotter-bound", "--fcidump", path)
    assert bound["method"] == "exhaustive"
    assert bound["population"] == 291**3
    assert math.isfinite(bound["h_bound"]) and bound["h_bound"] > 0
    report = run_json(capsys, "report", "--fcidump", path)
    assert report["parameters"]["n_spin_orbitals"]["value"] == 66
    assert report["parameters"]["h_bound"]["value"] == bound["h_bound"]


def test_trotter_bound_stratified_seeded(capsys):
    first = run_json(
        capsys, "trotter-bound", "--fcidump", H4, "--method", "stratified",
        "--samples-per-class", "50", "--seed", "3",
    )
    second = run_json(
        capsys, "trotter-bound", "--fcidump", H4, "--method", "stratified",
        "--samples-per-class", "50", "--seed", "3",
    )
    assert first == second
    assert first["seed"] == 3


@pytest.mark.parametrize("argv, flag", [
    (("--samples-per-class", "0"), "--samples-per-class"),
    (("--samples-per-class=-3",), "--samples-per-class"),
    (("--seed=-1",), "--seed"),
])
@pytest.mark.parametrize("method", ["exhaustive", "stratified"])
def test_trotter_bound_names_a_bad_sampling_flag(capsys, method, argv, flag):
    code, out, err = run(
        capsys, "trotter-bound", "--fcidump", H2, "--method", method, *argv
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be")


def test_report_names_a_negative_seed(capsys):
    code, out, err = run(capsys, "report", "--fcidump", H6, "--seed=-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: seed must be a non-negative integer")


def test_oracle_validate_bound_holds(capsys):
    # H2 on a short grid; h4_chain (a 20-state component) on the default one
    for argv in ((H2, "--points", "6"), (H4,)):
        data = run_json(
            capsys, "oracle-validate", "--fcidump", *argv, "--strict"
        )
        assert data["violations"] == []
        assert data["checked"] >= 1
        for row in data["rows"]:
            assert set(row) >= {"t", "e_fci", "e_effective", "delta_e", "bound"}
            if not row["phase_wrapped"]:
                assert row["bound"] >= row["delta_e"]
    assert data["checked"] == 20


@pytest.mark.parametrize("command", ["trotter-bound", "report", "oracle-validate"])
def test_overflowing_error_constant_is_named(tmp_path, capsys, command):
    # one integral near the float64 limit overflows 4 n_a n_b n_c
    source = _DATA.joinpath("h2_sto3g.fcidump").read_text()
    path = tmp_path / "huge.fcidump"
    path.write_text(source.replace(
        "6.9739376735855618E-01    2    2    2    2",
        "1.0E+300    2    2    2    2",
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--fcidump", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: error constant h overflows")


@pytest.mark.parametrize("command", ["trotter-bound", "report", "oracle-validate"])
def test_non_finite_integral_is_named_by_line(tmp_path, capsys, command):
    # a nan integral used to surface as "error constant h overflows"
    source = _DATA.joinpath("h2_sto3g.fcidump").read_text()
    original = "6.9739376735855618E-01    2    2    2    2"
    lineno = next(
        k for k, line in enumerate(source.splitlines(), 1) if original in line
    )
    path = tmp_path / "nan.fcidump"
    path.write_text(source.replace(original, "nan    2    2    2    2"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--fcidump", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: line {lineno}: non-finite value 'nan'\n"


# the id stays [method1] so recorded test ids keep matching
@pytest.mark.parametrize("method", [("--method", "stratified")], ids=["method1"])
def test_sampled_error_constant_refuses_an_overflowing_summand(
    tmp_path, capsys, method
):
    # the draws can miss every triple through the 1e300 (11|11) term; a
    # sampled h is refused once 4 n^3 overflows
    table = load_molecule("h4_chain")
    table.set_two_body(1, 1, 1, 1, 1e300)
    path = tmp_path / "huge.fcidump"
    write_fcidump(table, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "trotter-bound", "--fcidump", str(path), *method
        )
    assert code == 2
    assert out == ""
    assert err.startswith("error: error constant h overflows float64")


@pytest.mark.parametrize("value, wrapped, strict", [
    pytest.param("1.0E+40", 20, False, id="1.0E+40-20"),
    pytest.param("1.0E+15", 0, False, id="1.0E+15-0"),
    pytest.param("1.0E+40", 20, True, id="1.0E+40-20-strict"),
])
def test_oracle_validate_survives_a_huge_diagonal_integral(
    tmp_path, capsys, value, wrapped, strict
):
    # a huge (11|11) turns one diagonal term's phases into noise: at 1e40
    # the sector eigh's round-off pushes |E_FCI| t past pi on every row,
    # at 1e15 no row wraps; the step unitaries stay unitary and their real
    # eigenbasis meets its residual bound either way. A scan that checks no
    # step size is said so on stderr, and --strict refuses it
    source = _DATA.joinpath("h4_chain.fcidump").read_text()
    original = "5.5236777347300792E-01    1    1    1    1"
    assert source.count(original) == 1
    path = tmp_path / "big.fcidump"
    path.write_text(source.replace(original, f"{value}    1    1    1    1"))
    argv = ["oracle-validate", "--fcidump", str(path)] + ["--strict"] * strict
    code, out, err = run(capsys, *argv)
    data = json.loads(out)
    assert len(data["rows"]) == 20
    assert sum(row["phase_wrapped"] for row in data["rows"]) == wrapped
    assert data["checked"] == 20 - wrapped
    assert data["violations"] == []
    nothing_checked = "no step size checked: all 20 rows wrapped their phase\n"
    assert err == (nothing_checked if wrapped == 20 else "")
    assert code == (3 if strict else 0)


def test_oracle_validate_with_every_term_dropped(capsys):
    # an empty term list in the 70-state sector: U is the identity, so every
    # row reads the core energy with no error and no bound
    data = run_json(
        capsys, "oracle-validate", "--fcidump", H4, "--drop-threshold", "100"
    )
    core = load_molecule("h4_chain").core_energy
    assert data["h_bound"] == 0.0
    assert data["checked"] == len(data["rows"]) == 20
    assert data["violations"] == []
    for row in data["rows"]:
        assert row["e_fci"] == row["e_effective"] == core
        assert row["delta_e"] == row["bound"] == 0.0
        assert row["ground_overlap"] == 1.0


def test_oracle_validate_refuses_wide_register_before_computing_h(
    capsys, monkeypatch
):
    # H8 has 16 spin orbitals; its exhaustive h over 1524 terms alone takes
    # ~0.6 s, work the refusal must come before
    def no_h(*args, **kwargs):
        raise AssertionError("h computed for a register the oracle refuses")

    monkeypatch.setattr("qsimcost.cli.estimate_error_constant", no_h)
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle-validate", "--fcidump", H8)
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    assert err == (
        "error: 16 spin orbitals exceed the dense-oracle cap of 14; "
        "the oracle is exact-but-small by design\n"
    )


@pytest.mark.parametrize("argv, flag", [
    (("--t-max", "inf"), "--t-max"),
    (("--t-max", "nan"), "--t-max"),
    (("--t-min", "nan"), "--t-min"),
    (("--t-min", "0"), "--t-min"),
    (("--t-min=-1e-3",), "--t-min"),
    (("--t-max", "1e300"), "--t-max"),
    (("--t-min", "1e300"), "--t-min"),
    (("--points", "0"), "--points"),
    (("--points", "-2"), "--points"),
])
def test_oracle_validate_rejects_bad_step_grid(capsys, argv, flag):
    code, out, err = run(capsys, "oracle-validate", "--fcidump", H2, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ")


def test_logical_json_beats_documented_point(capsys):
    data = run_json(
        capsys, "logical", "--m", "1e6", "--beta", "100", "--epsilon", "1e-4",
        "--pe", "optimal", "--combination", "worst",
    )
    # the fixed split documented for these parameters costs 7.494929e14;
    # the optimizer must do at least as well
    assert data["t_count"] <= 7.494929064623713e14
    assert data["t_count"] > 1e14
    assert data["budget"]["combination"] == "worst_case"
    assert data["strategy"] == "serial"


def test_logical_markdown_columns(capsys):
    code, out, _ = run(
        capsys, "logical", "--m", "6.1e6", "--beta", "166", "--epsilon",
        "1e-4", "--n-spin-orbitals", "108", "--format", "markdown",
    )
    assert code == 0
    assert "| Input | T-Gates | Clifford Gates | Time | Log. Qubits |" in out
    assert "| Serial |" in out
    assert "| 111 |" in out


def test_logical_nesting_needs_parallelism(capsys):
    code, _, err = run(
        capsys, "logical", "--m", "6.1e6", "--beta", "166", "--epsilon",
        "1e-4", "--strategy", "nesting",
    )
    assert code == 2
    assert "parallelism" in err


def test_logical_par_strategy(capsys):
    data = run_json(
        capsys, "logical", "--m", "6.1e6", "--beta", "166", "--epsilon",
        "1e-4", "--strategy", "par", "--par-c", "199",
        "--n-spin-orbitals", "108",
    )
    assert data["par_params"]["synthesis_cost"] == 199
    assert data["logical_qubits"] == 1982
    assert data["t_per_rotation"] == 9 * 199


def test_par_closed_forms(capsys):
    data = run_json(capsys, "par", "--n", "9", "--c", "199")
    assert data["factory_time_per_rotation"] == 2.384765625
    assert data["rotation_factories"] == 1872
    assert data["rotation_factories_linear_bound"] == 1791
    small = run_json(capsys, "par", "--n", "1", "--c", "1", "--cached", "2")
    assert small["expected_rotations"] == 1.5
    code, _, err = run(capsys, "par", "--n", "0", "--c", "1")
    assert code == 2
    assert "n_levels" in err


def test_par_closed_forms_at_large_level_counts(capsys):
    # 2^-n underflows: every cached rotation runs and the cascade time is 2
    data = run_json(capsys, "par", "--n", "2000", "--c", "1")
    assert data["expected_rotations"] == 1.0
    assert data["factory_time_per_rotation"] == 2.0
    assert data["factory_time_no_feed_forward"] == 0.0
    # 1 - 2^-n rounds to 1 but 2^-n does not underflow
    data = run_json(capsys, "par", "--n", "60", "--c", "1", "--cached", "100")
    assert data["expected_rotations"] == pytest.approx(100.0, rel=1e-12)


def test_logical_par_at_large_level_count(capsys):
    data = run_json(
        capsys, "logical", "--m", "6.1e6", "--beta", "166", "--epsilon",
        "1e-4", "--strategy", "par", "--par-n", "2000",
    )
    assert data["wall_time"] == pytest.approx(
        2.0 * data["rotation_count"] * data["t_gate_time"]
    )


@pytest.mark.parametrize("argv, field", [
    (("logical", "--m", "nan", "--beta", "166", "--epsilon", "1e-4"),
     "m_terms"),
    (("logical", "--m", "6.1e6", "--beta", "nan", "--epsilon", "1e-4"),
     "beta"),
    (("logical", "--m", "6.1e6", "--beta", "inf", "--epsilon", "1e-4"),
     "beta"),
    (("report", "--m", "1e6", "--n-spin-orbitals", "10", "--beta", "nan"),
     "beta"),
    (("report", "--m", "1e6", "--n-spin-orbitals", "0", "--beta", "10"),
     "n_spin_orbitals"),
    *[
        (("logical", "--m", "6.1e6", "--beta", "166", "--epsilon", "1e-4",
          "--strategy", "nesting", f"--parallelism={value}"), "parallelism")
        for value in ("nan", "inf", "-inf", "0.5")
    ],
])
def test_non_finite_problem_sizes_name_the_field(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert field in err
    assert "epsilon_total" not in err


@pytest.mark.parametrize("argv", [
    ("logical", "--m", "1e300", "--beta", "1e300", "--epsilon", "1e-4"),
    ("report", "--m", "1e300", "--n-spin-orbitals", "4", "--beta", "1e300"),
])
def test_overflowing_t_count_names_m_terms_and_beta(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: the T count overflows float64 at m_terms=1e+300 and "
        "beta=1e+300\n"
    )


@pytest.mark.parametrize("argv", [
    ("logical", "--m", "6.1e6", "--beta", "166", "--epsilon", "1e-320"),
    ("report", "--m", "6.1e6", "--n-spin-orbitals", "108", "--beta", "166",
     "--epsilons", "1e-320"),
])
def test_subnormal_epsilon_is_too_small_for_a_budget(capsys, argv):
    # a billionth of 1e-320 underflows to 0, where the optimizer's seed grid
    # starts; the message blames epsilon_total, not the grid
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: no feasible budget found; epsilon_total too small\n"


def test_logical_and_report_share_the_epsilon_range(capsys):
    code, _, logical_err = run(
        capsys, "logical", "--m", "6.1e6", "--beta", "166", "--epsilon", "2",
    )
    assert code == 2
    code, _, report_err = run(
        capsys, "report", "--structure", "struct-1", "--epsilons", "2",
    )
    assert code == 2
    assert logical_err == report_err == "error: epsilon target out of range: 2.0\n"


def test_nesting_analysis(capsys):
    data = run_json(capsys, "nesting", "--fcidump", H4)
    assert data["n_terms"] == 110
    assert data["n_batches"] == len(data["batch_sizes"])
    assert sum(data["batch_sizes"]) == data["n_terms"]
    assert data["parallelism"] <= data["n_terms"] / 2
    assert data["parallelism"] >= 1.0


def test_physical_table_row_names(capsys):
    data = run_json(capsys, "physical", "--p", "1e-6")
    for group in ("Serial rotations", "PAR rotations", "Nested rotations"):
        rows = data[group]
        assert set(rows) == {
            "Required code distance",
            "Quantum processor",
            "Discrete Rotation factories",
            "T factories",
            "Total physical qubits",
        }
        assert set(rows["Quantum processor"]) == {
            "Logical qubits",
            "Physical qubits per logical qubit",
            "Total physical qubits for processor",
        }
        assert set(rows["T factories"]) == {
            "Number",
            "Physical qubits per factory",
            "Total physical qubits for T factories",
        }
    serial = data["Serial rotations"]
    assert serial["Quantum processor"]["Logical qubits"] == 111
    assert serial["Discrete Rotation factories"]["Number"] == 0
    assert serial["Discrete Rotation factories"]["Physical qubits per factory"] is None
    assert data["PAR rotations"]["Discrete Rotation factories"]["Number"] == 1872
    assert data["Nested rotations"]["Quantum processor"]["Logical qubits"] == 109


@pytest.mark.parametrize("p", ["1e-3", "1e-6", "1e-9"])
def test_physical_reference_matrix_within_tolerance(capsys, p):
    code, out, _ = run(capsys, "physical", "--p", p, "--strict")
    assert code == 0
    data = json.loads(out)
    assert all(not c.startswith("OUT OF TOLERANCE") for c in data["comparisons"])


def test_physical_topological_known_deviations(capsys):
    # the published fixed-injection matrix at 1e-6 disagrees with a
    # self-consistent model in the serial count and the nested footprint;
    # strict mode surfaces that honestly
    code, out, _ = run(
        capsys, "physical", "--p", "1e-6", "--scenario", "topological",
        "--strict",
    )
    assert code == 3
    data = json.loads(out)
    bad = [c for c in data["comparisons"] if c.startswith("OUT OF TOLERANCE")]
    assert bad
    # distances still reproduce exactly
    assert data["Serial rotations"]["Required code distance"] == "9,3"
    assert data["PAR rotations"]["Required code distance"] == "9,5"
    assert data["Nested rotations"]["Required code distance"] == "9,3"
    # at 1e-9 every cell fits
    code, out, _ = run(
        capsys, "physical", "--p", "1e-9", "--scenario", "topological",
        "--strict",
    )
    assert code == 0
    data = json.loads(out)
    assert data["Serial rotations"]["Required code distance"] == "5,3"


@pytest.mark.parametrize("flags", [
    ("--structure", "struct-2"),
    ("--epsilon", "1e-3"),
    ("--inject", "1e-4"),
    ("--p", "1.4e-3"),  # the last --p wins
])
def test_physical_compares_only_published_cells(capsys, flags):
    # the published matrix is Struct. 1's at 1e-4 with raw states at p;
    # another structure, target, Clifford or injection error has no
    # published cell
    code, out, _ = run(capsys, "physical", "--p", "1e-3", *flags, "--strict")
    assert code == 0
    assert json.loads(out)["comparisons"] == []


def test_physical_names_its_own_unpublished_target(capsys):
    code, out, err = run(capsys, "physical", "--p", "1e-3", "--epsilon", "1.4e-4")
    assert (code, out) == (2, "")
    assert err == "error: no published row for 'struct-1' 'serial' at 1.4e-04\n"


def test_physical_validation_errors(capsys):
    code, _, err = run(capsys, "physical", "--p", "2e-2")
    assert code == 2
    code, _, err = run(capsys, "physical", "--p", "1e-3", "--structure", "nope")
    assert code == 2
    assert "unknown structure preset 'nope'" in err


def test_report_config_and_overrides(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "structure": "struct-1",
        "epsilon_targets": [1e-4],
        "strategies": ["serial"],
    }))
    data = run_json(capsys, "report", "--config", str(config))
    assert data["schema"] == 1
    assert len(data["rows"]) == 1
    # flags override the file
    data = run_json(
        capsys, "report", "--config", str(config),
        "--strategies", "serial", "nesting",
    )
    assert len(data["rows"]) == 2
    code, out, _ = run(
        capsys, "report", "--config", str(config), "--format", "markdown",
    )
    assert code == 0
    assert "| Struct. 1 | T-Gates | Clifford Gates | Time | Log. Qubits |" in out


def test_report_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "report", "--structure", "struct-1", "--epsilons", "1e-4",
        "--strategies", "serial", "--out", str(out_path),
    )
    assert code == 0
    assert "wrote" in out
    data = json.loads(out_path.read_text())
    assert data["label"] == "Struct. 1"


def test_report_strict_passes_within_factor(capsys):
    code, _, _ = run(
        capsys, "report", "--structure", "struct-1", "--epsilons", "1e-4",
        "--strategies", "serial", "--strict",
    )
    assert code == 0


TWO_TARGETS = ("report", "--fcidump", H2, "--epsilons", "1e-4", "1.4e-4")


def test_report_keeps_the_beta_of_each_target(capsys):
    data = run_json(capsys, *TWO_TARGETS)
    h = data["parameters"]["h_bound"]["value"]
    assert data["parameters"]["beta"]["value"] == {
        "1e-04": math.sqrt(h / 1e-4), "1.4e-04": math.sqrt(h / 1.4e-4),
    }


def test_markdown_report_gives_each_target_its_block(capsys):
    code, out, _ = run(capsys, *TWO_TARGETS, "--format", "markdown")
    assert code == 0
    assert out.count("| Serial |") == 2
    assert "## Target accuracy 1.4e-04 Ha" in out


def test_report_compares_only_its_own_target(capsys):
    # 1.4e-4 has no published row; 1e-4 has one
    data = run_json(
        capsys, "report", "--structure", "struct-1", "--epsilons", "1.4e-4",
        "--strategies", "serial",
    )
    assert data["warnings"] == []


def test_report_validation_errors(tmp_path, capsys):
    code, _, err = run(capsys, "report")
    assert code == 2
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"structure": "struct-1", "bogus_key": 1}))
    code, _, err = run(capsys, "report", "--config", str(config))
    assert code == 2
    assert "bogus_key" in err
    config.write_text(json.dumps({"structure": "struct-1", "strategies": []}))
    code, _, err = run(capsys, "report", "--config", str(config))
    assert code == 2


@pytest.mark.parametrize("config, message", [
    ({"structure": "struct-1", "epsilon_targets": 0.001},
     "epsilon_targets must be a list of real numbers, got 0.001"),
    ({"structure": "struct-1", "epsilon_targets": ["a"]},
     "epsilon_targets must be a list of real numbers, got ['a']"),
    ({"structure": "struct-1", "error_rates": [None]},
     "error_rates must be a list of real numbers, got [None]"),
    ({"m_terms": 1e6, "n_spin_orbitals": "4", "beta": 100},
     "n_spin_orbitals must be a real number, got '4'"),
    ({"structure": "struct-1", "p_inject": "x"},
     "p_inject must be a real number, got 'x'"),
    ({"structure": "struct-1", "beta_case": [1]},
     "beta_case must be a string, got [1]"),
    ({"structure": "struct-1", "strategies": "serial"},
     "strategies must be a list of strings, got 'serial'"),
    # an int path would be opened as a file descriptor; none that is open
    ({"fcidump": 1 << 20}, "fcidump must be a string, got 1048576"),
    ({"m_terms": "5", "n_spin_orbitals": 4, "beta": 100},
     "m_terms must be a real number, got '5'"),
    ({"structure": "struct-1", "seed": True},
     "seed must be a non-negative integer, got True"),
], ids=[
    "epsilon_targets-scalar", "epsilon_targets-string", "error_rates-null",
    "n_spin_orbitals-string", "p_inject-string", "beta_case-list",
    "strategies-string", "fcidump-int", "m_terms-string", "seed-bool",
])
def test_report_names_a_config_value_of_the_wrong_type(tmp_path, capsys,
                                                        config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "report", "--config", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("width, shown", [("9.7", "9.7"), ("1e400", "inf")])
def test_report_refuses_a_register_width_that_is_not_whole(tmp_path, capsys,
                                                           width, shown):
    # the width feeds both int() and the nesting parallelism (width / 4), so
    # a fraction or inf (1e400 in JSON) must stop at the config
    path = tmp_path / "config.json"
    path.write_text(
        f'{{"m_terms": 1e6, "n_spin_orbitals": {width}, "beta": 10}}'
    )
    code, out, err = run(capsys, "report", "--config", str(path))
    assert (code, out, err) == (
        2, "", f"error: n_spin_orbitals must be a whole number, got {shown}\n"
    )


def test_report_names_an_unknown_beta_case(capsys):
    code, out, err = run(
        capsys, "report", "--structure", "struct-1", "--beta-case", "nope"
    )
    assert code == 2
    assert out == ""
    assert err == "error: unknown beta case 'nope'\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_drop_threshold_is_named(capsys, value):
    code, out, err = run(
        capsys, "ingest", "--fcidump", H4, "--drop-threshold", value
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: drop_threshold must be finite")


def test_report_names_a_config_that_is_not_json(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"structure": "struct-1", bogus}')
    code, out, err = run(capsys, "report", "--config", str(config))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --config {config}: Expecting property name")


def test_main_reuses_one_parser_without_carrying_state(capsys):
    assert build_parser() is not build_parser()
    before = run_json(capsys, "physical", "--p", "1e-3")
    # a topological run leaves nothing behind for the next one
    run_json(capsys, "physical", "--p", "1e-3", "--scenario", "topological")
    assert run_json(capsys, "physical", "--p", "1e-3") == before
