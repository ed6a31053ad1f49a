import dataclasses
import math
import pathlib

import numpy as np
import pytest
from scipy.linalg import expm

from qsimcost import (
    HamiltonianTerm,
    TermList,
    build_matrix,
    empirical_trotter_number,
    enumerate_terms,
    export_terms,
    hartree_fock_overlap,
    load_molecule,
    parse_fcidump,
    parse_terms,
    strang_error_scan,
    term_matrix,
)

from oracles import (
    ReferenceStrangEvaluator,
    ScalarTermAction,
    hamiltonian_from_integrals,
    hf_overlap,
    reference_strang_scan,
    scalar_build_matrix,
)

# frozen ground energies (core included) and reference-determinant overlaps
# for the bundled molecules, computed once from the shipped integral files
FCI_ENERGY = {
    "h2_sto3g": -1.137270175,
    "h2_stretched": -0.933696935,
    "heh_plus": -2.851466180,
    "h3_plus": -1.262040606,
    "h4_chain": -2.165469700,
}
HF_OVERLAP = {
    "h2_sto3g": 0.987270,
    "h2_stretched": 0.540029,
    "heh_plus": 0.995315,
    "h3_plus": 0.985701,
    "h4_chain": 0.968435,
}

MOLECULES = list(FCI_ENERGY)
FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def molecule_terms(name):
    return enumerate_terms(load_molecule(name))


# ---------------------------------------------------------------------------
# Matrix assembly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", MOLECULES)
def test_term_sum_equals_direct_integral_construction(name):
    # the decisive identity: summing the merged term matrices reproduces
    # the Hamiltonian assembled directly from the integrals
    table = load_molecule(name)
    terms = enumerate_terms(table)
    assembled = build_matrix(terms).matrix
    direct = hamiltonian_from_integrals(
        table.one_body, table.two_body, table.core_energy
    )
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert np.max(np.abs(assembled - direct)) < 1e-12 * scale


def test_term_sum_equals_direct_construction_random_integrals():
    rng = np.random.default_rng(21)
    from qsimcost import IntegralTable

    for n in (2, 3):
        table = IntegralTable(n_spatial=n, n_electrons=n)
        one = rng.normal(size=(n, n))
        table.one_body = (one + one.T) / 2
        v = rng.normal(size=(n, n, n, n))
        v = v + v.transpose(1, 0, 2, 3)
        v = v + v.transpose(0, 1, 3, 2)
        v = v + v.transpose(2, 3, 0, 1)
        table.two_body = v
        terms = enumerate_terms(table, drop_threshold=0.0)
        assembled = build_matrix(terms).matrix
        direct = hamiltonian_from_integrals(table.one_body, table.two_body)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(assembled - direct)) < 1e-12 * scale


def test_sector_spectrum_is_subset_of_full_spectrum():
    terms = molecule_terms("heh_plus")
    full = np.linalg.eigvalsh(build_matrix(terms).matrix)
    sector = np.linalg.eigvalsh(
        build_matrix(terms, particle_sector=terms.n_electrons).matrix
    )
    for e in sector:
        assert np.min(np.abs(full - e)) < 1e-10


def test_sector_basis_and_dimensions():
    terms = molecule_terms("h2_sto3g")
    sector = build_matrix(terms, particle_sector=2)
    assert sector.dim == math.comb(4, 2)
    assert all(bin(int(s)).count("1") == 2 for s in sector.basis_states)
    full = build_matrix(terms)
    assert full.dim == 16


def test_core_energy_shifts_diagonal_only():
    terms = molecule_terms("h2_sto3g")
    with_core = build_matrix(terms, include_core=True).matrix
    without = build_matrix(terms, include_core=False).matrix
    shift = with_core - without
    assert np.allclose(shift, terms.core_energy * np.eye(shift.shape[0]), atol=1e-14)


def test_qubit_cap_is_enforced():
    terms = molecule_terms("h4_chain")
    with pytest.raises(ValueError, match="cap"):
        build_matrix(terms, qubit_cap=6)


def test_invalid_sector_rejected():
    terms = molecule_terms("h2_sto3g")
    with pytest.raises(ValueError, match="sector"):
        build_matrix(terms, particle_sector=7)


def test_term_matrix_number_operator():
    t = HamiltonianTerm("PQQP", (1, 2, 1, 2), 0.7, 0.7)
    mat = term_matrix(t, 2)
    # diagonal n_1 n_2: only the doubly occupied state contributes
    expected = np.zeros((4, 4))
    expected[3, 3] = 0.7
    assert np.array_equal(mat, expected)


def test_term_matrix_hop_signs():
    t = HamiltonianTerm("PQ", (1, 3), 1.0, 1.0)
    mat = term_matrix(t, 3)
    # a+_1 a_3 hops across orbital 2; occupied 2 flips the string sign
    src_empty = 0b100
    tgt_empty = 0b001
    src_occ = 0b110
    tgt_occ = 0b011
    assert mat[tgt_empty, src_empty] == 1.0
    assert mat[tgt_occ, src_occ] == -1.0
    assert np.array_equal(mat, mat.T)


@pytest.mark.parametrize("name", MOLECULES)
def test_ground_energy_matches_frozen_value(name):
    terms = molecule_terms(name)
    sector = build_matrix(terms, particle_sector=terms.n_electrons)
    energy, _ = sector.ground_state()
    assert energy == pytest.approx(FCI_ENERGY[name], abs=1e-8)


def test_h2_ground_energy_matches_published_value():
    energy, _ = build_matrix(molecule_terms("h2_sto3g"), particle_sector=2).ground_state()
    assert energy == pytest.approx(-1.137284, abs=1e-3)


# ---------------------------------------------------------------------------
# Reference-determinant overlap
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", MOLECULES)
def test_hartree_fock_overlap_matches_frozen_value(name):
    report = hartree_fock_overlap(molecule_terms(name))
    assert report.overlap == pytest.approx(HF_OVERLAP[name], abs=1e-5)
    assert not report.degenerate
    assert report.energy == pytest.approx(FCI_ENERGY[name], abs=1e-8)


@pytest.mark.parametrize("name", MOLECULES)
def test_overlap_agrees_with_independent_oracle(name):
    table = load_molecule(name)
    report = hartree_fock_overlap(enumerate_terms(table))
    reference = hf_overlap(
        table.one_body, table.two_body, table.core_energy, table.n_electrons
    )
    assert report.overlap == pytest.approx(reference, abs=1e-9)


def test_equilibrium_overlaps_large_stretched_overlap_small():
    equilibrium = [n for n in MOLECULES if n != "h2_stretched"]
    for name in equilibrium:
        assert hartree_fock_overlap(molecule_terms(name)).overlap >= 0.89
    stretched = hartree_fock_overlap(molecule_terms("h2_stretched")).overlap
    assert stretched < 0.6


def test_degenerate_ground_space_is_flagged():
    # two spin orbitals of one empty-interaction orbital: both one-electron
    # states sit at the same energy
    terms = TermList(terms=(), n_spin_orbitals=2, n_electrons=1)
    report = hartree_fock_overlap(terms, n_electrons=1)
    assert report.degenerate
    assert report.overlap == pytest.approx(1.0, abs=1e-12)


def test_overlap_requires_electrons():
    terms = TermList(terms=(), n_spin_orbitals=2, n_electrons=0)
    with pytest.raises(ValueError, match="electron count"):
        hartree_fock_overlap(terms)


# ---------------------------------------------------------------------------
# Second-order product formula
# ---------------------------------------------------------------------------

def reference_step_unitary(terms, t):
    """Left-to-right product of term exponentials, forward then reverse."""
    n_so = terms.n_spin_orbitals
    mats = [term_matrix(tm, n_so) for tm in terms]
    unitary = np.eye(1 << n_so, dtype=complex)
    for m in mats:
        unitary = unitary @ expm(-1j * m * t / 2)
    for m in reversed(mats):
        unitary = unitary @ expm(-1j * m * t / 2)
    return unitary


@pytest.mark.parametrize("name", ["h2_sto3g", "heh_plus"])
def test_step_unitary_matches_expm_product(name):
    terms = molecule_terms(name)
    from qsimcost.oracle import _StrangEvaluator

    evaluator = _StrangEvaluator(terms, particle_sector=None)
    for t in (0.3, 0.07):
        fast = evaluator._step_unitaries([t])[0]
        slow = reference_step_unitary(terms, t)
        assert np.max(np.abs(fast - slow)) < 1e-12


@pytest.mark.parametrize("name", ["h2_sto3g", "h4_chain"])
def test_sector_and_full_space_reports_agree_when_ground_coincides(name):
    # both global grounds live in the Sz = 0 block of the neutral sector,
    # so the block and full-space evaluations select the same eigenphase
    terms = molecule_terms(name)
    restricted = strang_error_scan(terms, [0.1])[0]
    full = strang_error_scan(terms, [0.1], particle_sector=None)[0]
    assert restricted.e_fci == pytest.approx(full.e_fci, abs=1e-12)
    assert restricted.delta_e == pytest.approx(full.delta_e, abs=1e-10)


def test_evaluator_narrows_sector_to_ground_sz_block():
    from qsimcost.oracle import _StrangEvaluator

    terms = molecule_terms("h4_chain")
    evaluator = _StrangEvaluator(terms)
    # 2 up and 2 down electrons in 4 spatial orbitals, not the 70 states
    # of the 4-electron sector
    assert len(evaluator.states) == math.comb(4, 2) ** 2 == 36
    up = sum(bin(int(s) & 0x55).count("1") for s in evaluator.states)
    assert up == 2 * len(evaluator.states)
    assert evaluator.e_fci_electronic + terms.core_energy == pytest.approx(
        FCI_ENERGY["h4_chain"], abs=1e-8
    )


def spin_flip_terms():
    """H2 with a PQ term between spin orbitals 1 (up) and 2 (down)."""
    base = molecule_terms("h2_sto3g")
    lines = export_terms(base).splitlines()
    assert lines[0].startswith("PP 1 ")
    lines.insert(1, "PQ 1 2 0.05")
    return parse_terms(
        "\n".join(lines),
        n_spin_orbitals=base.n_spin_orbitals,
        n_electrons=base.n_electrons,
        core_energy=base.core_energy,
    )


def test_spin_flip_term_keeps_the_whole_sector():
    # the spin flip breaks Sz conservation, so the evaluator falls back to
    # the particle sector
    from qsimcost.oracle import _StrangEvaluator

    terms = spin_flip_terms()
    assert len(_StrangEvaluator(terms).states) == math.comb(4, 2)
    for t in (0.2, 0.05):
        restricted = strang_error_scan(terms, [t])[0]
        full = strang_error_scan(terms, [t], particle_sector=None)[0]
        assert restricted.e_fci == pytest.approx(full.e_fci, abs=1e-12)
        assert restricted.delta_e == pytest.approx(full.delta_e, abs=1e-10)


def test_effective_energy_error_is_second_order():
    rows = strang_error_scan(molecule_terms("h2_sto3g"), [0.4, 0.2, 0.1, 0.05])
    for a, b in zip(rows, rows[1:]):
        assert 3.5 < a.delta_e / b.delta_e < 4.5
    for r in rows:
        assert r.ground_overlap > 0.99
        assert not r.phase_wrapped
        assert r.unitarity_defect < 1e-10


def test_effective_energy_slope_matches_error_operator():
    # second-order shift (E_eff - E_FCI)/t^2 converges to the ground-state
    # expectation of W = (1/12) sum_b sum_{a<=b} sum_{c<b} s_ab [H_a,[H_b,H_c]]
    # with s_ab = 1 - delta_ab/2
    terms = molecule_terms("h2_sto3g")
    n_so = terms.n_spin_orbitals
    mats = [term_matrix(t, n_so) for t in terms]
    dim = 1 << n_so
    w_op = np.zeros((dim, dim))
    for b, hb in enumerate(mats):
        for c in range(b):
            inner = hb @ mats[c] - mats[c] @ hb
            for a in range(b + 1):
                scale = 0.5 if a == b else 1.0
                ha = mats[a]
                w_op += scale / 12.0 * (ha @ inner - inner @ ha)
    hamiltonian = build_matrix(terms, include_core=False)
    _, ground = hamiltonian.ground_state()
    predicted = float(ground @ w_op @ ground)

    report = strang_error_scan(terms, [0.02])[0]
    measured = (report.e_effective - report.e_fci) / report.t**2
    assert measured == pytest.approx(predicted, rel=2e-4)


def test_report_fields_are_consistent():
    report = strang_error_scan(molecule_terms("heh_plus"), [0.125])[0]
    assert report.delta_e == pytest.approx(
        abs(report.e_effective - report.e_fci), abs=1e-15
    )
    assert report.empirical_trotter_number == 8
    assert report.e_fci == pytest.approx(FCI_ENERGY["heh_plus"], abs=1e-8)
    row = report.row()
    assert row["t"] == 0.125
    assert row["delta_e"] == report.delta_e


def test_phase_wrap_is_flagged():
    # |E_electronic| * t > pi: the eigenphase leaves the principal branch
    report = strang_error_scan(molecule_terms("h2_sto3g"), [2.0])[0]
    assert report.phase_wrapped


def test_rejects_nonpositive_step():
    with pytest.raises(ValueError, match="positive"):
        strang_error_scan(molecule_terms("h2_sto3g"), [0.0])[0]


def test_empirical_trotter_number_scans_grid():
    terms = molecule_terms("h2_sto3g")
    grid = np.linspace(0.02, 0.9, 45)
    assert empirical_trotter_number(terms, 1e-3, grid) == 2
    rows = strang_error_scan(terms, grid)
    feasible = [r.empirical_trotter_number for r in rows if r.delta_e <= 1e-3]
    assert min(feasible) == 2


def test_empirical_trotter_number_raises_when_unreachable():
    terms = molecule_terms("h2_sto3g")
    with pytest.raises(ValueError, match="extend the grid"):
        empirical_trotter_number(terms, 1e-12, [0.5, 0.25])


# ---------------------------------------------------------------------------
# Batched scan against the per-step reference
# ---------------------------------------------------------------------------

SCAN_GRID = np.geomspace(1e-3, 0.2, 20)


FIXTURE_CHAINS = ("h5p_chain", "h6_chain")


def chain_terms(label):
    return enumerate_terms(parse_fcidump(FIXTURES / f"{label}.fcidump"))


def assert_rows_match(rows, reference):
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        assert row.t == ref.t
        assert row.e_fci == ref.e_fci
        assert row.phase_wrapped == ref.phase_wrapped
        assert row.empirical_trotter_number == ref.empirical_trotter_number
        # eigenphases, in radians
        assert abs(
            (row.e_effective - row.e_fci) * row.t
            - (ref.e_effective - ref.e_fci) * ref.t
        ) <= 1e-13
        assert abs(row.ground_overlap - ref.ground_overlap) <= 1e-12
        assert row.unitarity_defect <= 1e-9


class _NoSecondMix:
    def __mul__(self, other):
        raise AssertionError("a step needed the second eigh")


@pytest.mark.parametrize("name", MOLECULES + ["h5p_chain"])
def test_scan_rows_match_per_step_reference(name, monkeypatch):
    # the second mix only rescues mirrored phase pairs; these scans find
    # every real eigenbasis with one eigh per step
    from qsimcost import oracle

    monkeypatch.setattr(oracle, "_REMIX", _NoSecondMix())
    terms = chain_terms(name) if name == "h5p_chain" else molecule_terms(name)
    assert_rows_match(
        strang_error_scan(terms, SCAN_GRID),
        reference_strang_scan(terms, SCAN_GRID),
    )


def test_h6_row_matches_per_step_reference():
    # the 400-state Sz block of the 924-state sector, one step per chunk
    terms = chain_terms("h6_chain")
    assert_rows_match(
        strang_error_scan(terms, [0.2]), reference_strang_scan(terms, [0.2])
    )


def test_full_fock_space_rows_match_per_step_reference():
    terms = molecule_terms("heh_plus")
    grid = [0.05, 0.3, 2.0]
    assert_rows_match(
        strang_error_scan(terms, grid, particle_sector=None),
        reference_strang_scan(terms, grid, particle_sector=None),
    )


def test_scan_split_over_chunks_matches_one_chunk(monkeypatch):
    from qsimcost import oracle

    terms = molecule_terms("h4_chain")
    whole = strang_error_scan(terms, SCAN_GRID)
    # three step sizes of the 36-state block per chunk: seven chunks, the
    # last one partial
    monkeypatch.setattr(oracle, "_STACK_ENTRIES", 3 * 36 * 36 + 35)
    split = strang_error_scan(terms, SCAN_GRID)
    assert len(split) == len(whole) == 20
    for a, b in zip(split, whole):
        assert a.t == b.t
        assert a.phase_wrapped == b.phase_wrapped
        assert a.e_effective == pytest.approx(b.e_effective, rel=1e-14)
        assert a.ground_overlap == pytest.approx(b.ground_overlap, rel=1e-14)


@pytest.mark.parametrize("name", ["h4_chain", "h5p_chain"])
def test_sz_block_actions_equal_replayed_actions(name):
    # the block's table comes from the sector's by renumbering; each term's
    # slice of it equals the scalar replay of the term on the block's states
    from qsimcost.oracle import _StrangEvaluator

    terms = chain_terms(name) if name == "h5p_chain" else molecule_terms(name)
    evaluator = _StrangEvaluator(terms)
    replayed = ReferenceStrangEvaluator(terms)
    assert np.array_equal(evaluator.states, replayed.states)
    table = evaluator.actions
    assert np.array_equal(table.coefficients, terms.coefficients)
    got_actions = table.per_term()
    assert len(got_actions) == len(replayed.actions) == len(terms)
    for got, want in zip(got_actions, replayed.actions):
        if want.diagonal is not None:
            assert np.array_equal(got, want.diagonal)
            continue
        source, target, sign = got
        assert sign.dtype == np.int8
        assert np.array_equal(source, want.source)
        assert np.array_equal(target, want.target)
        assert np.array_equal(sign, want.signs)


# ---------------------------------------------------------------------------
# Action table against the scalar per-term set-up
# ---------------------------------------------------------------------------

def sector_cases():
    cases = [(name, sector) for name in MOLECULES for sector in ("n", None)]
    return cases + [("h5p_chain", "n"), ("h5p_chain", None), ("h6_chain", "n")]


@pytest.mark.parametrize("name,sector", sector_cases())
def test_build_matrix_equals_scalar_assembly(name, sector):
    # one np.add.at per triangle and the diagonal in list order add every
    # element in the same order as term-by-term assembly: equal bits
    terms = chain_terms(name) if name in FIXTURE_CHAINS else molecule_terms(name)
    sector = terms.n_electrons if sector == "n" else None
    got = build_matrix(terms, particle_sector=sector).matrix
    assert np.array_equal(got, scalar_build_matrix(terms, sector))


@pytest.mark.parametrize("term", [
    HamiltonianTerm("PP", (3,), 0.3, 0.3),
    HamiltonianTerm("PQ", (1, 4), -0.2, 0.2),
    HamiltonianTerm("PQQP", (2, 5, 2, 5), 0.7, 0.7),
    HamiltonianTerm("PQQR", (1, 3, 3, 6), 0.11, 0.11),
    HamiltonianTerm("PQRS", (1, 4, 2, 6), -0.13, 0.13),
], ids=lambda term: term.term_class)
def test_term_matrix_equals_scalar_action(term):
    states = np.arange(1 << 6, dtype=np.int64)
    want = np.zeros((64, 64))
    ScalarTermAction(term, states, lambda p: p).add_to(want)
    assert np.any(want != 0)
    assert np.array_equal(term_matrix(term, 6), want)


def edge_lists():
    h4 = molecule_terms("h4_chain")
    return {
        "empty": TermList(terms=(), n_spin_orbitals=4, n_electrons=2,
                          core_energy=0.5),
        "diagonal_only": TermList(
            terms=[t for t in h4 if t.is_diagonal], n_spin_orbitals=8,
            n_electrons=4, core_energy=h4.core_energy,
        ),
        "spin_flip": spin_flip_terms(),
    }


@pytest.mark.parametrize("label", ["empty", "diagonal_only", "spin_flip"])
def test_edge_lists_match_scalar_matrix_and_reference_rows(label):
    terms = edge_lists()[label]
    for sector in (terms.n_electrons, None):
        got = build_matrix(terms, particle_sector=sector).matrix
        assert np.array_equal(got, scalar_build_matrix(terms, sector))
        assert_rows_match(
            strang_error_scan(terms, SCAN_GRID, particle_sector=sector),
            reference_strang_scan(terms, SCAN_GRID, particle_sector=sector),
        )


def test_table_split_over_chunks_matches_one_chunk(monkeypatch):
    from qsimcost import oracle

    terms = chain_terms("h5p_chain")
    states = oracle._basis_states(terms.n_spin_orbitals, terms.n_electrons)
    assert len(terms) * len(states) <= 2**16
    monkeypatch.setattr(oracle, "_TABLE_ENTRIES", len(terms) * len(states))
    whole = oracle._action_table(terms, states)
    # seven terms of the 210-state sector per chunk: 36 chunks, the last
    # one partial
    monkeypatch.setattr(oracle, "_TABLE_ENTRIES", 7 * 210 + 209)
    split = oracle._action_table(terms, states)
    for field in dataclasses.fields(whole):
        a, b = getattr(split, field.name), getattr(whole, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), field.name


def test_mirrored_eigenphases_get_a_second_eigh():
    # a two-level hop whose two step eigenphases sum to 2 atan(_MIX), since
    # det U = exp(-i t (a + b)): Re U + _MIX Im U then has a double
    # eigenvalue, one eigh leaves the two eigenvectors mixed (residual
    # 0.05), and the second mix separates them
    from qsimcost.oracle import _MIX

    t, a = 0.1, -6.0
    b = -2.0 * math.atan(_MIX) / t - a
    terms = parse_terms(
        f"PP 1 {a!r}\nPQ 1 3 0.5\nPP 3 {b!r}\n", n_spin_orbitals=4, n_electrons=1
    )
    assert_rows_match(
        strang_error_scan(terms, [t]), reference_strang_scan(terms, [t])
    )


def test_symmetric_unitary_eig_rejects_a_non_symmetric_unitary():
    # a real rotation is unitary but not symmetric: no real eigenbasis
    from qsimcost.oracle import _symmetric_unitary_eig

    rotation = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
    with pytest.raises(AssertionError, match="residual"):
        _symmetric_unitary_eig(rotation[None])
