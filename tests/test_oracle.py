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
    scalar_sz_blocks,
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


def test_overlap_on_h6_matches_a_full_sector_eigh():
    # the overlap comes from the determinant's connected component alone
    terms = chain_terms("h6_chain")
    report = hartree_fock_overlap(terms)
    sector = build_matrix(terms, particle_sector=terms.n_electrons)
    evals, evecs = np.linalg.eigh(sector.matrix)
    hf_pos = int(np.searchsorted(sector.basis_states, (1 << terms.n_electrons) - 1))
    assert evals[1] - evals[0] > 1e-6
    assert not report.degenerate
    assert report.overlap == pytest.approx(evecs[hf_pos, 0] ** 2, abs=1e-12)
    assert report.energy == pytest.approx(evals[0], abs=1e-10)


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
    # the Sz = 0 block (2 up and 2 down electrons in 4 spatial orbitals) has
    # 36 of the 4-electron sector's 70 states; every term conserves the
    # chain's inversion parity, which splits it into 20 and 16 states
    assert len(evaluator.states) == 20 < math.comb(4, 2) ** 2
    up = sum(bin(int(s) & 0x55).count("1") for s in evaluator.states)
    assert up == 2 * len(evaluator.states)
    assert np.array_equal(
        evaluator.states, ReferenceStrangEvaluator(terms).states
    )
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
    # the spin flip breaks Sz conservation, so the evaluator splits the
    # whole 6-state particle sector: the flip joins the four states with one
    # electron per spatial orbital, and the ground state keeps the two
    # closed-shell ones, |1u 1d> and |2u 2d>
    from qsimcost.oracle import _StrangEvaluator, _components

    terms = spin_flip_terms()
    sector = build_matrix(terms, particle_sector=terms.n_electrons)
    components = _components(sector._actions, sector.basis_states)
    assert [sector.basis_states[c].tolist() for c in components] == [
        [0b0011, 0b1100], [0b0101, 0b0110, 0b1001, 0b1010],
    ]
    assert _StrangEvaluator(terms).states.tolist() == [0b0011, 0b1100]
    for t in (0.2, 0.05):
        restricted = strang_error_scan(terms, [t])[0]
        full = strang_error_scan(terms, [t], particle_sector=None)[0]
        assert restricted.e_fci == pytest.approx(full.e_fci, abs=1e-12)
        assert restricted.delta_e == pytest.approx(full.delta_e, abs=1e-10)


def nan_term_list(core_energy=0.0, coefficient=math.nan):
    # parse_terms refuses a non-finite value, so the list is built directly
    return TermList(terms=(
        HamiltonianTerm("PP", (1,), -1.0, 1.0),
        HamiltonianTerm("PQ", (1, 3), coefficient, abs(coefficient)),
        HamiltonianTerm("PP", (3,), -0.5, 0.5),
    ), n_spin_orbitals=4, n_electrons=1, core_energy=core_energy)


@pytest.mark.parametrize("coefficient", [math.nan, math.inf])
def test_non_finite_coefficient_names_its_term_row(coefficient):
    # a NaN block used to lose every ground-energy comparison and leave a
    # silent e_fci = 0, delta_e = 0, ground_overlap = 1 row
    terms = nan_term_list(coefficient=coefficient)
    message = rf"term row 1 \(PQ \(1, 3\)\): non-finite coefficient {coefficient!r}"
    for call in (
        lambda: build_matrix(terms),
        lambda: strang_error_scan(terms, [0.1]),
        lambda: strang_error_scan(terms, [0.1], particle_sector=None),
        lambda: hartree_fock_overlap(terms),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_non_finite_core_energy_is_named():
    terms = nan_term_list(core_energy=math.nan, coefficient=0.25)
    for call in (lambda: build_matrix(terms), lambda: strang_error_scan(terms, [0.1])):
        with pytest.raises(ValueError, match="non-finite core energy nan"):
            call()


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


def assert_rows_match(rows, reference, e_fci_tol=0.0):
    # e_fci_tol > 0 only between different evaluation spaces, whose ground
    # energies come from different eigh calls
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        assert row.t == ref.t
        assert abs(row.e_fci - ref.e_fci) <= e_fci_tol
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
    # the 200-state component of the 924-state sector
    terms = chain_terms("h6_chain")
    assert_rows_match(
        strang_error_scan(terms, [0.2]), reference_strang_scan(terms, [0.2])
    )


@pytest.mark.parametrize("name", MOLECULES + list(FIXTURE_CHAINS))
def test_component_rows_agree_with_sz_block_reference(name):
    # H and the step unitary are block-diagonal over the components, so the
    # ground state's component gives the rows of its whole Sz block
    terms = chain_terms(name) if name in FIXTURE_CHAINS else molecule_terms(name)
    grid = [0.2] if name == "h6_chain" else SCAN_GRID
    assert_rows_match(
        strang_error_scan(terms, grid),
        reference_strang_scan(terms, grid, split=scalar_sz_blocks),
        e_fci_tol=1e-12,
    )


# ---------------------------------------------------------------------------
# Connected components of the sector's state graph
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", MOLECULES + ["h5p_chain", "h6_chain", "h8_chain"])
def test_components_equal_scipy_connected_components(name):
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    from qsimcost import oracle

    # the table is built directly: build_matrix refuses H8's 16 spin orbitals
    terms = molecule_terms(name) if name in MOLECULES else chain_terms(name)
    states = oracle._basis_states(terms.n_spin_orbitals, terms.n_electrons)
    table = oracle._action_table(terms, states)
    graph = coo_array(
        (np.ones(len(table.source)), (table.source, table.target)),
        shape=(len(states), len(states)),
    )
    count, labels = connected_components(graph, directed=False)
    components = oracle._components(table, states)
    assert len(components) == count
    assert np.array_equal(
        np.sort(np.concatenate(components)), np.arange(len(states))
    )
    assert {int(labels[c[0]]) for c in components} == set(range(count))
    for component in components:
        assert np.all(labels[component] == labels[component[0]])
        assert np.all(np.diff(component) > 0)
    # one Sz block after another, each block's components by first position
    twice_sz = oracle._twice_sz(states)
    keys = [(abs(twice_sz[c[0]]), twice_sz[c[0]], c[0]) for c in components]
    assert keys == sorted(keys)


def test_parity_breaking_hop_merges_the_sz_block():
    # h4_chain has no PQ 1 3 term: spatial orbitals 1 and 2 differ in
    # inversion parity. A small spin-up hop between them joins the 20- and
    # 16-state components into the whole 36-state Sz = 0 block
    from qsimcost.oracle import _StrangEvaluator

    base = molecule_terms("h4_chain")
    assert all(t.spin_orbitals != (1, 3) for t in base)
    hop = HamiltonianTerm("PQ", (1, 3), 0.05, 0.05)
    terms = TermList(
        terms=sorted([*base, hop], key=lambda t: t.spin_orbitals),
        n_spin_orbitals=base.n_spin_orbitals,
        n_electrons=base.n_electrons, core_energy=base.core_energy,
    )
    assert len(_StrangEvaluator(terms).states) == 36
    assert_rows_match(
        strang_error_scan(terms, SCAN_GRID), reference_strang_scan(terms, SCAN_GRID)
    )


@pytest.mark.parametrize("second, picked", [
    ("-0.5", "first"),
    ("-0.500000000001", "first"),  # 1e-12 deeper: within _DEGENERACY_TOL
    ("-0.5000001", "second"),
])
def test_equal_ground_energies_pick_the_first_component(second, picked):
    # one electron in 8 spin orbitals: the spin-up block splits into
    # {1, 3} and {5, 7}, two two-level hops with ground energy -0.5 (the
    # spin-down states are isolated at 0)
    from qsimcost.oracle import _StrangEvaluator

    terms = parse_terms(
        f"PQ 1 3 -0.5\nPQ 5 7 {second}\n", n_spin_orbitals=8, n_electrons=1
    )
    states = {"first": [0b1, 0b100], "second": [0b10000, 0b1000000]}[picked]
    assert _StrangEvaluator(terms).states.tolist() == states
    assert ReferenceStrangEvaluator(terms).states.tolist() == states
    assert_rows_match(
        strang_error_scan(terms, [0.1, 0.7]), reference_strang_scan(terms, [0.1, 0.7])
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
    # three step sizes of the 20-state component per chunk: seven chunks,
    # the last one partial
    assert len(oracle._StrangEvaluator(terms).states) == 20
    monkeypatch.setattr(oracle, "_STACK_ENTRIES", 3 * 20 * 20 + 19)
    split = strang_error_scan(terms, SCAN_GRID)
    assert len(split) == len(whole) == 20
    for a, b in zip(split, whole):
        assert a.t == b.t
        assert a.phase_wrapped == b.phase_wrapped
        assert a.e_effective == pytest.approx(b.e_effective, rel=1e-14)
        assert a.ground_overlap == pytest.approx(b.ground_overlap, rel=1e-14)


@pytest.mark.parametrize("name", ["h4_chain", "h5p_chain"])
def test_sz_block_actions_equal_replayed_actions(name):
    # the component's table comes from the sector's by renumbering; each
    # term's slice of it equals the scalar replay of the term on the
    # component's states
    from qsimcost.oracle import _StrangEvaluator

    terms = chain_terms(name) if name == "h5p_chain" else molecule_terms(name)
    evaluator = _StrangEvaluator(terms)
    replayed = ReferenceStrangEvaluator(terms)
    assert len(evaluator.states) == {"h4_chain": 20, "h5p_chain": 52}[name]
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
