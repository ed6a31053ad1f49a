import dataclasses
import io
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsimcost import (
    CliffordCostTable,
    HamiltonianTerm,
    IntegralTable,
    TermList,
    clifford_count_per_step,
    enumerate_terms,
    export_terms,
    load_molecule,
    parse_fcidump,
    parse_terms,
    write_fcidump,
)

from qsimcost.hamiltonian import TERM_CLASSES

from oracles import (
    is_diagonal,
    is_one_body,
    jw_chain,
    monomial_pairs,
    random_canonical_terms,
    reordered,
    scalar_clifford_count_per_step,
    scalar_enumerate_terms,
    scalar_parse_fcidump,
    step_orders,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
MOLECULES = ("h2_sto3g", "h2_stretched", "heh_plus", "h3_plus", "h4_chain")
# frozen hydrogen chains of the benchmark, past the bundled sizes
CHAINS = ("h5p_chain", "h6_chain", "h8_chain")

# dense-integral merged term counts, frozen; unmerged counts double the
# off-diagonal entries and approach 16x growth per doubling of n
DENSE_M = {2: 18, 4: 198, 8: 2964}
DENSE_M_UNMERGED = {2: 26, 4: 360, 8: 5792}


def integrals(name):
    if name in MOLECULES:
        return load_molecule(name)
    return parse_fcidump(FIXTURES / f"{name}.fcidump")


def random_table(n, seed, n_electrons=None):
    rng = np.random.default_rng(seed)
    table = IntegralTable(n_spatial=n, n_electrons=n_electrons or n)
    one = rng.normal(size=(n, n))
    table.one_body = (one + one.T) / 2
    v = rng.normal(size=(n, n, n, n))
    v = v + v.transpose(1, 0, 2, 3)
    v = v + v.transpose(0, 1, 3, 2)
    v = v + v.transpose(2, 3, 0, 1)
    table.two_body = v
    assert np.array_equal(table.one_body, table.one_body.T)
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        assert np.allclose(v, v.transpose(perm), rtol=0.0, atol=1e-12)
    return table


def unmerged_count(terms):
    """Terms with both members of each conjugate pair counted: a
    self-adjoint term (PP, PQQP) once, an off-diagonal one twice."""
    return sum(1 if is_diagonal(t) else 2 for t in terms)


def spin(so):
    return (so + 1) % 2


def spatial(so):
    return (so + 1) // 2


# ---------------------------------------------------------------------------
# FCIDUMP parsing
# ---------------------------------------------------------------------------

HEADER = " &FCI NORB=2,NELEC=2,MS2=0,\n  ORBSYM=1,1,\n  ISYM=1,\n &END\n"


def test_parse_minimal_file():
    text = HEADER + (
        "  0.5 1 1 1 1\n"
        "  0.25 2 1 2 1\n"
        " -1.25 1 1 0 0\n"
        "  0.71 0 0 0 0\n"
    )
    table = parse_fcidump(io.StringIO(text))
    assert table.n_spatial == 2
    assert table.n_electrons == 2
    assert table.core_energy == 0.71
    assert table.one_body[0, 0] == -1.25
    assert table.two_body[0, 0, 0, 0] == 0.5
    # 8-fold completion of (21|21)
    assert table.two_body[1, 0, 1, 0] == 0.25
    assert table.two_body[0, 1, 0, 1] == 0.25
    assert table.two_body[0, 1, 1, 0] == 0.25
    assert table.two_body[1, 0, 0, 1] == 0.25


def test_parse_slash_terminated_header():
    text = " &FCI NORB=1,NELEC=1,MS2=1,\n /\n  1.0 1 1 0 0\n"
    table = parse_fcidump(io.StringIO(text))
    assert table.n_spatial == 1
    assert table.one_body[0, 0] == 1.0


def test_parse_skips_orbital_energy_records():
    text = HEADER + "  0.5 1 1 1 1\n -0.6 1 0 0 0\n -0.2 2 0 0 0\n"
    table = parse_fcidump(io.StringIO(text))
    assert np.all(table.one_body == 0.0)


def test_parse_error_missing_terminator():
    with pytest.raises(ValueError, match="line 1.*terminator"):
        parse_fcidump(io.StringIO(" &FCI NORB=2,NELEC=2,\n 0.5 1 1 1 1\n"))


def test_parse_error_missing_namelist():
    with pytest.raises(ValueError, match="line 1.*&FCI"):
        parse_fcidump(io.StringIO(" NORB=2,NELEC=2\n &END\n"))


def test_parse_error_missing_norb():
    with pytest.raises(ValueError, match="line 1.*NORB"):
        parse_fcidump(io.StringIO(" &FCI NELEC=2,MS2=0,\n &END\n"))


def test_parse_error_reports_line_number():
    text = HEADER + "  0.5 1 1 1 1\n  bad 1 1 0 0\n"
    with pytest.raises(ValueError, match="line 6: non-numeric"):
        parse_fcidump(io.StringIO(text))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_parse_error_names_a_non_finite_value(value):
    text = HEADER + f"  0.5 1 1 1 1\n  {value} 1 2 0 0\n"
    with pytest.raises(ValueError, match=f"line 6: non-finite value '{value}'"):
        parse_fcidump(io.StringIO(text))


def test_parse_error_index_out_of_range():
    text = HEADER + "  0.5 1 3 1 1\n"
    with pytest.raises(ValueError, match="line 5.*out of range"):
        parse_fcidump(io.StringIO(text))


def test_parse_error_short_line():
    text = HEADER + "  0.5 1 1\n"
    with pytest.raises(ValueError, match="line 5"):
        parse_fcidump(io.StringIO(text))


# Records for the property tests below. Up to three spatial orbitals
# keep symmetry-class collisions, and so conflicting duplicates, common.
VALUES = st.one_of(
    st.floats(-2.0, 2.0, allow_subnormal=False),
    st.sampled_from([0.0, -0.0, 0.5, -1.25]),
)


@st.composite
def record_lines(draw, norb):
    """Well-formed body lines in several layouts: two-body, one-body,
    orbital-energy and core records, blank lines and extra fields."""
    orbital = st.integers(1, norb)
    kind = draw(st.sampled_from(["two", "two", "one", "orbital", "core", "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if kind == "two":
        index = [draw(orbital) for _ in range(4)]
    elif kind == "one":
        index = [draw(orbital), draw(orbital), 0, 0]
    elif kind == "orbital":
        index = draw(st.sampled_from([[draw(orbital), 0, 0, 0],
                                      [0, draw(orbital), 0, 0]]))
    else:
        index = [0, 0, 0, 0]
    value = draw(VALUES)
    text = draw(st.sampled_from([repr(value), f"{value: .16E}", f"{value:.3f}"]))
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    extra = draw(st.sampled_from([[], ["0"], ["x", "7"]]))
    return "  " + sep.join([text, *map(str, index), *extra])


@st.composite
def fcidump_texts(draw, max_lines=30):
    norb = draw(st.integers(1, 3))
    lines = draw(st.lists(record_lines(norb), max_size=max_lines))
    header = f" &FCI NORB={norb},NELEC=2,MS2=0,\n  ORBSYM={'1,' * norb}\n  ISYM=1,\n &END\n"
    return norb, header, lines


def parsed_or_error(parse, text):
    try:
        return parse(io.StringIO(text), source_label="probe")
    except ValueError as error:
        return str(error)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(record_lines(n), max_size=25))
))
def test_written_tables_read_back_equal(case):
    norb, lines = case
    table = scalar_parse_fcidump(io.StringIO(
        f" &FCI NORB={norb},NELEC=2,\n &END\n" + "\n".join(lines) + "\n"
    ))
    buf = io.StringIO()
    write_fcidump(table, buf)
    assert parse_fcidump(io.StringIO(buf.getvalue())) == table


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(fcidump_texts())
def test_parse_matches_line_by_line_reference(case):
    _, header, lines = case
    text = header + "\n".join(lines) + "\n"
    got = parse_fcidump(io.StringIO(text), source_label="probe")
    reference = scalar_parse_fcidump(io.StringIO(text), source_label="probe")
    assert got == reference
    assert got.source_label == reference.source_label


# one malformed line each; {past} is one past the last orbital
CORRUPTIONS = [
    "  0.5 1 1",                 # fewer than 5 fields
    "  0.5",
    "  abc 1 1 1 1",             # non-numeric value
    "  1.0D-03 1 1 0 0",
    "  nan 1 1 1 1",             # non-finite value
    "  -inf 1 1 0 0",
    "  1e999 1 1 1 1",
    "  0.5 1.0 1 1 1",           # non-integer index
    "  0.5 1 1 x 1",
    "  0.5 1 {past} 1 1",        # out-of-range index
    "  0.5 -1 1 1 1",
    "  0.5 1 1 0 {past}",
    "  0.5 99999999999999999999 1 1 1",
    "  0.5 1 0 1 0",             # neither two-body, one-body nor core
    "  0.5 0 0 1 1",
    "  0.5 1 1 1 0",
]


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(fcidump_texts(), st.lists(
    st.tuples(st.sampled_from(CORRUPTIONS), st.integers(0, 10**6)),
    min_size=1, max_size=2,
))
def test_malformed_line_gives_the_reference_message(case, corruptions):
    norb, header, lines = case
    for template, where in corruptions:
        lines.insert(where % (len(lines) + 1), template.format(past=norb + 1))
    text = header + "\n".join(lines) + "\n"
    reference = parsed_or_error(scalar_parse_fcidump, text)
    assert isinstance(reference, str)
    assert parsed_or_error(parse_fcidump, text) == reference


def test_write_parse_round_trip_is_exact():
    table = random_table(3, seed=11)
    table.core_energy = 0.123456789123456789
    buf = io.StringIO()
    write_fcidump(table, buf)
    again = parse_fcidump(io.StringIO(buf.getvalue()))
    assert again == table


def test_bundled_file_round_trip_is_exact():
    table = load_molecule("h2_sto3g")
    buf = io.StringIO()
    write_fcidump(table, buf)
    assert parse_fcidump(io.StringIO(buf.getvalue())) == table


def test_bundled_h2_header_values():
    table = load_molecule("h2_sto3g")
    assert table.n_spatial == 2
    assert table.n_electrons == 2
    assert table.core_energy == pytest.approx(0.713753993, abs=1e-8)


# ---------------------------------------------------------------------------
# Term enumeration
# ---------------------------------------------------------------------------

def test_dense_term_counts_match_frozen_values():
    for n, m in DENSE_M.items():
        terms = enumerate_terms(random_table(n, seed=n))
        assert terms.m == m
        assert unmerged_count(terms) == DENSE_M_UNMERGED[n]


def test_unmerged_count_scales_as_two_body_fourth_power():
    # doubling the register should multiply the term count by about 2^4
    counts = {
        n: unmerged_count(enumerate_terms(random_table(n, seed=n))) for n in (2, 4, 8)
    }
    for small, large in ((2, 4), (4, 8)):
        ratio = counts[large] / counts[small]
        assert abs(ratio - 16.0) <= 0.25 * 16.0


def test_merged_count_ratio_approaches_sixteen():
    counts = {n: enumerate_terms(random_table(n, seed=n)).m for n in (4, 8)}
    assert abs(counts[8] / counts[4] - 16.0) <= 0.25 * 16.0


def test_merged_count_by_independent_pair_screen():
    # independent route: count nonzero entries of the pair-indexed
    # coefficient matrix w[(i,k),(j,l)] over its upper triangle
    table = random_table(3, seed=5)
    n_so = 6
    pairs = [(i, k) for i in range(1, n_so + 1) for k in range(i + 1, n_so + 1)]

    def v_so(i, j, k, l):
        if spin(i) != spin(j) or spin(k) != spin(l):
            return 0.0
        return table.two_body[spatial(i) - 1, spatial(j) - 1,
                              spatial(k) - 1, spatial(l) - 1]

    two_body_count = 0
    for a, (i, k) in enumerate(pairs):
        for j, l in pairs[a:]:
            if abs(v_so(i, j, k, l) - v_so(i, l, k, j)) > 1e-10:
                two_body_count += 1
    one_body_count = 0
    for p in range(n_so):
        for q in range(p, n_so):
            if spin(p + 1) == spin(q + 1) and abs(
                table.one_body[spatial(p + 1) - 1, spatial(q + 1) - 1]
            ) > 1e-10:
                one_body_count += 1
    terms = enumerate_terms(table)
    assert terms.m == one_body_count + two_body_count


def test_h2_term_inventory():
    terms = enumerate_terms(load_molecule("h2_sto3g"))
    by_class = terms.by_class()
    assert [len(by_class[c]) for c in ("PP", "PQ", "PQQP", "PQQR", "PQRS")] == [
        4, 0, 6, 0, 2,
    ]
    assert terms.m == 12
    assert unmerged_count(terms) == 14


def test_coefficients_against_integrals():
    table = random_table(2, seed=3)
    terms = {t.spin_orbitals: t for t in enumerate_terms(table)}
    h = table.one_body
    v = table.two_body
    assert terms[(1,)].term_class == "PP"
    assert terms[(1,)].coefficient == pytest.approx(h[0, 0], rel=1e-15)
    assert terms[(1, 3)].term_class == "PQ"
    assert terms[(1, 3)].coefficient == pytest.approx(h[0, 1], rel=1e-15)
    # opposite spins on one spatial pair: exchange integral cannot enter
    assert terms[(1, 2, 1, 2)].term_class == "PQQP"
    assert terms[(1, 2, 1, 2)].coefficient == pytest.approx(v[0, 0, 0, 0], rel=1e-15)
    # same spins: direct minus exchange
    assert terms[(1, 3, 1, 3)].coefficient == pytest.approx(
        v[0, 0, 1, 1] - v[0, 1, 1, 0], rel=1e-14
    )
    # three distinct indices, only one spin-consistent pairing survives
    assert terms[(1, 2, 2, 3)].term_class == "PQQR"
    assert terms[(1, 2, 2, 3)].coefficient == pytest.approx(-v[0, 1, 0, 0], rel=1e-14)
    # four distinct indices
    assert terms[(1, 2, 3, 4)].term_class == "PQRS"
    assert terms[(1, 2, 3, 4)].coefficient == pytest.approx(v[0, 1, 0, 1], rel=1e-14)
    # spin-signature-violating pairing must be absent
    assert (1, 3, 2, 4) not in terms


def test_h2_pqrs_coefficients_are_exchange_integral():
    table = load_molecule("h2_sto3g")
    terms = {t.spin_orbitals: t for t in enumerate_terms(table)}
    k12 = table.two_body[0, 1, 0, 1]
    assert k12 == pytest.approx(0.181288808, abs=1e-8)
    assert terms[(1, 2, 3, 4)].coefficient == pytest.approx(k12, rel=1e-14)
    assert terms[(1, 4, 2, 3)].coefficient == pytest.approx(-k12, rel=1e-14)


def test_every_term_conserves_spin():
    for t in enumerate_terms(random_table(4, seed=9)):
        creation, annihilation = monomial_pairs(t)
        assert sorted(map(spin, creation)) == sorted(map(spin, annihilation))


def test_terms_are_lexicographically_sorted_and_merged():
    terms = enumerate_terms(random_table(4, seed=9))
    keys = [t.spin_orbitals for t in terms]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for t in terms:
        if not is_one_body(t):
            creation, annihilation = monomial_pairs(t)
            assert creation <= annihilation
            assert creation[0] < creation[1]
            assert annihilation[0] < annihilation[1]


def test_drop_threshold_removes_small_terms():
    table = random_table(2, seed=3)
    full = enumerate_terms(table, drop_threshold=0.0)
    coeffs = sorted(abs(t.coefficient) for t in full)
    cut = coeffs[len(coeffs) // 2]
    pruned = enumerate_terms(table, drop_threshold=cut)
    assert pruned.m == sum(1 for c in coeffs if c > cut)


def test_norm_multipliers_apply_per_class():
    table = random_table(2, seed=3)
    terms = enumerate_terms(table, norm_multipliers={"PQRS": 2.0})
    for t in terms:
        expected = abs(t.coefficient) * (2.0 if t.term_class == "PQRS" else 1.0)
        assert t.norm == pytest.approx(expected, rel=1e-15)


def test_norm_multipliers_reject_unknown_class():
    with pytest.raises(ValueError, match="unknown term class"):
        enumerate_terms(random_table(2, seed=3), norm_multipliers={"XY": 1.0})


@pytest.mark.parametrize("name", MOLECULES + CHAINS)
@pytest.mark.parametrize("options", [
    {},
    {"drop_threshold": 0.0},
    {"drop_threshold": 1e-3},
    {"norm_multipliers": {"PQQR": 0.5, "PQRS": 2.0}},
])
def test_enumeration_matches_scalar_reference(name, options):
    table = integrals(name)
    got = enumerate_terms(table, **options)
    want = scalar_enumerate_terms(table, **options)
    assert got == want
    assert repr(got) == repr(want)  # bit for bit, signed zeros included


@pytest.mark.parametrize("name", MOLECULES + CHAINS + ("h10_chain",))
def test_column_built_terms_match_scalar_reference_term_for_term(name):
    table = integrals(name)
    got = enumerate_terms(table)
    want = scalar_enumerate_terms(table).terms  # HamiltonianTerm objects

    def fields(term):
        return (term.term_class, term.spin_orbitals, term.coefficient, term.norm)

    assert [fields(t) for t in got] == [fields(t) for t in want]
    assert repr(got.terms) == repr(want)  # signed zeros and types included
    # the columns hold the same rows, zero-padded to four indices
    assert got.codes.dtype == np.int8
    assert got.codes.tolist() == [TERM_CLASSES.index(t.term_class) for t in want]
    assert got.index.tolist() == [
        [*t.spin_orbitals, *[0] * (4 - len(t.spin_orbitals))] for t in want
    ]
    assert got.coefficients.tolist() == [t.coefficient for t in want]
    assert got.norms.tolist() == [t.norm for t in want]
    assert got.by_class() == {
        c: [i for i, t in enumerate(want) if t.term_class == c]
        for c in TERM_CLASSES
    }
    # the object-built list derives the same columns
    assert TermList(terms=want, n_spin_orbitals=got.n_spin_orbitals,
                    n_electrons=got.n_electrons,
                    core_energy=got.core_energy) == got


def test_enumeration_of_random_dense_integrals_matches_scalar_reference():
    for n in (1, 2, 3, 5):
        table = random_table(n, seed=n)
        assert enumerate_terms(table) == scalar_enumerate_terms(table)


def test_term_validation_rejects_malformed_tuples():
    with pytest.raises(ValueError):
        HamiltonianTerm(term_class="PQ", spin_orbitals=(1, 2, 3, 4),
                        coefficient=1.0, norm=1.0)
    with pytest.raises(ValueError):
        HamiltonianTerm(term_class="PQQR", spin_orbitals=(1, 2, 3, 4),
                        coefficient=1.0, norm=1.0)
    with pytest.raises(ValueError):
        HamiltonianTerm(term_class="ZZ", spin_orbitals=(1, 2),
                        coefficient=1.0, norm=1.0)


@pytest.mark.parametrize("text", [
    "PQ 2 1 0.5",  # pair descends
    "PQ -1 2 0.5",  # index below 1
    "PP 0 0.5",
    "PQQP 2 1 2 1 0.5",
    "PQQP 1 2 2 1 0.5",  # annihilation pair descends
    "PQQR 2 1 1 3 0.5",  # creation pair descends
    "PQQR 1 3 3 2 0.5",
    "PQRS 3 4 1 2 0.5",  # creation pair after annihilation pair
    "PQRS 0 1 2 3 0.5",
])
def test_non_canonical_terms_are_rejected(text):
    with pytest.raises(ValueError, match="spin_orbitals"):
        parse_terms(text + "\n", n_spin_orbitals=4)


def test_term_list_keeps_row_order():
    terms = enumerate_terms(load_molecule("h3_plus"))
    backwards = TermList(terms=terms.terms[::-1], n_spin_orbitals=6,
                         n_electrons=terms.n_electrons,
                         core_energy=terms.core_energy)
    assert backwards.terms == terms.terms[::-1]
    assert backwards.index.tolist() == terms.index.tolist()[::-1]
    assert backwards.codes.tolist() == terms.codes.tolist()[::-1]
    assert backwards != terms
    parsed = parse_terms(export_terms(backwards), n_spin_orbitals=6,
                         n_electrons=terms.n_electrons,
                         core_energy=terms.core_energy)
    assert parsed == backwards
    assert repr(parsed) == repr(backwards)


def test_term_list_rejects_out_of_register_terms():
    t = HamiltonianTerm("PQ", (1, 5), 1.0, 1.0)
    with pytest.raises(ValueError, match="exceeds register"):
        TermList(terms=(t,), n_spin_orbitals=4)


# ---------------------------------------------------------------------------
# String geometry
# ---------------------------------------------------------------------------

def test_jw_chain_shapes():
    assert jw_chain(HamiltonianTerm("PP", (3,), 1.0, 1.0)) == (3,)
    assert jw_chain(HamiltonianTerm("PQ", (2, 5), 1.0, 1.0)) == (2, 3, 4, 5)
    assert jw_chain(HamiltonianTerm("PQQP", (2, 5, 2, 5), 1.0, 1.0)) == (2, 5)
    # hop 1 -> 4 with the shared number index inside the span
    assert jw_chain(HamiltonianTerm("PQQR", (1, 3, 3, 4), 1.0, 1.0)) == (1, 2, 3, 4)
    # shared number index outside the hop span joins the chain as a point
    assert jw_chain(HamiltonianTerm("PQQR", (1, 3, 1, 5), 1.0, 1.0)) == (1, 3, 4, 5)
    assert jw_chain(HamiltonianTerm("PQRS", (1, 2, 5, 7), 1.0, 1.0)) == (1, 2, 5, 6, 7)


# ---------------------------------------------------------------------------
# Clifford step counts
# ---------------------------------------------------------------------------

def simulate_gate_list(sequence, cost_table):
    """Independent route: explicit gate list with peephole cancellation.

    Entangling rungs are emitted term by term (forward ladder, rotation
    marker, backward ladder) and adjacent identical rungs across term
    boundaries cancel pairwise; rotations block cancellation. Basis gates
    are tallied per term and never cancel.
    """
    gates = []
    basis = 0
    for term in sequence:
        chain = jw_chain(term)
        rungs = list(zip(chain[:-1], chain[1:]))
        if is_diagonal(term):
            basis += cost_table.diagonal_basis_changes * len(chain)
        else:
            basis += cost_table.basis_changes_per_qubit * len(chain)
        for r in rungs:
            gates.append(("cx", r))
        gates.append(("rot", None))
        for r in reversed(rungs):
            gates.append(("cx", r))
        gates.append(("boundary", None))

    if cost_table.cancel_adjacent_ladders:
        changed = True
        while changed:
            changed = False
            out = []
            i = 0
            while i < len(gates):
                g = gates[i]
                if g[0] == "boundary":
                    i += 1
                    continue
                if out and g[0] == "cx" and out[-1] == g:
                    out.pop()
                    changed = True
                    i += 1
                    continue
                out.append(g)
                i += 1
            gates = out
    # each emitted cx is one gate per ladder side, entangling_per_rung / 2
    survivors = sum(1 for g in gates if g[0] == "cx")
    return survivors * cost_table.entangling_per_rung // 2, basis


def test_clifford_counts_match_explicit_gate_list():
    cost = CliffordCostTable()
    for name in ("h2_sto3g", "heh_plus", "h3_plus", "h4_chain"):
        terms = enumerate_terms(load_molecule(name))
        step = clifford_count_per_step(terms, cost)
        sequence = list(terms) + list(terms)[::-1]
        entangling, basis = simulate_gate_list(sequence, cost)
        assert step.entangling == entangling, name
        assert step.basis_changes == basis, name
        assert step.rotations == 2 * terms.m


# non-default constants, with and without ladder cancellation
ODD_COSTS = [
    CliffordCostTable(entangling_per_rung=3, basis_changes_per_qubit=5,
                      diagonal_basis_changes=1),
    CliffordCostTable(entangling_per_rung=3, basis_changes_per_qubit=5,
                      diagonal_basis_changes=1, cancel_adjacent_ladders=False),
]


@pytest.mark.parametrize("name", MOLECULES + CHAINS)
def test_clifford_count_matches_scalar_reference(name):
    terms = enumerate_terms(integrals(name))
    order = list(range(terms.m))
    random.Random(name).shuffle(order)
    for sequence in (terms, reordered(terms, order)):
        for cost in [None, *ODD_COSTS]:
            got = clifford_count_per_step(sequence, cost)
            assert got == scalar_clifford_count_per_step(sequence, cost)
            assert all(type(n) is int for n in dataclasses.astuple(got))


def test_clifford_count_has_no_orbital_cap():
    # chains across a 128-qubit register, every class, beyond any bit mask
    terms = random_canonical_terms(128, 60, seed=5)
    order = list(range(terms.m))
    random.Random(5).shuffle(order)
    shuffled = reordered(terms, order)
    # the gate list cancels whole rungs, entangling_per_rung gates each
    gate_list_costs = [
        CliffordCostTable(entangling_per_rung=per_rung, basis_changes_per_qubit=5,
                          diagonal_basis_changes=1)
        for per_rung in (1, 2, 3)
    ]
    for sequence in (terms, shuffled):
        for cost in [CliffordCostTable(), *ODD_COSTS]:
            step = clifford_count_per_step(sequence, cost)
            assert step == scalar_clifford_count_per_step(sequence, cost)
        for cost in (CliffordCostTable(), *gate_list_costs):
            step = clifford_count_per_step(sequence, cost)
            entangling, basis = simulate_gate_list(
                list(sequence) + list(sequence)[::-1], cost
            )
            assert (step.entangling, step.basis_changes) == (entangling, basis)
    assert max(max(jw_chain(t)) for t in terms) > 64


def abutting_terms(n, rng):
    """Terms whose two chain ranges touch or overlap, so that they merge:
    PQQR with the shared index next to the hop or inside it, PQQP on
    neighbours and PQRS with adjacent segments."""
    a = int(rng.integers(2, n - 3))
    b = int(rng.integers(a + 1, n - 1))
    terms = {}
    for shared in (a - 1, b + 1, (a + b) // 2 if b > a + 1 else None):
        if shared is not None:
            low, high = sorted([tuple(sorted((shared, a))), tuple(sorted((shared, b)))])
            terms[(*low, *high)] = HamiltonianTerm("PQQR", (*low, *high), 0.5, 0.5)
    terms[(a, a + 1, a, a + 1)] = HamiltonianTerm("PQQP", (a, a + 1, a, a + 1), 0.5, 0.5)
    terms[(a - 1, a + 1, a, a + 2)] = HamiltonianTerm("PQRS", (a - 1, a + 1, a, a + 2), 0.5, 0.5)
    terms[(a - 1, a, a + 1, a + 2)] = HamiltonianTerm("PQRS", (a - 1, a, a + 1, a + 2), 0.5, 0.5)
    return list(terms.values())


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    st.integers(6, 140),
    st.integers(1, 30),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["lexicographic", "shuffled", "diagonal-first", "reversed"]),
)
def test_clifford_count_matches_scalar_reference_on_random_terms(n, count, seed, order):
    # registers past 64 spin orbitals, and chains whose ranges merge, in
    # every step order
    drawn = random_canonical_terms(n, count, seed)
    extra = abutting_terms(n, np.random.default_rng(seed))
    rows = {t.spin_orbitals: t for t in [*drawn, *extra]}
    terms = TermList(terms=sorted(rows.values(), key=lambda t: t.spin_orbitals),
                     n_spin_orbitals=n)
    if order != "lexicographic":
        terms = reordered(terms, step_orders(terms, seed=seed)[order])
    for cost in (None, ODD_COSTS[0]):
        assert clifford_count_per_step(terms, cost) == scalar_clifford_count_per_step(
            terms, cost
        )


def test_clifford_single_hop_term_by_hand():
    # one weight-3 hop: 2*(3-1)=4 rungs per pass, the turnaround cancels
    # one full ladder pair, leaving 4; basis changes 2*3 per pass
    t = HamiltonianTerm("PQ", (1, 3), 0.5, 0.5)
    terms = TermList(terms=(t,), n_spin_orbitals=4)
    step = clifford_count_per_step(terms)
    assert step.rotations == 2
    assert step.entangling == 4
    assert step.basis_changes == 12
    assert step.total_clifford == 16


def test_clifford_cancellation_can_be_disabled():
    t = HamiltonianTerm("PQ", (1, 3), 0.5, 0.5)
    terms = TermList(terms=(t,), n_spin_orbitals=4)
    step = clifford_count_per_step(
        terms, CliffordCostTable(cancel_adjacent_ladders=False)
    )
    assert step.entangling == 8


def test_clifford_empty_term_list():
    step = clifford_count_per_step(TermList(terms=(), n_spin_orbitals=2))
    assert step.entangling == step.basis_changes == step.rotations == 0


# ---------------------------------------------------------------------------
# Term serialization
# ---------------------------------------------------------------------------

def test_export_parse_terms_round_trip():
    terms = enumerate_terms(load_molecule("h3_plus"))
    text = export_terms(terms)
    again = parse_terms(
        text,
        n_spin_orbitals=terms.n_spin_orbitals,
        n_electrons=terms.n_electrons,
        core_energy=terms.core_energy,
    )
    assert again.m == terms.m
    for x, y in zip(again, terms):
        assert x.term_class == y.term_class
        assert x.spin_orbitals == y.spin_orbitals
        assert x.coefficient == y.coefficient


def test_parse_terms_rejects_unknown_class():
    with pytest.raises(ValueError, match="line 1: unknown term class"):
        parse_terms("XX 1 2 0.5\n", n_spin_orbitals=4)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_terms_rejects_a_non_finite_coefficient(value):
    with pytest.raises(ValueError, match=f"line 2: non-finite value '{value}'"):
        parse_terms(f"PP 1 -1.0\nPQ 1 3 {value}\nPP 3 -0.5\n", 4, 1)
