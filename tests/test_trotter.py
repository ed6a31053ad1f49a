import json
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsimcost import (
    ErrorConstantEstimate,
    HamiltonianTerm,
    TermList,
    enumerate_terms,
    estimate_error_constant,
    load_molecule,
    parse_fcidump,
    term_matrix,
    trotter_number,
)
from qsimcost.hamiltonian import TERM_CLASSES
from qsimcost.trotter import _TermArrays

from oracles import (
    commutator_vanishes,
    exhaustive_error_constant,
    exhaustive_error_constant_by_key,
    hop_endpoints,
    is_diagonal,
    nested_commutator_vanishes,
    outer_vanishes,
    random_canonical_terms,
    scalar_stratified,
    scalar_term_arrays,
    term_support,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
H5P_CHAIN = FIXTURES / "h5p_chain.fcidump"
BUNDLED = ("h2_sto3g", "h2_stretched", "heh_plus", "h3_plus", "h4_chain")

# frozen exhaustive error constants of the bundled molecules (Hartree^3)
H_EXACT = {
    "h2_sto3g": 57.981833052,
    "heh_plus": 350.100506558,
    "h3_plus": 839.585652663,
    "h4_chain": 7075.297441995,
}


def molecule_terms(name):
    return enumerate_terms(load_molecule(name))


def chain_terms(name):
    return enumerate_terms(parse_fcidump(FIXTURES / f"{name}.fcidump"))


def named_terms(name):
    if name == "synthetic":  # every class, indices up to bit 63: one word
        return random_canonical_terms(64, 200, seed=2)
    if name == "synthetic-128":  # two support words, terms straddling both
        return random_canonical_terms(128, 200, seed=2)
    return molecule_terms(name) if name in BUNDLED else chain_terms(name)


def comm(x, y):
    return x @ y - y @ x


# ---------------------------------------------------------------------------
# Vanishing rules are exact zeros
# ---------------------------------------------------------------------------

def test_pair_rule_certifies_only_true_zeros():
    terms = molecule_terms("heh_plus")
    n_so = terms.n_spin_orbitals
    mats = [term_matrix(t, n_so) for t in terms]
    certified = 0
    for i, ti in enumerate(terms):
        for j, tj in enumerate(terms):
            if commutator_vanishes(ti, tj):
                certified += 1
                assert np.max(np.abs(comm(mats[i], mats[j]))) < 1e-12
    assert certified > 0


def test_triple_rules_certify_only_true_zeros():
    terms = molecule_terms("heh_plus")
    n_so = terms.n_spin_orbitals
    mats = [term_matrix(t, n_so) for t in terms]
    m = len(mats)
    inners = {}
    certified = 0
    for b in range(m):
        for c in range(m):
            inners[(b, c)] = comm(mats[b], mats[c])
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if nested_commutator_vanishes(terms[a], terms[b], terms[c]):
                    certified += 1
                    residue = np.max(np.abs(comm(mats[a], inners[(b, c)])))
                    assert residue < 1e-12, (a, b, c)
    assert certified > 0


def test_triple_rules_on_random_h3_subsample():
    terms = molecule_terms("h3_plus")
    n_so = terms.n_spin_orbitals
    mats = [term_matrix(t, n_so) for t in terms]
    rng = np.random.default_rng(17)
    m = len(mats)
    checked = 0
    while checked < 400:
        a, b, c = rng.integers(0, m, 3)
        if not nested_commutator_vanishes(terms[a], terms[b], terms[c]):
            continue
        residue = np.max(np.abs(comm(mats[a], comm(mats[b], mats[c]))))
        assert residue < 1e-11, (a, b, c)
        checked += 1


def test_every_rule_fires_somewhere():
    terms = list(molecule_terms("heh_plus"))
    disjoint_pairs = both_diagonal = same_hop = 0
    for ti in terms:
        for tj in terms:
            if not (term_support(ti) & term_support(tj)):
                disjoint_pairs += 1
            elif is_diagonal(ti) and is_diagonal(tj):
                both_diagonal += 1
            elif (
                ti.term_class in ("PQ", "PQQR")
                and tj.term_class in ("PQ", "PQQR")
                and hop_endpoints(ti) == hop_endpoints(tj)
            ):
                same_hop += 1
    assert disjoint_pairs > 0
    assert both_diagonal > 0
    assert same_hop > 0
    detached = jacobi_only = 0
    for ta in terms:
        for tb in terms:
            for tc in terms:
                if commutator_vanishes(tb, tc):
                    continue
                if outer_vanishes(ta, tb, tc):
                    detached += 1
                elif nested_commutator_vanishes(ta, tb, tc):
                    jacobi_only += 1
    assert detached > 0
    assert jacobi_only > 0


def test_same_hop_rule_needs_matching_endpoints():
    hop_a = HamiltonianTerm("PQ", (1, 3), 0.5, 0.5)
    hop_b = HamiltonianTerm("PQQR", (1, 2, 2, 3), 0.4, 0.4)
    hop_c = HamiltonianTerm("PQ", (3, 5), 0.5, 0.5)
    assert commutator_vanishes(hop_a, hop_b)
    assert not commutator_vanishes(hop_a, hop_c)


# ---------------------------------------------------------------------------
# Exhaustive evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["h2_sto3g", "heh_plus", "h3_plus"])
def test_exhaustive_matches_independent_triple_loop(name):
    terms = molecule_terms(name)
    sequence = list(terms)
    reference = exhaustive_error_constant(
        [t.norm for t in sequence],
        list(range(len(sequence))),
        lambda a, b, c: not nested_commutator_vanishes(
            sequence[a], sequence[b], sequence[c]
        ),
    )
    estimate = estimate_error_constant(terms, method="exhaustive")
    assert estimate.value == pytest.approx(reference, rel=1e-12)
    assert estimate.std_error == 0.0
    assert estimate.method == "exhaustive"


@pytest.mark.parametrize("name", list(H_EXACT))
def test_exhaustive_matches_frozen_value(name):
    estimate = estimate_error_constant(molecule_terms(name), method="exhaustive")
    assert estimate.value == pytest.approx(H_EXACT[name], abs=2e-9)


def test_exhaustive_matches_frozen_h5_plus_chain():
    # 249 terms, 15.4 M triples: past the sizes the scalar loop can check
    terms = enumerate_terms(parse_fcidump(str(H5P_CHAIN)))
    estimate = estimate_error_constant(terms, method="exhaustive")
    assert terms.m == 249
    assert estimate.population == 249**3
    assert estimate.value == pytest.approx(26085.27074477814, rel=1e-12)


@pytest.mark.parametrize("n_spin_orbitals, count, seed", [
    (8, 25, 0), (8, 40, 1), (10, 33, 2), (10, 50, 3),
    (40, 60, 4), (48, 27, 5), (56, 80, 6), (64, 71, 7), (128, 40, 1),
])
def test_exhaustive_strata_match_triple_loop_on_random_terms(
    n_spin_orbitals, count, seed
):
    # narrow registers overlap most supports, wide ones leave most disjoint;
    # 128 spin orbitals take two support words
    terms = random_canonical_terms(n_spin_orbitals, count, seed)
    sequence = list(terms)
    reference = exhaustive_error_constant_by_key(
        [t.norm for t in sequence],
        lambda a, b, c: not nested_commutator_vanishes(
            sequence[a], sequence[b], sequence[c]
        ),
        lambda a, b, c: tuple(sequence[i].term_class for i in (a, b, c)),
    )
    estimate = estimate_error_constant(terms, method="exhaustive")
    assert estimate.value == pytest.approx(sum(reference.values()), rel=1e-12)
    assert set(estimate.per_stratum) == set(reference)
    for key, contribution in reference.items():
        assert estimate.per_stratum[key] == pytest.approx(contribution, rel=1e-12)


def test_exhaustive_h8_chain_within_three_sigma_of_frozen_sample():
    # perfbench froze H8's h as a stratified estimate with its SE
    frozen = json.loads((FIXTURES / "reference.json").read_text())["h"]["h8_chain"]
    estimate = estimate_error_constant(chain_terms("h8_chain"), method="exhaustive")
    assert frozen["method"] == "stratified"
    assert abs(estimate.value - frozen["value"]) <= 3.0 * frozen["std_error"]


def test_random_terms_refuse_a_class_the_register_cannot_fill():
    # four spin orbitals split into pairs three ways: three PQRS terms
    assert len(random_canonical_terms(4, 15, seed=1)) == 15
    with pytest.raises(ValueError, match="4 distinct PQRS terms"):
        random_canonical_terms(4, 20, seed=1)
    with pytest.raises(ValueError, match="8 distinct PP terms"):
        random_canonical_terms(6, 40, seed=0)


def test_exhaustive_two_terms_by_hand():
    # the only gated triples are (1, 0, 1) and, through the c == a branch,
    # (0, 1, 0); neither is certified zero, so h = 4 n0 n1 (n0 + n1)
    number = HamiltonianTerm("PP", (1,), 0.5, 0.5)
    hop = HamiltonianTerm("PQ", (1, 2), 0.25, 0.25)
    estimate = estimate_error_constant(
        TermList(terms=(number, hop), n_spin_orbitals=2), method="exhaustive"
    )
    assert estimate.value == 0.375
    assert estimate.per_stratum == {
        ("PP", "PQ", "PP"): 0.25,
        ("PQ", "PP", "PQ"): 0.125,
    }


@pytest.mark.parametrize("name", ["heh_plus", "h3_plus", "h2_sto3g"])
def test_per_stratum_matches_independent_triple_loop(name):
    sequence = list(molecule_terms(name))
    reference = exhaustive_error_constant_by_key(
        [t.norm for t in sequence],
        lambda a, b, c: not nested_commutator_vanishes(
            sequence[a], sequence[b], sequence[c]
        ),
        lambda a, b, c: tuple(sequence[i].term_class for i in (a, b, c)),
    )
    estimate = estimate_error_constant(molecule_terms(name), method="exhaustive")
    assert set(estimate.per_stratum) == set(reference)
    for key, contribution in reference.items():
        assert estimate.per_stratum[key] == pytest.approx(contribution, rel=1e-12)


def test_per_stratum_contributions_sum_to_value():
    estimate = estimate_error_constant(molecule_terms("h3_plus"), method="exhaustive")
    assert sum(estimate.per_stratum.values()) == pytest.approx(
        estimate.value, rel=1e-12
    )
    assert all(len(key) == 3 for key in estimate.per_stratum)


def test_vectorized_gamma_matches_scalar_rules():
    terms = molecule_terms("h3_plus")
    sequence = list(terms)
    arrays = _TermArrays(terms)
    rng = np.random.default_rng(3)
    m = len(sequence)
    a = rng.integers(0, m, 5000)
    b = rng.integers(0, m, 5000)
    c = rng.integers(0, m, 5000)
    fast = arrays.gamma(a, b, c)
    for k in range(5000):
        ia, ib, ic = int(a[k]), int(b[k]), int(c[k])
        gate = (ia > ib and ic > ib) or (ib > ia and ic == ia)
        survives = gate and not nested_commutator_vanishes(
            sequence[ia], sequence[ib], sequence[ic]
        )
        slow = (
            4.0 * sequence[ia].norm * sequence[ib].norm * sequence[ic].norm
            if survives
            else 0.0
        )
        assert fast[k] == pytest.approx(slow, rel=1e-15)


@pytest.mark.parametrize("n_spin_orbitals, count, seed", [(8, 30, 8), (40, 30, 9)])
def test_gamma_matches_scalar_rules_on_every_random_triple(
    n_spin_orbitals, count, seed
):
    terms = random_canonical_terms(n_spin_orbitals, count, seed)
    sequence = list(terms)
    a, b, c = (axis.ravel() for axis in np.indices((count,) * 3))
    fast = _TermArrays(terms).gamma(a, b, c)
    for k in np.flatnonzero(((a > b) & (c > b)) | ((b > a) & (c == a))):
        ta, tb, tc = (sequence[int(x[k])] for x in (a, b, c))
        survives = not nested_commutator_vanishes(ta, tb, tc)
        assert fast[k] == (4.0 * ta.norm * tb.norm * tc.norm if survives else 0.0)


def test_empty_term_list_gives_zero():
    empty = TermList(terms=(), n_spin_orbitals=2)
    estimate = estimate_error_constant(empty, method="exhaustive")
    assert estimate.value == 0.0


@pytest.mark.parametrize(
    "name", BUNDLED + ("h5p_chain", "h8_chain", "synthetic", "synthetic-128")
)
def test_term_arrays_match_scalar_packing(name):
    terms = named_terms(name)
    arrays = _TermArrays(terms)
    want = scalar_term_arrays(terms)
    assert arrays.m == want.m
    for field in ("norm", "support", "hop", "diagonal", "hopping", "class_code"):
        got, ref = getattr(arrays, field), getattr(want, field)
        assert got.dtype == ref.dtype, field
        np.testing.assert_array_equal(got, ref, err_msg=field)


# ---------------------------------------------------------------------------
# Stratified sampling
# ---------------------------------------------------------------------------

def _reference_estimate(terms, samples_per_stratum, seed):
    value, std_error, drawn, per_stratum = scalar_stratified(
        _TermArrays(terms), samples_per_stratum, seed
    )
    return ErrorConstantEstimate(
        value=value, method="stratified", std_error=std_error, samples=drawn,
        population=terms.m**3, per_stratum=per_stratum, seed=seed,
    )


@pytest.mark.parametrize(
    "name", ["h6_chain", "h8_chain", "h10_chain", "synthetic-128"]
)
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_stratified_matches_per_stratum_reference(name, seed):
    terms = named_terms(name)
    got = estimate_error_constant(terms, method="stratified", seed=seed)
    want = _reference_estimate(terms, 200, seed)
    assert got == want
    assert repr(got) == repr(want)  # bit for bit


@pytest.mark.parametrize("samples_per_stratum", [1, 2, 50, 5000])
def test_stratified_mixing_enumerated_strata_matches_reference(samples_per_stratum):
    # small budgets sample every stratum; large ones enumerate some or all
    for name in ("heh_plus", "h4_chain"):
        terms = molecule_terms(name)
        got = estimate_error_constant(
            terms, method="stratified", samples_per_stratum=samples_per_stratum, seed=4
        )
        want = _reference_estimate(terms, samples_per_stratum, 4)
        assert repr(got) == repr(want), name


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n_spin_orbitals=st.sampled_from([8, 12, 40]),
    class_sizes=st.lists(st.integers(0, 8), min_size=5, max_size=5),
    term_seed=st.integers(0, 2**16),
    samples_per_stratum=st.integers(1, 300),
    seed=st.integers(0, 2**32),
)
def test_stratified_matches_reference_on_random_term_lists(
    n_spin_orbitals, class_sizes, term_seed, samples_per_stratum, seed
):
    # a zero size leaves a class absent; uneven sizes put some strata under
    # the budget (enumerated) beside sampled ones
    kept = []
    for term in random_canonical_terms(n_spin_orbitals, 40, term_seed):
        size = class_sizes[TERM_CLASSES.index(term.term_class)]
        if sum(t.term_class == term.term_class for t in kept) < size:
            kept.append(term)
    assume(kept)
    terms = TermList(terms=kept, n_spin_orbitals=n_spin_orbitals)
    got = estimate_error_constant(
        terms, method="stratified", samples_per_stratum=samples_per_stratum,
        seed=seed,
    )
    assert repr(got) == repr(_reference_estimate(terms, samples_per_stratum, seed))


def test_stratified_is_exact_when_budget_covers_all_strata():
    terms = molecule_terms("h2_sto3g")
    exact = estimate_error_constant(terms, method="exhaustive")
    stratified = estimate_error_constant(
        terms, method="stratified", samples_per_stratum=10000, seed=0
    )
    assert stratified.value == pytest.approx(exact.value, rel=1e-12)
    assert stratified.std_error == 0.0
    assert stratified.samples == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stratified_estimate_within_three_sigma(seed):
    terms = molecule_terms("h4_chain")
    exact = estimate_error_constant(terms, method="exhaustive")
    sampled = estimate_error_constant(
        terms, method="stratified", samples_per_stratum=200, seed=seed
    )
    assert sampled.std_error > 0
    assert abs(sampled.value - exact.value) <= 3.0 * sampled.std_error


def test_stratified_is_bitwise_deterministic():
    terms = molecule_terms("h4_chain")
    first = estimate_error_constant(terms, method="stratified", seed=7)
    second = estimate_error_constant(terms, method="stratified", seed=7)
    assert first.value == second.value
    assert first.std_error == second.std_error
    assert first.per_stratum == second.per_stratum
    third = estimate_error_constant(terms, method="stratified", seed=8)
    assert third.value != first.value


def test_stratified_contributions_sum_to_value():
    terms = molecule_terms("h4_chain")
    sampled = estimate_error_constant(terms, method="stratified", seed=0)
    assert sum(sampled.per_stratum.values()) == pytest.approx(
        sampled.value, rel=1e-12
    )


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        estimate_error_constant(molecule_terms("h2_sto3g"), method="sobol")


@pytest.mark.parametrize("kwargs, name", [
    ({"samples_per_stratum": 0}, "samples_per_stratum"),
    ({"samples_per_stratum": -3}, "samples_per_stratum"),
    ({"seed": -1}, "seed"),
])
@pytest.mark.parametrize("method", ["exhaustive", "stratified"])
def test_bad_sampling_parameters_are_named(method, kwargs, name):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        estimate_error_constant(molecule_terms("h4_chain"), method=method, **kwargs)


# ---------------------------------------------------------------------------
# Trotter numbers
# ---------------------------------------------------------------------------

def test_trotter_number_rounding():
    assert trotter_number(100.0, 1.0) == 10
    assert trotter_number(101.0, 1.0) == 11
    assert trotter_number(0.0, 1.0) == 1
    assert trotter_number(1e-9, 1.0) == 1


def test_trotter_number_meets_target_on_molecule():
    terms = molecule_terms("h2_sto3g")
    h = estimate_error_constant(terms, method="exhaustive").value
    epsilon = 1e-3
    steps = trotter_number(h, epsilon)
    assert h * (1.0 / steps) ** 2 <= epsilon
    # one step fewer must violate the bound certificate
    assert h * (1.0 / (steps - 1)) ** 2 > epsilon


def test_trotter_number_validates_inputs():
    with pytest.raises(ValueError):
        trotter_number(1.0, 0.0)
    with pytest.raises(ValueError):
        trotter_number(-1.0, 0.5)
