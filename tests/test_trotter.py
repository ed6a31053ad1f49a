import math
import pathlib

import numpy as np
import pytest

from qsimcost import (
    HamiltonianTerm,
    TermList,
    TrotterNumberModel,
    chebyshev_samples,
    commutator_vanishes,
    enumerate_terms,
    estimate_error_constant,
    load_molecule,
    nested_commutator_vanishes,
    parse_fcidump,
    sampling_variance,
    term_matrix,
    trotter_number,
    trotter_number_model,
)
from qsimcost.trotter import _outer_vanishes, _TermArrays

from oracles import exhaustive_error_constant, exhaustive_error_constant_by_key

H5P_CHAIN = (
    pathlib.Path(__file__).resolve().parents[1]
    / "perfbench" / "fixtures" / "h5p_chain.fcidump"
)

# frozen exhaustive error constants of the bundled molecules (Hartree^3)
H_EXACT = {
    "h2_sto3g": 57.981833052,
    "heh_plus": 350.100506558,
    "h3_plus": 839.585652663,
    "h4_chain": 7075.297441995,
}


def molecule_terms(name):
    return enumerate_terms(load_molecule(name))


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
            if not (ti.support & tj.support):
                disjoint_pairs += 1
            elif ti.is_diagonal and tj.is_diagonal:
                both_diagonal += 1
            elif (
                ti.term_class in ("PQ", "PQQR")
                and tj.term_class in ("PQ", "PQQR")
                and ti.hop_endpoints == tj.hop_endpoints
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
                if _outer_vanishes(ta, tb, tc):
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


@pytest.mark.parametrize("name", ["heh_plus", "h3_plus"])
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


def test_empty_term_list_gives_zero():
    empty = TermList(terms=(), n_spin_orbitals=2)
    estimate = estimate_error_constant(empty, method="exhaustive")
    assert estimate.value == 0.0


def test_register_too_wide_for_masks():
    term = HamiltonianTerm("PP", (65,), 1.0, 1.0)
    wide = TermList(terms=(term,), n_spin_orbitals=65)
    with pytest.raises(ValueError, match="64-bit"):
        estimate_error_constant(wide)


# ---------------------------------------------------------------------------
# Stratified sampling
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Uniform sampling and the Chebyshev bound
# ---------------------------------------------------------------------------

def test_uniform_requires_sample_count():
    with pytest.raises(ValueError, match="sample count"):
        estimate_error_constant(molecule_terms("h2_sto3g"), method="uniform")


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        estimate_error_constant(molecule_terms("h2_sto3g"), method="sobol")


def test_chebyshev_sample_count_guarantee():
    # with n from the bound, at least 75 of 100 independent uniform trials
    # must land within the target absolute error
    terms = molecule_terms("h2_sto3g")
    exact = estimate_error_constant(terms, method="exhaustive").value
    variance = sampling_variance(terms)
    target = 0.10 * exact
    n = chebyshev_samples(variance, terms.m**3, target, failure_probability=0.25)
    hits = 0
    for seed in range(100):
        estimate = estimate_error_constant(
            terms, method="uniform", samples=n, seed=seed
        )
        hits += abs(estimate.value - exact) <= target
    assert hits >= 75


def test_chebyshev_samples_scaling():
    base = chebyshev_samples(2.0, 1000, 0.5)
    assert base == math.ceil(1000**2 * 2.0 / (0.25 * 0.25))
    assert chebyshev_samples(2.0, 1000, 1.0) == math.ceil(base / 4)
    assert chebyshev_samples(2.0, 1000, 0.5, failure_probability=0.5) == math.ceil(
        base / 2
    )
    assert chebyshev_samples(0.0, 1000, 0.5) == 1


def test_chebyshev_samples_validates_inputs():
    with pytest.raises(ValueError):
        chebyshev_samples(1.0, 10, 0.0)
    with pytest.raises(ValueError):
        chebyshev_samples(1.0, 10, 0.5, failure_probability=1.5)
    with pytest.raises(ValueError):
        chebyshev_samples(-1.0, 10, 0.5)


def test_sampling_variance_is_population_variance():
    terms = molecule_terms("h2_sto3g")
    arrays = _TermArrays(terms)
    m = terms.m
    values = []
    for a in range(m):
        for b in range(m):
            for c in range(m):
                values.append(
                    float(arrays.gamma(np.array([a]), np.array([b]), np.array([c]))[0])
                )
    assert sampling_variance(terms) == pytest.approx(np.var(values), rel=1e-10)


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


def test_trotter_number_model_power_law():
    model = TrotterNumberModel(reference_trotter_number=1000, reference_n=100)
    assert trotter_number_model(100, model) == 1000
    assert trotter_number_model(200, model) == math.ceil(1000 * 2**2.5)
    shallow = TrotterNumberModel(
        reference_trotter_number=1000, reference_n=100, exponent=1.0
    )
    assert trotter_number_model(50, shallow) == 500


def test_trotter_number_model_validates_inputs():
    with pytest.raises(ValueError):
        TrotterNumberModel(reference_trotter_number=0, reference_n=10)
    model = TrotterNumberModel(reference_trotter_number=10, reference_n=10)
    with pytest.raises(ValueError):
        trotter_number_model(0, model)
