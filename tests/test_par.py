import dataclasses
import math
import pathlib
import random
import types

import pytest

from qsimcost import (
    HamiltonianTerm,
    ParParams,
    TermList,
    enumerate_terms,
    load_molecule,
    nesting_batches,
    nesting_parallelism,
    par_expected_rotations,
    par_factory_time_no_feed_forward,
    par_factory_time_per_rotation,
    par_rotation_factories,
    par_rotation_factories_linear_bound,
    parse_fcidump,
    simulate_par_factory_time,
    simulate_par_rotations,
)

from oracles import (
    brute_force_interval_packing,
    random_canonical_terms,
    scalar_nesting_batches,
    term_support,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
MOLECULES = ("h2_sto3g", "h2_stretched", "heh_plus", "h3_plus", "h4_chain")
CHAINS = ("h5p_chain", "h6_chain", "h8_chain", "h10_chain")

MC_GRID_N = (1, 2, 5, 9)
MC_GRID_M = (1, 2, 10, 100)


def expected_rotations_by_enumeration(n, m):
    # E[min(Geometric(p), m)] summed term by term
    p = 2.0**-n
    total = sum(k * p * (1 - p) ** (k - 1) for k in range(1, m))
    return total + m * (1 - p) ** (m - 1)


def factory_time_by_enumeration(n, c):
    # halt at level k with probability 2^-k after k periods; surviving all
    # n levels costs the n periods plus a direct synthesis
    total = sum(k * 2.0**-k for k in range(1, n + 1))
    return total + 2.0**-n * (n + c)


def test_expected_rotations_hand_values():
    assert par_expected_rotations(ParParams(1, 2)) == pytest.approx(1.5, abs=1e-15)
    assert par_expected_rotations(ParParams(1, 1)) == pytest.approx(1.0, abs=1e-15)
    for n in (1, 3, 7):
        assert par_expected_rotations(ParParams(n, 1)) == pytest.approx(1.0)


def test_expected_rotations_matches_enumeration():
    for n in (1, 2, 3, 4):
        for m in (1, 2, 3, 5, 8, 13):
            closed = par_expected_rotations(ParParams(n, m))
            direct = expected_rotations_by_enumeration(n, m)
            assert closed == pytest.approx(direct, rel=1e-13)


def test_expected_rotations_bounds():
    for n in range(1, 11):
        for m in (1, 2, 5, 10, 100):
            value = par_expected_rotations(ParParams(n, m))
            assert 1.0 <= value <= min(2.0**n, m) + 1e-12


def test_expected_rotations_monotone_in_n_and_m():
    for m in (2, 10, 100):
        values = [par_expected_rotations(ParParams(n, m)) for n in range(1, 12)]
        assert all(b >= a for a, b in zip(values, values[1:]))
    for n in (1, 3, 9):
        values = [par_expected_rotations(ParParams(n, m)) for m in range(1, 40)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_expected_rotations_approaches_cache_size():
    # once 2^-n M << 1 nearly every cached rotation is performed
    for m in (3, 10, 50):
        value = par_expected_rotations(ParParams(30, m))
        assert value == pytest.approx(m, rel=1e-6)


def test_factory_time_hand_values():
    assert par_factory_time_per_rotation(ParParams(2, 1, 10)) == pytest.approx(4.0, abs=1e-15)
    assert par_factory_time_per_rotation(ParParams(9, 1, 199)) == pytest.approx(
        2.0 + 197.0 / 512.0, abs=1e-15
    )
    assert par_factory_time_no_feed_forward(ParParams(9, 1, 199)) == pytest.approx(
        199.0 / 512.0, abs=1e-15
    )


def test_factory_time_matches_enumeration():
    for n in (1, 2, 3, 5, 9):
        for c in (0, 1, 10, 199):
            closed = par_factory_time_per_rotation(ParParams(n, 1, c))
            direct = factory_time_by_enumeration(n, c)
            assert closed == pytest.approx(direct, rel=1e-14)


def test_factory_time_collapses_to_two_plus_tail():
    # the closed form telescopes to 2 + (C - 2) / 2^n
    for n in (1, 2, 6, 12):
        for c in (0, 2, 10, 199):
            value = par_factory_time_per_rotation(ParParams(n, 1, c))
            assert value == pytest.approx(2.0 + (c - 2.0) / 2.0**n, abs=1e-12)


def test_factory_time_large_n_limit():
    assert par_factory_time_per_rotation(ParParams(40, 1, 199)) == pytest.approx(
        2.0, abs=1e-9
    )


def test_rotation_factory_counts():
    assert par_rotation_factories(ParParams(9, 1, 199)) == 1872
    assert par_rotation_factories(ParParams(9, 1, 203)) == 1908
    assert par_rotation_factories(ParParams(1, 1, 1)) == 2
    assert par_rotation_factories_linear_bound(ParParams(9, 1, 199)) == 1791
    for n in (1, 4, 9):
        for c in (1, 50, 199):
            params = ParParams(n, 1, c)
            assert par_rotation_factories(params) >= par_rotation_factories_linear_bound(params)


def test_params_validation():
    with pytest.raises(ValueError, match="n_levels"):
        ParParams(0, 1, 1)
    with pytest.raises(ValueError, match="rotations_cached"):
        ParParams(1, 0, 1)
    with pytest.raises(ValueError, match="synthesis_cost"):
        ParParams(1, 1, -1)


def test_monte_carlo_rotations_within_three_se():
    for n in MC_GRID_N:
        for m in MC_GRID_M:
            params = ParParams(n, m)
            mean, se = simulate_par_rotations(params, trials=10**6, seed=12)
            exact = par_expected_rotations(params)
            if se == 0.0:
                # degenerate configurations always perform the same count
                assert mean == exact
            else:
                assert abs(mean - exact) <= 3.0 * se


def test_monte_carlo_factory_time_within_three_se():
    for n, c in ((1, 1), (2, 10), (5, 40), (9, 199)):
        params = ParParams(n, 1, c)
        mean, se = simulate_par_factory_time(params, trials=10**6, seed=13)
        exact = par_factory_time_per_rotation(params)
        assert abs(mean - exact) <= 3.0 * se


def test_monte_carlo_deterministic_across_runs():
    params = ParParams(5, 100)
    first = simulate_par_rotations(params, trials=10**5, seed=21)
    second = simulate_par_rotations(params, trials=10**5, seed=21)
    assert first == second
    shifted = simulate_par_rotations(params, trials=10**5, seed=22)
    assert shifted != first


def test_independent_scalar_simulation_agrees():
    # scalar coin-flip process written without the vectorized helpers:
    # each teleportation attempt fails with probability 1/2, a rotation
    # hard-fails after n consecutive failures, the batch stops at the
    # first hard failure or after m rotations
    n, m, trials = 2, 10, 20000
    rng = random.Random(99)
    counts = []
    for _ in range(trials):
        performed = 0
        while performed < m:
            performed += 1
            if all(rng.random() < 0.5 for _ in range(n)):
                break
        counts.append(performed)
    mean = sum(counts) / trials
    var = sum((x - mean) ** 2 for x in counts) / (trials - 1)
    se = math.sqrt(var / trials)
    assert abs(mean - par_expected_rotations(ParParams(n, m))) <= 4.0 * se


def pq(p, q, weight=0.1):
    return HamiltonianTerm(
        term_class="PQ", spin_orbitals=(p, q), coefficient=weight, norm=abs(weight)
    )


def pp(p, weight=0.1):
    return HamiltonianTerm(
        term_class="PP", spin_orbitals=(p,), coefficient=weight, norm=abs(weight)
    )


def test_nesting_empty_terms():
    empty = TermList(terms=(), n_spin_orbitals=4, n_electrons=2)
    assert nesting_batches(empty) == []
    assert nesting_parallelism(empty) == 1.0


def test_nesting_all_conflicting():
    terms = TermList(terms=(pq(1, 3), pq(1, 5), pq(1, 7)), n_spin_orbitals=8)
    assert nesting_batches(terms) == [1, 1, 1]
    assert nesting_parallelism(terms) == 1.0


def test_nesting_fully_disjoint_reaches_half_register():
    # 6 two-orbital terms tile 12 spin orbitals: one batch, parallelism N/2
    terms = TermList(
        terms=[pq(2 * k + 1, 2 * k + 2) for k in range(6)], n_spin_orbitals=12
    )
    assert nesting_batches(terms) == [6]
    assert nesting_parallelism(terms) == 6.0


def test_nesting_capped_at_half_register():
    # single-orbital terms would pack N per batch; the cap holds it to N/2
    terms = TermList(terms=[pp(k) for k in range(1, 5)], n_spin_orbitals=4)
    assert nesting_batches(terms) == [4]
    assert nesting_parallelism(terms) == 2.0


def test_nesting_batches_respect_order():
    # the conflicting term closes the batch even though later terms would fit
    terms = TermList(terms=(pq(1, 2), pq(3, 4), pq(3, 6), pq(7, 8)),
                     n_spin_orbitals=8)
    assert nesting_batches(terms) == [2, 2]


def test_nesting_greedy_matches_reference_on_molecule():
    terms = enumerate_terms(load_molecule("h4_chain"))
    sizes = nesting_batches(terms)
    assert sizes == scalar_nesting_batches(terms)
    assert sum(sizes) == len(terms)
    assert nesting_parallelism(terms) >= 1.0


@pytest.mark.parametrize("source", [*MOLECULES, *CHAINS, 65, 128])
def test_nesting_batches_match_the_support_set_reference(source):
    # integer sources are random lists over registers past one 64-bit word
    if source in MOLECULES:
        terms = enumerate_terms(load_molecule(source))
    elif source in CHAINS:
        terms = enumerate_terms(parse_fcidump(FIXTURES / f"{source}.fcidump"))
    else:
        terms = random_canonical_terms(source, 300, seed=source)
        assert terms.index.max() > 64
    want = scalar_nesting_batches(terms)
    assert nesting_batches(terms) == want
    assert sum(want) == len(terms)


def test_nesting_greedy_is_optimal_interval_packing():
    # greedy consecutive packing is provably optimal; cross-check against
    # the exhaustive cut-placement search on short random term sequences
    rng = random.Random(7)
    for _ in range(25):
        supports = []
        for _ in range(rng.randint(1, 12)):
            a = rng.randint(1, 20)
            b = rng.randint(1, 20)
            while b == a:
                b = rng.randint(1, 20)
            supports.append(frozenset((a, b)))
        sizes = scalar_nesting_batches(
            types.SimpleNamespace(spin_orbitals=tuple(s)) for s in supports
        )
        assert len(sizes) == brute_force_interval_packing(supports)


def relabeled(term, label):
    """term with every spin orbital so renamed label[so], put back in
    canonical form: each pair ascending, the smaller pair first."""
    idx = [label[so] for so in term.spin_orbitals]
    pairs = sorted(sorted(idx[i:i + 2]) for i in range(0, len(idx), 2))
    return dataclasses.replace(term, spin_orbitals=sum(map(tuple, pairs), ()))


def test_nesting_relabeling_invariance():
    terms = enumerate_terms(load_molecule("h2_stretched"))
    n_so = terms.n_spin_orbitals
    perm = {old: new for new, old in enumerate(random.Random(3).sample(range(1, n_so + 1), n_so), start=1)}
    relabeled_terms = TermList(
        terms=[relabeled(t, perm) for t in terms], n_spin_orbitals=n_so
    )
    assert [term_support(t) for t in relabeled_terms] == [
        frozenset(perm[so] for so in term_support(t)) for t in terms
    ]
    assert nesting_batches(relabeled_terms) == nesting_batches(terms)
    assert nesting_parallelism(relabeled_terms) == pytest.approx(
        nesting_parallelism(terms)
    )
