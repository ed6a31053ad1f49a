"""A TermList's row order is the step order of every term consumer.

Each consumer (the exhaustive h, the Clifford count, nesting and the exact
oracle) is run on term lists rebuilt in other orders and checked against
its scalar reference walking the same rows in the same order.
"""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsimcost import (
    clifford_count_per_step,
    enumerate_terms,
    estimate_error_constant,
    load_molecule,
    nesting_batches,
    parse_fcidump,
    strang_error_scan,
)

from oracles import (
    assert_rows_match,
    exhaustive_error_constant_by_key,
    nested_commutator_vanishes,
    reference_strang_scan,
    reordered,
    scalar_clifford_count_per_step,
    scalar_nesting_batches,
    step_orders,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
SYSTEMS = ("h2_sto3g", "h2_stretched", "heh_plus", "h3_plus", "h4_chain",
           "h5p_chain")
ORDERS = ("shuffled", "diagonal-first", "reversed")
GRID = np.geomspace(1e-3, 0.2, 20)
# the scalar triple loop runs in under 0.1 s up to h3_plus's 43 terms
TRIPLE_LOOP_TERMS = 50


def lexicographic_terms(name):
    if name == "h5p_chain":
        return enumerate_terms(parse_fcidump(FIXTURES / f"{name}.fcidump"))
    return enumerate_terms(load_molecule(name))


def terms_in_order(name, order):
    terms = lexicographic_terms(name)
    rows = step_orders(terms, seed=7)[order]
    assert rows != sorted(rows)  # every fixed order moves some row
    return reordered(terms, rows)


def triple_loop_by_class(terms):
    """The exhaustive h of terms in row order, split by class triple."""
    rows = terms.terms
    return exhaustive_error_constant_by_key(
        [t.norm for t in rows],
        lambda a, b, c: not nested_commutator_vanishes(rows[a], rows[b], rows[c]),
        lambda a, b, c: tuple(rows[i].term_class for i in (a, b, c)),
    )


def assert_matches_scalar_references(terms):
    """h and its strata, the Clifford count and the nesting batches of terms
    equal their references walking the same rows."""
    if terms.m <= TRIPLE_LOOP_TERMS:
        estimate = estimate_error_constant(terms, method="exhaustive")
        reference = triple_loop_by_class(terms)
        assert estimate.value == pytest.approx(sum(reference.values()), rel=1e-12)
        assert set(estimate.per_stratum) == set(reference)
        for key, contribution in reference.items():
            assert estimate.per_stratum[key] == pytest.approx(
                contribution, rel=1e-12
            )
    assert clifford_count_per_step(terms) == scalar_clifford_count_per_step(terms)
    assert nesting_batches(terms) == scalar_nesting_batches(terms)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", SYSTEMS)
def test_consumers_match_scalar_references_in_any_order(name, order):
    assert_matches_scalar_references(terms_in_order(name, order))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", SYSTEMS)
def test_oracle_rows_and_bound_hold_in_any_order(name, order):
    terms = terms_in_order(name, order)
    rows = strang_error_scan(terms, GRID)
    assert_rows_match(rows, reference_strang_scan(terms, GRID))
    h = estimate_error_constant(terms, method="exhaustive").value
    for row in rows:
        assert not row.phase_wrapped
        assert h * row.t**2 >= row.delta_e


def test_diagonal_first_lowers_h():
    # the order is a cost lever: diagonal terms first shrink h by about
    # a fifth on the bundled molecules
    ratios = {
        name: estimate_error_constant(terms_in_order(name, "diagonal-first")).value
        / estimate_error_constant(lexicographic_terms(name)).value
        for name in ("h2_sto3g", "heh_plus", "h3_plus", "h4_chain")
    }
    assert ratios == pytest.approx(
        {"h2_sto3g": 0.773, "heh_plus": 0.820, "h3_plus": 0.759,
         "h4_chain": 0.801},
        abs=5e-4,
    )


def permuted(name):
    terms = lexicographic_terms(name)
    return st.permutations(range(terms.m)).map(
        lambda order: reordered(terms, order)
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(st.one_of(permuted("h2_sto3g"), permuted("heh_plus")))
def test_any_permutation_matches_scalar_references(terms):
    assert_matches_scalar_references(terms)
    ts = [0.01, 0.05, 0.2]
    rows = strang_error_scan(terms, ts)
    assert_rows_match(rows, reference_strang_scan(terms, ts))
    h = estimate_error_constant(terms, method="exhaustive").value
    assert all(h * row.t**2 >= row.delta_e for row in rows)
