"""Independent reference constructions used to validate the package.

Everything here is deliberately written from raw definitions, without using
the package's term enumeration, matrix builder, or cost formulas:

* ket-algebra Hamiltonian construction straight from spatial integrals
  (occupation-number vectors plus elementary creation/annihilation moves),
* full configuration interaction energies and ground states from it,
* an exhaustive triple-sum error-constant evaluator, whole or per key,
* a literal gate-sequence constructor for the Clifford cost model,
* the former scalar budget search (approx_optimal_budget and
  optimize_budget as per-point Python loops), the reference for the
  vectorized optimizer. It leans on the package: it builds ErrorBudget
  objects and scores points with the scalar evaluate_cost, whose formula
  test_costs.py pins against 50-digit arithmetic.
* the former per-term loops of the FCIDUMP term path, the reference for
  its array kernels: the enumeration loops, the Clifford count over
  jw_chain ladders, the scalar vanishing rules and the mask packing loop
  of the triple evaluator, the per-stratum sampling loop and the nesting
  packer over support sets. These also lean on the package: they
  build HamiltonianTerm and TermList objects, read the public jw_chain
  and ladder properties, and score triples with the evaluator's gamma.
  random_canonical_terms draws synthetic term lists of any register width
  for them.
* the former per-term set-up of the Strang oracle, the reference for its
  action table: one ScalarTermAction per term, built operator by
  operator, the dense matrix assembled one term at a time, the
  spin-flip test term by term, and the connected components of the
  terms' state graph by breadth-first walks.
* the former per-step Strang oracle, the reference for the batched scan:
  each step unitary as its own product of term exponentials, a complex
  np.linalg.eig and the maximal-overlap selection. It makes the package's
  sector and component choice with the scalar set-up above (or, on
  request, the former Sz-block choice), and replays the chosen block's
  actions from the terms instead of deriving them from the sector's.

Spin-orbital convention matches the package contract: spatial p (1-based)
owns spin orbitals 2p-1 (up) and 2p (down). Internally this module uses
0-based bit positions: bit 2(p-1) is (p, up), bit 2(p-1)+1 is (p, down).
"""

from __future__ import annotations

import collections
import itertools
import math
import types

import numpy as np

from qsimcost import (
    CliffordCostTable,
    CliffordStepCount,
    ErrorBudget,
    HamiltonianTerm,
    TermList,
    evaluate_cost,
)
from qsimcost.hamiltonian import TERM_CLASSES
from qsimcost.oracle import (
    _DEGENERACY_TOL,
    DEFAULT_QUBIT_CAP,
    TrotterExactReport,
    _basis_states,
    _check_cap,
    _resolve_sector,
    _twice_sz,
)
from qsimcost.trotter import _strata


def apply_annihilate(state, orb):
    """a_orb |state>: returns (sign, new_state) or None. 0-based orbital."""
    if not (state >> orb) & 1:
        return None
    below = state & ((1 << orb) - 1)
    sign = -1 if bin(below).count("1") % 2 else 1
    return sign, state & ~(1 << orb)


def apply_create(state, orb):
    """a+_orb |state>: returns (sign, new_state) or None. 0-based orbital."""
    if (state >> orb) & 1:
        return None
    below = state & ((1 << orb) - 1)
    sign = -1 if bin(below).count("1") % 2 else 1
    return sign, state | (1 << orb)


def apply_string(state, ops):
    """Apply (kind, orb) pairs right to left; kind is '+' or '-'."""
    sign = 1
    for kind, orb in reversed(ops):
        step = apply_create(state, orb) if kind == "+" else apply_annihilate(state, orb)
        if step is None:
            return None
        s, state = step
        sign *= s
    return sign, state


def hamiltonian_from_integrals(one_body, two_body, core=0.0):
    """Dense Fock-space Hamiltonian from spatial chemist integrals.

    one_body[p, q] and two_body[p, q, r, s] = (pq|rs) are 0-based spatial
    arrays. Returns a (2^n_so, 2^n_so) real matrix including the core shift.
    """
    n_sp = one_body.shape[0]
    n_so = 2 * n_sp
    dim = 1 << n_so
    h = np.zeros((dim, dim))
    h[np.diag_indices(dim)] += core

    def so(p, spin):
        return 2 * p + spin

    for x in range(dim):
        for p in range(n_sp):
            for q in range(n_sp):
                if one_body[p, q] == 0.0:
                    continue
                for spin in (0, 1):
                    res = apply_string(x, [("+", so(p, spin)), ("-", so(q, spin))])
                    if res is not None:
                        sign, y = res
                        h[y, x] += sign * one_body[p, q]
        for p in range(n_sp):
            for q in range(n_sp):
                for r in range(n_sp):
                    for s in range(n_sp):
                        v = two_body[p, q, r, s]
                        if v == 0.0:
                            continue
                        for sp1 in (0, 1):
                            for sp2 in (0, 1):
                                res = apply_string(
                                    x,
                                    [
                                        ("+", so(p, sp1)),
                                        ("+", so(r, sp2)),
                                        ("-", so(s, sp2)),
                                        ("-", so(q, sp1)),
                                    ],
                                )
                                if res is not None:
                                    sign, y = res
                                    h[y, x] += 0.5 * sign * v
    return h


def sector_indices(n_so, n_electrons):
    return [x for x in range(1 << n_so) if bin(x).count("1") == n_electrons]


def fci_ground(one_body, two_body, core, n_electrons):
    """(energy, ground vector over the particle sector, sector index list)."""
    n_so = 2 * one_body.shape[0]
    h = hamiltonian_from_integrals(one_body, two_body, core)
    idx = sector_indices(n_so, n_electrons)
    hs = h[np.ix_(idx, idx)]
    evals, evecs = np.linalg.eigh(hs)
    return float(evals[0]), evecs[:, 0], idx


def hartree_fock_state_index(n_electrons):
    """Bit pattern occupying the n_electrons lowest spin orbitals."""
    return (1 << n_electrons) - 1


def hf_overlap(one_body, two_body, core, n_electrons, degeneracy_tol=1e-10):
    """Squared overlap of the FCI ground state with the HF determinant."""
    n_so = 2 * one_body.shape[0]
    h = hamiltonian_from_integrals(one_body, two_body, core)
    idx = sector_indices(n_so, n_electrons)
    hs = h[np.ix_(idx, idx)]
    evals, evecs = np.linalg.eigh(hs)
    hf = idx.index(hartree_fock_state_index(n_electrons))
    mask = evals - evals[0] <= degeneracy_tol
    return float(np.sum(np.abs(evecs[hf, mask]) ** 2))


def exhaustive_error_constant(norms, orders, nonzero_fn):
    """Deterministic triple sum of the product-formula error bound.

    norms: per-term norm array. orders: global positions (0-based ints).
    nonzero_fn(a, b, c): whether the double commutator [a, [b, c]] survives.
    Returns the summed bound coefficient (the t^2 prefactor).
    """
    partial = exhaustive_error_constant_by_key(
        norms, nonzero_fn, lambda a, b, c: None
    )
    return partial.get(None, 0.0)


def exhaustive_error_constant_by_key(norms, nonzero_fn, key_fn):
    """The triple sum of exhaustive_error_constant split by key_fn(a, b, c).

    Returns a dict key -> partial sum, holding only keys of surviving
    triples.
    """
    m = len(norms)
    partial = {}
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if a > b and c > b:
                    pass
                elif b > a and c == a:
                    pass
                else:
                    continue
                if nonzero_fn(a, b, c):
                    key = key_fn(a, b, c)
                    partial[key] = (
                        partial.get(key, 0.0) + 4.0 * norms[a] * norms[b] * norms[c]
                    )
    return partial


def brute_force_interval_packing(supports):
    """Minimal number of consecutive batches with pairwise-disjoint supports.

    supports: list of frozensets. Exhaustive over all cut placements, so only
    usable for small inputs (<= ~12 terms).
    """
    n = len(supports)
    if n == 0:
        return 0

    def valid(i, j):
        seen = set()
        for k in range(i, j):
            if seen & supports[k]:
                return False
            seen |= supports[k]
        return True

    best = n
    for cuts in range(n):
        for positions in itertools.combinations(range(1, n), cuts):
            bounds = [0, *positions, n]
            if all(valid(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)):
                best = min(best, cuts + 1)
                break
        if best == cuts + 1:
            break
    return best


def scalar_cost_smooth(m_terms, e1, e2, e3, epsilon_total, beta, pe, synth):
    """The smooth cost formula at one point, in scalar math."""
    if min(e1, e2, e3) <= 0:
        return math.inf
    steps = beta * math.sqrt(epsilon_total / e2)
    log_arg = 2.0 * m_terms * steps / e3
    if log_arg <= 1.0:
        return math.inf
    per_rotation = synth.t_per_rotation(math.log2(log_arg))
    return 2.0 * m_terms * (pe.alpha / e1) * steps * per_rotation


def _budget_or_none(epsilon_total, e1, e2, e3, combination):
    try:
        return ErrorBudget(
            epsilon_total=epsilon_total,
            epsilon1_pe=e1,
            epsilon2_trotter=e2,
            epsilon3_synth=e3,
            combination=combination,
        )
    except ValueError:
        return None


def _true_cost(m_terms, budget, beta, pe, synth):
    if budget is None:
        return math.inf
    try:
        return evaluate_cost(m_terms, budget, beta, pe, synth).t_count
    except ValueError:
        return math.inf


def _e2_from_rule(epsilon_total, e1, e3, combination):
    if combination == "worst_case":
        return epsilon_total - e1 - e3
    return epsilon_total - math.hypot(e1, e3)


def scalar_approx_optimal_budget(m_terms, epsilon_total, beta, pe, synth,
                                 combination="worst_case", grid=120):
    """Seed grid of the budget search, one smooth-cost call per point."""
    lo = epsilon_total * 1e-9
    hi = epsilon_total * (1.0 - 1e-9)
    best = (math.inf, None)
    if combination == "worst_case":
        for e3 in np.geomspace(lo, hi, grid):
            rest = epsilon_total - e3
            if rest <= 0:
                continue
            e1, e2 = 2.0 * rest / 3.0, rest / 3.0
            value = scalar_cost_smooth(
                m_terms, e1, e2, e3, epsilon_total, beta, pe, synth
            )
            if value < best[0]:
                best = (value, (e1, e2, e3))
    else:
        for e1 in np.geomspace(lo, hi, grid):
            for e3 in np.geomspace(lo, hi, grid):
                e2 = _e2_from_rule(epsilon_total, e1, e3, combination)
                if e2 <= 0:
                    continue
                value = scalar_cost_smooth(
                    m_terms, e1, e2, e3, epsilon_total, beta, pe, synth
                )
                if value < best[0]:
                    best = (value, (e1, e2, e3))
    if best[1] is None:
        raise ValueError("no feasible budget found; epsilon_total too small")
    e1, e2, e3 = best[1]
    return _budget_or_none(epsilon_total, e1, e2, e3, combination)


def scalar_optimize_budget(m_terms, epsilon_total, beta, pe, synth,
                           combination="worst_case"):
    """Budget search scoring every grid point with one evaluate_cost call."""
    if epsilon_total <= 0:
        raise ValueError(f"epsilon_total must be positive, got {epsilon_total}")
    if not (math.isfinite(m_terms) and m_terms >= 1):
        raise ValueError(f"m_terms must be finite and >= 1, got {m_terms}")
    if not (math.isfinite(beta) and beta >= 1):
        raise ValueError(f"beta must be finite and >= 1, got {beta}")

    def score(e1, e3):
        e2 = _e2_from_rule(epsilon_total, e1, e3, combination)
        if e2 <= 0:
            return math.inf, None
        budget = _budget_or_none(epsilon_total, e1, e2, e3, combination)
        return _true_cost(m_terms, budget, beta, pe, synth), budget

    candidates = []
    seed = scalar_approx_optimal_budget(
        m_terms, epsilon_total, beta, pe, synth, combination
    )
    if seed is not None:
        candidates.append((seed.epsilon1_pe, seed.epsilon3_synth))
    if combination == "worst_case":
        third = epsilon_total / 3.0
        candidates.append((third, third))
    else:
        candidates.append((epsilon_total / (2.0 * math.sqrt(2.0)),) * 2)

    best_cost, best_budget, best_point = math.inf, None, None
    for e1, e3 in candidates:
        cost, budget = score(e1, e3)
        if cost < best_cost:
            best_cost, best_budget, best_point = cost, budget, (e1, e3)
    if best_budget is None:
        raise ValueError("no feasible budget found; epsilon_total too small")

    for span in (30.0, 6.0, 1.6, 1.15, 1.03):
        e1_c, e3_c = best_point
        grid1 = np.geomspace(e1_c / span, min(e1_c * span, epsilon_total), 17)
        grid3 = np.geomspace(e3_c / span, min(e3_c * span, epsilon_total), 17)
        for e1 in grid1:
            for e3 in grid3:
                cost, budget = score(float(e1), float(e3))
                if cost < best_cost:
                    best_cost, best_budget, best_point = cost, budget, (e1, e3)
    return best_budget


# ---------------------------------------------------------------------------
# Scalar term path (enumeration, Clifford count, mask packing, stratified h)
# ---------------------------------------------------------------------------

def _spatial(so):
    """Spatial orbital (1-based) owning spin orbital so (1-based)."""
    return (so + 1) // 2


def _spin(so):
    """0 for spin up (odd index), 1 for spin down (even index)."""
    return (so + 1) % 2


def _classify(creation, annihilation):
    distinct = len(set(creation) | set(annihilation))
    if distinct == 2:
        return "PQQP"
    if distinct == 3:
        return "PQQR"
    return "PQRS"


def random_canonical_terms(n_spin_orbitals, count, seed):
    """TermList of count distinct canonical terms cycling through the classes.

    Indices are drawn uniformly from 1..n_spin_orbitals, so chains span the
    whole register; coefficients are uniform in [-1, 1].

    Raises:
        ValueError: the register has fewer distinct canonical terms of some
            class than the cycle assigns to it.
    """
    n = n_spin_orbitals
    # distinct canonical index tuples per class: a PQQR term is its shared
    # index and the pair it hops between; a PQRS term is a split of four
    # indices into two pairs
    distinct = {
        "PP": n, "PQ": math.comb(n, 2), "PQQP": math.comb(n, 2),
        "PQQR": n * math.comb(n - 1, 2), "PQRS": 3 * math.comb(n, 4),
    }
    for first, term_class in enumerate(TERM_CLASSES):
        wanted = len(range(first, count, len(TERM_CLASSES)))
        if wanted > distinct[term_class]:
            raise ValueError(
                f"{count} terms need {wanted} distinct {term_class} terms; "
                f"{n} spin orbitals have {distinct[term_class]}"
            )
    rng = np.random.default_rng(seed)
    terms = {}
    while len(terms) < count:
        term_class = TERM_CLASSES[len(terms) % len(TERM_CLASSES)]
        draw = sorted(int(x) for x in rng.choice(
            np.arange(1, n_spin_orbitals + 1),
            {"PP": 1, "PQ": 2, "PQQP": 2, "PQQR": 3, "PQRS": 4}[term_class],
            replace=False,
        ))
        if term_class in ("PP", "PQ"):
            idx = tuple(draw)
        elif term_class == "PQQP":
            idx = (*draw, *draw)
        else:
            if term_class == "PQQR":
                shared = draw.pop(int(rng.integers(3)))
                draw = [shared, draw[0], shared, draw[1]]
            else:
                draw = [int(x) for x in rng.permutation(draw)]
            # each pair ascending, the smaller pair is the creation pair
            pairs = sorted([tuple(sorted(draw[:2])), tuple(sorted(draw[2:]))])
            idx = (*pairs[0], *pairs[1])
        coefficient = float(rng.uniform(-1.0, 1.0))
        terms[idx] = HamiltonianTerm(term_class, idx, coefficient, abs(coefficient))
    ordered = sorted(terms.values(), key=lambda term: term.spin_orbitals)
    return TermList(terms=tuple(ordered), n_spin_orbitals=n_spin_orbitals)


def scalar_enumerate_terms(table, drop_threshold=1e-10, norm_multipliers=None):
    """enumerate_terms with the two-body part as a loop over pair pairs."""
    multipliers = {c: 1.0 for c in TERM_CLASSES}
    if norm_multipliers:
        unknown = set(norm_multipliers) - set(TERM_CLASSES)
        if unknown:
            raise ValueError(f"unknown term classes in norm_multipliers: {sorted(unknown)}")
        multipliers.update(norm_multipliers)

    n_sp = table.n_spatial
    n_so = 2 * n_sp
    h1 = table.one_body
    v2 = table.two_body
    terms = []

    def add(term_class, spin_orbitals, coefficient):
        if abs(coefficient) <= drop_threshold:
            return
        terms.append(
            HamiltonianTerm(
                term_class=term_class,
                spin_orbitals=tuple(spin_orbitals),
                coefficient=float(coefficient),
                norm=abs(float(coefficient)) * multipliers[term_class],
            )
        )

    # one-body terms: h_pq is spin diagonal, so both indices share a spin
    for p in range(1, n_sp + 1):
        for q in range(p, n_sp + 1):
            value = h1[p - 1, q - 1]
            if value == 0.0:
                continue
            for spin_offset in (1, 2):  # 2p-1 up, 2p down
                i = 2 * p - 2 + spin_offset
                j = 2 * q - 2 + spin_offset
                if i == j:
                    add("PP", (i,), value)
                else:
                    add("PQ", (i, j), value)

    # two-body terms over creation pairs (i < k) and annihilation pairs
    # (j < l); the chemist integral pairs i with j and k with l
    def v_so(i, j, k, l):
        if _spin(i) != _spin(j) or _spin(k) != _spin(l):
            return 0.0
        return v2[_spatial(i) - 1, _spatial(j) - 1, _spatial(k) - 1, _spatial(l) - 1]

    pairs = [(i, k) for i in range(1, n_so + 1) for k in range(i + 1, n_so + 1)]
    spin_sig = {pair: (_spin(pair[0]) + _spin(pair[1])) for pair in pairs}
    for ci, (i, k) in enumerate(pairs):
        for j, l in pairs[ci:]:
            # creation (i, k) paired with annihilation (j, l); the mirrored
            # orientation is the Hermitian conjugate and is not revisited
            if spin_sig[(i, k)] != spin_sig[(j, l)]:
                continue
            w = v_so(i, j, k, l) - v_so(i, l, k, j)
            if w == 0.0:
                continue
            add(_classify((i, k), (j, l)), (i, k, j, l), w)

    terms.sort(key=lambda term: term.spin_orbitals)
    return TermList(
        terms=tuple(terms),
        n_spin_orbitals=n_so,
        n_electrons=table.n_electrons,
        core_energy=table.core_energy,
    )


def _ladder_common_prefix(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def scalar_clifford_count_per_step(terms, cost_table=None):
    """clifford_count_per_step walking the forward-plus-reverse sequence."""
    table = cost_table or CliffordCostTable()
    sequence = list(terms)
    if not sequence:
        return CliffordStepCount(entangling=0, basis_changes=0, rotations=0)
    sequence = sequence + sequence[::-1]

    entangling = 0
    basis = 0
    for term in sequence:
        w = len(term.jw_chain)
        entangling += table.entangling_per_rung * (w - 1)
        if term.is_diagonal:
            basis += table.diagonal_basis_changes * w
        else:
            basis += table.basis_changes_per_qubit * w
    if table.cancel_adjacent_ladders:
        for prev, cur in zip(sequence[:-1], sequence[1:]):
            entangling -= table.entangling_per_rung * _ladder_common_prefix(
                prev.ladder, cur.ladder
            )
    return CliffordStepCount(
        entangling=entangling,
        basis_changes=basis,
        rotations=2 * len(terms),
    )


def commutator_vanishes(term_b, term_c):
    """True when [H_b, H_c] = 0 is certified by rules 1, 3, or 4."""
    if not (term_b.support & term_c.support):
        return True
    if term_b.is_diagonal and term_c.is_diagonal:
        return True
    hopping = ("PQ", "PQQR")
    return (
        term_b.term_class in hopping
        and term_c.term_class in hopping
        and term_b.hop_endpoints == term_c.hop_endpoints
    )


def outer_vanishes(term_a, term_b, term_c):
    """Rules 1-4 on [H_a, [H_b, H_c]] without the Jacobi rearrangement."""
    if commutator_vanishes(term_b, term_c):
        return True
    return not (term_a.support & (term_b.support | term_c.support))


def nested_commutator_vanishes(term_a, term_b, term_c):
    """True when [H_a, [H_b, H_c]] = 0 is certified by rules 1-5."""
    if outer_vanishes(term_a, term_b, term_c):
        return True
    return outer_vanishes(term_b, term_c, term_a) and outer_vanishes(
        term_c, term_a, term_b
    )


def scalar_term_arrays(terms):
    """The triple evaluator's per-term arrays, packed one term at a time."""
    m = len(terms)
    arrays = types.SimpleNamespace(m=m)
    arrays.norm = np.array([t.norm for t in terms], dtype=float)
    arrays.support = np.zeros(m, dtype=np.uint64)
    arrays.hop = np.zeros(m, dtype=np.uint64)
    arrays.diagonal = np.zeros(m, dtype=bool)
    arrays.hopping = np.zeros(m, dtype=bool)
    arrays.class_code = np.zeros(m, dtype=np.int8)
    class_index = {c: i for i, c in enumerate(TERM_CLASSES)}
    for i, t in enumerate(terms):
        mask = np.uint64(0)
        for so in t.support:
            mask |= np.uint64(1) << np.uint64(so - 1)
        arrays.support[i] = mask
        arrays.diagonal[i] = t.is_diagonal
        arrays.class_code[i] = class_index[t.term_class]
        if t.term_class in ("PQ", "PQQR"):
            arrays.hopping[i] = True
            hop = np.uint64(0)
            for so in t.hop_endpoints:
                hop |= np.uint64(1) << np.uint64(so - 1)
            arrays.hop[i] = hop
    return arrays


def scalar_stratified(arrays, samples_per_stratum, seed):
    """Stratified h with one gamma call per stratum.

    Returns (value, std_error, samples, per_stratum) like the package's
    stratified estimator, drawing from the same per-stratum streams.
    """
    total = 0.0
    variance = 0.0
    drawn = 0
    per_stratum = {}
    for index, (key, pos_a, pos_b, pos_c) in enumerate(_strata(arrays)):
        cube = len(pos_a) * len(pos_b) * len(pos_c)
        # one independent stream per stratum, stable under reallocation
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,)))
        )
        if cube <= samples_per_stratum:
            a_grid, b_grid, c_grid = np.meshgrid(pos_a, pos_b, pos_c, indexing="ij")
            gam = arrays.gamma(a_grid.ravel(), b_grid.ravel(), c_grid.ravel())
            contribution = float(gam.sum())
            per_stratum[key] = contribution
            total += contribution
            continue
        n = samples_per_stratum
        a = pos_a[rng.integers(0, len(pos_a), n)]
        b = pos_b[rng.integers(0, len(pos_b), n)]
        c = pos_c[rng.integers(0, len(pos_c), n)]
        gam = arrays.gamma(a, b, c)
        mean = float(gam.mean())
        contribution = cube * mean
        per_stratum[key] = contribution
        total += contribution
        var = float(gam.var(ddof=1)) if n > 1 else 0.0
        variance += cube * cube * var / n
        drawn += n
    return total, math.sqrt(variance), drawn, per_stratum


def scalar_nesting_batches(terms):
    """nesting_batches over the terms' frozenset supports, one at a time."""
    sizes = []
    used = set()
    current = 0
    for term in terms:
        support = term.support
        if used & support:
            sizes.append(current)
            used = set()
            current = 0
        used |= support
        current += 1
    if current:
        sizes.append(current)
    return sizes


class ScalarTermAction:
    """Precomputed action of one merged term on a fixed basis-state set.

    For diagonal terms the action is a real diagonal vector. For the rest it
    is the representative monomial E as (source positions, target positions,
    signs); the merged operator is coefficient * (E + E^T).
    """

    def __init__(self, term, states, position_of):
        self.term = term
        ops = self._operator_sequence(term)
        state = states.copy()
        sign = np.ones(len(states), dtype=np.int64)
        alive = np.ones(len(states), dtype=bool)
        for kind, orb in ops:  # ops listed right to left, applied in order
            bit = np.int64(1) << np.int64(orb - 1)
            occupied = (state & bit) != 0
            alive &= occupied if kind == "-" else ~occupied
            below = state & (bit - 1)
            sign = np.where(np.bitwise_count(below) & 1, -sign, sign)
            state = state ^ bit
        src = np.nonzero(alive)[0]
        tgt_states = state[src]
        if term.is_diagonal:
            if not np.array_equal(tgt_states, states[src]):
                raise AssertionError("diagonal term moved a basis state")
            diag = np.zeros(len(states))
            diag[src] = sign[src].astype(float)
            self.diagonal = diag * term.coefficient
            self.source = self.target = None
            self.signs = None
        else:
            self.diagonal = None
            self.source = src
            self.target = position_of(tgt_states)
            self.signs = sign[src].astype(float)

    @staticmethod
    def _operator_sequence(term):
        """Right-to-left elementary operators of the representative monomial."""
        return [("-", a) for a in term.annihilation] + [
            ("+", c) for c in term.creation[::-1]
        ]

    def add_to(self, matrix):
        """Accumulate the merged Hermitian term into a dense matrix."""
        if self.diagonal is not None:
            matrix[np.diag_indices_from(matrix)] += self.diagonal
            return
        amp = self.term.coefficient * self.signs
        np.add.at(matrix, (self.target, self.source), amp)
        np.add.at(matrix, (self.source, self.target), amp)


def scalar_actions(terms, states):
    """One ScalarTermAction per term on the ascending basis states."""
    if len(states) == (1 << terms.n_spin_orbitals):
        def position_of(patterns):
            return patterns
    else:
        def position_of(patterns):
            pos = np.searchsorted(states, patterns)
            if np.any(pos >= len(states)) or np.any(states[pos] != patterns):
                raise AssertionError("term left the particle sector")
            return pos

    return [ScalarTermAction(t, states, position_of) for t in terms]


def scalar_build_matrix(terms, particle_sector=None, include_core=True):
    """build_matrix's dense matrix, assembled one term after the other."""
    states = _basis_states(terms.n_spin_orbitals, particle_sector)
    matrix = np.zeros((len(states), len(states)))
    for action in scalar_actions(terms, states):
        action.add_to(matrix)
    if include_core:
        matrix[np.diag_indices_from(matrix)] += terms.core_energy
    return matrix


def scalar_sz_blocks(actions, states):
    """Positions of each Sz block of states, or None if a term flips spin."""
    twice_sz = _twice_sz(states)
    for action in actions:
        if action.diagonal is None and np.any(
            twice_sz[action.source] != twice_sz[action.target]
        ):
            return None
    values = sorted(set(twice_sz.tolist()), key=lambda v: (abs(v), v))
    return [np.nonzero(twice_sz == value)[0] for value in values]


def scalar_components(actions, states):
    """Positions of each connected component of the states' action graph:
    Sz block by Sz block in scalar_sz_blocks order (all states as one block
    if a term flips spin), each block's components by first position."""
    neighbours = [set() for _ in range(len(states))]
    for action in actions:
        if action.diagonal is None:
            for a, b in zip(action.source.tolist(), action.target.tolist()):
                neighbours[a].add(b)
                neighbours[b].add(a)
    blocks = scalar_sz_blocks(actions, states) or [np.arange(len(states))]
    components = []
    for block in blocks:
        seen = set()
        for start in block.tolist():
            if start in seen:
                continue
            seen.add(start)
            queue, component = collections.deque([start]), []
            while queue:
                position = queue.popleft()
                component.append(position)
                for other in neighbours[position] - seen:
                    seen.add(other)
                    queue.append(other)
            components.append(np.array(sorted(component)))
    return components


def apply_term_exponential(action, time_slice, matrix):
    """matrix <- exp(-i * time_slice * term_operator) @ matrix, in place.

    Off-diagonal merged terms satisfy (E + E^T)^2 = P with P the projector
    onto the union of E's domain and range, so the exponential closes in
    that two-block subspace:

        exp(-i w t (E + E^T)) = I + (cos(w t) - 1) P - i sin(w t) (E + E^T).
    """
    if action.diagonal is not None:
        phases = np.exp(-1j * time_slice * action.diagonal)
        matrix *= phases[:, None]
        return
    angle = time_slice * action.term.coefficient
    cos_m1 = math.cos(angle) - 1.0
    sin_f = math.sin(angle)
    src, tgt, signs = action.source, action.target, action.signs
    rows_src = matrix[src]
    rows_tgt = matrix[tgt]
    matrix[src] = rows_src + cos_m1 * rows_src - 1j * sin_f * signs[:, None] * rows_tgt
    matrix[tgt] = rows_tgt + cos_m1 * rows_tgt - 1j * sin_f * signs[:, None] * rows_src


class ReferenceStrangEvaluator:
    """The Strang oracle one step size at a time with a complex eig.

    The same sector and component choice as the package's evaluator, but
    the block's term actions are replayed from the terms, each step
    unitary is built on its own, and its eigenvectors come from
    np.linalg.eig of the complex matrix. split=scalar_sz_blocks makes the
    former choice among whole Sz blocks instead.
    """

    def __init__(self, terms, particle_sector="auto", qubit_cap=DEFAULT_QUBIT_CAP,
                 split=scalar_components):
        n_so = terms.n_spin_orbitals
        _check_cap(n_so, qubit_cap)
        sector = _resolve_sector(terms, particle_sector)
        self.terms = terms
        self.states = _basis_states(n_so, sector)
        self.actions = scalar_actions(terms, self.states)
        matrix = scalar_build_matrix(terms, sector, include_core=False)
        blocks = None if sector is None else split(self.actions, self.states)
        best = None
        for positions in blocks or [np.arange(len(self.states))]:
            evals, evecs = np.linalg.eigh(matrix[np.ix_(positions, positions)])
            if best is None or evals[0] < best[0] - _DEGENERACY_TOL:
                best = (float(evals[0]), evecs[:, 0], positions)
        self.e_fci_electronic, self.ground, positions = best
        if len(positions) < len(self.states):
            self.states = self.states[positions]
            self.actions = scalar_actions(terms, self.states)

    def step_unitary(self, t):
        """One second-order step: forward half-products then their reverse.

        Each merged term matrix is real symmetric, so each exponential
        factor is complex symmetric and the reverse half-product is exactly
        the transpose of the forward one.
        """
        dim = len(self.states)
        forward = np.eye(dim, dtype=complex)
        for action in reversed(self.actions):
            apply_term_exponential(action, t / 2.0, forward)
        return forward @ forward.T

    def report(self, t):
        if t <= 0:
            raise ValueError(f"step size must be positive, got {t}")
        unitary = self.step_unitary(t)
        defect = float(
            np.max(np.abs(unitary @ unitary.conj().T - np.eye(unitary.shape[0])))
        )
        if defect > 1e-9:
            raise AssertionError(f"step unitary lost unitarity, defect {defect:g}")
        evals, evecs = np.linalg.eig(unitary)
        overlaps = np.abs(evecs.conj().T @ self.ground) ** 2
        best = int(np.argmax(overlaps))
        phase = float(np.angle(evals[best]))
        e_eff_elec = -phase / t
        wrapped = (
            abs(phase) >= math.pi * (1.0 - 1e-9)
            or abs(self.e_fci_electronic) * t >= math.pi
        )
        core = self.terms.core_energy
        return TrotterExactReport(
            t=t,
            e_fci=self.e_fci_electronic + core,
            e_effective=e_eff_elec + core,
            delta_e=abs(e_eff_elec - self.e_fci_electronic),
            empirical_trotter_number=math.ceil(1.0 / t),
            ground_overlap=float(overlaps[best]),
            phase_wrapped=wrapped,
            unitarity_defect=defect,
        )


def reference_strang_scan(terms, ts, particle_sector="auto",
                          split=scalar_components):
    """strang_error_scan one reference step size at a time."""
    evaluator = ReferenceStrangEvaluator(terms, particle_sector, split=split)
    return [evaluator.report(float(t)) for t in ts]
