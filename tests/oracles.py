"""Independent reference constructions used to validate the package.

Everything here is deliberately written from raw definitions, without using
the package's term enumeration, matrix builder, or cost formulas:

* ket-algebra Hamiltonian construction straight from spatial integrals
  (occupation-number vectors plus elementary creation/annihilation moves),
* full configuration interaction energies and ground states from it,
* an exhaustive triple-sum error-constant evaluator, whole or per key,
* a literal gate-sequence constructor for the Clifford cost model.

Spin-orbital convention matches the package contract: spatial p (1-based)
owns spin orbitals 2p-1 (up) and 2p (down). Internally this module uses
0-based bit positions: bit 2(p-1) is (p, up), bit 2(p-1)+1 is (p, down).
"""

from __future__ import annotations

import itertools

import numpy as np


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
