"""Exact desk-scale validation of the product-formula machinery.

Everything in this module trades scale for exactness: Hamiltonians are built
as dense matrices in the occupation-number basis (optionally restricted to a
fixed particle sector), Trotterized evolution is an explicit product of
per-term exponentials, and energies come from full diagonalization. The
intended use is validating the analytic error bounds and cost models on
molecules small enough to solve outright.

The Strang-step oracle narrows a particle sector further when it can: if
every term also conserves Sz, the step unitary, its eigendecomposition and
the overlap selection live in the Sz block that holds the sector's ground
state (for H6 in 12 spin orbitals, 400 of the sector's 924 states).

The register is capped (default 14 spin orbitals, a 16384-dimensional Fock
space). Full-space dense work at the cap needs several GB; practical test
sizes stay at or below 10 spin orbitals.

Basis conventions match the term enumeration: spin orbital s (1-based) is
bit s-1 of the basis-state integer, and an annihilation operator picks up
the parity of the occupied orbitals below its target. Spin orbital 2p-1 is
spin up and 2p spin down, so the up orbitals are the even bits.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .hamiltonian import HamiltonianTerm, TermList

__all__ = [
    "DEFAULT_QUBIT_CAP",
    "FockMatrixHamiltonian",
    "TrotterExactReport",
    "OverlapReport",
    "build_matrix",
    "term_matrix",
    "strang_effective_energy",
    "strang_error_scan",
    "empirical_trotter_number",
    "hartree_fock_overlap",
]

DEFAULT_QUBIT_CAP = 14


def _check_cap(n_so, qubit_cap):
    if n_so > qubit_cap:
        raise ValueError(
            f"{n_so} spin orbitals exceed the dense-oracle cap of {qubit_cap}; "
            "the oracle is exact-but-small by design"
        )


def _popcount(values):
    return np.bitwise_count(values.astype(np.uint64)).astype(np.int64)


_UP_BITS = np.int64(0x5555555555555555)  # spin orbitals 1, 3, 5, ...


def _twice_sz(states):
    """N_up - N_down of each basis state."""
    return 2 * _popcount(states & _UP_BITS) - _popcount(states)


class _TermAction:
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
            sign = np.where(_popcount(below) & 1, -sign, sign)
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
        if term.is_one_body:
            if term.term_class == "PP":
                (p,) = term.spin_orbitals
                return [("-", p), ("+", p)]
            p, q = term.spin_orbitals
            return [("-", q), ("+", p)]
        c1, c2, a1, a2 = term.spin_orbitals
        return [("-", a1), ("-", a2), ("+", c2), ("+", c1)]

    def add_to(self, matrix):
        """Accumulate the merged Hermitian term into a dense matrix."""
        if self.diagonal is not None:
            matrix[np.diag_indices_from(matrix)] += self.diagonal
            return
        amp = self.term.coefficient * self.signs
        np.add.at(matrix, (self.target, self.source), amp)
        np.add.at(matrix, (self.source, self.target), amp)

def _apply_term_exponential(action, time_slice, matrix):
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


@dataclasses.dataclass(frozen=True)
class FockMatrixHamiltonian:
    """Dense Hamiltonian matrix with its basis bookkeeping.

    Attributes:
        matrix: real symmetric (dim, dim) array, core energy included.
        n_spin_orbitals: register width.
        particle_sector: electron count of the restricted basis, or None
            for the full Fock space.
        basis_states: occupation bit patterns indexing the matrix rows.
    """

    matrix: np.ndarray
    n_spin_orbitals: int
    particle_sector: int | None
    basis_states: np.ndarray

    @property
    def dim(self):
        return self.matrix.shape[0]

    def ground_state(self):
        """(energy, normalized eigenvector) of the lowest eigenvalue."""
        evals, evecs = np.linalg.eigh(self.matrix)
        return float(evals[0]), evecs[:, 0]


def _basis_states(n_so, particle_sector):
    states = np.arange(1 << n_so, dtype=np.int64)
    if particle_sector is None:
        return states
    if not 0 <= particle_sector <= n_so:
        raise ValueError(
            f"particle sector {particle_sector} outside 0..{n_so}"
        )
    return states[_popcount(states) == particle_sector]


def _actions(terms, states):
    sorter = None
    if len(states) == (1 << terms.n_spin_orbitals):
        def position_of(patterns):
            return patterns
    else:
        sorter = states  # sector lists are ascending by construction

        def position_of(patterns):
            pos = np.searchsorted(sorter, patterns)
            if np.any(pos >= len(sorter)) or np.any(sorter[pos] != patterns):
                raise AssertionError("term left the particle sector")
            return pos

    return [_TermAction(t, states, position_of) for t in terms]


def build_matrix(terms, particle_sector=None, include_core=True,
                 qubit_cap=DEFAULT_QUBIT_CAP):
    """Assemble the dense Hamiltonian matrix of a term list.

    Args:
        terms: TermList from enumerate_terms.
        particle_sector: restrict the basis to this electron count; None
            keeps the full Fock space.
        include_core: add the constant core energy to the diagonal.
        qubit_cap: hard size limit on the register.

    Returns:
        FockMatrixHamiltonian. The matrix is Hermitian by construction and
        verified to round-off.
    """
    n_so = terms.n_spin_orbitals
    _check_cap(n_so, qubit_cap)
    states = _basis_states(n_so, particle_sector)
    matrix = np.zeros((len(states), len(states)))
    for action in _actions(terms, states):
        action.add_to(matrix)
    if include_core:
        matrix[np.diag_indices_from(matrix)] += terms.core_energy
    defect = float(np.max(np.abs(matrix - matrix.T)))
    scale = max(1.0, float(np.max(np.abs(matrix))))
    if defect > 1e-12 * scale:
        raise AssertionError(f"assembled matrix is not symmetric, defect {defect:g}")
    return FockMatrixHamiltonian(
        matrix=matrix,
        n_spin_orbitals=n_so,
        particle_sector=particle_sector,
        basis_states=states,
    )


def term_matrix(term, n_spin_orbitals, qubit_cap=DEFAULT_QUBIT_CAP):
    """Dense matrix of a single merged term on the full Fock space."""
    _check_cap(n_spin_orbitals, qubit_cap)
    states = _basis_states(n_spin_orbitals, None)
    matrix = np.zeros((len(states), len(states)))
    _TermAction(term, states, lambda p: p).add_to(matrix)
    return matrix


@dataclasses.dataclass(frozen=True)
class TrotterExactReport:
    """Exact second-order product-formula error at one step size.

    Attributes:
        t: step size in inverse Hartree.
        e_fci: exact ground energy in the evaluation sector or Sz block
            (core included), Hartree.
        e_effective: eigenphase energy of the step unitary whose eigenvector
            best overlaps the exact ground state, core included.
        delta_e: abs(e_effective - e_fci), Hartree.
        empirical_trotter_number: ceil(1 / t) for this row.
        ground_overlap: squared overlap between the selected eigenvector and
            the exact ground state.
        phase_wrapped: True when the eigenphase sits at the branch boundary,
            i.e. the t * energy precondition was violated.
        unitarity_defect: max-norm deviation of U U^dagger from identity.
    """

    t: float
    e_fci: float
    e_effective: float
    delta_e: float
    empirical_trotter_number: int
    ground_overlap: float
    phase_wrapped: bool
    unitarity_defect: float

    def row(self):
        """JSON-ready dict for tabulated bound-versus-exact reports."""
        return {
            "t": self.t,
            "e_fci": self.e_fci,
            "e_effective": self.e_effective,
            "delta_e": self.delta_e,
            "empirical_trotter_number": self.empirical_trotter_number,
            "ground_overlap": self.ground_overlap,
            "phase_wrapped": self.phase_wrapped,
        }


def _resolve_sector(terms, particle_sector):
    if particle_sector == "auto":
        return terms.n_electrons if terms.n_electrons > 0 else None
    return particle_sector


def _sz_blocks(actions, states):
    """Positions of each Sz block of states, or None if a term flips spin."""
    twice_sz = _twice_sz(states)
    for action in actions:
        if action.diagonal is None and np.any(
            twice_sz[action.source] != twice_sz[action.target]
        ):
            return None
    values = sorted(set(twice_sz.tolist()), key=lambda v: (abs(v), v))
    return [np.nonzero(twice_sz == value)[0] for value in values]


# ground energies of Sz blocks closer than this count as degenerate, so the
# smaller |Sz| wins (Hartree)
_DEGENERACY_TOL = 1e-10


class _StrangEvaluator:
    """Shared precomputation for repeated step-unitary evaluations.

    Every term conserves particle number, so when a sector is given the
    whole evaluation runs inside that block of the Fock space and the
    reference ground state is the sector ground state. When every term
    also conserves Sz, the evaluation narrows to the Sz block holding the
    sector's ground state: the block of lowest ground energy, ties going
    to the smaller |Sz|. A term list with a spin-flip term keeps the whole
    sector; particle_sector=None keeps the whole Fock space.
    """

    def __init__(self, terms, particle_sector="auto", qubit_cap=DEFAULT_QUBIT_CAP):
        n_so = terms.n_spin_orbitals
        _check_cap(n_so, qubit_cap)
        sector = _resolve_sector(terms, particle_sector)
        self.terms = terms
        self.states = _basis_states(n_so, sector)
        self.actions = _actions(terms, self.states)
        matrix = build_matrix(
            terms, particle_sector=sector, include_core=False, qubit_cap=qubit_cap
        ).matrix
        blocks = None if sector is None else _sz_blocks(self.actions, self.states)
        best = None
        for positions in blocks or [np.arange(len(self.states))]:
            evals, evecs = np.linalg.eigh(matrix[np.ix_(positions, positions)])
            if best is None or evals[0] < best[0] - _DEGENERACY_TOL:
                best = (float(evals[0]), evecs[:, 0], positions)
        self.e_fci_electronic, self.ground, positions = best
        if len(positions) < len(self.states):
            self.states = self.states[positions]
            self.actions = _actions(terms, self.states)

    def step_unitary(self, t):
        """One second-order step: forward half-products then their reverse.

        Each merged term matrix is real symmetric, so each exponential
        factor is complex symmetric and the reverse half-product is exactly
        the transpose of the forward one.
        """
        dim = len(self.states)
        forward = np.eye(dim, dtype=complex)
        for action in reversed(self.actions):
            _apply_term_exponential(action, t / 2.0, forward)
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


def strang_effective_energy(terms, t, particle_sector="auto",
                            qubit_cap=DEFAULT_QUBIT_CAP):
    """Exact effective energy of one second-order product-formula step.

    Builds U(t) = prod_j exp(-i H_j t/2) * prod_reverse_j exp(-i H_j t/2)
    over the lexicographically ordered terms, diagonalizes it, and reads the
    effective ground energy from the eigenphase of the eigenvector with
    maximal overlap against the exact ground state. The constant core energy
    is excluded from the product (it only rotates the global phase) and
    added back to the reported energies.

    Args:
        terms: TermList to Trotterize.
        t: step size, Hartree^-1; the eigenphase is trustworthy only while
            abs(electronic energy) * t < pi, and the report flags the wrap.
        particle_sector: "auto" restricts to the term list's electron count
            when it is positive; None forces the full Fock space; an int
            picks that sector. Inside a sector, a term list that conserves
            Sz is evaluated in the Sz block holding the sector's ground
            state; one with a spin-flip term keeps the whole sector.
        qubit_cap: dense-space size limit.

    Returns:
        TrotterExactReport at this t.
    """
    return _StrangEvaluator(terms, particle_sector, qubit_cap).report(t)


def strang_error_scan(terms, ts, particle_sector="auto",
                      qubit_cap=DEFAULT_QUBIT_CAP):
    """TrotterExactReport rows for a grid of step sizes, sharing setup."""
    evaluator = _StrangEvaluator(terms, particle_sector, qubit_cap)
    return [evaluator.report(float(t)) for t in ts]


def empirical_trotter_number(terms, target, ts, particle_sector="auto",
                             qubit_cap=DEFAULT_QUBIT_CAP):
    """Smallest ceil(1/t) whose exact step error meets the target.

    Args:
        terms: TermList to Trotterize.
        target: allowed abs effective-energy error, Hartree.
        ts: candidate step sizes to scan.
        particle_sector: sector passed through to the evaluator.

    Returns:
        The minimal ceil(1/t) over the scanned t with delta_e <= target.

    Raises:
        ValueError: no scanned step size meets the target.
    """
    feasible = [
        r.empirical_trotter_number
        for r in strang_error_scan(terms, ts, particle_sector, qubit_cap)
        if r.delta_e <= target and not r.phase_wrapped
    ]
    if not feasible:
        raise ValueError(
            f"no scanned step size reaches delta_e <= {target:g}; extend the grid"
        )
    return min(feasible)


@dataclasses.dataclass(frozen=True)
class OverlapReport:
    """Squared overlap of the reference determinant with the exact ground state.

    Attributes:
        overlap: summed squared amplitude over the (near-)degenerate ground
            subspace.
        energy: exact ground energy in the particle sector, core included.
        degenerate: True when more than one eigenvector entered the sum.
        n_electrons: electron count defining the sector and determinant.
    """

    overlap: float
    energy: float
    degenerate: bool
    n_electrons: int


def hartree_fock_overlap(terms, n_electrons=None, degeneracy_tol=1e-10,
                         qubit_cap=DEFAULT_QUBIT_CAP):
    """Overlap of the lowest-filled determinant with the exact ground state.

    The reference determinant occupies the n_electrons lowest spin orbitals
    in the module ordering, which for canonical-orbital integrals is the
    restricted closed-shell reference. Degenerate ground spaces contribute
    their total squared amplitude and are flagged.

    Args:
        terms: TermList from enumerate_terms.
        n_electrons: sector; defaults to the count carried by the term list.
        degeneracy_tol: eigenvalue window treated as one ground space.

    Returns:
        OverlapReport.
    """
    n_e = terms.n_electrons if n_electrons is None else int(n_electrons)
    if n_e <= 0:
        raise ValueError(f"need a positive electron count, got {n_e}")
    sector = build_matrix(terms, particle_sector=n_e, qubit_cap=qubit_cap)
    evals, evecs = np.linalg.eigh(sector.matrix)
    hf_pattern = (1 << n_e) - 1
    hf_pos = int(np.searchsorted(sector.basis_states, hf_pattern))
    if sector.basis_states[hf_pos] != hf_pattern:
        raise AssertionError("reference determinant missing from sector basis")
    window = evals - evals[0] <= degeneracy_tol
    overlap = float(np.sum(np.abs(evecs[hf_pos, window]) ** 2))
    return OverlapReport(
        overlap=overlap,
        energy=float(evals[0]),
        degenerate=int(np.count_nonzero(window)) > 1,
        n_electrons=n_e,
    )
