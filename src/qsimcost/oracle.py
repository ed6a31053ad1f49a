"""Exact desk-scale validation of the product-formula machinery.

Everything in this module trades scale for exactness: Hamiltonians are built
as dense matrices in the occupation-number basis (optionally restricted to a
fixed particle sector), Trotterized evolution is an explicit product of
per-term exponentials, and energies come from full diagonalization. The
intended use is validating the analytic error bounds and cost models on
molecules small enough to solve outright.

Every term's action on the basis states is one action table, built from
the TermList columns in array passes over chunks of (term, state) cells:
the term row, source and target positions and int8 sign of each
off-diagonal matrix element, and the diagonal of each diagonal term.
build_matrix assembles the matrix from it.

Every term maps basis states only along its own (source, target) entries,
so H and the step unitary are block-diagonal over the connected components
of that state graph. The Strang-step oracle and hartree_fock_overlap split
the sector's table by component, keeping its entry order, and assemble one
component at a time: no dense matrix spans two components, and each holds
the same elements as its block of the sector matrix. When every term
conserves Sz, each component lies in one Sz block (for the hydrogen
chains, inversion parity then halves the block: for H6 in 12 spin
orbitals, 200 of the sector's 924 states). The scan runs in the component
that holds the sector's ground state.

A scan runs as one batched computation over its step sizes. The forward
half-products of every step size in a chunk come from one pass over the
terms, and one real symmetric eigh per step diagonalizes the complex
symmetric unitary step (see strang_error_scan). A chunk holds at most
2**18 complex entries of half-products (4 MB): 20 step sizes of H5+'s
52-state component, six of H6's 200-state one.

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

from .hamiltonian import _CLASS_CODE, _IS_DIAGONAL, TermList

__all__ = [
    "DEFAULT_QUBIT_CAP",
    "TrotterExactReport",
    "OverlapReport",
    "build_matrix",
    "term_matrix",
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


_UP_BITS = np.int64(0x5555555555555555)  # spin orbitals 1, 3, 5, ...


def _twice_sz(states):
    """N_up - N_down of each basis state."""
    n_up = np.bitwise_count(states & _UP_BITS).astype(int)
    return 2 * n_up - np.bitwise_count(states)


# (term, basis state) cells per action-table chunk, a bound on its memory
_TABLE_ENTRIES = 2**16


@dataclasses.dataclass(frozen=True)
class _ActionTable:
    """Every term's action on a fixed basis-state set, as arrays.

    Entry k: the monomial E of term row term[k] maps the state at position
    source[k] to target[k] with sign[k] (int8), and the merged term is
    coefficient * (E + E^T); entries run term by term, each term's by
    source. Diagonal term row diagonal_term[d] has diagonal[d].
    """

    coefficients: np.ndarray
    term: np.ndarray
    source: np.ndarray
    target: np.ndarray
    sign: np.ndarray
    diagonal_term: np.ndarray
    diagonal: np.ndarray

    def per_term(self):
        """Per term row: its diagonal, or its (source, target, sign) slice."""
        bounds = np.searchsorted(self.term, np.arange(len(self.coefficients) + 1))
        actions = [
            (self.source[lo:hi], self.target[lo:hi], self.sign[lo:hi])
            for lo, hi in zip(bounds.tolist(), bounds[1:].tolist())
        ]
        for row, values in zip(self.diagonal_term.tolist(), self.diagonal):
            actions[row] = values
        return actions

    def split(self, blocks):
        """This table on each block of positions (the blocks partition the
        states), renumbered, from one stable sort of the entries by block:
        each block keeps its entries' order."""
        owner = np.empty(self.diagonal.shape[1], dtype=np.intp)
        local = np.empty_like(owner)
        for k, block in enumerate(blocks):
            owner[block] = k
            local[block] = np.arange(len(block))
        group = owner[self.source]
        if np.any(group != owner[self.target]):
            raise AssertionError("term left the block")
        source, target = local[self.source], local[self.target]
        order = np.argsort(group, kind="stable")
        bounds = np.searchsorted(group[order], np.arange(1, len(blocks)))
        for block, entries in zip(blocks, np.split(order, bounds)):
            yield _ActionTable(
                self.coefficients, self.term[entries], source[entries],
                target[entries], self.sign[entries], self.diagonal_term,
                self.diagonal[:, block],
            )


def _action_table(terms, states):
    """The _ActionTable of a TermList on ascending basis states: each term's
    monomial applies right to left as slots a_a1, a_a2, a+_c2, a+_c1 (a
    one-body term leaves the middle two empty, orbital 0) to all states at
    once, _TABLE_ENTRIES (term, state) cells at a time."""
    codes, index = terms.codes, terms.index
    two_body = codes >= _CLASS_CODE["PQQP"]
    slots = np.stack([
        np.where(two_body, index[:, 2], index[:, :2].max(axis=1)),
        index[:, 3], np.where(two_body, index[:, 1], 0), index[:, 0],
    ], axis=1)
    step = max(1, _TABLE_ENTRIES // len(states))
    parts = []
    # one chunk even for no terms, so every column keeps its dtype
    for start in range(0, max(1, len(codes)), step):
        rows = slice(start, start + step)
        state = np.broadcast_to(states, (len(slots[rows]), len(states)))
        flips = np.zeros(state.shape, dtype=np.uint8)
        alive = np.ones(state.shape, dtype=bool)
        for k, orbital in enumerate(slots[rows].T[:, :, None]):
            shift = np.maximum(orbital - 1, 0)
            bit = np.where(orbital > 0, np.int64(1) << shift, 0)
            occupied = (state & bit) != 0
            alive &= occupied == (bit != 0) if k < 2 else ~occupied
            flips += np.bitwise_count(state & ((np.int64(1) << shift) - 1))
            state = state ^ bit
        sign = np.where(flips & 1, -1, 1).astype(np.int8)
        diag = _IS_DIAGONAL[codes[rows]]
        if np.any(alive[diag] & (state[diag] != states)):
            raise AssertionError("diagonal term moved a basis state")
        term, source = np.nonzero(alive & ~diag[:, None])
        moved = state[term, source]
        target = np.searchsorted(states, moved)
        if np.any(target >= len(states)) or np.any(states[target] != moved):
            raise AssertionError("term left the particle sector")
        parts.append((start + term, source, target, sign[term, source],
                      start + np.flatnonzero(diag),
                      (sign * alive)[diag] * terms.coefficients[rows][diag, None]))
    return _ActionTable(terms.coefficients,
                        *(np.concatenate(column) for column in zip(*parts)))


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
    return states[np.bitwise_count(states) == particle_sector]


def _sector_table(terms, particle_sector, qubit_cap):
    """The ascending basis states of a particle sector (None: the full Fock
    space), the _ActionTable of terms on them and its diagonal terms summed
    per state in term order; raises the ValueErrors build_matrix lists."""
    n_so = terms.n_spin_orbitals
    _check_cap(n_so, qubit_cap)
    bad = np.flatnonzero(~np.isfinite(terms.coefficients))
    if len(bad):
        term = terms[int(bad[0])]
        raise ValueError(
            f"term row {bad[0]} ({term.term_class} {term.spin_orbitals}): "
            f"non-finite coefficient {term.coefficient!r}"
        )
    if not math.isfinite(terms.core_energy):
        raise ValueError(f"non-finite core energy {terms.core_energy!r}")
    states = _basis_states(n_so, particle_sector)
    table = _action_table(terms, states)
    diagonal = np.zeros(len(states))
    for values in table.diagonal:
        diagonal += values
    return states, table, diagonal


def _dense(table, diagonal):
    """Dense matrix of a table's off-diagonal entries around a diagonal.

    Each triangle takes its entries in one np.add.at, which adds in entry
    order, and the diagonal comes summed term by term: every element is the
    sequential sum of term-by-term assembly (a matmul would reorder it).
    """
    matrix = np.diag(diagonal)
    amp = table.coefficients[table.term] * table.sign
    low, high = np.sort([table.source, table.target], axis=0)
    np.add.at(matrix, (high, low), amp)
    np.add.at(matrix, (low, high), amp)
    # both triangles take the same entries in the same order: exact symmetry
    if not np.array_equal(matrix, matrix.T):
        defect = float(np.max(np.abs(matrix - matrix.T)))
        raise AssertionError(f"assembled matrix is not symmetric, defect {defect:g}")
    return matrix


def build_matrix(terms, particle_sector=None, qubit_cap=DEFAULT_QUBIT_CAP):
    """Assemble the dense Hamiltonian matrix of a term list, core energy
    included on the diagonal.

    Args:
        terms: TermList from enumerate_terms.
        particle_sector: restrict the basis to this electron count; None
            keeps the full Fock space.
        qubit_cap: hard size limit on the register.

    Returns:
        FockMatrixHamiltonian. The matrix is symmetric by construction and
        verified to be exactly so.

    Raises:
        ValueError: a coefficient is not finite (the message names the
            first such term row), or the core energy is not.
    """
    states, table, diagonal = _sector_table(terms, particle_sector, qubit_cap)
    matrix = _dense(table, diagonal)
    matrix[np.diag_indices_from(matrix)] += terms.core_energy
    return FockMatrixHamiltonian(
        matrix=matrix,
        n_spin_orbitals=terms.n_spin_orbitals,
        particle_sector=particle_sector,
        basis_states=states,
    )


def term_matrix(term, n_spin_orbitals, qubit_cap=DEFAULT_QUBIT_CAP):
    """Dense matrix of a single merged term on the full Fock space."""
    terms = TermList(terms=(term,), n_spin_orbitals=n_spin_orbitals)
    return build_matrix(terms, qubit_cap=qubit_cap).matrix


@dataclasses.dataclass(frozen=True)
class TrotterExactReport:
    """Exact second-order product-formula error at one step size.

    Attributes:
        t: step size in inverse Hartree.
        e_fci: exact ground energy in the evaluation sector or its
            connected component (core included), Hartree.
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
        """JSON-ready dict for tabulated bound-versus-exact reports: every
        field but unitarity_defect."""
        out = dict(vars(self))
        del out["unitarity_defect"]
        return out


def _resolve_sector(terms, particle_sector):
    if particle_sector == "auto":
        return terms.n_electrons if terms.n_electrons > 0 else None
    return particle_sector


def _sz_blocks(table, states):
    """Positions of each Sz block of states, or None if a term flips spin."""
    twice_sz = _twice_sz(states)
    if np.any(twice_sz[table.source] != twice_sz[table.target]):
        return None
    values = sorted(set(twice_sz.tolist()), key=lambda v: (abs(v), v))
    return [np.nonzero(twice_sz == value)[0] for value in values]


def _component_labels(table, n_states):
    """Smallest position in each state's connected component of the graph
    of the table's (source, target) entries: labels fall to the smallest
    label of any neighbour, then jump to their label's label, until stable."""
    label = np.arange(n_states)
    while True:
        lower = label.copy()
        np.minimum.at(lower, table.source, label[table.target])
        np.minimum.at(lower, table.target, label[table.source])
        while not np.array_equal(jumped := lower[lower], lower):
            lower = jumped
        if np.array_equal(lower, label):
            return label
        label = lower


def _components(table, states):
    """Positions of each connected component of states: Sz block by Sz
    block in _sz_blocks order (all states as one block if a term flips
    spin), each block's components by first position."""
    label = _component_labels(table, len(states))
    blocks = _sz_blocks(table, states) or [np.arange(len(states))]
    return [
        block[label[block] == root]
        for block in blocks for root in np.unique(label[block])
    ]


def _component_matrices(terms, particle_sector, qubit_cap):
    """(basis states, _ActionTable, dense matrix) of each connected
    component of a particle sector, one at a time, in _components order;
    particle_sector=None keeps the full Fock space as one block. Each
    matrix equals its block of the sector matrix without the core energy.
    """
    states, table, diagonal = _sector_table(terms, particle_sector, qubit_cap)
    blocks = (
        [np.arange(len(states))] if particle_sector is None
        else _components(table, states)
    )
    for block, part in zip(blocks, table.split(blocks)):
        yield states[block], part, _dense(part, diagonal[block])


# ground energies of components closer than this count as degenerate, so
# the earlier one wins: the smaller |Sz|, then the smaller first position
# (Hartree)
_DEGENERACY_TOL = 1e-10

# complex entries in one chunk's stack of half-products, a bound on the
# scan's working memory: H5+ (a 52-state component) scans 20 step sizes per
# chunk, H6 (200 states) six
_STACK_ENTRIES = 2**18

# the real symmetric matrix Re U + _MIX * Im U has the eigenvectors of a
# complex symmetric unitary U; its eigenvalues cos(phi) + _MIX * sin(phi)
# coincide only for phases mirrored across the axis atan(_MIX), and such
# pairs are split again under _REMIX, whose axis is a right angle away
_MIX = 0.6180339887498949
_REMIX = -1.0 / _MIX

# max-norm bound on U U^dagger - I and on the eigen-residual U Q - Q Lambda
_UNITARY_TOL = 1e-9


def _eigen_residual(real, imag, basis):
    """Eigenvalues diag(Q^T U Q) of U = real + i imag on the real basis Q,
    and the max-norm residual of each column of U Q - Q Lambda."""
    u_real = real @ basis
    u_imag = imag @ basis
    eig_real = np.sum(basis * u_real, axis=-2)
    eig_imag = np.sum(basis * u_imag, axis=-2)
    residual = np.hypot(
        u_real - basis * eig_real[..., None, :],
        u_imag - basis * eig_imag[..., None, :],
    ).max(axis=-2)
    return eig_real + 1j * eig_imag, residual


def _symmetric_unitary_eig(unitary):
    """Eigenvalues and a shared real orthogonal eigenbasis of a stack of
    complex symmetric unitaries.

    For U = X + iY complex symmetric and unitary, X and Y are real
    symmetric and U U^dagger = X^2 + Y^2 + i(YX - XY) = I, so they commute
    and share a real orthogonal eigenbasis Q. One real symmetric eigh of
    X + _MIX * Y finds it. Columns that a mirrored pair of phases mixed
    fail the residual check and are re-diagonalized in their own span
    under _REMIX; then every column must meet _UNITARY_TOL.
    """
    real = np.ascontiguousarray(unitary.real)
    imag = np.ascontiguousarray(unitary.imag)
    basis = np.linalg.eigh(real + _MIX * imag)[1]
    evals, residual = _eigen_residual(real, imag, basis)
    for k in np.nonzero(residual.max(axis=-1) > _UNITARY_TOL)[0]:
        mixed = residual[k] > _UNITARY_TOL
        span = basis[k][:, mixed]
        turn = np.linalg.eigh(span.T @ (real[k] + _REMIX * imag[k]) @ span)[1]
        basis[k][:, mixed] = span @ turn
        evals[k], residual[k] = _eigen_residual(real[k], imag[k], basis[k])
    worst = float(residual.max(initial=0.0))
    if worst > _UNITARY_TOL:
        raise AssertionError(f"step unitary eigenbasis residual {worst:g}")
    return evals, basis


class _StrangEvaluator:
    """Shared precomputation for repeated step-unitary evaluations.

    Every term conserves particle number, so when a sector is given the
    whole evaluation runs inside that block of the Fock space and the
    reference ground state is the sector ground state. Inside the sector
    the evaluation narrows to the connected component of the terms' state
    graph that holds the sector's ground state: the component of lowest
    ground energy, ties going to the smaller |Sz| when every term
    conserves Sz, then to the smaller first position.
    particle_sector=None keeps the whole Fock space.

    The set-up never assembles the sector matrix: _component_matrices
    gives the components one at a time, the pick reads the lowest eigvalsh
    of each (none for a lone component), and only the winner gets an eigh.
    """

    def __init__(self, terms, particle_sector="auto", qubit_cap=DEFAULT_QUBIT_CAP):
        self.terms = terms
        components = _component_matrices(
            terms, _resolve_sector(terms, particle_sector), qubit_cap
        )
        # a lone component needs no eigvalsh
        best, low = next(components), None
        for candidate in components:
            if low is None:
                low = np.linalg.eigvalsh(best[2])[0]
            candidate_low = np.linalg.eigvalsh(candidate[2])[0]
            if candidate_low < low - _DEGENERACY_TOL:
                best, low = candidate, candidate_low
        self.states, self.actions, matrix = best
        evals, evecs = np.linalg.eigh(matrix)
        self.e_fci_electronic, self.ground = float(evals[0]), evecs[:, 0]

    def _half_products(self, ts):
        """Forward half-products at every step size, stacked state-major.

        Returns a (dim, T, dim) array whose [:, k, :] is the product of the
        exp(-i H_j ts[k] / 2) over the terms in order. An off-diagonal
        merged term w (E + E^T) has (E + E^T)^2 = P, the projector onto the
        union of E's domain and range, so its exponential closes in that
        two-block subspace:

            exp(-i a (E + E^T)) = I + (cos(a) - 1) P - i sin(a) (E + E^T)

        with a = w t / 2: one gather, rotate and scatter of the source and
        target rows of its slice of the action table, for all T at once. A
        diagonal term's row of the table only multiplies a pending (dim, T)
        phase; a rotation folds the pending phases of the rows it touches
        into its coefficients, and the rest are applied once at the end.
        """
        dim = len(self.states)
        half = np.asarray(ts, dtype=float) / 2.0
        stack = np.zeros((dim, len(half), dim), dtype=complex)
        stack[np.arange(dim), :, np.arange(dim)] = 1.0
        pending = np.ones((dim, len(half)), dtype=complex)
        actions = zip(self.actions.coefficients.tolist(), self.actions.per_term())
        for coefficient, action in reversed(list(actions)):
            if not isinstance(action, tuple):
                pending *= np.exp(-1j * np.multiply.outer(action, half))
                continue
            src, tgt, sign = action
            angle = half * coefficient
            cos = np.cos(angle)
            hop = -1j * np.sin(angle) * sign[:, None]
            phase_src, phase_tgt = pending[src], pending[tgt]
            rows_src, rows_tgt = stack[src], stack[tgt]
            rotated = rows_src * (cos * phase_src)[..., None]
            rotated += rows_tgt * (hop * phase_tgt)[..., None]
            stack[src] = rotated
            rows_tgt *= (cos * phase_tgt)[..., None]
            rows_src *= (hop * phase_src)[..., None]
            rows_tgt += rows_src
            stack[tgt] = rows_tgt
            pending[src] = 1.0
            pending[tgt] = 1.0
        stack *= pending[..., None]
        return stack

    def _step_unitaries(self, ts):
        """(T, dim, dim) step unitaries U = F F^T.

        Each merged term matrix is real symmetric, so each exponential
        factor is complex symmetric and the reverse half-product is exactly
        the transpose of the forward one, F.
        """
        forward = self._half_products(ts).transpose(1, 0, 2)
        return forward @ forward.transpose(0, 2, 1)

    def _chunk_reports(self, ts):
        unitary = self._step_unitaries(ts)
        defects = np.abs(
            unitary @ unitary.conj().transpose(0, 2, 1) - np.eye(unitary.shape[1])
        ).max(axis=(1, 2))
        worst = float(defects.max())
        if worst > _UNITARY_TOL:
            raise AssertionError(f"step unitary lost unitarity, defect {worst:g}")
        evals, basis = _symmetric_unitary_eig(unitary)
        overlaps = (self.ground @ basis) ** 2
        core = self.terms.core_energy
        reports = []
        for t, eig, overlap, defect in zip(ts, evals, overlaps, defects):
            best = int(np.argmax(overlap))
            phase = float(np.angle(eig[best]))
            e_eff_elec = -phase / t
            wrapped = (
                abs(phase) >= math.pi * (1.0 - 1e-9)
                or abs(self.e_fci_electronic) * t >= math.pi
            )
            reports.append(TrotterExactReport(
                t=t,
                e_fci=self.e_fci_electronic + core,
                e_effective=e_eff_elec + core,
                delta_e=abs(e_eff_elec - self.e_fci_electronic),
                empirical_trotter_number=math.ceil(1.0 / t),
                ground_overlap=float(overlap[best]),
                phase_wrapped=wrapped,
                unitarity_defect=float(defect),
            ))
        return reports

    def scan(self, ts):
        """TrotterExactReport per step size, in chunks of _STACK_ENTRIES."""
        ts = [float(t) for t in ts]
        for t in ts:
            if t <= 0:
                raise ValueError(f"step size must be positive, got {t}")
        size = max(1, _STACK_ENTRIES // len(self.states) ** 2)
        return [
            report
            for start in range(0, len(ts), size)
            for report in self._chunk_reports(ts[start:start + size])
        ]


def strang_error_scan(terms, ts, particle_sector="auto",
                      qubit_cap=DEFAULT_QUBIT_CAP):
    """TrotterExactReport rows for a grid of step sizes, sharing setup.

    At each step size t, builds U(t) = prod_j exp(-i H_j t/2) *
    prod_reverse_j exp(-i H_j t/2) over the terms in the TermList's row order,
    diagonalizes it, and reads the effective ground energy from the
    eigenphase of the eigenvector with maximal overlap against the exact
    ground state. The constant core energy is excluded from the product (it
    only rotates the global phase) and added back to the reported energies.

    Every factor is complex symmetric, so U is the forward half-product F
    times its transpose, and U is complex symmetric as well as unitary. Its
    real and imaginary parts then commute and share a real orthogonal
    eigenbasis Q, found by one real symmetric eigh; the eigenvalues are
    diag(Q^T U Q) and the overlaps (Q^T g)^2 with the real ground state g.
    Both U U^dagger - I and U Q - Q diag(Q^T U Q) are checked against 1e-9
    in max norm. The step sizes run as stacked batches, as many per chunk
    as fit in 2**18 complex entries of half-products; a single step size t
    is strang_error_scan(terms, [t])[0].

    Args:
        terms: TermList to Trotterize.
        ts: positive step sizes, Hartree^-1; the eigenphase is trustworthy
            only while abs(electronic energy) * t < pi, and each row flags
            the wrap.
        particle_sector: "auto" restricts to the term list's electron count
            when it is positive; None forces the full Fock space; an int
            picks that sector. Inside a sector, the evaluation runs in the
            connected component of the terms' state graph that holds the
            sector's ground state.
        qubit_cap: dense-space size limit.

    Returns:
        One TrotterExactReport per step size, in the order of ts.
    """
    return _StrangEvaluator(terms, particle_sector, qubit_cap).scan(ts)


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


def hartree_fock_overlap(terms, n_electrons=None, qubit_cap=DEFAULT_QUBIT_CAP):
    """Overlap of the lowest-filled determinant with the exact ground state.

    The reference determinant occupies the n_electrons lowest spin orbitals
    in the module ordering, which for canonical-orbital integrals is the
    restricted closed-shell reference. Degenerate ground spaces contribute
    their total squared amplitude and are flagged.

    Args:
        terms: TermList from enumerate_terms.
        n_electrons: sector; defaults to the count carried by the term list.

    Returns:
        OverlapReport.
    """
    n_e = terms.n_electrons if n_electrons is None else int(n_electrons)
    if n_e <= 0:
        raise ValueError(f"need a positive electron count, got {n_e}")
    hf_pattern = (1 << n_e) - 1
    home, spectrum = None, []
    # H is block-diagonal over components: only the determinant's overlaps it
    for states, _, matrix in _component_matrices(terms, n_e, qubit_cap):
        matrix[np.diag_indices_from(matrix)] += terms.core_energy
        if hf_pattern in states:
            evals, evecs = np.linalg.eigh(matrix)
            home = evecs[np.searchsorted(states, hf_pattern)]
            spectrum.append(evals)
        else:
            spectrum.append(np.linalg.eigvalsh(matrix))
    if home is None:
        raise AssertionError("reference determinant missing from sector basis")
    spectrum = np.concatenate(spectrum)
    energy = spectrum.min()
    window = evals - energy <= _DEGENERACY_TOL
    overlap = float(np.sum(home[window] ** 2))
    return OverlapReport(
        overlap=overlap,
        energy=float(energy),
        degenerate=int(np.count_nonzero(spectrum - energy <= _DEGENERACY_TOL)) > 1,
        n_electrons=n_e,
    )
