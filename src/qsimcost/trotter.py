"""Second-order product-formula error constants from commutator counting.

The effective-energy error of one second-order step factors as
delta_E <= h * t^2 with

    h = sum_{(a,b,c)} 4 * n_a * n_b * n_c,

the sum running over ordered term triples (a, b, c) that pass the
double-commutator gate

    (a > b and c > b)  or  (b > a and c == a)

and whose nested commutator [H_a, [H_b, H_c]] is not certified zero by the
structural vanishing rules below. n_j is the operator-norm weight carried by
term j. Term order is the lexicographic order of the canonical index tuples.

Vanishing rules (conservative: a triple is only dropped when the commutator
is exactly zero):

    1. support(b) and support(c) disjoint           -> [H_b, H_c] = 0
    2. support(a) disjoint from support(b) | support(c)
    3. H_b and H_c both diagonal (PP or PQQP)
    4. H_b and H_c both hopping-type (PQ or PQQR) with identical hop
       endpoints: their off-diagonal factors square to diagonals, so they
       commute
    5. Jacobi: [a,[b,c]] = -[b,[c,a]] - [c,[a,b]]; if both right-hand
       triples are certified zero by rules 1-4, the left side is zero

Rules 1-5 reduce to one table over term pairs, I[x, y] = rule 1, 3 or 4
holds for (x, y), and its complement J. Disjoint supports satisfy rule 1,
so rule 2 implies I[a, b] and I[a, c]; and once J[b, c] (so b and c
overlap), rule 5's two halves reduce to I[c, a] and I[a, b]. A triple
therefore survives iff J[b, c] and (J[b, a] or (I[b, a] and J[a, c])),
which for a band triple (a, b, a) is J[a, b]. The two cases of a are
disjoint, and the sum of the second over a is a matrix product: for a
block of middle indices b and each class i of a, (n_a I[b, a] masked to
a > b and class i) @ J. The products' sizes add up to at most one
m x m x m product, and every summand is non-negative. The Monte Carlo
estimator scores the triples it samples with the same identity (gamma),
stratified by the class signature (class_a, class_b, class_c), so the
exhaustive mode reproduces the deterministic sum up to summation order.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .hamiltonian import _DIAGONAL_CODES, TERM_CLASSES

__all__ = [
    "ErrorConstantEstimate",
    "estimate_error_constant",
    "trotter_number",
]

_MAX_MASK_BITS = 64
_HOPPING_CODES = [TERM_CLASSES.index(c) for c in ("PQ", "PQQR")]


# ---------------------------------------------------------------------------
# Vectorized term arrays
# ---------------------------------------------------------------------------

class _TermArrays:
    """Per-term masks and weights packed for vectorized triple evaluation.

    Read from the TermList's columns (class codes, the zero-padded (M, 4)
    index table and norms): bit so-1 of a mask stands for spin orbital so.
    support ORs the bits of a term's indices (the zero padding sets none);
    hop XORs them on PQ and PQQR terms, where the shared index of a PQQR
    cancels and leaves its two hop endpoints.
    """

    def __init__(self, terms):
        if terms.n_spin_orbitals > _MAX_MASK_BITS:
            raise ValueError(
                f"triple evaluation packs supports into {_MAX_MASK_BITS}-bit "
                f"masks; {terms.n_spin_orbitals} spin orbitals exceed that"
            )
        codes, index = terms.codes, terms.index
        self.m = len(codes)
        self.norm = terms.norms
        bits = np.where(
            index > 0,
            np.uint64(1) << np.maximum(index - 1, 0).astype(np.uint64),
            np.uint64(0),
        )
        self.support = np.bitwise_or.reduce(bits, axis=1)
        self.diagonal = np.isin(codes, _DIAGONAL_CODES)
        self.hopping = np.isin(codes, _HOPPING_CODES)
        self.hop = np.where(
            self.hopping, np.bitwise_xor.reduce(bits, axis=1), np.uint64(0)
        )
        self.class_code = codes

    def _inner_zero(self, b, c):
        disjoint = (self.support[b] & self.support[c]) == 0
        both_diag = self.diagonal[b] & self.diagonal[c]
        same_hop = self.hopping[b] & self.hopping[c] & (self.hop[b] == self.hop[c])
        return disjoint | both_diag | same_hop

    def gamma(self, a, b, c):
        """Summand 4 n_a n_b n_c [gate] [commutator survives] per triple."""
        gate = ((a > b) & (c > b)) | ((b > a) & (c == a))
        # rules 1-5 through the pair table (see the module docstring)
        zero = self._inner_zero(b, c) | (
            self._inner_zero(a, b) & self._inner_zero(a, c)
        )
        return np.where(
            gate & ~zero, 4.0 * self.norm[a] * self.norm[b] * self.norm[c], 0.0
        )


@dataclasses.dataclass(frozen=True)
class ErrorConstantEstimate:
    """Error constant h with its sampling pedigree.

    Attributes:
        value: estimate of h in Hartree^3 (delta_E <= value * t^2).
        method: "exhaustive" or "stratified".
        std_error: one-sigma standard error of the estimator; 0 when exact.
        samples: Monte Carlo draws consumed (0 when exact).
        population: number of ordered term triples, m^3.
        per_stratum: class-signature triple -> contribution to value.
        seed: RNG seed used, None when exact.
    """

    value: float
    method: str
    std_error: float
    samples: int
    population: int
    per_stratum: dict
    seed: int | None

    def relative_std_error(self):
        return self.std_error / self.value if self.value else 0.0


def _strata(arrays):
    """Nonempty ordered class triples with their member index arrays."""
    positions = [np.flatnonzero(arrays.class_code == i)
                 for i in range(len(TERM_CLASSES))]
    present = [i for i, pos in enumerate(positions) if len(pos)]
    return [
        (tuple(TERM_CLASSES[i] for i in key), *(positions[i] for i in key))
        for key in itertools.product(present, repeat=3)
    ]


# middle indices b per block: a block's (rows, m) product and (rows, class
# size) factors stay a few MB beside the m x m pair tables even on H8
_BLOCK_ROWS = 256


def _exhaustive(arrays):
    """h and its strata as matrix products over the pair table (see the module
    docstring); a stratum without surviving triples sums to 0 and is left out."""
    m, k = arrays.m, len(TERM_CLASSES)
    norm, code = arrays.norm, arrays.class_code
    idx = np.arange(m)
    live = ~arrays._inner_zero(idx[:, None], idx[None, :])
    onehot = np.equal.outer(code, np.arange(k)).astype(float)
    # weight[x, y] = 4 n_x n_y J[x, y] for y > x, zero elsewhere
    weight = np.triu(np.where(live, 4.0 * np.multiply.outer(norm, norm), 0.0), 1)
    table = np.zeros((k, k, k))  # (class_a, class_b, class_c)
    # second gate branch: the triples (a, b, a) with b > a
    table[np.arange(k), :, np.arange(k)] += onehot.T @ (norm[:, None] * weight) @ onehot
    # first gate branch, a block of middle indices b at a time: c > b and
    # a > b; (a, b, c) survives iff J[b, a], or else J[a, c]
    live_rows = live.astype(float)
    for start in range(0, m - 1, _BLOCK_ROWS):
        b = idx[start:start + _BLOCK_ROWS]
        rest = slice(start + 1, m)
        for i in range(k):
            a = np.flatnonzero(code[rest] == i) + start + 1
            after = np.where(a > b[:, None], norm[a], 0.0)
            linked = live[np.ix_(b, a)]
            through = np.where(linked, 0.0, after) @ live_rows[a, rest]
            through += np.where(linked, after, 0.0).sum(axis=1)[:, None]
            through *= weight[b, rest]
            table[i] += onehot[b].T @ through @ onehot[rest]
    per_class = {tuple(TERM_CLASSES[i] for i in key): float(table[key])
                 for key in zip(*np.nonzero(table))}
    return float(table.sum()), per_class


def _stratified(arrays, samples_per_stratum, seed):
    """Stratified estimate over the class-signature strata.

    Strata of at most samples_per_stratum triples are enumerated; every
    other stratum draws samples_per_stratum triples from its own Philox
    stream. All triples are scored by one gamma call with the S sampled
    strata first, so their draws form one (S, n) block whose row-wise mean
    and variance are each stratum's; an enumerated stratum sums its slice
    of the rest.
    """
    n = samples_per_stratum
    strata = _strata(arrays)
    sampled, enumerated = [], []
    for index, (_, *positions) in enumerate(strata):
        if math.prod(map(len, positions)) <= n:
            grids = np.meshgrid(*positions, indexing="ij")
            enumerated.append([grid.ravel() for grid in grids])
            continue
        # one independent stream per stratum, stable under reallocation
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,)))
        )
        sampled.append([pos[rng.integers(0, len(pos), n)] for pos in positions])
    gam_all = arrays.gamma(
        *(np.concatenate(column) for column in zip(*sampled, *enumerated))
    )
    block = gam_all[: len(sampled) * n].reshape(len(sampled), n)
    means = iter(block.mean(axis=1).tolist())
    variances = iter(
        block.var(axis=1, ddof=1).tolist() if n > 1 else [0.0] * len(sampled)
    )

    total = 0.0
    variance = 0.0
    per_stratum = {}
    stop = block.size
    for key, *positions in strata:
        cube = math.prod(map(len, positions))
        if cube <= n:
            start, stop = stop, stop + cube
            contribution = float(gam_all[start:stop].sum())
        else:
            contribution = cube * next(means)
            variance += cube * cube * next(variances) / n
        per_stratum[key] = contribution
        total += contribution
    return total, math.sqrt(variance), n * len(sampled), per_stratum


def estimate_error_constant(terms, method="exhaustive", samples_per_stratum=200,
                            seed=0):
    """Estimate the second-order error constant h of a term list.

    Args:
        terms: TermList in canonical order.
        method: "exhaustive" sums every triple; "stratified" samples each
            class-signature stratum and enumerates strata smaller than the
            per-stratum budget.
        samples_per_stratum: stratified budget per stratum, at least 1.
        seed: non-negative base seed; stratified runs derive one child
            stream per stratum, so results are reproducible bit for bit.

    Returns:
        ErrorConstantEstimate.

    Raises:
        ValueError: samples_per_stratum is below 1 or seed is negative; h or
            its standard error is not finite; or, for the stratified
            method, 4 n^3 overflows for the largest term norm n.
    """
    if samples_per_stratum < 1:
        raise ValueError(
            f"samples_per_stratum must be >= 1, got {samples_per_stratum}"
        )
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    arrays = _TermArrays(terms)
    if arrays.m == 0:
        return ErrorConstantEstimate(
            value=0.0, method=method, std_error=0.0, samples=0, population=0,
            per_stratum={}, seed=None,
        )
    if method == "stratified":
        # the draws can miss every triple whose summand overflows, so a
        # sampled h is refused whenever the largest summand could
        largest = float(arrays.norm.max())
        if not math.isfinite(4.0 * largest * largest * largest):
            raise ValueError(
                f"error constant h overflows float64 (4 n^3 = inf for the "
                f"largest term norm {largest:g}); a sampled estimate can miss "
                "the triples that carry it"
            )
    # a norm near the float64 limit overflows 4 n_a n_b n_c; that is
    # reported below as a non-finite h instead of a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "exhaustive":
            value, per_stratum = _exhaustive(arrays)
            std_error, drawn, seed = 0.0, 0, None
        elif method == "stratified":
            value, std_error, drawn, per_stratum = _stratified(
                arrays, samples_per_stratum, seed
            )
        else:
            raise ValueError(f"unknown method {method!r}")
    if not (math.isfinite(value) and math.isfinite(std_error)):
        raise ValueError(
            f"error constant h overflows float64 (h = {value}, standard error "
            f"{std_error}); the term norms are too large"
        )
    return ErrorConstantEstimate(
        value=value, method=method, std_error=std_error, samples=drawn,
        population=arrays.m**3, per_stratum=per_stratum, seed=seed,
    )


def trotter_number(error_constant, epsilon):
    """Steps per unit time so that h * t^2 <= epsilon at t = 1/steps."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if error_constant < 0:
        raise ValueError(f"negative error constant {error_constant}")
    return max(1, math.ceil(math.sqrt(error_constant / epsilon)))
