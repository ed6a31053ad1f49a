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

Exact evaluation builds tables over term pairs once (the pair rules 1, 3
and 4, the union of the two supports, and 4 n_x n_y) and walks the middle
index b: the gate's first branch (a > b and c > b) is then the square slice
[b+1:, b+1:] of those tables over (a, c), and rules 1-5 become broadcasts of
row b against it, so no gated-out cell is evaluated and memory stays O(m^2).
The second branch (b > a and c == a) is one band of m(m-1)/2 triples. The
Monte Carlo estimators sample the triple population, stratified by the class
signature (class_a, class_b, class_c) or uniformly. All estimators share one
definition of the summand, so the exhaustive mode reproduces the
deterministic sum up to summation order.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .hamiltonian import TERM_CLASSES

__all__ = [
    "ErrorConstantEstimate",
    "TrotterNumberModel",
    "commutator_vanishes",
    "nested_commutator_vanishes",
    "estimate_error_constant",
    "sampling_variance",
    "chebyshev_samples",
    "trotter_number",
    "trotter_number_model",
]

_MAX_MASK_BITS = 64
_HOPPING = ("PQ", "PQQR")


# ---------------------------------------------------------------------------
# Scalar vanishing rules (reference path)
# ---------------------------------------------------------------------------

def commutator_vanishes(term_b, term_c):
    """True when [H_b, H_c] = 0 is certified by rules 1, 3, or 4."""
    if not (term_b.support & term_c.support):
        return True
    if term_b.is_diagonal and term_c.is_diagonal:
        return True
    if (
        term_b.term_class in _HOPPING
        and term_c.term_class in _HOPPING
        and term_b.hop_endpoints == term_c.hop_endpoints
    ):
        return True
    return False


def _outer_vanishes(term_a, term_b, term_c):
    """Rules 1-4 on [H_a, [H_b, H_c]] without the Jacobi rearrangement."""
    if commutator_vanishes(term_b, term_c):
        return True
    return not (term_a.support & (term_b.support | term_c.support))


def nested_commutator_vanishes(term_a, term_b, term_c):
    """True when [H_a, [H_b, H_c]] = 0 is certified by rules 1-5."""
    if _outer_vanishes(term_a, term_b, term_c):
        return True
    return _outer_vanishes(term_b, term_c, term_a) and _outer_vanishes(
        term_c, term_a, term_b
    )


# ---------------------------------------------------------------------------
# Vectorized term arrays
# ---------------------------------------------------------------------------

class _TermArrays:
    """Per-term masks and weights packed for vectorized triple evaluation."""

    def __init__(self, terms):
        if terms.n_spin_orbitals > _MAX_MASK_BITS:
            raise ValueError(
                f"triple evaluation packs supports into {_MAX_MASK_BITS}-bit "
                f"masks; {terms.n_spin_orbitals} spin orbitals exceed that"
            )
        m = len(terms)
        self.m = m
        self.norm = np.array([t.norm for t in terms], dtype=float)
        self.support = np.zeros(m, dtype=np.uint64)
        self.hop = np.zeros(m, dtype=np.uint64)
        self.diagonal = np.zeros(m, dtype=bool)
        self.hopping = np.zeros(m, dtype=bool)
        self.class_code = np.zeros(m, dtype=np.int8)
        class_index = {c: i for i, c in enumerate(TERM_CLASSES)}
        for i, t in enumerate(terms):
            mask = np.uint64(0)
            for so in t.support:
                mask |= np.uint64(1) << np.uint64(so - 1)
            self.support[i] = mask
            self.diagonal[i] = t.is_diagonal
            self.class_code[i] = class_index[t.term_class]
            if t.term_class in _HOPPING:
                self.hopping[i] = True
                hop = np.uint64(0)
                for so in t.hop_endpoints:
                    hop |= np.uint64(1) << np.uint64(so - 1)
                self.hop[i] = hop

    def _inner_zero(self, b, c):
        disjoint = (self.support[b] & self.support[c]) == 0
        both_diag = self.diagonal[b] & self.diagonal[c]
        same_hop = self.hopping[b] & self.hopping[c] & (self.hop[b] == self.hop[c])
        return disjoint | both_diag | same_hop

    def _outer_zero(self, a, b, c):
        detached = (self.support[a] & (self.support[b] | self.support[c])) == 0
        return self._inner_zero(b, c) | detached

    def gamma(self, a, b, c):
        """Summand 4 n_a n_b n_c [gate] [commutator survives] per triple."""
        gate = ((a > b) & (c > b)) | ((b > a) & (c == a))
        zero = self._outer_zero(a, b, c) | (
            self._outer_zero(b, c, a) & self._outer_zero(c, a, b)
        )
        return np.where(
            gate & ~zero, 4.0 * self.norm[a] * self.norm[b] * self.norm[c], 0.0
        )


@dataclasses.dataclass(frozen=True)
class ErrorConstantEstimate:
    """Error constant h with its sampling pedigree.

    Attributes:
        value: estimate of h in Hartree^3 (delta_E <= value * t^2).
        method: "exhaustive", "stratified", or "uniform".
        std_error: one-sigma standard error of the estimator; 0 when exact.
        samples: Monte Carlo draws consumed (0 when exact).
        population: number of ordered term triples, m^3.
        per_stratum: class-signature triple -> contribution to value.
            Exhaustive runs fill this exactly; uniform runs leave it empty.
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


def _class_positions(arrays):
    return [np.nonzero(arrays.class_code == i)[0] for i in range(len(TERM_CLASSES))]


def _strata(arrays):
    """Nonempty ordered class triples with their member index arrays."""
    positions = _class_positions(arrays)
    out = []
    for ia, name_a in enumerate(TERM_CLASSES):
        if len(positions[ia]) == 0:
            continue
        for ib, name_b in enumerate(TERM_CLASSES):
            if len(positions[ib]) == 0:
                continue
            for ic, name_c in enumerate(TERM_CLASSES):
                if len(positions[ic]) == 0:
                    continue
                out.append(
                    ((name_a, name_b, name_c), positions[ia], positions[ib],
                     positions[ic])
                )
    return out


def _gated_blocks(arrays):
    """Yield (gamma, stratum) blocks that together hold every gated triple once.

    gamma is the summand of each triple in the block (zero where a vanishing
    rule holds); stratum is its class signature packed as
    (class_a * k + class_b) * k + class_c with k = len(TERM_CLASSES).
    """
    m = arrays.m
    k = len(TERM_CLASSES)
    s = arrays.support
    x = arrays.class_code.astype(np.intp)
    idx = np.arange(m)
    inner = arrays._inner_zero(idx[:, None], idx[None, :])
    union = s[:, None] | s[None, :]
    weight = 4.0 * np.multiply.outer(arrays.norm, arrays.norm)
    # second gate branch: the triples (a, b, a) with b > a
    a_band, b_band = np.triu_indices(m, 1)
    yield (
        arrays.gamma(a_band, b_band, a_band),
        (x[a_band] * k + x[b_band]) * k + x[a_band],
    )
    # first gate branch: at fixed b, rows a > b and columns c > b
    for b in range(m - 1):
        r = slice(b + 1, m)
        inner_b = inner[b, r]
        union_b = union[b, r]
        zero = (
            inner_b[None, :]  # [H_b, H_c] = 0
            | ((s[r, None] & union_b[None, :]) == 0)  # a detached from b, c
            | (  # Jacobi: [b, [c, a]] and [c, [a, b]] both certified zero
                (inner[r, r] | ((s[b] & union[r, r]) == 0))
                & (inner_b[:, None] | ((union_b[:, None] & s[None, r]) == 0))
            )
        )
        yield (
            np.where(zero, 0.0, arrays.norm[b] * weight[r, r]),
            (x[r, None] * k + x[b]) * k + x[None, r],
        )


def _exhaustive(arrays):
    k = len(TERM_CLASSES)
    table = np.zeros(k**3)
    for gamma, stratum in _gated_blocks(arrays):
        table += np.bincount(stratum.ravel(), weights=gamma.ravel(), minlength=k**3)
    per_class = {
        tuple(TERM_CLASSES[i] for i in np.unravel_index(code, (k, k, k))):
            float(table[code])
        for code in np.flatnonzero(table)
    }
    return float(table.sum()), per_class


def _stratified(arrays, samples_per_stratum, seed):
    root = np.random.SeedSequence(seed)
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


def _uniform(arrays, samples, seed):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    m = arrays.m
    a = rng.integers(0, m, samples)
    b = rng.integers(0, m, samples)
    c = rng.integers(0, m, samples)
    gam = arrays.gamma(a, b, c)
    population = m**3
    mean = float(gam.mean())
    var = float(gam.var(ddof=1)) if samples > 1 else 0.0
    return population * mean, population * math.sqrt(var / samples)


def estimate_error_constant(terms, method="exhaustive", samples_per_stratum=200,
                            samples=None, seed=0):
    """Estimate the second-order error constant h of a term list.

    Args:
        terms: TermList in canonical order.
        method: "exhaustive" sums every triple; "stratified" samples each
            class-signature stratum and enumerates strata smaller than the
            per-stratum budget; "uniform" samples the whole triple cube.
        samples_per_stratum: stratified budget per stratum.
        samples: uniform-mode sample count (required for that method).
        seed: base seed; stratified runs derive one child stream per
            stratum, so results are reproducible bit for bit.

    Returns:
        ErrorConstantEstimate.
    """
    arrays = _TermArrays(terms)
    if arrays.m == 0:
        return ErrorConstantEstimate(
            value=0.0, method=method, std_error=0.0, samples=0, population=0,
            per_stratum={}, seed=None,
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
        elif method == "uniform":
            if not samples:
                raise ValueError("uniform sampling needs an explicit sample count")
            drawn = int(samples)
            value, std_error = _uniform(arrays, drawn, seed)
            per_stratum = {}
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


def sampling_variance(terms):
    """Exact population variance of the uniform-sampling summand.

    Walks the same gated blocks as the exhaustive sum (triples outside the
    gate are zeros of the population), so it costs O(m^3) time; a desk-scale
    diagnostic for calibrating sample counts.
    """
    arrays = _TermArrays(terms)
    total = 0.0
    total_sq = 0.0
    for gamma, _ in _gated_blocks(arrays):
        total += float(gamma.sum())
        total_sq += float((gamma * gamma).sum())
    population = arrays.m**3
    mean = total / population
    return total_sq / population - mean * mean


def chebyshev_samples(population_variance, population, target,
                      failure_probability=0.25):
    """Uniform-mode sample count guaranteeing the target by Chebyshev.

    With n draws the estimator variance is population^2 * var / n, so

        n >= population^2 * var / (failure_probability * target^2)

    bounds the probability of missing the target absolute error.
    """
    if target <= 0 or not 0 < failure_probability < 1:
        raise ValueError("need target > 0 and failure probability in (0, 1)")
    if population_variance < 0:
        raise ValueError(f"negative variance {population_variance}")
    if population_variance == 0:
        return 1
    return math.ceil(
        population**2 * population_variance / (failure_probability * target**2)
    )


def trotter_number(error_constant, epsilon):
    """Steps per unit time so that h * t^2 <= epsilon at t = 1/steps."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if error_constant < 0:
        raise ValueError(f"negative error constant {error_constant}")
    return max(1, math.ceil(math.sqrt(error_constant / epsilon)))


@dataclasses.dataclass(frozen=True)
class TrotterNumberModel:
    """Power-law extrapolation of the Trotter number in system size.

    Attributes:
        reference_trotter_number: Trotter number at the reference size.
        reference_n: spin-orbital count the reference was computed at.
        exponent: growth exponent; 2.5 reflects error-constant growth of
            N^5 under the square-root step rule.
    """

    reference_trotter_number: float
    reference_n: int
    exponent: float = 2.5

    def __post_init__(self):
        if self.reference_trotter_number <= 0 or self.reference_n <= 0:
            raise ValueError("reference values must be positive")


def trotter_number_model(n_spin_orbitals, model):
    """Extrapolated Trotter number at a new register size."""
    if n_spin_orbitals <= 0:
        raise ValueError(f"need a positive size, got {n_spin_orbitals}")
    scale = (n_spin_orbitals / model.reference_n) ** model.exponent
    return math.ceil(model.reference_trotter_number * scale)
