"""Second-order product-formula error constants from commutator counting.

The effective-energy error of one second-order step factors as
delta_E <= h * t^2 with

    h = sum_{(a,b,c)} 4 * n_a * n_b * n_c,

the sum running over ordered term triples (a, b, c) that pass the
double-commutator gate

    (a > b and c > b)  or  (b > a and c == a)

and whose nested commutator [H_a, [H_b, H_c]] is not certified zero by the
structural vanishing rules below. n_j is the operator-norm weight carried by
term j. Term order is the TermList's row order.

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
m x m x m product, and every summand is non-negative; the exhaustive mode
reproduces the deterministic sum up to summation order. The Monte Carlo
estimator scores its samples with the same identity (gamma), stratified by
the class signature (class_a, class_b, class_c), and draws every sampled
stratum's triples from one random stream in one call.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from .hamiltonian import _IS_DIAGONAL, TERM_CLASSES, _index_bits

__all__ = [
    "ErrorConstantEstimate",
    "estimate_error_constant",
    "trotter_number",
]

_HOPPING_CODES = [TERM_CLASSES.index(c) for c in ("PQ", "PQQR")]


# ---------------------------------------------------------------------------
# Vectorized term arrays
# ---------------------------------------------------------------------------

class _TermArrays:
    """Per-term masks and weights packed for vectorized triple evaluation.

    Read from the TermList's columns (class codes, the zero-padded (M, 4)
    index table and norms). support and hop are (M, W) uint64 words, W =
    ceil(largest index / 64), from one hamiltonian._index_bits table: support
    ORs the bits of a term's indices; hop XORs them on PQ and PQQR terms,
    where the shared index of a PQQR cancels and leaves its two hop
    endpoints, and is zero elsewhere.
    """

    def __init__(self, terms):
        codes, bits = terms.codes, _index_bits(terms.index)
        self.m = len(codes)
        self.norm = terms.norms
        self.support = np.bitwise_or.reduce(bits, axis=2).T
        self.diagonal = _IS_DIAGONAL[codes]
        self.hopping = np.isin(codes, _HOPPING_CODES)
        self.hop = np.where(
            self.hopping[:, None], np.bitwise_xor.reduce(bits, axis=2).T,
            np.uint64(0),
        )
        self.class_code = codes

    def _inner_zero(self, b, c):
        # each test must hold in every word
        disjoint = functools.reduce(
            np.logical_and, [(word[b] & word[c]) == 0 for word in self.support.T]
        )
        same_hop = functools.reduce(
            np.logical_and, [word[b] == word[c] for word in self.hop.T],
            self.hopping[b] & self.hopping[c],
        )
        both_diag = self.diagonal[b] & self.diagonal[c]
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

    The strata are the ordered triples of present classes, in
    itertools.product order. A stratum of at most n = samples_per_stratum
    triples is enumerated. The S others share one Philox stream: one
    integers call shaped (3, S, n), bounded by the strata's class sizes,
    draws positions within classes, and the class-member table (term rows
    sorted by class, with each class's first offset) maps them to rows. A
    stratum's draws are not stable under reallocation; a Neyman allocation
    from a pilot moves every stratum's count anyway, and one bounded call
    takes its flat per-stratum count array as well as a uniform n. One
    gamma call scores all triples, the sampled strata's (S, n) block first,
    whose row-wise mean and variance are each stratum's; an enumerated
    stratum sums its triples left to right.
    """
    sizes = np.bincount(arrays.class_code, minlength=len(TERM_CLASSES))
    members = np.argsort(arrays.class_code, kind="stable")
    first = np.cumsum(sizes) - sizes
    # (3, strata) class codes of (a, b, c)
    keys = np.array(list(itertools.product(np.flatnonzero(sizes), repeat=3))).T
    span = sizes[keys]
    cube = span.prod(axis=0, dtype=float)
    # a budget past the largest stratum enumerates every stratum either way
    n = min(samples_per_stratum, int(cube.max()))
    sampled = cube > n
    shape = (3, int(sampled.sum()), n)
    try:
        draws = np.random.Generator(np.random.Philox(seed)).integers(
            0, span[:, sampled, None], shape, dtype=np.intp
        )
    except (MemoryError, ValueError):  # numpy: "array is too big"
        gib = math.prod(shape) * np.intp(0).nbytes / 2**30
        raise ValueError(
            f"a stratified budget of {samples_per_stratum} samples per "
            f"stratum asks for {gib:,.1f} GiB of draws over {shape[1]} "
            "sampled strata, more than can be allocated"
        ) from None
    draws += first[keys[:, sampled, None]]
    # enumerated strata in meshgrid "ij" order: c fastest, then b, then a
    cells = cube[~sampled].astype(np.intp)
    stratum = np.repeat(np.arange(len(cells)), cells)
    flat = np.arange(cells.sum()) - np.repeat(np.cumsum(cells) - cells, cells)
    size_b, size_c = span[1:, ~sampled][:, stratum]
    grid = np.stack([flat // (size_b * size_c), flat // size_c % size_b, flat % size_c])
    grid += first[keys[:, ~sampled]][:, stratum]
    local = draws.reshape(3, -1)
    if len(cells):
        local = np.concatenate([local, grid], axis=1)
    # positions are in range by construction; "clip" lets take write the
    # rows in place, where "raise" buffers a copy
    gam = arrays.gamma(*members.take(local, out=local, mode="clip"))

    block = gam[: draws[0].size].reshape(-1, n)
    contribution = np.empty(cube.size)
    contribution[sampled] = cube[sampled] * block.mean(axis=1)
    contribution[~sampled] = np.bincount(stratum, weights=gam[block.size:])
    spread = block.var(axis=1, ddof=1) if n > 1 else np.zeros(len(block))
    variance = math.fsum(cube[sampled] ** 2 * spread / n)
    names = map(tuple, np.array(TERM_CLASSES)[keys.T].tolist())
    return (math.fsum(contribution), math.sqrt(variance), block.size,
            dict(zip(names, contribution.tolist())))


def estimate_error_constant(terms, method="exhaustive", samples_per_stratum=200,
                            seed=0):
    """Estimate the second-order error constant h of a term list.

    Args:
        terms: TermList, applied in row order.
        method: "exhaustive" sums every triple; "stratified" samples each
            class-signature stratum and enumerates strata smaller than the
            per-stratum budget.
        samples_per_stratum: stratified budget per stratum, at least 1.
        seed: non-negative seed of the one stream a stratified run draws
            every stratum from, so results are reproducible bit for bit.

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
