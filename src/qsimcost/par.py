"""Programmable-ancilla rotations and nesting parallelism.

A PAR gadget teleports a cached rotation onto the data qubit. Each
teleportation succeeds with probability 1/2; a failure doubles the residual
angle, which the next cached level absorbs. With n cached levels a rotation
fails outright with probability 2^-n, in which case the residual angle is
synthesized directly at C T gates. Caching M rotations ahead of time makes
the number actually performed before the first hard failure
min(Geometric(2^-n), M).

Nesting instead executes exponentials of terms with disjoint spin-orbital
support simultaneously within one product-formula step, without reordering
terms. The parallelism estimate greedily packs consecutive terms into
batches of pairwise-disjoint support; for this consecutive-batch problem
the greedy longest-feasible-prefix policy is optimal.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .hamiltonian import _index_bits

__all__ = [
    "ParParams",
    "par_expected_rotations",
    "par_factory_time_per_rotation",
    "par_factory_time_no_feed_forward",
    "par_rotation_factories",
    "par_rotation_factories_linear_bound",
    "simulate_par_rotations",
    "simulate_par_factory_time",
    "nesting_batches",
    "nesting_parallelism",
]


@dataclasses.dataclass(frozen=True)
class ParParams:
    """PAR gadget parameters.

    Attributes:
        n_levels: cached doubling levels n; the hard-failure probability of
            one rotation is 2^-n.
        rotations_cached: rotations M prepared per batch (the gadget stalls
            after the first hard failure or once all M are consumed).
        synthesis_cost: T gates C to synthesize one rotation directly.
    """

    n_levels: int
    rotations_cached: int = 1
    synthesis_cost: int = 1

    def __post_init__(self):
        if self.n_levels < 1:
            raise ValueError(f"need n_levels >= 1, got {self.n_levels}")
        if self.rotations_cached < 1:
            raise ValueError(
                f"need rotations_cached >= 1, got {self.rotations_cached}"
            )
        if self.synthesis_cost < 0:
            raise ValueError(f"negative synthesis_cost {self.synthesis_cost}")


def par_expected_rotations(params):
    """Expected rotations performed out of the cached batch.

    E[min(Geometric(2^-n), M)] = 2^n (1 - (1 - 2^-n)^M).

    Where 1 - 2^-n rounds to 1 the power is taken through expm1, and once
    2^-n underflows the value is its large-n limit M.
    """
    p_fail = 2.0 ** -params.n_levels
    m = params.rotations_cached
    if 1.0 - p_fail == 1.0:
        return -math.expm1(-m * p_fail) / p_fail if p_fail else float(m)
    return (1.0 - (1.0 - p_fail) ** m) / p_fail


def par_factory_time_per_rotation(params):
    """Expected T-gate periods per rotation with feed-forward correction.

    Level k halts the cascade with probability 2^-k after k periods;
    exhausting all n levels (probability 2^-n) costs the n periods plus a
    direct synthesis of C more:

        sum_{k=1..n} k 2^-k + 2^-n (n + C)
        = (2 - (n+2)/2^n) + (C+n)/2^n.

    The 2^-n scalings underflow to 0 for large n, leaving the limit 2.
    """
    n = params.n_levels
    c = params.synthesis_cost
    return (2.0 - math.ldexp(n + 2.0, -n)) + math.ldexp(c + n, -n)


def par_factory_time_no_feed_forward(params):
    """Expected synthesis periods when a hard failure is simply resynthesized."""
    return math.ldexp(params.synthesis_cost, -params.n_levels)


def par_rotation_factories(params):
    """Rotation factories needed to keep the cascade stocked: n (C + n).

    Each of the n levels keeps a stagger of C + n states in flight so that
    a consumed level is replenished before it is needed again.
    """
    n = params.n_levels
    return n * (params.synthesis_cost + n)


def par_rotation_factories_linear_bound(params):
    """The looser n * C reading of the factory requirement."""
    return params.n_levels * params.synthesis_cost


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def simulate_par_rotations(params, trials=10**6, seed=0):
    """Monte Carlo of the cached-rotation process.

    Returns:
        (mean, standard_error) of the rotations performed per batch.
    """
    rng = _rng(seed)
    p_fail = 2.0 ** -params.n_levels
    m = params.rotations_cached
    # index of the first hard failure, capped by the cache size
    first_failure = rng.geometric(p_fail, size=trials)
    performed = np.minimum(first_failure, m)
    return float(performed.mean()), float(performed.std(ddof=1) / math.sqrt(trials))


def simulate_par_factory_time(params, trials=10**6, seed=0):
    """Monte Carlo of the per-rotation cascade time.

    Returns:
        (mean, standard_error) in T-gate periods.
    """
    rng = _rng(seed)
    n = params.n_levels
    # level where the cascade halts; geometric draws beyond n mean failure
    halt = rng.geometric(0.5, size=trials)
    failed = halt > n
    periods = np.where(failed, n + params.synthesis_cost, halt)
    return float(periods.mean()), float(periods.std(ddof=1) / math.sqrt(trials))


def _support_masks(terms):
    """Python-int support masks of a TermList's rows, bit so - 1 for spin
    orbital so: its support words folded, the most significant first."""
    words = np.bitwise_or.reduce(_index_bits(terms.index), axis=2).tolist()
    masks = words.pop() if words else []
    for word in reversed(words):
        masks = [mask << 64 | w for mask, w in zip(masks, word)]
    return masks


def nesting_batches(terms):
    """Greedy consecutive batches of pairwise-disjoint-support terms.

    The TermList's rows are processed in their order; a batch closes as
    soon as the next term touches a spin orbital already used in the batch.
    Returns a list of batch sizes.
    """
    masks = _support_masks(terms)
    sizes = []
    used = start = 0
    for position, mask in enumerate(masks):
        if used & mask:
            sizes.append(position - start)
            used, start = 0, position
        used |= mask
    if masks:
        sizes.append(len(masks) - start)
    return sizes


def nesting_parallelism(terms):
    """Mean nesting batch size, capped at half the register width.

    The cap reflects that every two-orbital term occupies at least two spin
    orbitals, so sustained parallelism beyond N/2 is an artifact of
    single-orbital terms and is not credited.
    """
    sizes = nesting_batches(terms)
    if not sizes:
        return 1.0
    mean = sum(sizes) / len(sizes)
    return min(mean, terms.n_spin_orbitals / 2.0)
