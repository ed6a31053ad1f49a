"""Second-quantized Hamiltonian ingestion and term enumeration.

This module turns electronic-structure integral tables into the ordered list
of spin-orbital interaction terms that the rest of the package costs out:
each term is one unit of Trotterization, one rotation per product-formula
half-step.

Both ends of the path cost O(input) in array passes: parse_fcidump
converts the record columns with numpy and scatters them into the tables,
checking lines one at a time only to name a malformed one, and
clifford_count_per_step reads each term's Jordan-Wigner chain as at most
two index ranges, so it needs O(M) memory at any register width.

Conventions
-----------
* Integral files use the FCIDUMP layout: a namelist header, then lines of
  ``value p q r s`` with 1-based orbital indices. Zero indices mark the
  sections: four nonzero indices are two-electron integrals, ``r = s = 0``
  marks one-electron integrals, all-zero marks the core (nuclear repulsion)
  energy. Two-electron values are chemist-notation integrals (pq|rs) over
  spatial orbitals and obey the 8-fold real-orbital symmetry.
* Spatial orbital p (1-based) owns two spin orbitals: 2p-1 (spin up) and
  2p (spin down). Spin-orbital indices are 1-based everywhere in the public
  API.
* A merged term keeps one representative of each Hermitian-conjugate pair,
  stored as (creation pair ascending, annihilation pair ascending) with the
  creation pair not after the annihilation pair; its operator norm is the
  absolute coefficient because the paired fermionic monomial has unit norm.

Term classes follow the standard index-pattern taxonomy:

========  =====================================  ==========================
class     operator                               canonical index tuple
========  =====================================  ==========================
``PP``    h n_p                                  (p,)
``PQ``    h (a+_p a_q + a+_q a_p), p < q         (p, q)
``PQQP``  w n_p n_q, p < q                       (p, q, p, q)
``PQQR``  w (a+_c1 a+_c2 a_a2 a_a1 + h.c.)       (c1, c2, a1, a2), 3 distinct
``PQRS``  w (a+_c1 a+_c2 a_a2 a_a1 + h.c.)       (c1, c2, a1, a2), 4 distinct
========  =====================================  ==========================
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np

__all__ = [
    "IntegralTable",
    "HamiltonianTerm",
    "TermList",
    "CliffordCostTable",
    "CliffordStepCount",
    "parse_fcidump",
    "write_fcidump",
    "enumerate_terms",
    "clifford_count_per_step",
    "export_terms",
    "parse_terms",
]

TERM_CLASSES = ("PP", "PQ", "PQQP", "PQQR", "PQRS")
_CLASS_CODE = {c: i for i, c in enumerate(TERM_CLASSES)}
# (index-tuple length, distinct indices) per class
_SHAPE = {"PP": (1, 1), "PQ": (2, 2), "PQQP": (4, 2), "PQQR": (4, 3), "PQRS": (4, 4)}
_LENGTH = np.array([_SHAPE[c][0] for c in TERM_CLASSES])
_IS_DIAGONAL = np.array([c in ("PP", "PQQP") for c in TERM_CLASSES])  # by code

_EIGHTFOLD = np.array([
    (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
    (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0),
])


class IntegralTable:
    """Spatial-orbital integrals in chemist notation.

    Attributes:
        n_spatial: number of spatial orbitals.
        n_electrons: electron count from the source file.
        one_body: (n, n) array, h[p-1, q-1] in Hartree, symmetric.
        two_body: (n, n, n, n) array, (pq|rs) in Hartree with the 8-fold
            real-orbital symmetry.
        core_energy: constant shift in Hartree (nuclear repulsion plus any
            frozen-core contribution).
        source_label: human-readable origin of the data.
    """

    def __init__(self, n_spatial, n_electrons=0, core_energy=0.0, source_label=""):
        if n_spatial < 1:
            raise ValueError(f"n_spatial must be positive, got {n_spatial}")
        self.n_spatial = int(n_spatial)
        self.n_electrons = int(n_electrons)
        self.core_energy = float(core_energy)
        self.source_label = source_label
        self.one_body = np.zeros((n_spatial, n_spatial))
        self.two_body = np.zeros((n_spatial,) * 4)

    def set_one_body(self, p, q, value):
        """Store h_pq = h_qp. Indices are 1-based."""
        self.one_body[p - 1, q - 1] = value
        self.one_body[q - 1, p - 1] = value

    def set_two_body(self, p, q, r, s, value):
        """Store (pq|rs) and its 8-fold symmetry images. Indices are 1-based."""
        idx = (p - 1, q - 1, r - 1, s - 1)
        for perm in _EIGHTFOLD:
            self.two_body[idx[perm[0]], idx[perm[1]], idx[perm[2]], idx[perm[3]]] = value

    def __eq__(self, other):
        if not isinstance(other, IntegralTable):
            return NotImplemented
        return (
            self.n_spatial == other.n_spatial
            and self.n_electrons == other.n_electrons
            and self.core_energy == other.core_energy
            and np.array_equal(self.one_body, other.one_body)
            and np.array_equal(self.two_body, other.two_body)
        )

    def __repr__(self):
        return (
            f"IntegralTable(n_spatial={self.n_spatial}, n_electrons={self.n_electrons}, "
            f"core_energy={self.core_energy!r}, source={self.source_label!r})"
        )


@dataclasses.dataclass(frozen=True)
class HamiltonianTerm:
    """One classified, Hermitian-merged second-quantized term.

    Attributes:
        term_class: one of PP, PQ, PQQP, PQQR, PQRS.
        spin_orbitals: canonical 1-based index tuple; length 1 or 2 for
            one-body terms (a PQ pair ascending), 4 for two-body terms
            (creation pair ascending, then annihilation pair ascending and
            not before the creation pair). Other tuples raise ValueError.
        coefficient: real prefactor of the merged operator, in Hartree.
        norm: operator-norm contribution used by the error bound, equal to
            abs(coefficient) times a per-class multiplier (default 1).
    """

    term_class: str
    spin_orbitals: tuple
    coefficient: float
    norm: float

    def __post_init__(self):
        shape = _SHAPE.get(self.term_class)
        if shape is None:
            raise ValueError(f"unknown term class {self.term_class!r}")
        idx = self.spin_orbitals
        expected_len, expected_distinct = shape
        if len(idx) != expected_len or len(set(idx)) != expected_distinct:
            raise ValueError(
                f"{self.term_class} term needs {expected_len} indices with "
                f"{expected_distinct} distinct, got {idx}"
            )
        # 1-based, each pair ascending, creation pair not after annihilation
        if idx[0] < 1 or (
            (expected_len == 2 and not idx[0] < idx[1])
            or (expected_len == 4 and not (
                idx[0] < idx[1] and idx[2] < idx[3] and idx[:2] <= idx[2:]
            ))
        ):
            raise ValueError(
                f"{self.term_class} spin_orbitals {idx} are not canonical: "
                "indices start at 1, each pair ascends and the creation pair "
                "does not follow the annihilation pair"
            )


class TermList:
    """Hermitian-merged term list; its row order is the step order.

    Stored as read-only columns, one row per merged term: codes (int8, the
    position in TERM_CLASSES), index ((M, 4) int64, the canonical
    spin_orbitals left-aligned and zero-padded; indices start at 1),
    coefficients and norms (float64). Every consumer applies the rows in
    the order given; enumerate_terms fills the columns directly in
    lexicographic canonical-tuple order, TermList(terms=...) derives them
    from the objects in their order. Iteration, indexing and .terms build
    HamiltonianTerm objects once, on demand.

    Attributes:
        terms: tuple of HamiltonianTerm in row order.
        n_spin_orbitals: width of the spin-orbital register.
        n_electrons: electron count carried through from the integrals.
        core_energy: constant shift, excluded from the terms.
    """

    def __init__(self, terms, n_spin_orbitals, n_electrons=0, core_energy=0.0):
        self._terms = tuple(terms)
        self._set_columns(*_columns(self._terms), n_spin_orbitals, n_electrons,
                          core_energy)

    @classmethod
    def _from_columns(cls, *args, **kwargs):
        self = cls.__new__(cls)
        self._terms = None
        self._set_columns(*args, **kwargs)
        return self

    def _set_columns(self, codes, index, coefficients, norms, n_spin_orbitals,
                     n_electrons=0, core_energy=0.0):
        outside = np.flatnonzero(index.max(axis=1, initial=0) > n_spin_orbitals)
        if len(outside):
            row = outside[0]
            raise ValueError(
                f"term {tuple(index[row, :_LENGTH[codes[row]]].tolist())} "
                f"exceeds register of {n_spin_orbitals} spin orbitals"
            )
        for column in (codes, index, coefficients, norms):
            column.flags.writeable = False
        self.codes, self.index = codes, index
        self.coefficients, self.norms = coefficients, norms
        self.n_spin_orbitals = n_spin_orbitals
        self.n_electrons = n_electrons
        self.core_energy = core_energy

    @property
    def terms(self):
        if self._terms is None:
            self._terms = tuple(
                HamiltonianTerm(TERM_CLASSES[code], tuple(row[:length]), c, n)
                for code, length, row, c, n in zip(
                    self.codes.tolist(), _LENGTH[self.codes].tolist(),
                    self.index.tolist(), self.coefficients.tolist(),
                    self.norms.tolist(),
                )
            )
        return self._terms

    @property
    def m(self):
        """Number of merged terms (one per Hermitian-conjugate pair)."""
        return len(self.codes)

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return iter(self.terms)

    def __getitem__(self, i):
        return self.terms[i]

    def _state(self):
        return (self.codes, self.index, self.coefficients, self.norms,
                self.n_spin_orbitals, self.n_electrons, self.core_energy)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(np.array_equal, self._state(), other._state()))

    def __hash__(self):
        return hash((self.terms, *self._state()[4:]))

    def __repr__(self):
        return (
            f"TermList(terms={self.terms!r}, n_spin_orbitals="
            f"{self.n_spin_orbitals!r}, n_electrons={self.n_electrons!r}, "
            f"core_energy={self.core_energy!r})"
        )

    def by_class(self):
        """Map from class name to the list positions holding that class."""
        return {
            c: np.flatnonzero(self.codes == i).tolist()
            for i, c in enumerate(TERM_CLASSES)
        }


def _columns(terms):
    """Columns (codes, index, coefficients, norms) of terms, in their order."""
    m = len(terms)
    codes = np.fromiter((_CLASS_CODE[t.term_class] for t in terms), np.int8, m)
    index = np.zeros((m, 4), dtype=np.int64)
    index[np.arange(4) < _LENGTH[codes][:, None]] = np.fromiter(
        (so for t in terms for so in t.spin_orbitals), np.int64
    )
    coefficients = np.fromiter((t.coefficient for t in terms), float, m)
    norms = np.fromiter((t.norm for t in terms), float, m)
    return codes, index, coefficients, norms


def _index_bits(index):
    """(W, M, 4) uint64 bits of each index row, W = ceil(max index / 64):
    spin orbital so sets bit (so - 1) % 64 of word (so - 1) // 64, and the
    zero padding sets none. Reducing over the last axis with np.bitwise_or
    gives the (W, M) support words, with np.bitwise_xor the hop endpoints;
    their .T is (M, W) with each word's column contiguous."""
    bit = index - 1  # the zero padding becomes -1, in no word
    word = np.arange(-(-int(index.max(initial=0)) // 64))[:, None, None]
    one = np.uint64(1) << (bit & 63).astype(np.uint64)
    return np.where(bit >> 6 == word, one, np.uint64(0))


# ---------------------------------------------------------------------------
# FCIDUMP reading and writing
# ---------------------------------------------------------------------------

_HEADER_INT = {
    "NORB": re.compile(r"NORB\s*=\s*(-?\d+)", re.IGNORECASE),
    "NELEC": re.compile(r"NELEC\s*=\s*(-?\d+)", re.IGNORECASE),
}

# a record's kind has bit i set when its index i (p, q, r, s) is nonzero;
# the single-index kinds 1 and 2 are orbital-energy records, not stored
_CORE, _ONE_BODY, _TWO_BODY = 0b0000, 0b0011, 0b1111
_KIND_BITS = np.array([1, 2, 4, 8])
_KNOWN_KIND = np.array([k in (_CORE, 0b0001, 0b0010, _ONE_BODY, _TWO_BODY)
                        for k in range(16)])


def parse_fcidump(source, source_label=None):
    """Read an FCIDUMP file into an IntegralTable.

    The records after the header are read in array passes: one split of
    the whole body into tokens, numpy conversion of the value column and
    the four index columns, masks for the malformed records, and scatters
    into the tables. A later record of a symmetry class overwrites an
    earlier one, as if the records were stored one line at a time; blank
    lines, fields past the fifth and orbital-energy records (one nonzero
    index, r = s = 0) are skipped. When a record is malformed, the lines up
    to it are checked one at a time, so the error names the first bad
    line.

    Args:
        source: path to the file, or any object with a read() method.
        source_label: label stored on the table; defaults to the path.

    Returns:
        IntegralTable with symmetry-completed integrals.

    Raises:
        ValueError: malformed header, a NORB whose tables cannot be
            allocated, orbital index out of range, or a non-numeric or
            non-finite value field, each reported with its line number.
    """
    if hasattr(source, "read"):
        text = source.read()
        label = source_label or getattr(source, "name", "<stream>")
    else:
        with open(source) as fh:
            text = fh.read()
        label = source_label or str(source)

    lines = text.splitlines()
    header_end = None
    for i, line in enumerate(lines):
        if "&END" in line.upper() or line.strip() == "/":
            header_end = i
            break
    if header_end is None:
        raise ValueError("line 1: malformed header, no &END or / terminator")
    header = " ".join(lines[: header_end + 1])
    if "&FCI" not in header.upper():
        raise ValueError("line 1: malformed header, missing &FCI namelist")

    fields = {}
    for key, pattern in _HEADER_INT.items():
        match = pattern.search(header)
        if match is None:
            raise ValueError(f"line 1: malformed header, missing {key}")
        fields[key] = int(match.group(1))
    norb = fields["NORB"]
    if norb < 1:
        raise ValueError(f"line 1: malformed header, NORB = {norb}")

    try:
        table = IntegralTable(norb, n_electrons=fields["NELEC"], source_label=label)
    except (MemoryError, ValueError):  # numpy: "array is too big"
        raise ValueError(
            f"line 1: NORB = {norb} asks for "
            f"{8 * (norb**4 + norb**2) / 2**30:,.1f} GiB of integral tables, "
            "more than can be allocated"
        ) from None

    values, index, kind = _read_records(lines[header_end + 1 :], header_end + 2, norb)
    # a later record of a symmetry class wins: keep the last record per
    # class, keyed by its two index pairs, each ordered, in order (the
    # core energy is the pair of zero pairs, a one-body record (p, q) the
    # pair of (p, q) and a zero pair)
    base = norb + 1
    pair = np.sort(index.reshape(2, 2, -1), axis=1)
    pair = pair[:, 1] * base + pair[:, 0]
    keys = pair.max(axis=0) * base**2 + pair.min(axis=0)
    _, first_from_end = np.unique(keys[::-1], return_index=True)
    last = len(keys) - 1 - first_from_end
    values, index, kind = values[last], index[:, last] - 1, kind[last]
    core = values[kind == _CORE]
    if len(core):
        table.core_energy = float(core[0])
    one = kind == _ONE_BODY
    p, q = index[:2, one]
    table.one_body.put([p * norb + q, q * norb + p], values[one])
    two = kind == _TWO_BODY
    images = index[:, two][_EIGHTFOLD]  # (8, 4, R): each class's 8 tuples
    # put repeats the values over the images' flat positions
    table.two_body.put(norb ** np.arange(3, -1, -1) @ images, values[two])
    return table


def _read_records(lines, first_lineno, norb):
    """Columns of the FCIDUMP records in lines, numbered from first_lineno:
    the values (R,), the indices (4, R) and each record's kind (R,), in
    line order, blank lines and fields past the fifth left out.

    Raises:
        ValueError: of _check_records, for the first malformed line.
    """
    width = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    tokens = "\n".join(lines).split()
    rows = np.flatnonzero(width)
    width = width[rows]
    short = width < 5
    if short.any():
        _check_records(lines[: rows[short.argmax()] + 1], first_lineno, norb)
    if (width > 5).any():  # keep the first five fields of each record
        tokens = [t for line in lines for t in line.split()[:5]]
    columns = [tokens[i::5] for i in range(5)]
    try:
        values = np.array(columns[0], dtype=float)
        index = np.array(columns[1:], dtype=np.int64)
    except (ValueError, OverflowError):
        _check_records(lines, first_lineno, norb)
    kind = _KIND_BITS @ (index != 0)
    # a negative index reads as a huge unsigned one
    bad = ~np.isfinite(values) | (index.view(np.uint64) > norb).any(axis=0)
    bad |= ~_KNOWN_KIND[kind]
    if bad.any():
        _check_records(lines[: rows[bad.argmax()] + 1], first_lineno, norb)
    return values, index, kind


def _check_records(lines, first_lineno, norb):
    """Raise the ValueError of the first malformed FCIDUMP record among
    lines, numbered from first_lineno; lines must hold one."""
    for lineno, line in enumerate(lines, start=first_lineno):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 5:
            raise ValueError(f"line {lineno}: expected 'value p q r s', got {line!r}")
        try:
            value = float(parts[0])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric value {parts[0]!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"line {lineno}: non-finite value {parts[0]!r}")
        try:
            p, q, r, s = (int(x) for x in parts[1:5])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer orbital index in {line!r}") from None
        for name, idx in (("p", p), ("q", q), ("r", r), ("s", s)):
            if idx < 0 or idx > norb:
                raise ValueError(
                    f"line {lineno}: index {name}={idx} out of range 1..{norb}"
                )
        if not (r == s == 0 or (p and q and r and s)):
            raise ValueError(
                f"line {lineno}: index pattern ({p},{q},{r},{s}) is neither "
                "two-body, one-body, nor core"
            )
    raise AssertionError("no malformed record among the lines checked")


def write_fcidump(table, destination):
    """Write an IntegralTable in FCIDUMP layout.

    One canonical representative per 8-fold symmetry class is emitted, floats
    carry 17 significant digits so re-parsing reproduces an identical table.

    Args:
        table: IntegralTable to serialize.
        destination: path or writable file object.
    """
    n = table.n_spatial
    lines = [
        f" &FCI NORB={n:3d},NELEC={table.n_electrons:3d},MS2=0,",
        "  ORBSYM=" + "1," * n,
        "  ISYM=1,",
        " &END",
    ]

    def emit(value, p, q, r, s):
        lines.append(f"  {value: .16E} {p:4d} {q:4d} {r:4d} {s:4d}")

    # (p, q, r, s) with q <= p, s <= r and pair number rs <= pq, 1-based, in
    # row-major order
    lower = np.tri(n, dtype=bool)
    orbital = np.arange(1, n + 1)
    pair = orbital[:, None] * (orbital[:, None] + 1) // 2 + orbital
    canonical = lower[:, :, None, None] & lower & (pair <= pair[:, :, None, None])
    for p, q, r, s in zip(*np.nonzero(canonical & (table.two_body != 0.0))):
        emit(table.two_body[p, q, r, s], p + 1, q + 1, r + 1, s + 1)
    for p, q in zip(*np.nonzero(lower & (table.one_body != 0.0))):
        emit(table.one_body[p, q], p + 1, q + 1, 0, 0)
    emit(table.core_energy, 0, 0, 0, 0)

    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Spin-orbital term enumeration
# ---------------------------------------------------------------------------

def enumerate_terms(table, drop_threshold=1e-10, norm_multipliers=None):
    """Expand spatial integrals into ordered spin-orbital terms.

    The two-body part is brought to the normal-ordered pair form

        H2 = sum_{i<k, j<l} w[(i,k),(j,l)] a+_i a+_k a_l a_j,
        w = (ij|kl)_so - (il|kj)_so,

    where (ij|kl)_so is the chemist integral of the owning spatial orbitals
    when the spins of i,j and of k,l match, else zero. Hermitian-conjugate
    pairs are merged by keeping the orientation whose creation pair does not
    exceed its annihilation pair; coinciding pairs give the self-adjoint
    PQQP terms. Spin conservation holds by construction: a term survives
    only if the spin multiset of its creation pair equals that of its
    annihilation pair.

    The candidates (i, k, j, l) are the upper triangle of creation pair
    against annihilation pair, in lexicographic order, kept where the two
    pairs carry the same number of down spins; both integrals are gathered
    from the spatial table under their spin masks, so no spin-orbital
    tensor is built. The candidates that survive the threshold are
    classified by their number of distinct indices. The one-body terms come
    from the upper triangle of the one-body table in the same way. Both
    parts are columns (see TermList), put in canonical order by one
    np.lexsort of the index rows; no HamiltonianTerm is built.

    Args:
        table: IntegralTable with chemist-notation integrals.
        drop_threshold: terms with abs(coefficient) <= this are removed;
            a non-finite value raises ValueError.
        norm_multipliers: optional map class name -> norm multiplier applied
            on top of abs(coefficient); defaults to 1.0 for every class.

    Returns:
        TermList in lexicographic canonical order.
    """
    if not math.isfinite(drop_threshold):
        raise ValueError(f"drop_threshold must be finite, got {drop_threshold}")
    multipliers = {c: 1.0 for c in TERM_CLASSES}
    if norm_multipliers:
        unknown = set(norm_multipliers) - set(TERM_CLASSES)
        if unknown:
            raise ValueError(f"unknown term classes in norm_multipliers: {sorted(unknown)}")
        multipliers.update(norm_multipliers)

    n_so = 2 * table.n_spatial
    v2 = table.two_body

    def kept(w):
        return (w != 0.0) & ~(np.abs(w) <= drop_threshold)

    # one-body terms over 0-based spatial p <= q: h_pq is spin diagonal, so
    # it acts on 1-based spin orbitals (2p+1, 2q+1) (up) and (2p+2, 2q+2)
    # (down), as a PP term (2p+1,) when p == q and a PQ term otherwise
    p, q = np.triu_indices(table.n_spatial)
    h1 = table.one_body[p, q]
    keep = kept(h1)
    p, q, h1 = p[keep], q[keep], h1[keep]
    up = np.stack([2 * p + 1, np.where(p == q, 0, 2 * q + 1), 0 * p, 0 * p], 1)
    one_code = np.where(p == q, _CLASS_CODE["PP"], _CLASS_CODE["PQ"])
    # two-body terms, 0-based here: spin orbital x is spatial x // 2 with
    # spin x % 2. Creation pair (i, k) meets annihilation pairs (j, l) from
    # itself on; the mirrored orientation is the Hermitian conjugate
    lower, upper = np.triu_indices(n_so, 1)
    down = lower % 2 + upper % 2
    cre, ann = np.triu_indices(len(lower))
    same_spin = down[cre] == down[ann]
    cre, ann = cre[same_spin], ann[same_spin]
    i, k, j, l = lower[cre], upper[cre], lower[ann], upper[ann]
    # with equal down counts, spin(i) == spin(j) forces spin(k) == spin(l),
    # and spin(i) == spin(l) forces spin(k) == spin(j)
    direct = np.where(i % 2 == j % 2, v2[i // 2, j // 2, k // 2, l // 2], 0.0)
    exchange = np.where(i % 2 == l % 2, v2[i // 2, l // 2, k // 2, j // 2], 0.0)
    w = direct - exchange
    keep = kept(w)
    two_index = np.stack([i, k, j, l], axis=1)[keep] + 1
    i, k, j, l = two_index.T
    # 2, 3, 4 distinct indices are the codes of PQQP, PQQR, PQRS
    distinct = 4 - (i == j).astype(np.int8) - (i == l) - (k == j) - (k == l)

    index = np.concatenate([up, up + (up > 0), two_index])
    order = np.lexsort(index.T[::-1])
    codes = np.concatenate([one_code, one_code, distinct]).astype(np.int8)[order]
    coefficients = np.concatenate([h1, h1, w[keep]])[order]
    scale = np.array([multipliers[c] for c in TERM_CLASSES], dtype=float)
    return TermList._from_columns(
        codes, index[order], coefficients, np.abs(coefficients) * scale[codes],
        n_so, table.n_electrons, table.core_energy,
    )


# ---------------------------------------------------------------------------
# Per-step Clifford cost model
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CliffordCostTable:
    """Configurable circuit-cost constants for one exponentiated term.

    A weight-w string costs entangling_per_rung * (w - 1) entangling gates
    and, unless the term is diagonal in the computational basis,
    basis_changes_per_qubit * w basis-change gates, plus one rotation.
    Consecutive terms whose CNOT ladders share a prefix cancel
    entangling_per_rung * prefix_length entangling gates at the junction.
    """

    entangling_per_rung: int = 2
    basis_changes_per_qubit: int = 2
    diagonal_basis_changes: int = 0
    cancel_adjacent_ladders: bool = True


@dataclasses.dataclass(frozen=True)
class CliffordStepCount:
    """Gate tally for one second-order product-formula step."""

    entangling: int
    basis_changes: int
    rotations: int

    @property
    def total_clifford(self):
        return self.entangling + self.basis_changes


def _chain_events(index, n_spin_orbitals):
    """(5, M) int32 event rows of the terms' Jordan-Wigner chains, one
    column per index row.

    Every chain is the union of two closed index ranges. One-body terms use
    [p, p] (PP) or [p, q] (PQ). With the four indices of a two-body term
    sorted as w1 <= w2 <= w3 <= w4 the chain is [w1, w2] U [w3, w4]: for
    PQQP (p, p, q, q) that is {p} U {q}; for PQQR the repeated (shared)
    index either closes a one-point range or sits inside [lo, hi], which
    gives [lo, hi] U {shared}; for PQRS it is the two segments themselves.
    In a canonical row (c1, c2, a1, a2), c1 is w1, the row maximum is w4,
    min(c2, a1) is w2 and max(a1, min(c2, a2)) is w3; the zero padding of a
    one-body row makes both middle values 0.

    The two ranges merge into [w1, w4] when w3 <= w2 + 1, so each chain is
    at most two disjoint maximal ranges [a1, b1] and [a2, b2]; a chain of
    one range gets the empty range a2 = b2 + 1 = n_spin_orbitals + 1, past
    the register, as its second. Rows 0-3 are a1, b1 + 1, a2, b2 + 1, the
    positions at which membership turns on and off, so two chains are
    equal exactly when their event rows are. Row 4 is n_spin_orbitals + 1
    for every term.
    """
    c1, c2, a1, a2 = index.T
    last = index.max(axis=1)
    low = np.minimum(c2, a1)
    high = np.maximum(a1, np.minimum(c2, a2))
    merged = high <= low + 1
    past = n_spin_orbitals + 1
    events = np.empty((5, len(index)), dtype=np.int32)
    events[0] = c1
    events[1] = np.where(merged, last, low) + 1
    events[2] = np.where(merged, past, high)
    events[3] = np.where(merged, past, last + 1)
    events[4] = past
    return events


def clifford_count_per_step(terms, cost_table=None):
    """Clifford gates of one second-order step under the documented model.

    The step applies every term once in order and once in reverse order, so
    a term list of M terms contributes exactly 2M rotations. Entangling and
    basis-change counts follow the per-term string model of
    CliffordCostTable, with ladder cancellation between consecutive terms
    of the forward-plus-reverse sequence (the turnaround repeats the last
    term, so its ladder cancels completely).

    Closed form, in O(M) memory at any register width: each term's chain
    (the qubits of its Jordan-Wigner string, parity chain included) is at
    most two disjoint ranges, read off the TermList's index table as event
    rows (see _chain_events), and its width w is the total range length.
    Two consecutive chains first differ at the smaller of their two values
    in the first event row where they differ (nowhere when none does).
    They agree on their first k qubits, where k counts the earlier chain's
    qubits before that position (all of them when the chains are equal),
    and their ladders then share max(k - 1, 0) rungs. The reverse pass
    repeats the forward junctions mirrored, and the turnaround cancels
    w_last - 1 rungs, so every quantity is an integer sum over terms.

    Args:
        terms: TermList, applied in row order.
        cost_table: CliffordCostTable overriding the default constants.

    Returns:
        CliffordStepCount for a single step.
    """
    table = cost_table or CliffordCostTable()
    m = len(terms.codes)
    if not m:
        return CliffordStepCount(entangling=0, basis_changes=0, rotations=0)
    events = _chain_events(terms.index, terms.n_spin_orbitals)
    starts, ends = events[0:4:2], events[1:4:2]  # (2, M): one row per range
    width = (ends - starts).sum(axis=0)
    diagonal = _IS_DIAGONAL[terms.codes]

    # every term appears twice in the forward-plus-reverse sequence
    entangling = 2 * table.entangling_per_rung * (int(width.sum(dtype=np.int64)) - m)
    basis = 2 * (
        table.diagonal_basis_changes * int(width[diagonal].sum(dtype=np.int64))
        + table.basis_changes_per_qubit * int(width[~diagonal].sum(dtype=np.int64))
    )
    if table.cancel_adjacent_ladders:
        differ = events[:, :-1] != events[:, 1:]
        differ[4] = True  # equal chains meet at row 4, past the register
        at = np.minimum(events[:, :-1], events[:, 1:])[
            differ.argmax(axis=0), np.arange(m - 1)
        ]
        shared = np.maximum(np.minimum(ends[:, :-1], at) - starts[:, :-1], 0)
        forward = int(np.maximum(shared.sum(axis=0) - 1, 0).sum(dtype=np.int64))
        entangling -= table.entangling_per_rung * (
            2 * forward + int(width[-1]) - 1
        )
    return CliffordStepCount(
        entangling=entangling,
        basis_changes=basis,
        rotations=2 * m,
    )


# ---------------------------------------------------------------------------
# Term list serialization
# ---------------------------------------------------------------------------

def export_terms(terms):
    """Render a term list as text, one 'class indices coefficient' per line."""
    lines = []
    for t in terms:
        idx = " ".join(str(i) for i in t.spin_orbitals)
        lines.append(f"{t.term_class} {idx} {t.coefficient: .16E}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_terms(text, n_spin_orbitals, n_electrons=0, core_energy=0.0):
    """Inverse of export_terms, keeping the lines' order as the row order;
    validates classes, finite coefficients and canonical index tuples."""
    terms = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        cls = parts[0]
        if cls not in TERM_CLASSES:
            raise ValueError(f"line {lineno}: unknown term class {cls!r}")
        try:
            indices = tuple(int(x) for x in parts[1:-1])
            coefficient = float(parts[-1])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed term line {line!r}") from None
        if not math.isfinite(coefficient):
            raise ValueError(f"line {lineno}: non-finite value {parts[-1]!r}")
        terms.append(
            HamiltonianTerm(
                term_class=cls,
                spin_orbitals=indices,
                coefficient=coefficient,
                norm=abs(coefficient),
            )
        )
    return TermList(
        terms=tuple(terms),
        n_spin_orbitals=n_spin_orbitals,
        n_electrons=n_electrons,
        core_energy=core_energy,
    )
