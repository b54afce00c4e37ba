"""Symmetric association schemes and their exact/spectral invariants.

Everything combinatorial (axioms, intersection numbers, fusion closure) is
exact.  :func:`validate_scheme` checks the axioms and yields the
intersection tensor in one pass: a histogram gives the tensor, and float64
BLAS products check closure on every cell, packing many class pairs, or
one generator's products, as mixed-radix digits small enough to stay
exact.  That is the path of files and label matrices, which carry no
group.  A translation scheme, ``labels[x, y] = row0[y - x]``, is checked
by :func:`_translation_scheme` on row 0 and the group's subtraction table
in O(v^2), with the same violations.  Labels are held in the smallest
unsigned dtype that holds d (see :class:`LabelMatrix`), and every v^2 pass
runs in row blocks of bounded size (see :func:`_row_blocks`), so none
makes a v x v int64 array.

Eigenmatrices, idempotents and Krein parameters are floating point under
an explicit tolerance policy.  The eigenmatrices come from one ``eigh`` of
a fixed combination of the symmetrized (d+1)-dimensional intersection
matrices, with the square roots of the first d primes as weights; as those
are linearly independent over the rationals, distinct integral rows of P
get distinct eigenvalues, and only a cluster the combination leaves
together is split further, class by class.  No random numbers are drawn.
The margin rule is one check on P's class columns.  Idempotents and Krein
parameters are read off class values, with no v x v product: a matrix
sum_c x_c A_c is given by its d + 1 values x_c, and as the A_c are
disjoint and none is empty, it is within a bound on every cell exactly
when each x_c is, and its largest cell is its largest |x_c|.  A scheme is
built with its tensor, caches its spectral data on the instance, and
keeps nothing else (see :class:`AssociationScheme`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AxiomViolation,
    DegenerateSpectrum,
    IdempotencyViolation,
    NegativeKrein,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "LabelMatrix",
    "AssociationScheme",
    "IntersectionTensor",
    "SpectralData",
    "IdempotentBasis",
    "KreinTensor",
    "validate_scheme",
    "intersection_numbers",
    "spectral_decomposition",
    "idempotents",
    "krein_parameters",
    "formal_duality_permutation",
]


@dataclass(frozen=True)
class Tolerance:
    """Two-sided float comparison policy: |a-b| <= atol + rtol*max(|a|,|b|)."""

    atol: float = 1e-8
    rtol: float = 1e-8

    def __post_init__(self):
        for name in ("atol", "rtol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"tolerance {name}={value!r} must be finite and >= 0")

    def close(self, a, b) -> bool:
        """Whether the scalars a and b are close: :meth:`isclose` on them."""
        return bool(self.isclose(a, b))

    def isclose(self, a, b) -> np.ndarray:
        """Elementwise comparison under this policy, broadcasting a against b."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return np.abs(a - b) <= self.atol + self.rtol * np.maximum(np.abs(a), np.abs(b))

    def allclose(self, a, b) -> bool:
        return bool(np.all(self.isclose(a, b)))

    def scaled(self, v: int) -> "Tolerance":
        """This tolerance with atol times v and rtol as is: the bound of the
        checks on sums of v terms, such as PQ = vI."""
        return Tolerance(atol=self.atol * v, rtol=self.rtol)

    def snap(self, arr):
        """Round entries that sit within tolerance of an integer.

        Returns (snapped array, bool mask of entries that were snapped);
        irrational entries stay floats.  A snapped 0 is +0.0, whatever the
        sign of the rounding noise.
        """
        arr = np.asarray(arr, dtype=float)
        rounded = np.round(arr) + 0.0
        bound = self.atol + self.rtol * np.maximum(np.abs(arr), 1.0)
        mask = np.abs(arr - rounded) <= bound
        out = np.where(mask, rounded, arr)
        return out, mask


DEFAULT_TOL = Tolerance()

# float64 holds every integer up to 2^53 exactly
_EXACT = 2 ** 53

# The largest prime below 2^24: the closure certificate's residues, whose
# products summed over up to 2^15 terms stay below 2^63.
_PRIME = 2 ** 24 - 3

# One step of the closure certificate (:func:`_generates`) costs about as
# much as this many of a packed product's v^3 float64 multiply-adds: 15-17
# us against 0.05-0.07 ns each at v = 128..512, with one BLAS thread.
_CERTIFICATE_STEP = 2 ** 18

# Inter-eigenvalue gap needed before we trust a grouping, in units of atol.
_GAP_FACTOR = 100.0


# Cells per row block of a v x v pass, so that a block's int64 and float64
# arrays stay at 512 KiB whatever v is.
_BLOCK_CELLS = 2 ** 16

# Rows per block of a packed product at least: BLAS runs a 64-row block
# against 1024 columns about 1.4x slower per row than a 256-row one.
_PRODUCT_ROWS = 256


def _row_blocks(v: int, least: int = 1):
    """Slices of consecutive rows of a v x v pass, each of at most
    ``_BLOCK_CELLS`` cells or of ``least`` rows, whichever is more."""
    step = max(least, _BLOCK_CELLS // v)
    return (slice(start, start + step) for start in range(0, v, step))


def _label_dtype(d: int) -> np.dtype:
    """The smallest unsigned integer dtype that holds the labels 0..d:
    uint8 up to d = 255."""
    return np.min_scalar_type(min(d, np.iinfo(np.uint64).max))


@dataclass(frozen=True)
class LabelMatrix:
    """A v x v matrix of class labels 0..d; label 0 marks the identity class.

    The labels are held read-only, C-contiguous, in ``_label_dtype(d)``,
    the smallest unsigned integer dtype that holds d (uint8 up to d = 255),
    so a matrix takes v^2 bytes up to d = 255.  Integer input of any dtype
    is range-checked as given and then narrowed, so a label outside 0..d
    is rejected and never wraps.  Bool and float input is accepted where
    every label is an integer; a float label that is not (a fraction, NaN
    or an infinity) is rejected, naming its cell, and so is input of any
    other dtype, never truncated.  A writeable array that the labels would
    share memory with is copied first, so the caller's array stays
    writeable and later writes to it do not reach the matrix; callers that
    build the array in the narrow dtype and hand it over mark it read-only
    to skip the copy.
    """

    v: int
    d: int
    labels: np.ndarray

    def __post_init__(self):
        given = self.labels
        labels = np.asarray(given)
        if labels.ndim != 2 or labels.shape[0] != labels.shape[1]:
            raise ValueError(f"label matrix must be square, got shape {labels.shape}")
        if labels.shape[0] != self.v:
            raise ValueError(f"label matrix is {labels.shape[0]}x{labels.shape[0]}, header says v={self.v}")
        if labels.dtype.kind not in "biuf":
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        if labels.dtype.kind == "f":
            off = ~np.isfinite(labels) | (labels != np.round(labels))
            if off.any():
                bad = tuple(int(x) for x in np.argwhere(off)[0])
                raise ValueError(f"label {labels[bad]} at {bad} is not an integer")
        if labels.dtype.kind not in "iu":
            labels = labels.astype(np.int64)
        if self.v < 1 or self.d < 1:
            raise ValueError("need v >= 1 and d >= 1")
        if int(labels.min()) < 0 or int(labels.max()) > self.d:
            bad = np.argwhere((labels < 0) | (labels > self.d))[0]
            raise ValueError(f"label out of range [0, {self.d}] at {tuple(int(x) for x in bad)}")
        labels = np.ascontiguousarray(labels, dtype=_label_dtype(self.d))
        if labels.flags.writeable and np.may_share_memory(labels, given):
            labels = labels.copy()
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)


class AssociationScheme:
    """A validated symmetric association scheme.

    Instances are produced, with their intersection tensor, by
    :func:`validate_scheme`, by :func:`_translation_scheme` for generated
    schemes and by :func:`~amorphic.fusion.fuse_direct` for fused ones,
    and are immutable.  Spectral data are cached per instance, one entry
    per :class:`Tolerance`.

    Nothing else is kept: a fusion answer is its caller's return value,
    and no fused scheme is kept (each holds its own v x v label matrix, in
    the smallest unsigned dtype that holds its d, see :class:`LabelMatrix`;
    the contraction claim asks its contracted schemes' questions without
    building them).
    """

    def __init__(self, label_matrix: LabelMatrix, valencies: tuple[int, ...],
                 intersection: "IntersectionTensor"):
        self.label_matrix = label_matrix
        self.valencies = valencies
        self._intersection = intersection
        self._spectra: dict[Tolerance, SpectralData] = {}

    @property
    def v(self) -> int:
        return self.label_matrix.v

    @property
    def d(self) -> int:
        return self.label_matrix.d

    @property
    def labels(self) -> np.ndarray:
        return self.label_matrix.labels

    def relation(self, i: int) -> np.ndarray:
        """0/1 adjacency matrix of class i (exact integers)."""
        return (self.labels == i).astype(np.int64)

    @property
    def intersection(self) -> "IntersectionTensor":
        return self._intersection

    @property
    def spectral(self) -> "SpectralData":
        """Spectral data at the default tolerance, from the instance cache."""
        return spectral_decomposition(self)

    def __eq__(self, other):
        return isinstance(other, AssociationScheme) and np.array_equal(self.labels, other.labels)

    def __hash__(self):
        return hash((self.v, self.d, self.labels.tobytes()))

    def __repr__(self):
        return f"AssociationScheme(v={self.v}, d={self.d}, valencies={self.valencies})"


@dataclass(frozen=True)
class IntersectionTensor:
    """p[i][j][h] with A_i A_j = sum_h p[i][j][h] A_h, exact integers."""

    p: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(np.asarray(self.p, dtype=np.int64))
        p.flags.writeable = False
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class SpectralData:
    """Eigenmatrices P, Q with valencies and multiplicities.

    Row 0 of P is the valency row; the remaining rows are ordered by
    (multiplicity ascending, then lexicographically on rounded entries), so
    output is deterministic but need not match any external catalog.
    """

    v: int
    P: np.ndarray
    Q: np.ndarray
    valencies: tuple[int, ...]
    multiplicities: tuple[int, ...]
    tol: Tolerance = field(default=DEFAULT_TOL)
    P_integer_mask: np.ndarray | None = None
    Q_integer_mask: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.P.shape[0] - 1

    def principal(self, which: str = "P") -> np.ndarray:
        """Principal part: the eigenmatrix minus its first row and column."""
        m = self.P if which == "P" else self.Q
        return m[1:, 1:]


@dataclass(frozen=True)
class IdempotentBasis:
    """Minimal idempotents E_0..E_d by class values: E_j is values[c, j] =
    Q[c, j] / v on class c, so no v x v E_j is formed."""

    values: np.ndarray
    tol: Tolerance = field(default=DEFAULT_TOL)


@dataclass(frozen=True)
class KreinTensor:
    """q[i][j][h] with E_i o E_j = (1/v) sum_h q[i][j][h] E_h."""

    q: np.ndarray
    tol: Tolerance = field(default=DEFAULT_TOL)


def _as_label_matrix(labels) -> LabelMatrix:
    if isinstance(labels, LabelMatrix):
        return labels
    if isinstance(labels, AssociationScheme):
        return labels.label_matrix
    arr = np.asarray(labels)  # integer input as it is: LabelMatrix narrows it
    if not isinstance(labels, np.ndarray):
        arr.flags.writeable = False  # a new array: handed over, not copied
    # input that is not a matrix of numbers, or whose largest label is not
    # finite, gets stand-ins for v and d: LabelMatrix rejects it first
    top = arr.max(initial=0) if arr.dtype.kind in "biuf" else 0
    return LabelMatrix(v=len(arr) if arr.ndim else 0, d=int(top) if np.isfinite(top) else 0,
                       labels=arr)


def validate_scheme(labels) -> AssociationScheme:
    """Check the four scheme axioms exactly and attach the intersection tensor.

    Raises :class:`AxiomViolation` with the failed axiom and a witness cell.

    One pass does both jobs.  The candidate tensor comes from a single
    histogram of the v^2 cells (see :func:`_row0_counts`); closure is then
    checked on every cell as ``A_i A_j == p[i, j][labels]`` for 1 <= i <= j
    <= d, many pairs per float64 BLAS product, packed as digits in a mixed
    radix sized by the class degrees (see :func:`_closure_plan`).

    The digit bound.  K_c, the largest count of class c in one row, is k_c
    on a valid input.  The count N_ij(x, y) = #{z : L[x, z] = i, L[z, y] =
    j} is at most min(K_i, K_j), since row x holds at most K_i cells of
    class i and column y, row y by symmetry, at most K_j of class j; p_ij^h
    is a mean of such counts, so it is bounded the same way.  Pair (i, j)
    is therefore one digit in radix min(K_i, K_j) + 1.

    One product stacks consecutive rows I of the pair table against the
    columns J from the first of them to d, or one run of columns of a row
    too long for 53 bits, with one radix r_j per column (the largest over
    I) and B = prod r_j.  With weights U_i = B^t (t is i's place in I) and
    W_j = prod of the radices before j, it compares ``U[labels] @
    W[labels]``, the sum over I x J of U_i W_j A_i A_j, with the same sum of
    U_i W_j p_ij^h at each cell's class.  Every packed cell is below B^|I|
    <= 2^53, so both sides are exact (see :func:`_packed_agrees`), and
    mixed-radix digits are unique, so the packed cells agree exactly when
    every digit does.  The
    digits (i, j) with j < i, which a stack packs too, are the pairs (j,
    i) again: where pair (j, i) closes, so do they.

    Products run in row-major order.  One whose packed cells differ, or
    whose tensor entries hold a -1 mark (the input is then invalid), has
    its pairs checked one by one in row-major order only to name the
    witness (see :func:`_closure_witness`); a valid scheme never gets
    there.

    Closure from one generator.  Before that pairwise loop, when the tensor
    holds no -1 mark and the loop needs more than one product, a generator
    X = sum_i U_i A_i (U a nonnegative integer vector) can prove closure in
    fewer products (see :func:`_generator_closes`).  Let B[h, j] = sum_i
    U_i p_ij^h.  The products check X A_j == sum_h B[h, j] A_h for j = 1..d
    (j = 0 holds by the histogram), packed as above with one row: a cell
    of X A_j is sum over {z : L[z, y] = j} of U[L[x, z]], at most
    sum_i U_i min(K_i, K_j) and at most max(U) K_j, and so is B[h, j], so
    column j is a digit in radix r_j = min of the two + 1 (see
    :func:`_generator_plan`).  The certificate (:func:`_generates`) checks
    exactly that e_0, B e_0, ..., B^d e_0 are independent.  Then closure
    follows.  The A_h are independent, as their supports are disjoint and
    not empty, and X maps each A_j into their span; so X^t has coordinates
    B^t e_0, and the d + 1 powers X^0, ..., X^d span the same space as the
    A_h.  Every A_i is then a polynomial f_i(X), and A_i A_j = f_i(X) A_j
    lies in the span, since X maps the span into itself.  An integer matrix
    constant on classes, A_i A_j has p_ij^h at every cell of class h, row
    0's included, so the histogram's p is the true tensor.

    The candidates are tried in a fixed order, with no random numbers:
    each single class e_c, the smallest K_c (and so the smallest radices)
    first, then U = (0, 1, ..., d); one that would need as many products
    as the pairwise loop is skipped.  The generator is tried only where it
    can pay: when the products it can save, (len(plan) - 1) v^3
    multiply-adds, exceed the certificate's worst case, (d + 1)^2 steps
    of ``_CERTIFICATE_STEP`` each.  When no candidate is certified, or one
    of the generator's products disagrees (the input is then not closed),
    the pairwise loop runs unchanged, so every accepted tensor and every
    violation (axiom, witness, message) is the same on either path.
    """
    lm = _as_label_matrix(labels)
    L = lm.labels
    v, d = lm.v, lm.d

    diag = np.diagonal(L)
    if np.any(diag != 0):
        x = int(np.argmax(diag != 0))
        raise AxiomViolation("identity", (x, x))
    if d >= v:
        # row 0 has v - 1 cells off the diagonal, so some class misses it;
        # the smallest label missing from the matrix is named without
        # counting all d + 1 labels
        present = np.unique(L)
        gaps = np.flatnonzero(present != np.arange(len(present)))
        missing = int(gaps[0]) if gaps.size else len(present)
        if missing <= d:
            raise AxiomViolation("partition", missing, f"label {missing} never occurs")
    K = _largest_row_counts(L, d)
    # the diagonal is all 0, so label 0 is confined to it exactly when no
    # row holds it twice, and a label occurs exactly when some row holds it
    if K[0] != 1:
        x, y = map(int, np.argwhere((L == 0) & ~np.eye(v, dtype=bool))[0])
        raise AxiomViolation("identity", (x, y), "label 0 occurs off the diagonal")
    if not all(K):
        missing = K.index(0)
        raise AxiomViolation("partition", missing, f"label {missing} never occurs")

    if not np.array_equal(L, L.T):
        x, y = map(int, np.argwhere(L != L.T)[0])
        raise AxiomViolation("symmetry", (x, y))

    counts, k = _row0_counts(L, d)
    # p[i, j, h] = counts / k_h where that is an integer; -1 marks a class
    # missing from row 0 or a non-integer mean, and matches no product
    whole = (k > 0) & (counts % np.maximum(k, 1) == 0)
    p = np.where(whole, counts // np.maximum(k, 1), -1)
    # one v x v float64 array is held at a time, the weighted columns; the
    # weighted rows, their product and the expected cells come a row block
    # at a time
    plan = _closure_plan(K, d)
    pf = p.astype(np.float64)
    if len(plan) == 1 or not _generator_closes(L, p, pf, K, plan):
        for rows, cols, radix in plan:
            U, B = np.zeros(d + 1), math.prod(radix)
            U[rows.start:rows.stop] = [B ** t for t in range(len(rows))]
            if (p[rows.start:rows.stop, cols.start:cols.stop] >= 0).all():
                if _packed_agrees(L, pf, U, _place_values(d, cols, radix)):
                    continue
            for i in rows:
                run = range(max(i, cols.start), cols.stop)
                _closure_witness(L, p, (L == i).astype(np.float64), i, run)

    return AssociationScheme(lm, tuple(int(x) for x in k), IntersectionTensor(p))


def _generator_closes(L: np.ndarray, p: np.ndarray, pf: np.ndarray, K, plan) -> bool:
    """True when a generator proves closure in fewer products than ``plan``
    (see :func:`validate_scheme`); False when none is tried, none is
    certified, or one of its products disagrees (the input is then not
    closed, and the pairwise loop names the witness)."""
    v, d = L.shape[0], p.shape[0] - 1
    if (len(plan) - 1) * v ** 3 <= _CERTIFICATE_STEP * (d + 1) ** 2 or (p < 0).any():
        return False
    generator = _generator_plan(p, K, d, len(plan))
    if generator is None:
        return False
    U, runs = generator
    return all(_packed_agrees(L, pf, U.astype(np.float64), _place_values(d, cols, radix))
               for cols, radix in runs)


def _place_values(d: int, cols: range, radix) -> np.ndarray:
    """W_j, the mixed-radix place value of column j in ``cols`` (the product
    of the radices before it), and 0 off ``cols``."""
    W = np.zeros(d + 1)
    W[cols.start:cols.stop] = list(itertools.accumulate(radix[:-1], operator.mul, initial=1))
    return W


def _packed_agrees(L: np.ndarray, pf: np.ndarray, U: np.ndarray, W: np.ndarray) -> bool:
    """``U[L] @ W[L] == (W @ M)[L]`` on every cell, with M[j, h] = sum_i
    U_i p_ij^h and ``pf`` = p as float64: the weighted sum of the products
    A_i A_j against the same weighted sum of intersection numbers.  Only
    W[L], the BLAS operand, is a v x v float64 array; U[L], the product and
    the expected cells are formed one row block at a time, and the first
    block that differs ends the check.

    Every value on the way is an integer below 2^53, so both sides are
    exact.  The left adds nonnegative terms up to the packed cell.  In the
    pairwise plan U_i = B^t and each entry of p in those rows, a count or
    a -1 mark, is below B in magnitude (B > K_i, as a stack's columns hold
    its rows; one row has U_i = 1), so M is below B^|I|.  In the generator
    plan M[j, h] is below column j's radix.  W is 0 off the columns.
    """
    n = len(U)
    columns = W[L]
    cells = W @ (U @ pf.reshape(n, -1)).reshape(n, n)  # the expected value on class h
    return all(np.array_equal(U[L[rows]] @ columns, cells[L[rows]])
               for rows in _row_blocks(L.shape[0], _PRODUCT_ROWS))


def _largest_row_counts(L: np.ndarray, d: int) -> list[int]:
    """K[c], the largest number of cells of class c in one row of L, from
    one bincount per block of rows, so no v x v int64 key array is made."""
    n = d + 1
    K = np.zeros(n, dtype=np.int64)
    for rows in _row_blocks(L.shape[0]):
        block = L[rows].astype(np.intp)
        block += n * np.arange(len(block))[:, None]
        counts = np.bincount(block.ravel(), minlength=n * len(block))
        np.maximum(K, counts.reshape(-1, n).max(axis=0), out=K)
    return K.tolist()


def _closure_plan(K, d: int) -> list[tuple[range, range, tuple[int, ...]]]:
    """The packed products that check closure on every pair 1 <= i <= j <= d,
    given K[c], a bound on every row count of class c.

    Returns (rows, cols, radix) per product, in row-major order of the pair
    table: the product covers the pairs (i, j) with i in ``rows`` and j in
    ``cols``, j >= i, and column j is a digit in radix ``radix[j -
    cols.start]`` = min(max K over ``rows``, K_j) + 1.  Consecutive rows
    share one product, with cols from the first of them to d, while the
    product of all radices, ``prod(radix) ** len(rows)``, stays <= 2^53; a
    row whose radices alone pass 2^53 is cut into consecutive runs of
    columns, each as long as that bound lets it be.
    """
    def radices(top, cols):
        return tuple(min(top, K[j]) + 1 for j in cols)

    plan, i = [], 1
    while i <= d:
        cols = range(i, d + 1)
        if math.prod(radices(K[i], cols)) > _EXACT:
            plan += [(range(i, i + 1), run, radix) for run, radix in _runs(radices(K[i], cols), i)]
            i += 1
            continue
        stop, top = i + 1, K[i]
        while stop <= d and math.prod(radices(max(top, K[stop]), cols)) ** (stop + 1 - i) <= _EXACT:
            top = max(top, K[stop])
            stop += 1
        plan.append((range(i, stop), cols, radices(top, cols)))
        i = stop
    return plan


def _runs(radix, first: int) -> list[tuple[range, tuple[int, ...]]]:
    """Columns first, first + 1, ... with the given radices, cut into
    consecutive runs, each as long as a product of its radices <= 2^53 lets
    it be: (cols, radix) per run."""
    runs, start = [], 0
    while start < len(radix):
        stop, width = start + 1, radix[start]
        while stop < len(radix) and width * radix[stop] <= _EXACT:
            width *= radix[stop]
            stop += 1
        runs.append((range(first + start, first + stop), tuple(radix[start:stop])))
        start = stop
    return runs


def _generator_plan(p: np.ndarray, K, d: int, most: int):
    """The first candidate generator X = sum_i U_i A_i that needs fewer than
    ``most`` products and that :func:`_generates` certifies: (U, runs), with
    ``runs`` as :func:`_runs` cuts the columns 1..d, or None.

    The candidates, in order: each single class e_c, by K_c and then c (the
    smallest radices first), then U = (0, 1, ..., d).  Column j of X's
    products is a digit in radix min(sum_i U_i min(K_i, K_j), max(U) K_j)
    + 1.  A pure function of (p, K): no v x v work.
    """
    K = np.asarray(K, dtype=np.int64)
    bound = np.minimum(K[:, None], K[None, :])
    singles = np.eye(d + 1, dtype=np.int64)[sorted(range(1, d + 1), key=lambda c: (K[c], c))]
    for U in [*singles, np.arange(d + 1)]:
        radix = np.minimum(U @ bound, U.max() * K) + 1
        runs = _runs(radix[1:].tolist(), 1)
        # B[h, j] = sum_i U_i p_ij^h: the coordinates of X A_j
        if len(runs) < most and _generates(np.tensordot(U, p, 1).T):
            return U, runs
    return None


def _generates(B: np.ndarray) -> bool:
    """True when e_0, B e_0, ..., B^d e_0 are independent modulo
    ``_PRIME``, which proves them independent over the rationals: the
    vectors mod the prime are those of B mod the prime, and an integer
    determinant that is nonzero mod the prime is nonzero.  Each vector is
    reduced against the earlier ones, kept in reduced echelon form, and
    the first that reduces to 0 ends the check.  Every product of two
    residues, summed d + 1 times, stays below 2^63, so int64 holds each
    exactly.
    """
    n = B.shape[0]
    if n * _PRIME ** 2 >= 2 ** 63:
        return False
    B = B % _PRIME
    basis = np.zeros((n, n), dtype=np.int64)
    pivots = np.zeros(n, dtype=np.intp)
    w = np.zeros(n, dtype=np.int64)
    w[0] = 1
    for t in range(n):
        r = w - w[pivots[:t]] @ basis[:t]
        r %= _PRIME
        nonzero = np.flatnonzero(r)
        if not nonzero.size:
            return False
        c = nonzero[0]
        r *= pow(int(r[c]), -1, _PRIME)
        r %= _PRIME
        basis[:t] -= basis[:t, c, None] * r
        basis[:t] %= _PRIME
        basis[t], pivots[t] = r, c
        w = B @ w
        w %= _PRIME
    return True


def _closure_witness(L: np.ndarray, p: np.ndarray, A_i: np.ndarray, i: int, run: range) -> None:
    """Check the pairs (i, j), j in ``run``, one product each, and raise the
    first closure violation among them.

    The histogram is only row 0's mean, so the witness is the first cell,
    in row-major order, of the smallest class on which a failing product
    is not constant.  A pair whose product is constant on every class but
    still differs from p (a class missing from row 0 makes some other
    product move) raises nothing; a later pair names the cell.
    """
    first = np.unique(L, return_index=True)[1]  # each class's first cell
    for j in run:
        prod = A_i @ (L == j).astype(np.float64)
        if np.array_equal(prod, p[i, j][L]):
            continue
        off = prod != prod.ravel()[first][L]
        if off.any():
            h = int(L[off].min())
            cell = tuple(int(x) for x in np.unravel_index(np.argmax(off & (L == h)), L.shape))
            raise AxiomViolation(
                "closure", cell, f"A_{i}A_{j} is not constant on class {h} (cell {cell})")


def _row0_counts(L: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """counts[i, j, h] = #{(z, y): L[0,z] = i, L[z,y] = j, L[0,y] = h} and
    the row-0 class sizes k, from one histogram over the v^2 cells.

    Summing (A_i A_j)[0, y] over the k_h points y of class h gives
    counts[i, j, h], so in a scheme counts = k_h p_ij^h.  O(v^2).  The
    histogram adds one ``bincount`` per row block of z, each on a key cast
    to intp, as ``bincount`` would copy any other dtype in full.
    """
    n = d + 1
    r0 = L[0].astype(np.intp)
    counts = np.zeros(n ** 3, dtype=np.intp)
    for rows in _row_blocks(len(r0)):
        key = L[rows].astype(np.intp)
        key += r0[rows, None] * n
        key *= n
        key += r0
        counts += np.bincount(key.ravel(), minlength=n ** 3)
    return counts.reshape(n, n, n), np.bincount(r0, minlength=n)


def _translation_scheme(row0: np.ndarray, sub: np.ndarray, d: int) -> AssociationScheme:
    """Validate the translation scheme ``labels[x, y] = row0[y - x]`` of an
    abelian group from its row 0 and attach the intersection tensor.

    ``sub[g, a]`` is the index of g - a in the group, whose zero is 0, so
    the label matrix is ``row0[sub.T]`` and its row 0 is ``row0``.  The
    label range, identity, partition and symmetry (``row0[-a] == row0[a]``)
    are read off ``row0``; where one fails, :func:`validate_scheme` on that
    matrix raises, so both name the same violation.  The labels are
    gathered in the :class:`LabelMatrix` dtype, so the only v x v arrays
    are ``sub`` and the labels, at one or two bytes a cell.

    Closure is the Schur-ring condition.  (A_i A_j)[x, y] is
    c[i, j, y - x], where c[i, j, g] = #{a : row0[a] = i, row0[g - a] = j};
    so c must be constant on each class, and p[i, j, h] is c at the first g
    of class h.  c is counted by ``bincount`` over the pairs (g, a), one row
    block of g at a time with n^2 bins per g of the block, and each block
    is compared with p and dropped, so c is never held whole.  O(v^2),
    against O(v^3) per packed product of :func:`validate_scheme`.  ``d``
    is passed, not read off ``row0``, so a missing class is a partition
    violation.  A closure failure is named below as validate_scheme names
    it, at its first bad cell, which lies in row 0.
    """
    v, n = len(row0), d + 1
    if d < 1 or row0.min() < 0 or row0.max() > d:
        LabelMatrix(v=v, d=d, labels=row0[sub.T])  # raises as validate_scheme's input would
    k = np.bincount(row0, minlength=n)
    if row0[0] != 0 or k[0] != 1 or not k.all() or (row0[sub[0]] != row0).any():
        validate_scheme(LabelMatrix(v=v, d=d, labels=row0[sub.T]))
        raise AssertionError(f"validate_scheme accepts the row 0 {row0.tolist()}")

    # row0 is symmetric, so row0[sub] is row0[sub.T], and in C order
    labels = row0.astype(_label_dtype(d))[sub]
    labels.flags.writeable = False  # handed over, not copied
    lm = LabelMatrix(v=v, d=d, labels=labels)
    L = lm.labels
    first = np.argmax(row0 == np.arange(n)[:, None], axis=1)  # first g of each class
    ra = row0.astype(np.intp) * n
    p = _schur_counts(L[first], ra, n)
    pair_bad = np.zeros((n, n), dtype=bool)
    for rows in _row_blocks(v):
        pair_bad |= (_schur_counts(L[rows], ra, n) != p[:, :, row0[rows]]).any(axis=2)
    # c is symmetric in (i, j) and c[0, j] is constant on classes, so the
    # first bad pair in row-major order is validate_scheme's: 1 <= i <= j
    if pair_bad.any():
        i, j = map(int, np.argwhere(pair_bad)[0])
        bad = np.count_nonzero((L == j) & (row0 == i), axis=1) != p[i, j][row0]  # c[i, j] moves
        h = int(row0[bad].min())
        cell = (0, int(np.argmax(bad & (row0 == h))))
        raise AxiomViolation(
            "closure", cell, f"A_{i}A_{j} is not constant on class {h} (cell {cell})")

    return AssociationScheme(lm, tuple(int(x) for x in k), IntersectionTensor(p))


def _schur_counts(rows: np.ndarray, ra: np.ndarray, n: int) -> np.ndarray:
    """c[i, j, t] = #{a : row0[a] = i, rows[t, a] = j} for rows of a
    translation scheme's labels (row g gives c[:, :, g]), with ``ra`` =
    n row0 as intp: one ``bincount`` with n^2 bins per row."""
    b = len(rows)
    key = rows.astype(np.intp)
    key += ra
    key *= b
    key += np.arange(b)[:, None]
    return np.bincount(key.ravel(), minlength=n * n * b).reshape(n, n, b)


def intersection_numbers(scheme: AssociationScheme) -> IntersectionTensor:
    """Exact tensor p[i][j][h] of a scheme: the one it was built with (a
    validated, generated or fused scheme alike), with no v^2 work."""
    return scheme.intersection


def spectral_decomposition(scheme: AssociationScheme,
                           tol: Tolerance = DEFAULT_TOL,
                           seed: int = 0) -> SpectralData:
    """Eigenmatrices P and Q from the (d+1)-dimensional intersection matrices.

    Each B_i (B_i[h, j] = p_ij^h) is symmetrized as S_i = diag(sqrt k) B_i
    diag(1/sqrt k), which is symmetric because k_h p_ij^h = k_j p_ih^j.  The
    S_i commute, so their common eigenvectors are found by splitting.  The
    first splitter is the fixed combination M = sum_i w_i S_i, w_i the square
    root of the i-th prime: one ``eigh`` of M, cut wherever consecutive
    eigenvalues are at least ``_GAP_FACTOR * tol.atol`` apart.  On the line
    of row j, M has eigenvalue sum_i w_i P[j, i], and square roots of
    distinct primes are linearly independent over the rationals, so two
    distinct integral rows always get distinct eigenvalues of M.  A cluster
    M leaves together (irrational rows, or eigenvalues of M closer than the
    cut) is split further as before: for i = 1..d, ``eigh`` of S_i on each
    current subspace, cut where consecutive eigenvalues are not close under
    ``tol``.  Each of the d + 1 lines u left at the end gives one row of P,
    read off as P[j, i] = u^T S_i u.

    The margin rule is then one check on P's class columns (see
    :func:`_check_column_gaps`): two rows not close under ``tol`` in a
    column must be at least ``_GAP_FACTOR * tol.atol`` apart in it, else
    :class:`DegenerateSpectrum` names the first such class, both
    eigenvalues and the gap required.  This is deliberately stricter than
    comparing consecutive eigenvalues within one split, as the class loop
    once did: the row-sum fusion criterion compares folded columns across
    all rows, not within one split.  The rows are then ordered and the
    multiplicities read with array operations, and every check below
    (valency row, integral multiplicities summing to v, PQ = vI, zero row
    sums, row 0 of Q) raises :class:`DegenerateSpectrum` when it fails.

    No random numbers are drawn, so the result depends only on the scheme
    and ``tol``; it is cached on the scheme instance, one entry per
    tolerance.  ``seed`` is accepted and ignored.  It stays because
    ``bench/spans.py`` keys its spectral spans on it, and goes with the
    benchmark change of ROADMAP item 4.
    """
    spec = scheme._spectra.get(tol)
    if spec is None:
        spec = scheme._spectra[tol] = _spectral_decomposition(scheme, tol)
    return spec


@functools.cache
def _combination_weights(d: int) -> np.ndarray:
    """w_i = sqrt(i-th prime) for i = 1..d, the weights of the first
    splitter M = sum_i w_i S_i (see :func:`spectral_decomposition`).  The
    primes are found by trial division by the primes before them."""
    primes, q = [], 2
    while len(primes) < d:
        if all(q % p for p in primes):
            primes.append(q)
        q += 1
    w = np.sqrt(np.array(primes, dtype=np.int64))
    w.flags.writeable = False
    return w


def _common_eigenvectors(S: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal common eigenvectors of the commuting symmetric S[i], one
    per column: split by one ``eigh`` of the class combination M, then
    class by class only where M left a cluster, as
    :func:`spectral_decomposition` says."""
    n = S.shape[0]
    M = (_combination_weights(n - 1) @ S[1:].reshape(n - 1, n * n)).reshape(n, n)
    w, V = np.linalg.eigh(M)
    cuts = np.flatnonzero(np.diff(w) >= _GAP_FACTOR * tol.atol) + 1
    if len(cuts) == n - 1:
        return V
    spaces = np.split(V, cuts, axis=1)
    for i in range(1, n):
        if len(spaces) == n:
            break
        split = []
        for U in spaces:
            if U.shape[1] == 1:
                split.append(U)
                continue
            w, V = np.linalg.eigh(U.T @ S[i] @ U)
            cuts = np.flatnonzero(~tol.isclose(w[:-1], w[1:])) + 1
            split += [U @ part for part in np.split(V, cuts, axis=1)]
        spaces = split
    if len(spaces) != n:
        dim = max(U.shape[1] for U in spaces)
        raise DegenerateSpectrum(
            f"an eigenspace of dimension {dim} is common to all {n - 1} classes")
    return np.hstack(spaces)


def _check_column_gaps(rows: np.ndarray, tol: Tolerance) -> None:
    """Raise :class:`DegenerateSpectrum` at the first class i whose column
    holds two eigenvalues neither close under ``tol`` nor
    ``_GAP_FACTOR * tol.atol`` apart, naming the lowest such pair; or when
    two rows are close in every class column, as rows of P are distinct."""
    gap_needed = _GAP_FACTOR * tol.atol
    cols = rows[:, 1:].T  # cols[i - 1, j]: class i's eigenvalue on row j
    a, b = cols[:, :, None], cols[:, None, :]
    close = tol.isclose(a, b)
    thin = ~close & (np.abs(a - b) < gap_needed)
    if thin.any():
        i = int(np.argmax(thin.any(axis=(1, 2))))
        lo, hi = min(sorted(cols[i, [r, s]]) for r, s in zip(*np.nonzero(thin[i])))
        raise DegenerateSpectrum(
            f"class {i + 1}: eigenvalues {round(lo, 12)} and {round(hi, 12)} "
            f"are {round(hi - lo, 12)} apart, neither equal within tolerance nor "
            f"the required gap {round(gap_needed, 12)} ({_GAP_FACTOR:g}*atol) apart")
    tied = close.all(axis=0)  # tied[j, j'] for rows close in every class
    if np.count_nonzero(tied) > len(tied):
        raise DegenerateSpectrum(f"an eigenspace of dimension {tied.sum(axis=1).max()} "
                                 f"is common to all {len(cols)} classes")


def _spectral_decomposition(scheme: AssociationScheme, tol: Tolerance) -> SpectralData:
    v, d = scheme.v, scheme.d
    k = np.asarray(scheme.valencies, dtype=float)
    root = np.sqrt(k)
    # S[i, h, j] = sqrt(k_h) p_ij^h / sqrt(k_j)
    S = scheme.intersection.p.transpose(0, 2, 1) * root[None, :, None] / root[None, None, :]
    U = _common_eigenvectors(S, tol)
    rows = np.einsum("aj,iaj->ji", U, S @ U)
    _check_column_gaps(rows, tol)

    # the first row that is the valency row, and every other row's
    # multiplicity; the first one not near an integer is named
    valency = tol.isclose(rows, k).all(axis=1)
    if not valency.any():
        raise DegenerateSpectrum("no eigenvector reproduces the valency row")
    val_idx = int(np.argmax(valency))
    m_raw = v / (rows ** 2 / k).sum(axis=1)
    m = np.round(m_raw)
    whole = tol.isclose(m_raw, m)
    whole[val_idx] = True
    if not whole.all():
        bad = float(m_raw[np.argmin(whole)])
        raise DegenerateSpectrum(f"multiplicity {bad!r} is not near an integer")
    # the valency row first (key -1), then the others by multiplicity and
    # lexicographically on the rows rounded to 6 places; lexsort is stable
    # and reads its last key first
    mults = m.astype(int)
    mults[val_idx] = -1
    order = np.lexsort(np.vstack([np.round(rows, 6).T[::-1], mults]))

    P, p_mask = tol.snap(rows[order])
    m_list = [1] + mults[order[1:]].tolist()
    if sum(m_list) != v:
        raise DegenerateSpectrum(f"multiplicities {m_list} do not sum to v={v}")

    Q = v * np.linalg.inv(P)
    Q, q_mask = tol.snap(Q)

    scale = tol.scaled(v)
    if not scale.allclose(P @ Q, v * np.eye(d + 1)):
        raise DegenerateSpectrum("PQ = vI fails beyond tolerance")
    if d >= 1 and not tol.allclose(P[1:].sum(axis=1), np.zeros(d)):
        raise DegenerateSpectrum("non-valency rows of P do not sum to 0")
    if not tol.allclose(Q[0], np.asarray(m_list, dtype=float)):
        raise DegenerateSpectrum("row 0 of Q does not match the multiplicities")

    return SpectralData(
        v=v, P=P, Q=Q,
        valencies=tuple(scheme.valencies),
        multiplicities=tuple(m_list),
        tol=tol, P_integer_mask=p_mask, Q_integer_mask=q_mask)


def idempotents(scheme: AssociationScheme, spec: SpectralData | None = None) -> IdempotentBasis:
    """The basis E_j = (1/v) sum_i Q[i][j] A_i, checked against its axioms.

    E_j is held as its class values Q / v (see :class:`IdempotentBasis`),
    and the axioms are checked on them, not on the labels (see the module
    docstring), in order: E_0 = J/v; sum_j E_j = I; then for each j, trace E_j = Q[0,
    j] = m_j and E_j E_h = delta_jh E_j for h >= j, where E_j E_h = sum_c
    C[j, h, c] A_c with C[j, h, c] = v^-2 sum_{i, l} Q_ij Q_lh p_il^c.
    """
    spec = spec or scheme.spectral
    v, n, tol = scheme.v, scheme.d + 1, spec.tol
    e = spec.Q / v  # e[c, j]: the value of E_j on class c
    scale = tol.scaled(v)
    if not scale.allclose(e[:, 0], 1.0 / v):
        raise IdempotencyViolation(0, float(np.max(np.abs(e[:, 0] - 1.0 / v))))
    identity, total = np.eye(n)[0], sum(e[:, j] for j in range(n))
    if not scale.allclose(total, identity):
        raise IdempotencyViolation(-1, float(np.max(np.abs(total - identity))))
    C = np.einsum("ij,lh,ilc->jhc", e, e, scheme.intersection.p, optimize=True)
    resid = np.abs(C - np.eye(n)[:, :, None] * e.T[:, None, :]).max(axis=2)  # [j, h]
    for j in range(n):
        tr = v * float(e[0, j])
        if not scale.close(tr, spec.multiplicities[j]):
            raise IdempotencyViolation(j, abs(tr - spec.multiplicities[j]))
        bad = np.flatnonzero(resid[j, j:] > scale.atol + scale.rtol)
        if bad.size:
            raise IdempotencyViolation(j, float(resid[j, j + bad[0]]))
    return IdempotentBasis(values=e, tol=tol)


def krein_parameters(scheme: AssociationScheme, basis: IdempotentBasis,
                     spec: SpectralData | None = None) -> KreinTensor:
    """q[i][j][h] = (v/m_h) trace((E_i o E_j) E_h), checked nonnegative.

    Class c holds v k_c cells, so q_ij^h = (v m_h)^-1 sum_c k_c Q_ci Q_cj
    Q_ch, with Q_cj = v E_j on class c, the basis's values times v.  The
    first entry with i <= j below -v atol, in row-major order, raises; the
    rest are clamped at 0, and q_jj^0 = m_j must hold.
    """
    spec = spec or scheme.spectral
    v, n, tol = scheme.v, scheme.d + 1, basis.tol
    m = np.asarray(spec.multiplicities, dtype=float)
    Q = v * basis.values
    q = np.einsum("c,ci,cj,ch->ijh", scheme.valencies, Q, Q, Q, optimize=True) / (v * m)
    upper = np.triu(np.ones((n, n), dtype=bool))[:, :, None]
    negative = (q < -tol.atol * v) & upper
    if negative.any():
        i, j, h = map(int, np.argwhere(negative)[0])
        raise NegativeKrein(i, j, h, float(q[i, j, h]))
    q = np.maximum(np.where(upper, q, q.transpose(1, 0, 2)), 0.0)
    scale = tol.scaled(v)
    for j in range(n):
        if not scale.close(q[j, j, 0], m[j]):
            raise NegativeKrein(j, j, 0, q[j, j, 0])
    return KreinTensor(q=q, tol=tol)


def formal_duality_permutation(spec: SpectralData) -> tuple[int, ...] | None:
    """Idempotent reordering sigma (fixing 0) with sigma.P == Q.sigma^T, if any.

    Returns the permutation as a tuple (sigma[j] = new position of row j),
    or None when the scheme is not formally self-dual. Row order of P is a
    free convention, so self-duality is decided up to such a reordering.

    The condition reads P[j, sigma(c)] = Q[sigma(j), c] for every pair
    (j, c).  A depth-first search extends sigma one index at a time, in
    lexicographic order, and drops a branch as soon as a pair of assigned
    indices breaks it, so it returns the lexicographically first sigma.
    """
    d, tol, P, Q = spec.d, spec.tol, spec.P, spec.Q
    sigma = [0]

    def extend() -> bool:
        t = len(sigma)
        if t > d:
            return True
        for x in range(1, d + 1):
            if x in sigma:
                continue
            s = sigma + [x]
            # the new pairs: (t, c) and (c, t) for every assigned c <= t
            if tol.allclose(P[t, s], Q[x, :t + 1]) and tol.allclose(P[:t + 1, x], Q[s, t]):
                sigma.append(x)
                if extend():
                    return True
                sigma.pop()
        return False

    return tuple(sigma) if extend() else None
