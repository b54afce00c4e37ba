"""Symmetric association schemes and their exact/spectral invariants.

Everything combinatorial (axioms, intersection numbers, fusion closure) is
exact.  :func:`validate_scheme` checks the axioms and yields the
intersection tensor in one pass: the tensor comes from an integer
histogram, and closure is checked cell by cell against products of the
0/1 class matrices taken in float64 BLAS.  Those products are exact
because every entry, and every partial sum along the way, is an integer
count of at most v < 2^53.  Eigenmatrices, idempotents and Krein
parameters are floating point under an explicit tolerance policy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

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
        a = float(a)
        b = float(b)
        return abs(a - b) <= self.atol + self.rtol * max(abs(a), abs(b))

    def allclose(self, a, b) -> bool:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        bound = self.atol + self.rtol * np.maximum(np.abs(a), np.abs(b))
        return bool(np.all(np.abs(a - b) <= bound))

    def snap(self, arr):
        """Round entries that sit within tolerance of an integer.

        Returns (snapped array, bool mask of entries that were snapped);
        irrational entries stay floats.
        """
        arr = np.asarray(arr, dtype=float)
        rounded = np.round(arr)
        bound = self.atol + self.rtol * np.maximum(np.abs(arr), 1.0)
        mask = np.abs(arr - rounded) <= bound
        out = np.where(mask, rounded, arr)
        return out, mask


DEFAULT_TOL = Tolerance()

# Inter-eigenvalue gap needed before we trust a grouping, in units of atol.
_GAP_FACTOR = 100.0
_MAX_SPECTRAL_RETRIES = 20


@dataclass(frozen=True)
class LabelMatrix:
    """A v x v matrix of class labels 0..d; label 0 marks the identity class."""

    v: int
    d: int
    labels: np.ndarray

    def __post_init__(self):
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if labels.ndim != 2 or labels.shape[0] != labels.shape[1]:
            raise ValueError(f"label matrix must be square, got shape {labels.shape}")
        if labels.shape[0] != self.v:
            raise ValueError(f"label matrix is {labels.shape[0]}x{labels.shape[0]}, header says v={self.v}")
        if self.v < 1 or self.d < 1:
            raise ValueError("need v >= 1 and d >= 1")
        if labels.min() < 0 or labels.max() > self.d:
            bad = np.argwhere((labels < 0) | (labels > self.d))[0]
            raise ValueError(f"label out of range [0, {self.d}] at {tuple(bad)}")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)


class AssociationScheme:
    """A validated symmetric association scheme.

    Instances are produced by :func:`validate_scheme`, which passes in the
    intersection tensor it computed, and are immutable; all derived data
    is cached per instance.
    """

    def __init__(self, label_matrix: LabelMatrix, valencies: tuple[int, ...],
                 intersection: "IntersectionTensor | None" = None):
        self.label_matrix = label_matrix
        self.valencies = valencies
        self._intersection = intersection

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

    @cached_property
    def relations(self) -> tuple[np.ndarray, ...]:
        return tuple(self.relation(i) for i in range(self.d + 1))

    @property
    def intersection(self) -> "IntersectionTensor":
        if self._intersection is None:
            self._intersection = intersection_numbers(self)
        return self._intersection

    @cached_property
    def spectral(self) -> "SpectralData":
        """Spectral data at default tolerance and seed."""
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
    """Minimal idempotents E_0..E_d assembled from the Q columns."""

    E: tuple[np.ndarray, ...]
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
    arr = np.asarray(labels, dtype=np.int64)
    return LabelMatrix(v=arr.shape[0], d=int(arr.max(initial=0)), labels=arr)


def validate_scheme(labels) -> AssociationScheme:
    """Check the four scheme axioms exactly and attach the intersection tensor.

    Raises :class:`AxiomViolation` with the failed axiom and a witness cell.

    One pass does both jobs.  The candidate tensor comes from a single
    histogram of the v^2 cells (see :func:`_row0_counts`); closure is then
    checked on every cell as ``A_i A_j == p[i, j][labels]`` for 1 <= i <= j
    <= d.  The products run in float64 BLAS and are still exact: every entry,
    and every partial sum of 0/1 products on the way to it, is an integer
    count of at most v, and float64 holds every integer up to 2^53.
    """
    lm = _as_label_matrix(labels)
    L = lm.labels
    v, d = lm.v, lm.d

    diag = np.diagonal(L)
    if np.any(diag != 0):
        x = int(np.argmax(diag != 0))
        raise AxiomViolation("identity", (x, x))
    off_zero = (L == 0) & ~np.eye(v, dtype=bool)
    if off_zero.any():
        x, y = map(int, np.argwhere(off_zero)[0])
        raise AxiomViolation("identity", (x, y), "label 0 occurs off the diagonal")

    present = np.zeros(d + 1, dtype=bool)
    present[np.unique(L)] = True
    if not present.all():
        missing = int(np.argmin(present))
        raise AxiomViolation("partition", missing, f"label {missing} never occurs")

    if not np.array_equal(L, L.T):
        x, y = map(int, np.argwhere(L != L.T)[0])
        raise AxiomViolation("symmetry", (x, y))

    counts, k = _row0_counts(L, d)
    # p[i, j, h] = counts / k_h where that is an integer; -1 marks a class
    # missing from row 0 or a non-integer mean, and matches no product
    whole = (k > 0) & (counts % np.maximum(k, 1) == 0)
    p = np.where(whole, counts // np.maximum(k, 1), -1)
    p_float = p.astype(np.float64)
    mats = [None] + [(L == i).astype(np.float64) for i in range(1, d + 1)]
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            prod = mats[i] @ mats[j]
            if np.array_equal(prod, p_float[i, j][L]):
                continue
            # the histogram is only row 0's mean; name the first cell that
            # differs from the first cell of its class, as a per-class scan does
            for h in range(d + 1):
                cells = np.nonzero(L == h)
                vals = prod[cells]
                if np.any(vals != vals[0]):
                    bad = int(np.argmax(vals != vals[0]))
                    cell = (int(cells[0][bad]), int(cells[1][bad]))
                    raise AxiomViolation(
                        "closure", cell,
                        f"A_{i}A_{j} is not constant on class {h} (cell {cell})")
            # constant on every class, but a class missing from row 0 makes
            # some other product move; a later pair names the cell

    return AssociationScheme(lm, tuple(int(x) for x in k), IntersectionTensor(p))


def _row0_counts(L: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """counts[i, j, h] = #{(z, y): L[0,z] = i, L[z,y] = j, L[0,y] = h} and
    the row-0 class sizes k, from one histogram over the v^2 cells.

    Summing (A_i A_j)[0, y] over the k_h points y of class h gives
    counts[i, j, h], so in a scheme counts = k_h p_ij^h.  O(v^2).
    """
    n = d + 1
    r0 = L[0]
    key = (r0[:, None] * n + L) * n + r0[None, :]
    counts = np.bincount(key.ravel(), minlength=n ** 3).reshape(n, n, n)
    return counts, np.bincount(r0, minlength=n)


def intersection_numbers(scheme: AssociationScheme) -> IntersectionTensor:
    """Exact tensor p[i][j][h] of a scheme, read from one histogram.

    :func:`validate_scheme` attaches the tensor to the schemes it returns,
    so this runs only for schemes built without validation (the output of
    :func:`~amorphic.fusion.fuse_direct`).  Closure is already proven for
    those, so p = counts / k_h is exact and no product is formed.  O(v^2).
    """
    counts, k = _row0_counts(scheme.labels, scheme.d)
    return IntersectionTensor(counts // k)


def _intersection_matrices(tensor: IntersectionTensor) -> list[np.ndarray]:
    # B_i[h][j] = p[i][j][h]
    return [np.asarray(tensor.p[i].T, dtype=float) for i in range(tensor.p.shape[0])]


_SPECTRAL_CACHE: dict = {}


def spectral_decomposition(scheme: AssociationScheme,
                           tol: Tolerance = DEFAULT_TOL,
                           seed: int = 0) -> SpectralData:
    """Eigenmatrices from the (d+1)-dimensional intersection matrices.

    Diagonalizes a random small-integer combination of the B_i and reads
    each P entry off as a Rayleigh quotient; retries with fresh coefficients
    on eigenvalue collision.  Results are memoized per (scheme, tol, seed).
    """
    key = (scheme, tol, seed)
    cached = _SPECTRAL_CACHE.get(key)
    if cached is not None:
        return cached
    out = _spectral_decomposition(scheme, tol, seed)
    _SPECTRAL_CACHE[key] = out
    return out


def _spectral_decomposition(scheme: AssociationScheme,
                            tol: Tolerance,
                            seed: int) -> SpectralData:
    v, d = scheme.v, scheme.d
    k = np.asarray(scheme.valencies, dtype=float)
    B = _intersection_matrices(scheme.intersection)
    rng = np.random.default_rng(seed)

    gap_needed = _GAP_FACTOR * tol.atol
    vecs = None
    for _ in range(_MAX_SPECTRAL_RETRIES):
        c = rng.integers(1, 10, size=d + 1)
        C = sum(int(ci) * Bi for ci, Bi in zip(c, B))
        w, u = np.linalg.eig(C)
        if np.max(np.abs(w.imag)) > gap_needed:
            continue
        wr = np.sort(w.real)
        if d == 0 or np.min(np.diff(wr)) >= gap_needed:
            vecs = u
            break
    if vecs is None:
        raise DegenerateSpectrum(
            f"no coefficient choice separated the {d + 1} eigenvalues "
            f"after {_MAX_SPECTRAL_RETRIES} attempts")

    rows = np.empty((d + 1, d + 1), dtype=float)
    for j in range(d + 1):
        u = vecs[:, j]
        denom = (u.conj() @ u).real
        for i in range(d + 1):
            rows[j, i] = ((u.conj() @ (B[i] @ u)) / denom).real

    # locate the valency row
    val_idx = None
    for j in range(d + 1):
        if tol.allclose(rows[j], k):
            val_idx = j
            break
    if val_idx is None:
        raise DegenerateSpectrum("no eigenvector reproduces the valency row")

    others = [j for j in range(d + 1) if j != val_idx]
    mults = {}
    for j in others:
        m_raw = v / float(np.sum(rows[j] ** 2 / k))
        m = int(round(m_raw))
        if not tol.close(m_raw, m):
            raise DegenerateSpectrum(f"multiplicity {m_raw!r} is not near an integer")
        mults[j] = m
    others.sort(key=lambda j: (mults[j], tuple(np.round(rows[j], 6))))

    order = [val_idx] + others
    P = rows[order]
    P, p_mask = tol.snap(P)
    m_list = [1] + [mults[j] for j in others]
    if sum(m_list) != v:
        raise DegenerateSpectrum(f"multiplicities {m_list} do not sum to v={v}")

    Q = v * np.linalg.inv(P)
    Q, q_mask = tol.snap(Q)

    scale = Tolerance(atol=tol.atol * v, rtol=tol.rtol)
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
    """Assemble E_j = (1/v) sum_i Q[i][j] A_i and verify the basis axioms."""
    spec = spec or scheme.spectral
    v, d, tol = scheme.v, scheme.d, spec.tol
    mats = scheme.relations
    E = []
    for j in range(d + 1):
        Ej = sum(spec.Q[i, j] * mats[i].astype(float) for i in range(d + 1)) / v
        E.append(Ej)

    scale = Tolerance(atol=tol.atol * v, rtol=tol.rtol)
    if not scale.allclose(E[0], np.full((v, v), 1.0 / v)):
        raise IdempotencyViolation(0, float(np.max(np.abs(E[0] - 1.0 / v))))
    total = sum(E)
    if not scale.allclose(total, np.eye(v)):
        raise IdempotencyViolation(-1, float(np.max(np.abs(total - np.eye(v)))))
    for j in range(d + 1):
        if not scale.allclose(E[j], E[j].T):
            raise IdempotencyViolation(j, float(np.max(np.abs(E[j] - E[j].T))))
        tr = float(np.trace(E[j]))
        if not scale.close(tr, spec.multiplicities[j]):
            raise IdempotencyViolation(j, abs(tr - spec.multiplicities[j]))
        for h in range(j, d + 1):
            target = E[j] if h == j else np.zeros((v, v))
            resid = float(np.max(np.abs(E[j] @ E[h] - target)))
            if resid > scale.atol + scale.rtol:
                raise IdempotencyViolation(j, resid)
    return IdempotentBasis(E=tuple(E), tol=tol)


def krein_parameters(scheme: AssociationScheme, basis: IdempotentBasis,
                     spec: SpectralData | None = None) -> KreinTensor:
    """q[i][j][h] = (v/m_h) trace((E_i o E_j) E_h), checked nonnegative."""
    spec = spec or scheme.spectral
    v, d, tol = scheme.v, scheme.d, basis.tol
    E = basis.E
    m = spec.multiplicities
    q = np.zeros((d + 1, d + 1, d + 1), dtype=float)
    neg_bound = tol.atol * v
    for i in range(d + 1):
        for j in range(i, d + 1):
            had = E[i] * E[j]
            for h in range(d + 1):
                val = (v / m[h]) * float(np.sum(had * E[h]))  # trace(M E_h), E_h symmetric
                if val < -neg_bound:
                    raise NegativeKrein(i, j, h, val)
                q[i, j, h] = max(val, 0.0)
            q[j, i] = q[i, j]
    scale = Tolerance(atol=tol.atol * v, rtol=tol.rtol)
    for j in range(d + 1):
        if not scale.close(q[j, j, 0], m[j]):
            raise NegativeKrein(j, j, 0, q[j, j, 0])
    return KreinTensor(q=q, tol=tol)


def formal_duality_permutation(spec: SpectralData) -> tuple[int, ...] | None:
    """Idempotent reordering sigma (fixing 0) with sigma.P == Q.sigma^T, if any.

    Returns the permutation as a tuple (sigma[j] = new position of row j),
    or None when the scheme is not formally self-dual. Row order of P is a
    free convention, so self-duality is decided up to such a reordering.
    """
    d, tol = spec.d, spec.tol
    if d > 7:
        return None
    for perm in itertools.permutations(range(1, d + 1)):
        sigma = (0,) + perm
        S = np.zeros((d + 1, d + 1))
        for j, sj in enumerate(sigma):
            S[sj, j] = 1.0
        if tol.allclose(S @ spec.P, spec.Q @ S.T):
            return sigma
    return None
