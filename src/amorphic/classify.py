"""Strong regularity, Latin-square typing, amorphicity certificates, and
the whole-corpus claim verifier."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AssociationScheme,
    DEFAULT_TOL,
    SpectralData,
    Tolerance,
    spectral_decomposition,
)
from .errors import (
    Falsification,
    OracleDisagreement,
    PreconditionFailed,
    WrongClassCount,
)
from .fusion import (
    _contractions,
    _decide_merges,
    _dual_merges,
    _fusing_triples,
    _outside,
    _overlap_labels,
    _triple_type,
    _triples_through,
)
from .hypergraph import _cores

__all__ = [
    "LatinInfo",
    "SrgInfo",
    "CanonicalFormCertificate",
    "EphemeralPattern",
    "AmorphicVerdict",
    "ClaimRecord",
    "ClaimReport",
    "srg_info",
    "canonical_form_check",
    "amorphic_oracle",
    "is_amorphic",
    "ephemeral_form_check",
    "row_lemma_check",
    "verify_paper_claims",
]

@dataclass(frozen=True)
class LatinInfo:
    n: int
    t: int
    sign: str  # "positive" or "negative"


@dataclass(frozen=True)
class SrgInfo:
    index: int
    restricted: tuple[float, ...]
    strongly_regular: bool
    degenerate: bool
    latin: LatinInfo | None


def _peel(M: np.ndarray, free: np.ndarray, tol: Tolerance):
    """In every column of M, the first row still ``free`` and the free rows
    close to it under ``tol``: (its values, bool mask of those rows).

    Peeling until no row is free groups each column greedily in row order,
    each row joining the first representative it is close to."""
    rep = M[np.argmax(free, axis=0), np.arange(M.shape[1])]
    return rep, free & tol.isclose(M, rep)


def _distinct(values, tol: Tolerance):
    """The representatives of ``values`` grouped under ``tol``, sorted."""
    col = np.asarray(values, dtype=float)[:, None]
    free, reps = np.ones(col.shape, dtype=bool), []
    while free.any():
        rep, group = _peel(col, free, tol)
        reps.append(float(rep[0]))
        free &= ~group
    return sorted(reps)


def srg_info(spec: SpectralData, i: int) -> SrgInfo:
    """Restricted eigenvalues of class i and its (negative) Latin typing.

    A class with a single restricted eigenvalue (the complete-graph
    degenerate case) is flagged, not classified as strongly regular.
    On v = r^2 points, a class whose restricted eigenvalues snap to
    integers lo < hi is of Latin type when hi - lo = r and its valency is
    t(n - 1), with n = r, t = -lo > 0 or else n = -r, t = -hi < 0.
    """
    if not 1 <= i <= spec.d:
        raise PreconditionFailed(f"class index {i} out of 1..{spec.d}")
    tol = spec.tol
    restricted = _distinct(spec.P[1:, i], tol)
    degenerate = len(restricted) == 1
    strongly_regular = len(restricted) == 2

    latin = None
    root = math.isqrt(spec.v)
    if strongly_regular and root * root == spec.v:
        snapped, mask = tol.snap(np.asarray(restricted))
        lo, hi = (int(e) for e in snapped)
        if mask.all() and hi - lo == root:
            latin = next((LatinInfo(n=n, t=t, sign="positive" if n > 0 else "negative")
                          for n, t in ((root, -lo), (-root, -hi))
                          if n * t > 0 and spec.valencies[i] == t * (n - 1)), None)
    return SrgInfo(index=i, restricted=tuple(restricted),
                   strongly_regular=strongly_regular,
                   degenerate=degenerate, latin=latin)


@dataclass(frozen=True)
class CanonicalFormCertificate:
    """Witness that a principal eigenmatrix has one distinguished entry per
    column, the distinguished cells forming a transversal."""

    which: str  # "P" or "Q"
    distinguished_rows: tuple[int, ...]  # row of b_i per column, 1-based
    a: tuple[float, ...]
    b: tuple[float, ...]
    n: float | None  # b_i - a_i when constant across columns
    t: tuple[float, ...] | None  # -a_i
    parameterized: bool  # n, t_i integers, all one sign
    sign: str | None


def _canonical_on(M: np.ndarray, tol: Tolerance):
    """(rows, a, b) when every column of M splits under ``tol`` into one
    distinguished row of value b and d - 1 rows of value a, the
    distinguished rows forming a transversal; None otherwise.

    Group 0 of a column is the rows close to row 0, group 1 the other rows
    close to the first of them (see :func:`_peel`), and a row in neither
    fails the column; each group's value is its first row's."""
    d = M.shape[0]
    group0 = tol.isclose(M, M[0])
    rep1, group1 = _peel(M, ~group0, tol)
    ones = group1.sum(axis=0)
    lone = ones == 1  # group 1 is the distinguished row; else group 0, row 0, must be
    if not ((group0 | group1).all() and ((ones > 0) & (lone != (ones == d - 1))).all()):
        return None
    rows = np.where(lone, np.argmax(group1, axis=0), 0)
    if not (np.bincount(rows, minlength=d) == 1).all():
        return None
    return rows.tolist(), np.where(lone, M[0], rep1).tolist(), np.where(lone, rep1, M[0]).tolist()


def canonical_form_check(spec: SpectralData) -> CanonicalFormCertificate | None:
    """Search P, then Q, for the one-distinguished-entry-per-column form.

    The distinguished entries must form a transversal; with d >= 3 each
    matching column determines its distinguished row uniquely, so no
    permutation search is needed.  On a match, derives n = b_i - a_i and
    t_i = -a_i and reports whether they give the integer parameterization
    with all values of one sign.
    """
    if spec.d < 3:
        raise PreconditionFailed(f"canonical form needs d >= 3, got d={spec.d}")
    tol = spec.tol
    for which in ("P", "Q"):
        hit = _canonical_on(spec.principal(which), tol)
        if hit is None:
            continue
        rows, a_vals, b_vals = hit
        diffs = np.subtract(b_vals, a_vals)
        n = float(diffs[0]) if tol.allclose(diffs, diffs[0]) else None
        t = tuple(-a for a in a_vals) if n is not None else None
        parameterized = False
        sign = None
        if n is not None:
            snapped, ok = tol.snap(np.array((n,) + t))
            signs = np.sign(snapped)
            if ok.all() and signs[0] != 0 and (signs == signs[0]).all():
                parameterized, sign = True, "positive" if signs[0] > 0 else "negative"
                n, t = int(snapped[0]), tuple(int(x) for x in snapped[1:])
        return CanonicalFormCertificate(
            which=which,
            distinguished_rows=tuple(r + 1 for r in rows),
            a=tuple(a_vals), b=tuple(b_vals),
            n=n, t=t, parameterized=parameterized, sign=sign)
    return None


def amorphic_oracle(scheme: AssociationScheme,
                    tol: Tolerance = DEFAULT_TOL) -> bool:
    """Exact check that every class partition fuses, decided on the
    C(d, 2) partitions that merge two classes.

    The pair merges are decided in one pass of both oracles,
    :func:`~amorphic.fusion._decide_merges`; any merge the two answer
    differently raises :class:`OracleDisagreement`.  No answer is kept on
    the scheme.  There is no bound on d: at d = 28 the pass asks 378
    merges.  For d <= 2 the pairs are every partition there
    is (none at d = 1).  For d >= 3 two lemmas on the block-sum criterion
    show that the pairs suffice.  Every p below is p_ij^h with i, j, h
    nontrivial and p_ij^h = p_ji^h.  Block sums over the block {0} need no
    check: sum_{j in J} p_0j^h is 1 for h in J and 0 otherwise, so it is
    constant on every block.

    Single merges suffice.  Merging one set H (|H| >= 2) alone fuses iff,
    for h in H,
      - (A) p_ij^h is constant for i, j outside H;
      - (B) sum_{i in H} p_ij^h is constant for j outside H;
      - (C) sum_{i, j in H} p_ij^h is constant.
    Let pi have a nontrivial block H whose merge alone fuses.  Every other
    block of pi is disjoint from H, so each block sum of pi over blocks
    I, J at a class h in H is a sum of the pieces (A)-(C) and is constant
    on H.  When every nontrivial block's merge fuses, this holds for every
    block of pi (singletons trivially), so pi fuses.

    Pairs decide the single merges, for d >= 3.  Suppose every pair fuses.
      1. For i, j (possibly equal), any two classes h, h' outside {i, j}
         form a pair that avoids i and j, so by (A) p_ij^h takes one value
         a_ij on all h outside {i, j}; d >= 3 leaves at least one such h.
      2. For a pair {a, b} and j outside it, (B) reads
         p_aj^a + p_bj^a = p_aj^b + p_bj^b, with p_bj^a = a_bj and
         p_aj^b = a_aj by step 1.  So b_j = p_hj^h - a_hj is one value
         for all h != j.
      3. For a pair {a, b}, (C) reads p_aa^a + 2 p_ab^a + p_bb^a =
         p_aa^b + 2 p_ab^b + p_bb^b, with p_bb^a = a_bb, p_aa^b = a_aa,
         p_ab^a = a_ab + b_b and p_ab^b = a_ab + b_a by steps 1-2.  So
         c = p_hh^h - a_hh - 2 b_h is one value for all h.
    Now take any H and h in H.  By step 1, (A) is a_ij.  By steps 1-2,
    (B) is p_hj^h + sum_{i in H - h} a_ij = b_j + sum_{i in H} a_ij.  By
    steps 1-3, splitting (C) into i = j = h, exactly one of i, j equal
    to h, and neither, gives
      c + a_hh + 2 b_h + 2 sum_{j in H - h} (a_hj + b_j)
        + sum_{i, j in H - h} a_ij = c + 2 sum_{j in H} b_j + sum_{i, j in H} a_ij.
    None of the three depends on h, so every single merge fuses.  The
    converse is immediate, so a scheme is amorphic iff every pair of its
    classes fuses.

    This is not the paper's corollary (every triple fuses, d >= 5), so
    :func:`verify_paper_claims` can check that corollary against this
    oracle without assuming it.
    """
    # every merge is decided, so a disagreement after the first no still raises
    pairs = itertools.combinations(range(1, scheme.d + 1), 2)
    return all([fused for _, fused, _ in _decide_merges(scheme, pairs, tol)])


@dataclass(frozen=True)
class AmorphicVerdict:
    amorphic: bool
    certificate: CanonicalFormCertificate | None
    oracle_checked: bool  # always True; kept so that reports stay byte-stable


def is_amorphic(scheme: AssociationScheme,
                tol: Tolerance = DEFAULT_TOL) -> AmorphicVerdict:
    """Canonical-form fast path, cross-checked by :func:`amorphic_oracle`
    at every d; disagreement is fatal.  ``oracle_checked`` is therefore
    always True.

    For d <= 2 every admissible partition fuses vacuously, so the verdict
    is amorphic by convention (the form equivalence starts at d = 3).
    """
    if scheme.d <= 2:
        ok = amorphic_oracle(scheme, tol=tol)
        if not ok:
            raise OracleDisagreement("a d <= 2 scheme failed the vacuous oracle")
        return AmorphicVerdict(amorphic=True, certificate=None, oracle_checked=True)
    spec = spectral_decomposition(scheme, tol=tol)
    cert = canonical_form_check(spec)
    fast = cert is not None
    slow = amorphic_oracle(scheme, tol=tol)
    if slow != fast:
        raise OracleDisagreement(
            f"canonical form says amorphic={fast}, exhaustive oracle says {slow}")
    return AmorphicVerdict(amorphic=fast, certificate=cert, oracle_checked=True)


@dataclass(frozen=True)
class EphemeralPattern:
    """Witness of the distinguished 4-class eigenmatrix shape: one column
    of valency k1 with values {b1, a1, a1, a1} and three columns of common
    valency k2 whose lower block rows are {aaa, bba, bab, abb}."""

    k1: float
    k2: float
    a1: float
    a2: float
    b1: float
    b2: float
    special_column: int
    row_order: tuple[int, ...]
    column_order: tuple[int, ...]


_EPHEMERAL_BLOCK = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))  # 1 marks b2


def ephemeral_form_check(spec: SpectralData) -> EphemeralPattern | None:
    """Permutation search for the 4-class pattern; None when it cannot match."""
    if spec.d != 4:
        raise WrongClassCount(f"pattern is defined for d=4, got d={spec.d}")
    tol = spec.tol
    P = spec.P
    k = P[0, 1:]
    M = P[1:, 1:]
    for c in range(4):
        others = [j for j in range(4) if j != c]
        if not all(tol.close(k[j], k[others[0]]) for j in others):
            continue
        k1, k2 = float(k[c]), float(k[others[0]])
        for rows in itertools.permutations(range(4)):
            b1 = float(M[rows[0], c])
            a1_vals = [float(M[r, c]) for r in rows[1:]]
            if not all(tol.close(x, a1_vals[0]) for x in a1_vals):
                continue
            a1 = a1_vals[0]
            if tol.close(a1, b1):
                continue
            for cols in itertools.permutations(others):
                cells_b, cells_a = [], []
                for ri, r in enumerate(rows):
                    for ci, j in enumerate(cols):
                        (cells_b if _EPHEMERAL_BLOCK[ri][ci] else cells_a).append(float(M[r, j]))
                if not all(tol.close(x, cells_a[0]) for x in cells_a):
                    continue
                if not all(tol.close(x, cells_b[0]) for x in cells_b):
                    continue
                a2, b2 = cells_a[0], cells_b[0]
                if tol.close(a2, b2):
                    continue
                return EphemeralPattern(
                    k1=k1, k2=k2, a1=a1, a2=a2, b1=b1, b2=b2,
                    special_column=c + 1,
                    row_order=tuple(r + 1 for r in rows),
                    column_order=tuple(j + 1 for j in cols))
    return None


@functools.cache
def _row_subsets(d: int) -> np.ndarray:
    """Each subset of rows 0..d-1 of sizes 2..d once, by size and then in
    ``itertools.combinations`` order, as a read-only bool membership
    matrix (at most 57 rows for the row lemma's d <= 6)."""
    member = np.array([[i in rows for i in range(d)] for r in range(2, d + 1)
                       for rows in itertools.combinations(range(d), r)], dtype=bool).reshape(-1, d)
    member.flags.writeable = False
    return member


def _row_lemma_holds(close: np.ndarray, member: np.ndarray) -> np.ndarray:
    """For each row subset (a row of the bool membership matrix ``member``),
    whether at least as many columns as it has rows are non-constant on it:
    hold a row not close to the subset's least one, with ``close[a, b, c]``
    the closeness of rows a and b in column c.  One gather, one count."""
    apart = ~close[member.argmax(axis=1)] & member[:, :, None]
    return apart.any(axis=1).sum(axis=1) >= member.sum(axis=1)


def row_lemma_check(M: np.ndarray, rows, tol: Tolerance = DEFAULT_TOL) -> bool:
    """At least |rows| columns of a principal eigenmatrix part must be
    non-constant on any chosen row subset; False falsifies the theory.

    The rows must be at least two distinct row indices of M.
    """
    M = np.asarray(M, dtype=float)
    rows = sorted(rows)
    if len(rows) < 2:
        raise PreconditionFailed("need at least 2 rows")
    if len(set(rows)) != len(rows) or rows[0] < 0 or rows[-1] >= M.shape[0]:
        raise PreconditionFailed(f"rows {rows} are not distinct rows in 0..{M.shape[0] - 1}")
    member = np.isin(np.arange(M.shape[0]), rows)[None]
    return bool(_row_lemma_holds(tol.isclose(M[:, None, :], M[None, :, :]), member)[0])


@dataclass(frozen=True)
class ClaimRecord:
    claim: str
    applicable: bool
    verified: bool
    witness: str = ""


@dataclass(frozen=True)
class ClaimReport:
    records: tuple[ClaimRecord, ...]

    @property
    def falsified(self) -> bool:
        return any(r.applicable and not r.verified for r in self.records)

    def as_dict(self):
        return {r.claim: {"applicable": r.applicable, "verified": r.verified,
                          "witness": r.witness}
                for r in self.records}


def _triple_types(scheme: AssociationScheme, tol: Tolerance) -> dict:
    """Each fusing triple, in :func:`~amorphic.fusion.enumerate_fusing_tuples`
    order, and its :class:`~amorphic.fusion.TripleType`, or None where its
    dual partition has neither shape (a falsification of claim (f)).  Each
    triple is typed as the pass yields it, so only the types are held."""
    types = {}
    for T, rho in _fusing_triples(scheme, tol):
        try:
            types[T] = _triple_type(rho, T)
        except Falsification:
            types[T] = None
    return types


def verify_paper_claims(scheme: AssociationScheme,
                        tol: Tolerance = DEFAULT_TOL) -> ClaimReport:
    """Machine-check every theorem-shaped claim that applies to one scheme.

    A claim whose hypothesis fails is recorded as not applicable; a claim
    that applies and fails to verify is a falsification event (fatal for
    corpus runs).  No claim is skipped because of the scheme's size.

    The claims that ask many questions run as batched passes with the
    witnesses of their single-question forms.  One pass yields the fusing
    triples and types each off its dual partition (:func:`_triple_types`);
    (f) and (h) read the types.  The cores (a, c), the contraction pairs (e)
    and the overlapping pairs (h) are read off one map from each 2-subset
    to the triples through it (:func:`~amorphic.fusion._triples_through`),
    and the dual cores (d) off the same map of the idempotent side's
    3-edges (:func:`~amorphic.fusion._dual_merges`).
    :func:`~amorphic.fusion._contractions` answers (e) with the parent's
    4-set answers and the contracted schemes', which must agree.  The row
    lemma (g) answers every row subset of sizes 2..d in one comparison
    per principal part, on the cached table :func:`_row_subsets`.
    """
    d = scheme.d
    spec = spectral_decomposition(scheme, tol=tol)
    records: list[ClaimRecord] = []

    types = _triple_types(scheme, tol) if d >= 3 else {}
    through = _triples_through(types)
    cores = _cores(through, d)

    @functools.cache  # claims (a), (b) and both dual claims share one verdict
    def verdict() -> bool:
        return is_amorphic(scheme, tol=tol).amorphic

    # (a) two different 3-sunflowers force amorphicity (d >= 5)
    applicable = d >= 5 and len(cores) >= 2
    ok = verdict() if applicable else False
    records.append(ClaimRecord(
        "two_sunflowers_imply_amorphic", applicable, ok,
        witness=f"{len(cores)} cores" if d >= 5 else f"d={d} < 5"))

    # (b) complete fusing 3-hypergraph forces amorphicity (d >= 5)
    applicable = d >= 5 and len(types) == math.comb(d, 3)
    ok = verdict() if applicable else False
    records.append(ClaimRecord(
        "complete_3hypergraph_implies_amorphic", applicable, ok,
        witness=f"{len(types)} edges"))

    # (c) at d = 5, a sunflower core is itself a fusing pair; the cores are
    # asked as one pass of pair merges
    applicable = d == 5 and len(cores) >= 1
    ok = applicable and all([fused for _, fused, _ in _decide_merges(scheme, cores, tol)])
    records.append(ClaimRecord(
        "sunflower_core_fuses", applicable, ok,
        witness=f"cores {cores}" if applicable else ""))

    # (d) dual statements on the idempotent side: its cores and its
    # completeness are read off its 3-edges as (a) and (b) read the triples
    dual = list(_dual_merges(scheme, 3, tol)) if d >= 5 else []
    dual_cores = _cores(_triples_through(dual), d)
    for name, applicable in (
            ("dual_two_sunflowers_imply_amorphic", d >= 5 and len(dual_cores) >= 2),
            ("dual_complete_3hypergraph_implies_amorphic", d >= 5 and len(dual) == math.comb(d, 3))):
        ok = verdict() if applicable else False
        records.append(ClaimRecord(name, applicable, ok))

    # (e) contraction: every fusing triple with each class that completes a
    # second one through a 2-subset, by two witnesses that must agree
    answers = _contractions(scheme, _outside(types, through), tol)
    records.append(ClaimRecord(
        "contraction", bool(answers), bool(answers) and all(answers),
        witness=f"{len(answers)} admissible pairs"))

    # (f) every fusing triple is exactly type 1 or type 2, read off its dual
    applicable, ok = bool(types), all(ty is not None for ty in types.values())
    records.append(ClaimRecord(
        "triple_types", applicable, applicable and ok,
        witness=f"{len(types)} fusing triples"))

    # (g) row subsets of the principal parts have enough non-constant
    # columns; every subset is read off one closeness tensor per part
    applicable = 2 <= d <= 6
    ok = applicable and all(
        _row_lemma_holds(tol.isclose(M[:, None, :], M[None, :, :]), _row_subsets(d)).all()
        for M in (spec.principal("P"), spec.principal("Q")))
    records.append(ClaimRecord("row_lemma", applicable, ok))

    # (h) overlapping fusing triples fall only in the surviving subcases
    found = _overlap_labels(through, types)
    records.append(ClaimRecord(
        "overlap_cases", bool(found), bool(found) and None not in found,
        witness=",".join(sorted(found - {None}))))

    return ClaimReport(records=tuple(records))
