"""Fusion-scheme questions: exact integer oracle, eigenmatrix criterion,
fusing-tuple enumeration, triple types, contraction, and overlap cases.

Every fusion question is decided by two independent oracles, in both
directions (:func:`_decide`).  The exact oracle: a partition pi fuses iff,
for all blocks I, J, H, the block sum sum_{i in I, j in J} p_ij^h is
constant over h in H (Bannai & Ito, *Algebraic Combinatorics I*, 1984,
II.9).  It is integer work on the (d+1)^3 intersection tensor and does not
depend on v.  The second is the row-sum criterion on the eigenmatrix
(:func:`bm_check`).  Any disagreement, a yes against a no either way,
aborts with :class:`OracleDisagreement`.

Each question is decided once per scheme instance and tolerance: an answer
on which both oracles agree is kept on the scheme, and asking again
returns it.  A disagreement is never kept, so it raises every time it is
asked.  The fused scheme of the last partition passed to
:func:`fuse_direct` is kept too, in one slot on the parent.

The single merges of one size are also decided all together
(:func:`_decide_merges`): both oracles run on a stack of membership
matrices, a fixed number of merges at a time, and any merge they answer
differently raises.  The amorphicity oracle asks the C(d, 2) pair merges
this way, once per scheme, so these answers are neither read from nor
kept in the scheme's decisions.

Neither oracle formats text to answer; a :class:`NotAFusion` message is
built only where it is raised to the caller.  Nothing here enumerates
class partitions: every caller names the partitions it asks about.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    AssociationScheme,
    DEFAULT_TOL,
    LabelMatrix,
    SpectralData,
    Tolerance,
    spectral_decomposition,
    validate_scheme,  # unused here; bench/selftest.py looks the binding up in this module
)
from .errors import (
    Falsification,
    NotAFusion,
    NotFusing,
    OracleDisagreement,
    PreconditionFailed,
    Unclassified,
)

__all__ = [
    "ClassPartition",
    "DualPartition",
    "FusionOutcome",
    "TripleType",
    "OverlapCase",
    "fuse_direct",
    "bm_check",
    "enumerate_fusing_tuples",
    "classify_triple",
    "contraction_check",
    "overlap_case",
]


@dataclass(frozen=True)
class ClassPartition:
    """Partition of {0,...,d} with {0} as its own block.

    Blocks are stored sorted by minimum element, so the block containing 0
    is always blocks[0] == (0,).
    """

    d: int
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, blocks, d: int) -> "ClassPartition":
        norm = sorted(tuple(sorted(set(b))) for b in blocks if len(b))
        seen = [i for b in norm for i in b]
        if sorted(seen) != list(range(d + 1)):
            if 0 not in seen:
                norm = sorted(norm + [(0,)])
                seen = sorted(seen + [0])
            if sorted(seen) != list(range(d + 1)):
                raise ValueError(f"blocks {blocks} do not partition 0..{d}")
        if norm[0] != (0,):
            raise ValueError("the block containing 0 must be exactly {0}")
        return cls(d=d, blocks=tuple(norm))

    @classmethod
    def from_string(cls, text: str, d: int) -> "ClassPartition":
        """Parse "0|1,3|2" (the 0 block may be omitted)."""
        blocks = []
        for part in text.split("|"):
            part = part.strip()
            if not part:
                continue
            try:
                blocks.append([int(tok) for tok in part.split(",")])
            except ValueError as exc:
                raise ValueError(f"bad partition block {part!r}") from exc
        return cls.from_blocks(blocks, d)

    @classmethod
    def singletons(cls, d: int) -> "ClassPartition":
        return cls.from_blocks([[i] for i in range(d + 1)], d)

    @classmethod
    def merge(cls, d: int, subset) -> "ClassPartition":
        """Merge exactly ``subset`` (of nontrivial classes), all else singleton.

        The blocks are built in canonical order directly; a subset of at
        most one class gives the singletons.
        """
        merged = tuple(sorted(set(subset)))
        if 0 in merged:
            raise ValueError("cannot merge the trivial class")
        if not merged:
            return cls(d=d, blocks=tuple((i,) for i in range(d + 1)))
        low = merged[0]
        if low < 1 or merged[-1] > d:
            raise ValueError(f"classes {list(merged)} are not all in 1..{d}")
        rest = set(merged)
        blocks = ([(i,) for i in range(low)] + [merged]
                  + [(i,) for i in range(low + 1, d + 1) if i not in rest])
        return cls(d=d, blocks=tuple(blocks))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_index(self) -> np.ndarray:
        """index[i] = which block class i belongs to.

        Built once per instance and read-only: both oracles of one
        question read it.
        """
        idx = self.__dict__.get("_block_index")
        if idx is None:
            idx = np.empty(self.d + 1, dtype=np.int64)
            for b, block in enumerate(self.blocks):
                for i in block:
                    idx[i] = b
            idx.flags.writeable = False
            object.__setattr__(self, "_block_index", idx)
        return idx

    def rgs(self) -> tuple[int, ...]:
        """Restricted growth string over 1..d (the canonical key)."""
        idx = self.block_index()
        remap, out = {}, []
        for i in range(1, self.d + 1):
            out.append(remap.setdefault(int(idx[i]), len(remap)))
        return tuple(out)

    def __str__(self) -> str:
        return "|".join(",".join(str(i) for i in b) for b in self.blocks)


@dataclass(frozen=True)
class DualPartition:
    """Result of the row-sum criterion: the unique dual partition and the
    fused eigenmatrix (rows ordered by dual block minimum).

    ``P_fused`` is read-only: a decision is kept on its scheme and handed
    to every later caller asking the same question.
    """

    rho: ClassPartition
    P_fused: np.ndarray

    def __post_init__(self):
        P_fused = np.asarray(self.P_fused).view()
        P_fused.flags.writeable = False
        object.__setattr__(self, "P_fused", P_fused)


@dataclass(frozen=True)
class FusionOutcome:
    scheme: AssociationScheme
    rho: ClassPartition
    P_fused: np.ndarray


def _membership(pi: ClassPartition) -> np.ndarray:
    """S[i, b] = 1 iff class i lies in block b of pi."""
    S = np.zeros((pi.d + 1, pi.n_blocks), dtype=np.int64)
    S[np.arange(pi.d + 1), pi.block_index()] = 1
    return S


def _check_fusion(scheme: AssociationScheme, pi: ClassPartition) -> tuple[int, int, int] | None:
    """Exact oracle on the intersection tensor: the first block pair (I, J)
    and class h where the block sum moves, or None when pi fuses."""
    if pi.d != scheme.d:
        raise PreconditionFailed(f"partition is over 0..{pi.d}, scheme has d={scheme.d}")
    S = _membership(pi)
    # F[I, J, h] = sum over i in I, j in J of p_ij^h, folded one side at a time
    F = np.einsum("Ijh,jJ->IJh", np.einsum("iI,ijh->Ijh", S, scheme.intersection.p), S)
    rep = np.array([b[0] for b in pi.blocks])[pi.block_index()]  # first class of h's block
    bad = np.argwhere(F != F[:, :, rep])
    return tuple(map(int, bad[0])) if bad.size else None


def _tensor_failure(scheme: AssociationScheme, pi: ClassPartition) -> NotAFusion:
    """The exact oracle's rejection of pi, naming its witness (I, J, h)."""
    witness = _check_fusion(scheme, pi)
    if witness is None:  # only a stacked answer can reject what this accepts
        return NotAFusion(f"partition {pi}: the stacked block sums reject it, the scalar ones accept it")
    I, J, h = witness
    r = pi.blocks[pi.block_index()[h]][0]
    sums = scheme.intersection.p[np.ix_(pi.blocks[I], pi.blocks[J])].sum(axis=(0, 1))
    return NotAFusion(
        f"partition {pi} does not fuse: the sum of p_ij^h over i in "
        f"{set(pi.blocks[I])}, j in {set(pi.blocks[J])} is {sums[h]} at "
        f"h={h} but {sums[r]} at h={r}")


_UNDECIDED = object()


def _decide(scheme: AssociationScheme, pi: ClassPartition,
            tol: Tolerance) -> DualPartition | None:
    """The one place a fusion question is decided.

    Both oracles answer: the exact block-sum test on the intersection
    tensor, then the eigenmatrix criterion on the scheme's cached spectrum.
    Both yes: the dual partition.  Both no: None.  Otherwise
    :class:`OracleDisagreement`, the only case in which text is formatted.

    An agreed answer is kept on the scheme, keyed by ``(tol, pi.blocks)``
    (the blocks are canonical), and returned when the question comes again.
    A disagreement is not kept: asking again runs both oracles again and
    raises again.
    """
    key = (tol, pi.blocks)
    dual = scheme._decisions.get(key, _UNDECIDED)
    if dual is not _UNDECIDED:
        return dual
    witness = _check_fusion(scheme, pi)
    spec = spectral_decomposition(scheme, tol=tol)
    dual = _row_sum(spec, pi)
    if (witness is None) == (dual is not None):
        scheme._decisions[key] = dual
        return dual
    raise _disagreement(scheme, spec, pi, exact_accepts=witness is None)


def _disagreement(scheme: AssociationScheme, spec: SpectralData, pi: ClassPartition,
                  exact_accepts: bool) -> OracleDisagreement:
    """The error for a question the two oracles answer differently; the
    side that rejects pi names its reason."""
    if exact_accepts:
        return OracleDisagreement(
            f"exact oracle accepts {pi} but the eigenmatrix criterion rejects it: "
            f"{_row_sum_failure(spec, pi)}")
    return OracleDisagreement(
        f"eigenmatrix criterion accepts {pi} but the exact oracle rejects it: "
        f"{_tensor_failure(scheme, pi)}")


def fuse_direct(scheme: AssociationScheme, pi: ClassPartition,
                tol: Tolerance = DEFAULT_TOL) -> FusionOutcome:
    """Exact oracle on the intersection tensor, then the fused scheme.

    The dual partition is read off the eigenmatrix criterion, which must
    agree either way.  The fused scheme is built from the merged labels
    without re-validation: the tensor check proves closure, and identity,
    partition and symmetry carry over from the parent.

    The parent keeps the last fused scheme in one slot: asking for the same
    partition again returns that same instance, with its tensor, spectrum
    and decisions already cached; any other partition replaces it.
    """
    dual = _decide(scheme, pi, tol)
    if dual is None:
        raise _tensor_failure(scheme, pi)
    if scheme._fused is not None and scheme._fused[0] == pi.blocks:
        fused = scheme._fused[1]
    else:
        labels = LabelMatrix(v=scheme.v, d=pi.n_blocks - 1, labels=pi.block_index()[scheme.labels])
        valencies = tuple(sum(scheme.valencies[i] for i in b) for b in pi.blocks)
        fused = AssociationScheme(labels, valencies)
        scheme._fused = (pi.blocks, fused)
    return FusionOutcome(scheme=fused, rho=dual.rho, P_fused=dual.P_fused)


def _group_rows(M: np.ndarray, tol: Tolerance) -> list[list[int]]:
    """Indices of the rows of M grouped by closeness under tol; each group
    is led by its smallest index, and groups are in order of their leader."""
    a, b = M[:, None, :], M[None, :, :]
    bound = tol.atol + tol.rtol * np.maximum(np.abs(a), np.abs(b))
    # close[j][g]: rows j, g agree; Python lists index faster than numpy scalars
    close = np.all(np.abs(a - b) <= bound, axis=2).tolist()
    groups: list[list[int]] = []
    for j, row in enumerate(close):
        for g in groups:
            if row[g[0]]:
                g.append(j)
                break
        else:
            groups.append([j])
    return groups


def _row_sum(spec: SpectralData, pi: ClassPartition) -> DualPartition | None:
    """The row-sum criterion of :func:`bm_check` without its error text:
    the dual partition, or None when pi does not fuse."""
    folded = spec.P @ _membership(pi)
    groups = _group_rows(folded, spec.tol)
    # the valency row must stay alone for a genuine fusion
    if len(groups) != pi.n_blocks or groups[0] != [0]:
        return None
    P_fused, _ = spec.tol.snap(folded[[g[0] for g in groups]])
    # groups come ascending and in order of their leaders: already canonical
    rho = ClassPartition(d=spec.d, blocks=tuple(map(tuple, groups)))
    return DualPartition(rho=rho, P_fused=P_fused)


def _row_sum_failure(spec: SpectralData, pi: ClassPartition) -> NotAFusion:
    """The row-sum criterion's rejection of pi."""
    groups = _group_rows(spec.P @ _membership(pi), spec.tol)
    if len(groups) != pi.n_blocks:
        return NotAFusion(f"partition {pi}: {len(groups)} distinct folded rows, need {pi.n_blocks}")
    if groups[0] != [0]:
        return NotAFusion(f"partition {pi}: valency row folds onto another eigenrow")
    # only a stacked answer can reject what this accepts
    return NotAFusion(f"partition {pi}: the stacked row sums reject it, the scalar ones accept it")


def bm_check(spec: SpectralData, pi: ClassPartition) -> DualPartition:
    """Row-sum criterion on the first eigenmatrix.

    Folds the columns of P over the blocks of pi and groups identical rows;
    pi fuses iff the number of distinct rows equals the number of blocks.
    The dual partition of idempotent indices is the row grouping.
    """
    if pi.d != spec.d:
        raise PreconditionFailed(f"partition is over 0..{pi.d}, spectral data has d={spec.d}")
    dual = _row_sum(spec, pi)
    if dual is None:
        raise _row_sum_failure(spec, pi)
    return dual


def fuses(scheme: AssociationScheme, pi: ClassPartition,
          tol: Tolerance = DEFAULT_TOL) -> bool:
    """Exact yes/no for a single partition; every answer is cross-checked
    by the eigenmatrix criterion.  Builds no fused scheme."""
    return _decide(scheme, pi, tol) is not None


# Merges stacked per pass of _decide_merges.  Its largest arrays hold
# _MERGE_CHUNK * (d+1)^3 floats, about 12 MB each at d = 28, whatever the
# merge count; the 378 pairs of d = 28 in one stack would need over 70 MB each.
_MERGE_CHUNK = 64


def _merge_stack(d: int, merges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Membership matrices of the single merges named by the rows of
    ``merges`` (sorted r-subsets of 1..d), and each class's representative.

    S[m] is the float64 (d+1) x (d+2-r) membership matrix of
    ``ClassPartition.merge(d, merges[m])``, blocks in its order; rep[m, h]
    is the first class of h's block.
    """
    c, r = merges.shape
    classes = np.arange(d + 1)
    merged = np.zeros((c, d + 1), dtype=bool)
    merged[np.arange(c)[:, None], merges] = True
    low = merges[:, :1]
    # a class outside T moves down one block per class of T above low and below it
    below = np.cumsum(merged, axis=1) - merged
    block = np.where(merged, low, classes - np.maximum(below - 1, 0))
    S = np.zeros((c, d + 1, d + 2 - r))
    S[np.arange(c)[:, None], classes, block] = 1.0
    return S, np.where(merged, low, classes)


def _stacked_block_sums(p: np.ndarray, S: np.ndarray, rep: np.ndarray) -> np.ndarray:
    """The exact oracle on a stack of partitions: entry m is True iff every
    block sum F[m, h] = S[m]^T p[:, :, h] S[m] equals F[m, rep[m, h]].

    ``p`` is the intersection tensor as float64 in (h, i, j) order.  The
    products are exact: every entry and partial sum is an integer <= v < 2^53.
    """
    c, n, nb = S.shape
    # G[h, i, m, J] = sum over j in J of p_ij^h, one product for the whole stack
    G = (p.reshape(n * n, n) @ S.transpose(1, 0, 2).reshape(n, c * nb)).reshape(n, n, c, nb)
    G = G.transpose(2, 1, 0, 3).reshape(c, n, n * nb)
    # F[m, I, h, J] = sum over i in I of G[h, i, m, J], then one row per (m, h)
    F = (S.transpose(0, 2, 1) @ G).reshape(c, nb, n, nb)
    F = F.transpose(0, 2, 1, 3).reshape(c * n, nb * nb)
    at_rep = F[(rep + n * np.arange(c)[:, None]).ravel()]
    return np.all((F == at_rep).reshape(c, n * nb * nb), axis=1)


def _stacked_row_sum(P: np.ndarray, S: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The row-sum criterion on a stack of partitions: entry m is True iff
    the rows of P S[m] fall into as many groups as S[m] has blocks, with
    row 0 alone.

    The grouping is :func:`_group_rows`'s, one row at a time across the
    whole stack: a row joins the first leader it is close to, so it leads
    a group iff it is close to no earlier leader.
    """
    c, n, nb = S.shape
    folded = (P @ S.transpose(1, 0, 2).reshape(n, c * nb)).reshape(n, c, nb).transpose(1, 0, 2)
    size = np.abs(folded)
    leader = np.zeros((c, n), dtype=bool)
    leader[:, 0] = True
    alone = np.ones(c, dtype=bool)
    for j in range(1, n):
        bound = tol.atol + tol.rtol * np.maximum(size[:, j:j + 1], size[:, :j])
        close = np.all(np.abs(folded[:, j:j + 1] - folded[:, :j]) <= bound, axis=2)
        alone &= ~close[:, 0]  # row 0 leads the first group
        leader[:, j] = ~np.any(close & leader[:, :j], axis=1)
    return (leader.sum(axis=1) == nb) & alone


def _decide_merges(scheme: AssociationScheme, r: int, tol: Tolerance) -> np.ndarray:
    """Whether each merge of r nontrivial classes fuses, decided together.

    Entry m answers ``ClassPartition.merge(d, T)`` for the m-th T of
    ``itertools.combinations(range(1, d + 1), r)``.  Both oracles answer
    every merge, on stacks of _MERGE_CHUNK membership matrices, so memory
    stays flat however many merges there are.  A merge the two answer
    differently raises :class:`OracleDisagreement` with :func:`_decide`'s
    text.  The scheme's decisions are neither read nor written: a kept
    answer cannot hide a disagreement, and one pass per scheme would
    only fill the memo.
    """
    d = scheme.d
    p = scheme.intersection.p.transpose(2, 0, 1).astype(np.float64)
    spec = spectral_decomposition(scheme, tol=tol)
    combos = itertools.combinations(range(1, d + 1), r)
    answers = [np.zeros(0, dtype=bool)]  # no merges at all when r > d
    while chunk := list(itertools.islice(combos, _MERGE_CHUNK)):
        merges = np.array(chunk, dtype=np.int64).reshape(len(chunk), r)
        S, rep = _merge_stack(d, merges)
        exact = _stacked_block_sums(p, S, rep)
        criterion = _stacked_row_sum(spec.P, S, tol)
        differ = np.flatnonzero(exact != criterion)
        if differ.size:
            m = differ[0]
            raise _disagreement(scheme, spec, ClassPartition.merge(d, chunk[m]),
                                exact_accepts=bool(exact[m]))
        answers.append(exact)
    return np.concatenate(answers)


def enumerate_fusing_tuples(scheme: AssociationScheme, k: int,
                            tol: Tolerance = DEFAULT_TOL) -> list[tuple[int, ...]]:
    """All k-subsets of nontrivial classes whose merge fuses.

    Each tuple is decided by :func:`fuses`, so by the exact tensor oracle
    and the eigenmatrix criterion together, at every v.
    """
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    return [T for T in itertools.combinations(range(1, scheme.d + 1), k)
            if fuses(scheme, ClassPartition.merge(scheme.d, T), tol=tol)]


@dataclass(frozen=True)
class TripleType:
    """Dual shape of a fusing triple: one 3-set of idempotents merges
    (type 1) or two disjoint 2-sets do (type 2)."""

    kind: int  # 1 or 2
    sets: tuple[frozenset, ...]

    @property
    def is_type1(self) -> bool:
        return self.kind == 1


def classify_triple(spec, T) -> TripleType:
    """Type of a fusing triple, read off the dual partition.

    Accepts spectral data or a scheme (decomposed with defaults).
    """
    if isinstance(spec, AssociationScheme):
        spec = spectral_decomposition(spec)
    T = tuple(sorted(T))
    if len(T) != 3:
        raise PreconditionFailed(f"{T} is not a 3-subset")
    pi = ClassPartition.merge(spec.d, T)
    try:
        dual = bm_check(spec, pi)
    except NotAFusion as exc:
        raise NotFusing(str(exc)) from exc
    return _triple_type(dual, T)


def _triple_type(dual: DualPartition, T: tuple[int, ...]) -> TripleType:
    """Type of the fusing triple T (sorted) from the dual partition of its merge."""
    big = [frozenset(b) for b in dual.rho.blocks if len(b) >= 2]
    sizes = sorted(len(b) for b in big)
    if sizes == [3]:
        return TripleType(kind=1, sets=(big[0],))
    if sizes == [2, 2]:
        j1, j2 = sorted(big, key=min)
        return TripleType(kind=2, sets=(j1, j2))
    raise Falsification(
        f"fusing triple {T} has dual block sizes {sizes}, expected [3] or [2, 2]")


def contraction_check(scheme: AssociationScheme, t1, ell: int,
                      tol: Tolerance = DEFAULT_TOL) -> bool:
    """Merge a fusing triple and test whether the merged class still fuses
    with a fourth class that completes a second fusing triple.

    Preconditions: t1 fuses, ell is outside t1, and some 2-subset of t1
    together with ell also fuses.  By the contraction property the result
    must be True; the caller treats False as a falsification event.
    """
    t1 = tuple(sorted(t1))
    if len(t1) != 3 or ell in t1:
        raise PreconditionFailed(f"need a 3-subset and an outside class, got {t1}, {ell}")
    if not fuses(scheme, ClassPartition.merge(scheme.d, t1), tol=tol):
        raise PreconditionFailed(f"{set(t1)} does not fuse")
    overlapping = [
        s for s in itertools.combinations(t1, 2)
        if fuses(scheme, ClassPartition.merge(scheme.d, set(s) | {ell}), tol=tol)
    ]
    if not overlapping:
        witness = set(list(t1)[1:]) | {ell}
        raise PreconditionFailed(f"no second fusing triple through {ell} ({witness} does not fuse)")

    pi = ClassPartition.merge(scheme.d, t1)
    # the parent's fused-scheme slot returns one contracted scheme for every
    # outside class of t1, so a caller looping ell inside t1 builds it once
    contracted = fuse_direct(scheme, pi, tol=tol).scheme
    idx = pi.block_index()
    merged_new, ell_new = int(idx[t1[0]]), int(idx[ell])
    # independent verification path: the contracted scheme's tensor comes
    # from its own labels and its spectral data from its own eigh, once per
    # contracted scheme; nothing is read from P_fused
    pair = ClassPartition.merge(contracted.d, (merged_new, ell_new))
    return fuses(contracted, pair, tol=tol)


# Representative dual-set layouts for the 18 overlap subcases: for each
# label, the dual images of the triples playing the {1,2,3} and {2,3,4}
# roles.  Type-1 triples map to one 3-set, type-2 triples to two 2-sets.
CASE_REPRESENTATIVES: dict[str, tuple[tuple[frozenset, ...], tuple[frozenset, ...]]] = {
    "I.1": ((frozenset({1, 2, 3}),), (frozenset({4, 5, 6}),)),
    "I.2": ((frozenset({1, 2, 3}),), (frozenset({3, 4, 5}),)),
    "I.3": ((frozenset({1, 2, 3}),), (frozenset({2, 3, 4}),)),
    "I.4": ((frozenset({1, 2, 3}),), (frozenset({1, 2, 3}),)),
    "II.1": ((frozenset({1, 2, 3}),), (frozenset({4, 5}), frozenset({6, 7}))),
    "II.2": ((frozenset({1, 2, 3}),), (frozenset({3, 4}), frozenset({5, 6}))),
    "II.3": ((frozenset({1, 2, 3}),), (frozenset({2, 3}), frozenset({4, 5}))),
    "II.4": ((frozenset({2, 3, 4}),), (frozenset({1, 2}), frozenset({4, 5}))),
    "II.5": ((frozenset({1, 2, 3}),), (frozenset({1, 2}), frozenset({3, 4}))),
    "III.1": ((frozenset({1, 2}), frozenset({3, 4})), (frozenset({5, 6}), frozenset({7, 8}))),
    "III.2": ((frozenset({1, 2}), frozenset({3, 4})), (frozenset({4, 5}), frozenset({6, 7}))),
    "III.3": ((frozenset({1, 2}), frozenset({3, 4})), (frozenset({3, 4}), frozenset({5, 6}))),
    "III.4": ((frozenset({2, 3}), frozenset({4, 5})), (frozenset({1, 2}), frozenset({5, 6}))),
    "III.5": ((frozenset({1, 2}), frozenset({3, 4})), (frozenset({2, 3}), frozenset({5, 6}))),
    "III.6": ((frozenset({1, 2}), frozenset({3, 4})), (frozenset({1, 2}), frozenset({4, 5}))),
    "III.7": ((frozenset({1, 2}), frozenset({3, 4})), (frozenset({2, 3}), frozenset({4, 5}))),
    "III.8": ((frozenset({1, 2}), frozenset({3, 4})), (frozenset({1, 2}), frozenset({3, 4}))),
    "III.9": ((frozenset({1, 2}), frozenset({3, 4})), (frozenset({1, 4}), frozenset({2, 3}))),
}

# Subcases that survive the case analysis; any other label on a real
# scheme falsifies the analysis.
SURVIVING_CASES = frozenset({"I.3", "II.3", "II.5", "III.6", "III.9"})


@dataclass(frozen=True)
class OverlapCase:
    label: str
    relation_map: dict[int, int]
    idempotent_map: dict[int, int]


def _signature_map(concrete: tuple[frozenset, ...], rep: tuple[frozenset, ...]):
    """Bijection on dual indices matching concrete sets onto representative
    sets, or None.  Elements are matched by their membership pattern; ties
    are broken towards the lexicographically smallest witness."""
    if tuple(len(s) for s in concrete) != tuple(len(s) for s in rep):
        return None
    c_elems = set().union(*concrete)
    r_elems = set().union(*rep)
    if len(c_elems) != len(r_elems):
        return None

    def patterns(sets, elems):
        return {e: tuple(e in s for s in sets) for e in elems}

    cp, rp = patterns(concrete, c_elems), patterns(rep, r_elems)
    buckets: dict[tuple, list[int]] = {}
    for e in sorted(r_elems):
        buckets.setdefault(rp[e], []).append(e)
    out = {}
    for e in sorted(c_elems):
        pool = buckets.get(cp[e])
        if not pool:
            return None
        out[e] = pool.pop(0)
    return out


def _overlap_label(sets_a, sets_b) -> str:
    """Subcase label from the dual-set intersection signature.

    The signature is invariant under relabeling idempotents and swapping
    the two dual pairs of a type-2 triple, so any representative works.
    The first argument must be the type-1 side when the types differ.
    """
    kinds = (len(sets_a), len(sets_b))
    if kinds == (1, 1):
        inter = len(sets_a[0] & sets_b[0])
        return {0: "I.1", 1: "I.2", 2: "I.3", 3: "I.4"}[inter]
    if kinds == (1, 2):
        sig = tuple(sorted(len(sets_a[0] & s) for s in sets_b))
        table = {(0, 0): "II.1", (0, 1): "II.2", (0, 2): "II.3",
                 (1, 1): "II.4", (1, 2): "II.5"}
        if sig not in table:
            raise Unclassified(("II", sig))
        return table[sig]
    M = [[len(a & b) for b in sets_b] for a in sets_a]
    flat = sorted(x for row in M for x in row)
    if flat == [0, 0, 1, 1]:
        # one overlap per dual pair on each side vs both overlaps
        # through one shared dual pair (transpose-invariant test)
        diag = (M[0][0] and M[1][1]) or (M[0][1] and M[1][0])
        return "III.4" if diag else "III.5"
    table = {(0, 0, 0, 0): "III.1", (0, 0, 0, 1): "III.2",
             (0, 0, 0, 2): "III.3", (0, 0, 1, 2): "III.6",
             (0, 1, 1, 1): "III.7", (0, 0, 2, 2): "III.8",
             (1, 1, 1, 1): "III.9"}
    if tuple(flat) not in table:
        raise Unclassified(("III", tuple(flat)))
    return table[tuple(flat)]


def overlap_case(spec, t1, t2,
                 ruled_out_fatal: bool = True) -> OverlapCase:
    """Match a pair of fusing triples sharing two classes against the 18
    subcases, up to relabeling of relations and idempotents."""
    if isinstance(spec, AssociationScheme):
        spec = spectral_decomposition(spec)
    t1, t2 = tuple(sorted(t1)), tuple(sorted(t2))
    common = sorted(set(t1) & set(t2))
    if len(common) != 2:
        raise PreconditionFailed(f"triples {t1}, {t2} must share exactly 2 classes")
    try:
        ty1 = classify_triple(spec, t1)
        ty2 = classify_triple(spec, t2)
    except NotFusing as exc:
        raise PreconditionFailed(str(exc)) from exc
    return _overlap_from_types(t1, ty1, t2, ty2, ruled_out_fatal)


def _overlap_from_types(t1, ty1: TripleType, t2, ty2: TripleType,
                        ruled_out_fatal: bool = True) -> OverlapCase:
    """:func:`overlap_case` for two sorted fusing triples sharing two
    classes, given their types."""
    common = sorted(set(t1) & set(t2))

    # role assignments: which triple plays {1,2,3} and which {2,3,4}.
    # Mixed types pin the type-1 triple to the {1,2,3} role (the subcase
    # list is stated that way); equal types allow either role.
    if (ty1.kind, ty2.kind) == (2, 1):
        roles = [(t2, ty2, t1, ty1)]
    elif ty1.kind == ty2.kind:
        roles = [(t1, ty1, t2, ty2), (t2, ty2, t1, ty1)]
    else:
        roles = [(t1, ty1, t2, ty2)]

    tya, tyb = roles[0][1], roles[0][3]
    label = _overlap_label(tya.sets, tyb.sets)

    rep_a, rep_b = CASE_REPRESENTATIVES[label]
    idem_map = None
    relation_map = None
    for first, fty, second, sty in roles:
        only_a = (set(first) - set(common)).pop()
        only_b = (set(second) - set(common)).pop()
        orders_a = [fty.sets] if len(fty.sets) == 1 else [fty.sets, fty.sets[::-1]]
        orders_b = [sty.sets] if len(sty.sets) == 1 else [sty.sets, sty.sets[::-1]]
        for sa in orders_a:
            for sb in orders_b:
                idem_map = _signature_map(tuple(sa) + tuple(sb), rep_a + rep_b)
                if idem_map is not None:
                    relation_map = {only_a: 1, common[0]: 2, common[1]: 3, only_b: 4}
                    break
            if idem_map is not None:
                break
        if idem_map is not None:
            break
    if idem_map is None:
        raise Unclassified((label, "no idempotent relabeling found"))

    if ruled_out_fatal and label not in SURVIVING_CASES:
        raise Falsification(
            f"overlapping fusing triples {t1}, {t2} realize ruled-out case {label}")
    return OverlapCase(label=label, relation_map=relation_map, idempotent_map=idem_map)
