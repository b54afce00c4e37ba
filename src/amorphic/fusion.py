"""Fusion-scheme questions: exact integer oracle, eigenmatrix criterion,
fusing-tuple enumeration, triple types, contraction, and overlap cases.

Every fusion question is decided by two independent oracles, in both
directions.  The exact oracle: a partition pi fuses iff, for all blocks
I, J, H, the block sum sum_{i in I, j in J} p_ij^h is constant over h in H
(Bannai & Ito, *Algebraic Combinatorics I*, 1984, II.9).  It is integer
work on the (d+1)^3 intersection tensor and does not depend on v.  The
second is the row-sum criterion on the eigenmatrix (:func:`bm_check`).
Any disagreement, a yes against a no either way, aborts with
:class:`OracleDisagreement`.

Each oracle has one kernel that answers a stack of partitions, on one
tensor and eigenmatrix for the stack or, by index, one per entry, and pays
only for the classes each partition merges.  :func:`_reconcile` runs both
kernels on a stack and raises at the first entry they answer differently;
every two-oracle question goes through it.  Stacks are internal to this
module: a single question (:func:`_decide`) is a stack of one, and the
batched passes (:func:`_decide_merges`, :func:`_dual_merges`,
:func:`_decide_contracted`) build theirs a fixed number of merges at a
time (:func:`_merge_stacks`) and yield one answer per question, in order.

Answers are return values: a scheme keeps only its tensor and spectra,
and :func:`fuse_direct` builds a new fused scheme for each call.

The contraction claim runs as one batch per scheme (:func:`_contractions`)
with two witnesses that must agree: the parent decides each 4-set
T + {ell} in stacks, and witness B decides the pairs {merged class, ell}
of all contracted schemes in stacks, without building one: on tensors
folded from one histogram of the parent's labels and on eigenmatrices
read off the parent's P and proven to be their character tables.  The
18 overlap subcases are written once, as :data:`CASE_REPRESENTATIVES`,
and a pair of triples gets the label of its :func:`_overlap_signature`.
Both claims read their pairs off one map, :func:`_triples_through`.
:func:`contraction_check`, :func:`classify_triple` and
:func:`overlap_case` stay as single questions on the same code.

Neither oracle formats text to answer; a :class:`NotAFusion` message is
built only where it is raised to the caller.  Nothing here enumerates
class partitions: every caller names the partitions it asks about.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    AssociationScheme,
    DEFAULT_TOL,
    IntersectionTensor,
    LabelMatrix,
    SpectralData,
    Tolerance,
    _label_dtype,
    _row0_counts,
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

        A subset of at most one class gives the singletons.
        """
        merged = sorted(set(subset))
        if 0 in merged:
            raise ValueError("cannot merge the trivial class")
        if merged and (merged[0] < 1 or merged[-1] > d):
            raise ValueError(f"classes {merged} are not all in 1..{d}")
        return cls.from_blocks([merged, *([i] for i in range(d + 1) if i not in merged)], d)

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

    ``P_fused`` is read-only, as a frozen answer: an edited matrix would
    no longer be the one the oracles agreed on.
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


# Merges per stack of _merge_stacks, so that a stack's arrays have a fixed size
# whatever the merge count (witness B's: 64 tensors of (d-1)^3, 10 MB at d = 28).
_MERGE_CHUNK = 64


def _stack(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stack both kernels read, built from the block-index rows ``idx``
    of partitions with one number of blocks (row m is
    ``pi.block_index()`` of partition m).

    S[m] is the float64 (d+1) x n_blocks membership matrix of partition m,
    S[m, i, b] = 1 iff class i lies in block b; rep[m, h] is the first
    class of h's block.
    """
    c, n = idx.shape
    S = np.zeros((c, n, int(idx[0].max()) + 1))
    S[np.arange(c)[:, None], np.arange(n), idx] = 1.0
    return S, np.argmax(idx[:, :, None] == idx[:, None, :], axis=2)


def _merge_stacks(d: int, merges):
    """The single merges named by ``merges``, _MERGE_CHUNK at a time.

    ``merges`` is an iterable of sorted tuples of nontrivial classes, all of
    one size, such as ``itertools.combinations(range(1, d + 1), r)``.
    Yields (chunk, S, rep): the next tuples T and the :func:`_stack` of
    their ``ClassPartition.merge(d, T)``, with the block indices computed
    for the whole chunk at once.
    """
    classes = np.arange(d + 1)
    todo = iter(merges)
    while chunk := list(itertools.islice(todo, _MERGE_CHUNK)):
        tuples = np.array(chunk, dtype=np.int64)
        merged = np.zeros((len(chunk), d + 1), dtype=bool)
        merged[np.arange(len(chunk))[:, None], tuples] = True
        # a class outside T moves down one block per class of T above T's
        # lowest class and below it
        below = np.cumsum(merged, axis=1) - merged
        idx = np.where(merged, tuples[:, :1], classes - np.maximum(below - 1, 0))
        yield (chunk, *_stack(idx))


def _stacked_block_sums(p: np.ndarray, S: np.ndarray, rep: np.ndarray,
                        own: np.ndarray | None = None) -> np.ndarray:
    """The exact oracle on a stack of partitions: entry m is True iff every
    block sum S[m]^T p[:, :, h] S[m] equals the one at rep[m, h].

    Only the t = d + 1 - n_blocks classes with rep[m, h] != h (t is one
    for the stack) can break that, so entry m is accepted iff every block
    sum of p[:, :, h] - p[:, :, rep[m, h]] is 0.  ``p`` is one tensor shared
    by the stack, p[i, j, h] = p_ij^h, or a stack of tensors p[e, i, j, h]
    of which entry m reads p[own[m]] (``own`` is required), two slices
    each, with no per-entry copy; neither symmetry nor p_0j^h = delta_jh
    is assumed.  The float64 products are exact: partial sums are
    integers below v (d+1)^2 < 2^53.
    """
    c, n, nb = S.shape
    if p.ndim == 3:  # a shared tensor is a stack of one that every entry reads
        p, own = p[None], np.zeros(c, dtype=np.int64)
    m, h = np.nonzero(rep != np.arange(n))
    slices = p.transpose(0, 3, 1, 2)  # [e, h]: p[e, :, :, h]
    diff = (slices[own[m], h] - slices[own[m], rep[m, h]]).astype(np.float64)
    sums = S.transpose(0, 2, 1)[:, None] @ diff.reshape(c, n - nb, n, n) @ S[:, None]
    return ~sums.reshape(c, -1).any(axis=1)


@functools.cache
def _earlier_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each pair (j, g) of rows 0..n-1 with g < j, as two index arrays."""
    return np.tril_indices(n, -1)


def _stacked_row_sum(P: np.ndarray, S: np.ndarray, tol: Tolerance,
                     own: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The row-sum criterion on a stack of partitions: fused[m] is True iff
    the rows of P S[m] fall into as many groups as S[m] has blocks, with
    row 0 alone; lead[m, j] is the leader of row j's group.  ``P`` is one
    eigenmatrix shared by the stack or a stack of them, of which entry m
    reads P[own[m]] (``own`` is required), with no per-entry copy.

    Rows are close iff close under tol in every folded column.  A block of
    one class folds to P's own column, so the row pairs apart in each own
    column are found once per run of entries reading one P; per entry only
    its merged blocks' columns are compared.  A row joins the first earlier
    leader it is close to, so closeness need not be transitive.
    """
    c, n, nb = S.shape
    if P.ndim == 2:  # a shared eigenmatrix is a stack of one that every entry reads
        P, own = P[None], np.zeros(c, dtype=np.int64)
    fresh = np.concatenate([[True], own[1:] != own[:-1]])  # the first entry of each run
    first = np.flatnonzero(fresh)
    size = S.sum(axis=1)
    m, b = np.nonzero(size > 1)  # the merged blocks
    folded = np.concatenate([P[own[a]] @ S[a:z] for a, z in zip(first, np.r_[first[1:], c])])
    # entry m reads its run's own columns of the classes alone in a block
    alone = np.zeros((c, len(first), n))
    alone[np.arange(c), np.cumsum(fresh) - 1] = (S @ (size == 1)[:, :, None])[:, :, 0]
    # apart[q, col]: row pair q differs in the column (own columns, then merged)
    cols = np.concatenate([P[own[first]].transpose(1, 0, 2).reshape(n, -1), folded[m, :, b].T], axis=1)
    later, earlier = _earlier_pairs(n)
    apart = ~tol.isclose(cols[later], cols[earlier])
    reads = np.concatenate([alone.reshape(c, -1), m == np.arange(c)[:, None]], axis=1)
    close = np.zeros((c, n, n), dtype=bool)
    close[:, later, earlier] = reads @ apart.T == 0
    # leader[j] depends only on leader[:j], so each pass fixes at least one
    # more row, and the first pass that changes nothing has them all
    leader = ~close.any(axis=2)
    while True:
        joins = close & leader[:, None, :]
        step = ~joins.any(axis=2)
        if (step == leader).all():
            break
        leader = step
    lead = np.where(leader, np.arange(n), joins.argmax(axis=2))
    # a row close to row 0 joins its group, since row 0 is the first leader
    fused = (leader.sum(axis=1) == nb) & lead[:, 1:].all(axis=1)
    return fused, lead


def _fused_eigenmatrices(P: np.ndarray, S: np.ndarray, lead: np.ndarray,
                         tol: Tolerance) -> np.ndarray:
    """The fused eigenmatrix of each entry of a stack that fuses on the
    shared P, from the row-sum kernel's leaders: the leaders' rows of one
    product P S, snapped at once."""
    c, n, nb = S.shape
    return tol.snap((P @ S)[lead == np.arange(n)].reshape(c, nb, nb))[0]


def _dual(P: np.ndarray, S: np.ndarray, lead: np.ndarray, tol: Tolerance) -> DualPartition:
    """The dual partition of a stack of one partition that fuses on P."""
    return DualPartition(rho=_partition_of(lead[0]), P_fused=_fused_eigenmatrices(P, S, lead, tol)[0])


def _partition_of(labels: np.ndarray) -> ClassPartition:
    """The partition grouping equal ``labels``, a row of block indices or
    of leaders: both first appear in ascending order, so blocks are canonical."""
    groups: dict[int, list[int]] = {}
    for j, g in enumerate(labels.tolist()):
        groups.setdefault(g, []).append(j)
    return ClassPartition(d=len(labels) - 1, blocks=tuple(map(tuple, groups.values())))


def _block_sums(p: np.ndarray, pi: ClassPartition) -> np.ndarray:
    """F[I, J, h] = sum_{i in I, j in J} p_ij^h over the blocks I, J of pi;
    when pi fuses, F at the first class of block H is the fused p_IJ^H."""
    idx = pi.block_index()
    F = np.zeros((pi.n_blocks, pi.n_blocks, pi.d + 1), dtype=np.int64)
    np.add.at(F, (idx[:, None], idx[None, :]), p.astype(np.int64))
    return F


def _tensor_failure(p: np.ndarray, pi: ClassPartition) -> NotAFusion:
    """The exact oracle's rejection of pi on the intersection tensor p,
    naming the first block pair (I, J) and class h where the block sum
    moves; only this error path scans the block sums for it."""
    F = _block_sums(p, pi)
    rep = np.array([b[0] for b in pi.blocks])[pi.block_index()]
    I, J, h = map(int, np.unravel_index(np.argmax(F != F[:, :, rep]), F.shape))
    return NotAFusion(
        f"partition {pi} does not fuse: the sum of p_ij^h over i in "
        f"{set(pi.blocks[I])}, j in {set(pi.blocks[J])} is {F[I, J, h]} at "
        f"h={h} but {F[I, J, rep[h]]} at h={rep[h]}")


def _row_sum_failure(pi: ClassPartition, lead: np.ndarray) -> NotAFusion:
    """The row-sum criterion's rejection of pi, from the kernel's leaders."""
    groups = len(set(lead.tolist()))
    if groups != pi.n_blocks:
        return NotAFusion(f"partition {pi}: {groups} distinct folded rows, need {pi.n_blocks}")
    return NotAFusion(f"partition {pi}: valency row folds onto another eigenrow")


def _disagreement(p: np.ndarray, pi: ClassPartition, exact_accepts: bool,
                  lead: np.ndarray) -> OracleDisagreement:
    """The error for a question the two oracles answer differently, with p
    the tensor the exact oracle read; the side that rejects pi names its
    reason."""
    if exact_accepts:
        return OracleDisagreement(
            f"exact oracle accepts {pi} but the eigenmatrix criterion rejects it: "
            f"{_row_sum_failure(pi, lead)}")
    return OracleDisagreement(
        f"eigenmatrix criterion accepts {pi} but the exact oracle rejects it: "
        f"{_tensor_failure(p, pi)}")


def _reconcile(p: np.ndarray, P: np.ndarray, S: np.ndarray, rep: np.ndarray, tol: Tolerance,
               own: np.ndarray | None = None, where=None) -> tuple[np.ndarray, np.ndarray]:
    """Both kernels on one stack, on the shared tensor ``p`` and eigenmatrix
    ``P``, or with ``own`` on per-entry ones (entry m reads p[own[m]] and
    P[own[m]]): the row-sum kernel's (fused, lead), or :func:`_disagreement`'s
    error, prefixed by ``where(m)``, at the first entry the two differ on.
    """
    exact = _stacked_block_sums(p, S, rep, own)
    fused, lead = _stacked_row_sum(P, S, tol, own)
    differ = np.flatnonzero(exact != fused)
    if differ.size:
        m = differ[0]
        error = _disagreement(p if own is None else p[own[m]], _partition_of(S[m].argmax(axis=1)),
                              bool(exact[m]), lead[m])
        raise error if where is None else OracleDisagreement(f"{where(m)}: {error}")
    return fused, lead


def _decide(scheme: AssociationScheme, pi: ClassPartition,
            tol: Tolerance) -> DualPartition | None:
    """The one place a single fusion question is decided.

    Both kernels answer on a stack of one (:func:`_reconcile`): the exact
    block sums on the intersection tensor, and the row-sum criterion on the
    scheme's cached eigenmatrix.  Both yes: the dual partition.  Both no:
    None.  Otherwise :class:`OracleDisagreement`, the only case in which
    text is formatted.
    """
    if pi.d != scheme.d:
        raise PreconditionFailed(f"partition is over 0..{pi.d}, scheme has d={scheme.d}")
    S, rep = _stack(pi.block_index()[None])
    P = spectral_decomposition(scheme, tol=tol).P
    fused, lead = _reconcile(scheme.intersection.p, P, S, rep, tol)
    return _dual(P, S, lead, tol) if fused[0] else None


def fuse_direct(scheme: AssociationScheme, pi: ClassPartition,
                tol: Tolerance = DEFAULT_TOL) -> FusionOutcome:
    """Exact oracle on the intersection tensor, then the fused scheme.

    The dual partition is read off the eigenmatrix criterion, which must
    agree either way.  The fused scheme is built without re-validation:
    the tensor check proves closure, and identity, partition and symmetry
    carry over from the parent.  Its tensor is the block sums at each
    block's first class, an O(d^3) fold; its v x v labels are gathered
    from the block index in the fused label dtype (uint8 up to 255 blocks,
    see :class:`~amorphic.core.LabelMatrix`).  Each call builds a new
    fused scheme; the parent keeps none.
    """
    dual = _decide(scheme, pi, tol)
    if dual is None:
        raise _tensor_failure(scheme.intersection.p, pi)
    fused = pi.block_index().astype(_label_dtype(pi.n_blocks - 1))[scheme.labels]
    fused.flags.writeable = False  # handed over, not copied
    labels = LabelMatrix(v=scheme.v, d=pi.n_blocks - 1, labels=fused)
    valencies = tuple(sum(scheme.valencies[i] for i in b) for b in pi.blocks)
    F = _block_sums(scheme.intersection.p, pi)[:, :, [b[0] for b in pi.blocks]]
    return FusionOutcome(scheme=AssociationScheme(labels, valencies, IntersectionTensor(F)),
                         rho=dual.rho, P_fused=dual.P_fused)


def bm_check(spec: SpectralData, pi: ClassPartition) -> DualPartition:
    """Row-sum criterion on the first eigenmatrix.

    Folds the columns of P over the blocks of pi and groups identical rows;
    pi fuses iff the number of distinct rows equals the number of blocks.
    The dual partition of idempotent indices is the row grouping.
    """
    if pi.d != spec.d:
        raise PreconditionFailed(f"partition is over 0..{pi.d}, spectral data has d={spec.d}")
    S, _ = _stack(pi.block_index()[None])
    fused, lead = _stacked_row_sum(spec.P, S, spec.tol)
    if not fused[0]:
        raise _row_sum_failure(pi, lead[0])
    return _dual(spec.P, S, lead, spec.tol)


def fuses(scheme: AssociationScheme, pi: ClassPartition,
          tol: Tolerance = DEFAULT_TOL) -> bool:
    """Exact yes/no for a single partition; every answer is cross-checked
    by the eigenmatrix criterion.  Builds no fused scheme."""
    return _decide(scheme, pi, tol) is not None


def _decide_merges(scheme: AssociationScheme, merges, tol: Tolerance):
    """Whether each single merge in ``merges`` fuses, decided together.

    ``merges`` is what :func:`_merge_stacks` takes: sorted tuples of
    nontrivial classes, all of one size.  Yields one (merge, fused,
    leaders) per merge, in order; :func:`_partition_of` reads the dual
    partition off the row-sum kernel's leaders.  Both kernels answer a
    whole stack before any of its merges is yielded, so memory stays flat
    however many merges there are.  A merge the two answer differently
    raises :class:`OracleDisagreement` with :func:`_decide`'s text.
    """
    for chunk, S, rep in _merge_stacks(scheme.d, merges):
        P = spectral_decomposition(scheme, tol=tol).P
        fused, lead = _reconcile(scheme.intersection.p, P, S, rep, tol)
        yield from zip(chunk, fused.tolist(), lead)


def enumerate_fusing_tuples(scheme: AssociationScheme, k: int,
                            tol: Tolerance = DEFAULT_TOL) -> list[tuple[int, ...]]:
    """All k-subsets of nontrivial classes whose merge fuses.

    The merges are decided by :func:`_decide_merges`, by the exact block
    sums and the eigenmatrix criterion together, at every v; only their
    answers are read.
    """
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    merges = itertools.combinations(range(1, scheme.d + 1), k)
    return [T for T, fused, _ in _decide_merges(scheme, merges, tol) if fused]


def _fusing_triples(scheme: AssociationScheme, tol: Tolerance):
    """Each fusing triple T, in :func:`enumerate_fusing_tuples` order, and
    the dual partition of its merge."""
    merges = itertools.combinations(range(1, scheme.d + 1), 3)
    for T, fused, leaders in _decide_merges(scheme, merges, tol):
        if fused:
            yield T, _partition_of(leaders)


def _dual_merges(scheme: AssociationScheme, k: int, tol: Tolerance):
    """Each k-subset T of idempotents 1..d, in order, that some fusion's
    dual partition merges exactly, keeping the other idempotents singleton.

    By Bannai and Ito's duality of fusions (*Algebraic Combinatorics I*,
    II.9) the row-sum criterion run on Q folded over rho = merge(T) yields
    the only candidate class partition pi, and both oracles must then
    return exactly rho for pi; the candidates of a :func:`_merge_stacks`
    chunk (d + 2 - k blocks each) are confirmed in one stack before any T
    of it is yielded.  Sound: every T passes the tensor test and the row
    sums of P and of Q.  Complete: a fusion pi with dual partition rho
    folds Q over rho into exactly |pi| distinct rows, grouped by pi.  A
    failed confirmation means the numerics are wrong and raises
    :class:`OracleDisagreement`.  There is no limit on d.
    """
    spec = spectral_decomposition(scheme, tol=tol)
    for chunk, S, rep in _merge_stacks(scheme.d, itertools.combinations(range(1, scheme.d + 1), k)):
        fused, lead = _stacked_row_sum(spec.Q, S, tol)
        ask = np.flatnonzero(fused)
        if ask.size:
            # candidate m puts each class in the block of its leader on Q's side
            idx = np.take_along_axis(np.cumsum(lead == np.arange(scheme.d + 1), axis=1) - 1, lead, 1)
            found, found_lead = _reconcile(scheme.intersection.p, spec.P, *_stack(idx[ask]), tol)
            # rep[m] leads the idempotents as rho = merge(T) does
            wrong = ~found | (found_lead != rep[ask]).any(axis=1)
            if wrong.any():
                i = int(np.argmax(wrong))
                raise OracleDisagreement(
                    f"Q folded over idempotent partition {ClassPartition.merge(scheme.d, chunk[ask[i]])} "
                    f"groups the classes as {_partition_of(lead[ask[i]])}, but the two oracles give "
                    f"{_partition_of(found_lead[i]) if found[i] else 'no fusion'}")
            yield from (chunk[m] for m in ask.tolist())


@dataclass(frozen=True)
class TripleType:
    """Dual shape of a fusing triple: one 3-set of idempotents merges
    (type 1) or two disjoint 2-sets do (type 2)."""

    kind: int  # 1 or 2
    sets: tuple[frozenset, ...]


def classify_triple(spec, T) -> TripleType:
    """Type of a fusing triple, read off the dual partition.

    Given a scheme, both oracles decide whether T fuses (:func:`_decide`);
    given bare spectral data, the row-sum criterion (:func:`bm_check`) alone.
    """
    T = tuple(sorted(T))
    if not _is_triple(T, spec.d):
        raise PreconditionFailed(f"{T} is not a 3-subset of 1..{spec.d}")
    pi = ClassPartition.merge(spec.d, T)
    if isinstance(spec, AssociationScheme):
        if (dual := _decide(spec, pi, DEFAULT_TOL)) is None:
            raise NotFusing(str(_tensor_failure(spec.intersection.p, pi)))
        return _triple_type(dual.rho, T)
    try:
        dual = bm_check(spec, pi)
    except NotAFusion as exc:
        raise NotFusing(str(exc)) from exc
    return _triple_type(dual.rho, T)


def _triple_type(rho: ClassPartition, T: tuple[int, ...]) -> TripleType:
    """Type of the fusing triple T (sorted) from the dual partition rho of its merge."""
    big = [frozenset(b) for b in rho.blocks if len(b) >= 2]
    sizes = sorted(len(b) for b in big)
    if sizes == [3]:
        return TripleType(kind=1, sets=(big[0],))
    if sizes == [2, 2]:
        j1, j2 = sorted(big, key=min)
        return TripleType(kind=2, sets=(j1, j2))
    raise Falsification(
        f"fusing triple {T} has dual block sizes {sizes}, expected [3] or [2, 2]")


def _is_triple(T: tuple[int, ...], d: int) -> bool:
    """Whether the sorted tuple T is three distinct classes in 1..d."""
    return len(T) == 3 and len(set(T)) == 3 and 1 <= T[0] and T[-1] <= d


def contraction_check(scheme: AssociationScheme, t1, ell: int,
                      tol: Tolerance = DEFAULT_TOL) -> bool:
    """Merge a fusing triple and test whether the merged class still fuses
    with a fourth class that completes a second fusing triple.

    Preconditions: t1 is three distinct classes in 1..d and fuses, ell is a
    class in 1..d outside t1, and some 2-subset of t1 together with ell
    also fuses.  By the contraction property the result must be True; the
    caller treats False as a falsification event.  The answer is
    :func:`_contractions` on ``{t1: [ell]}``, both witnesses included.
    """
    t1 = tuple(sorted(t1))
    if not _is_triple(t1, scheme.d) or not 1 <= ell <= scheme.d or ell in t1:
        raise PreconditionFailed(f"need a 3-subset and an outside class, got {t1}, {ell}")
    if not fuses(scheme, ClassPartition.merge(scheme.d, t1), tol=tol):
        raise PreconditionFailed(f"{set(t1)} does not fuse")
    if not any(fuses(scheme, ClassPartition.merge(scheme.d, set(s) | {ell}), tol=tol)
               for s in itertools.combinations(t1, 2)):
        witness = set(list(t1)[1:]) | {ell}
        raise PreconditionFailed(f"no second fusing triple through {ell} ({witness} does not fuse)")
    return _contractions(scheme, {t1: [ell]}, tol)[0]


def _triples_through(triples) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """Each 2-subset of the sorted ``triples`` and the triples through it,
    in the given order.  Two distinct triples share at most one 2-subset,
    so each pair sharing two classes lies in exactly one list."""
    through: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for T in triples:
        for s in itertools.combinations(T, 2):
            through.setdefault(s, []).append(T)
    return through


def _outside(triples, through: dict) -> dict[tuple[int, ...], list[int]]:
    """outside[T]: the classes ell, ascending, that complete a second triple
    of ``through`` with a 2-subset of T, for the T of ``triples`` that have one."""
    outside = {}
    for T in triples:
        ells = {c for s in itertools.combinations(T, 2) for U in through[s] for c in U} - set(T)
        if ells:
            outside[T] = sorted(ells)
    return outside


def _contractions(scheme: AssociationScheme, outside: dict, tol: Tolerance) -> list[bool]:
    """Whether the merged class of T still fuses with ell, for each T and
    ell of ``outside[T]`` in that order (:func:`_outside`), from two witnesses.

    Witness A: the parent decides the merge of each distinct 4-set
    T + {ell} once, in :func:`_decide_merges` stacks on its cached tensor
    and eigenmatrix.  Fusion is transitive, so this is the contracted
    question: merging T and then its class with ell merges exactly
    T + {ell}.  Witness B, :func:`_decide_contracted`, asks every pair
    {merged class, ell} of the contracted schemes on tensors folded from
    the parent's labels and fused eigenmatrices read off the parent's P
    and proven against them; it reads neither the parent's tensor nor
    witness A's answers.  Both witnesses run both oracles, and a pair on
    which they differ raises :class:`OracleDisagreement`.
    """
    quads = sorted({tuple(sorted(T + (ell,))) for T, ells in outside.items() for ell in ells})
    parent = {quad: fused for quad, fused, _ in _decide_merges(scheme, quads, tol)}
    answers = []
    for (T, ell), ok in _decide_contracted(scheme, outside, tol):
        quad = tuple(sorted(T + (ell,)))
        if parent[quad] != ok:
            raise OracleDisagreement(
                f"contraction of {set(T)} with {ell}: the parent answers {parent[quad]} "
                f"for merging {set(quad)}, the contracted scheme answers {ok}")
        answers.append(ok)
    return answers


def _decide_contracted(scheme: AssociationScheme, outside: dict, tol: Tolerance):
    """Witness B of the contraction claim: whether the contracted scheme of
    each fusing triple T (T merged) fuses its merged class with each ell of
    ``outside[T]``, without building it.

    Per :func:`_merge_stacks` chunk of triples, the fused eigenmatrices
    are read off the parent's P (:func:`_fused_eigenmatrices`), the tensors
    are folded from one histogram of the parent's cells
    (:func:`_contracted_tensors`), and the eigenmatrices are accepted only
    as the tensors' character tables (:func:`_check_characters`).  Both
    kernels then ask the pairs {merged class, ell} in stacks over 0..d-2,
    each entry on its own triple's tensor and eigenmatrix.  Yields one
    ((T, ell), fused) per pair, in ``outside`` order.  A triple the parent
    does not fuse, or a disagreement, raises :class:`OracleDisagreement`.
    With no triple asked it reads nothing, not even the parent's cells.
    """
    if not outside:
        return
    d = scheme.d
    counts, k = _row0_counts(scheme.labels, d)
    parent_P = spectral_decomposition(scheme, tol=tol).P
    for chunk, S, _ in _merge_stacks(d, outside):
        fused, lead = _stacked_row_sum(parent_P, S, tol)
        if not fused.all():
            raise OracleDisagreement(f"contraction of {set(chunk[int(np.argmin(fused))])}: "
                                     f"the parent's eigenmatrix does not fuse the triple")
        P = _fused_eigenmatrices(parent_P, S, lead, tol)
        p, k_fused = _contracted_tensors(chunk, counts, k)
        _check_characters(chunk, p, k_fused, P, scheme.v, tol)
        # ell's block: ell less the classes of T above T[0] and below ell
        asked = [(m, ell, tuple(sorted((T[0], ell - (T[1] < ell) - (T[2] < ell)))))
                 for m, T in enumerate(chunk) for ell in outside[T]]
        todo = iter(asked)
        for pairs, S2, rep in _merge_stacks(d - 2, [pair for *_, pair in asked]):
            here = list(itertools.islice(todo, len(pairs)))
            own = np.array([m for m, *_ in here])
            answers, _ = _reconcile(p, P, S2, rep, tol, own,
                                    lambda i: f"contraction of {set(chunk[own[i]])}")
            yield from zip([(chunk[m], ell) for m, ell, _ in here], answers.tolist())


def _contracted_tensors(chunk, counts: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tensors p' and valencies k' of the contracted schemes of the
    triples T in ``chunk`` (T merged in T[0]'s place), from the parent's
    histogram ``counts, k = _row0_counts(labels, d)``.

    Only the merged class is folded: on each axis T[1] and T[2] are added
    into T[0] and dropped, integer for integer the fused labels' histogram,
    so p' = counts' / k'_h, kept integer; a count k'_h does not divide
    raises :class:`OracleDisagreement` naming the triple.
    """
    T, rows, n = np.array(chunk), np.arange(len(chunk)), len(k)
    keep = np.array([[i for i in range(n) if i not in t[1:]] for t in chunk])

    def fold(X):  # axis 1 of X[m, i, ...] folded, and moved last
        Y = X[rows[:, None], keep]
        Y[rows, T[:, 0]] += X[rows, T[:, 1]] + X[rows, T[:, 2]]
        return np.moveaxis(Y, 1, -1)

    k_fused = fold(np.broadcast_to(k, (len(T), n)))
    folded = fold(fold(fold(np.broadcast_to(counts, (len(T), n, n, n)))))
    rest = folded % k_fused[:, None, None, :]
    if rest.any():
        m, a, b, h = np.argwhere(rest)[0]
        raise OracleDisagreement(
            f"contraction of {set(chunk[m])}: the folded count {folded[m, a, b, h]} of "
            f"classes {a}, {b} at {h} is not a multiple of k'_{h} = {k_fused[m, h]}")
    folded //= k_fused[:, None, None, :]
    return folded, k_fused


_CHECKS = ("column 0 is not 1 in row {0}", "row 0 is not the valencies at class {0}",
           "row {2} is not a character of the folded tensor at classes {0}, {1}",
           "rows {1} and {0} repeat")


def _check_characters(chunk, p: np.ndarray, k: np.ndarray, P: np.ndarray, v: int,
                      tol: Tolerance) -> None:
    """Accept each P[m] as the eigenmatrix of the integer tensor p[m] with
    valencies k[m] only if it is p[m]'s full character table:

    1. column 0 is all 1;
    2. row 0 is k[m];
    3. P[j, a] P[j, b] = sum_h p_ab^h P[j, h] for every row j and classes
       a, b, under the PQ = vI check's ``tol.scaled(v)``;
    4. the rows are pairwise distinct: no row is close under ``tol``, in
       every column, to an earlier row.

    By 1 and 3 each row is a character of the algebra p[m] defines, and an
    n-dimensional commutative semisimple algebra has exactly n of them, so
    by 4 P[m] is p[m]'s eigenmatrix up to row order.  Check 3 runs one
    class a at a time and check 4 one column at a time, on (c, n, n) arrays
    at most.  Otherwise :class:`OracleDisagreement` names the triple and
    the failed check.
    """
    scale = tol.scaled(v)
    c, n, _ = P.shape
    later, earlier = _earlier_pairs(n)

    def products(a, m=slice(None)):  # [m, j, b]: row j breaks check 3 at classes a, b
        return ~scale.isclose(P[m, :, a, None] * P[m], P[m] @ p[m, a].swapaxes(-1, -2))

    close = np.ones((c, len(later)), dtype=bool)
    for col in range(n):
        close &= tol.isclose(P[:, later, col], P[:, earlier, col])
    # fails[check][m]: where triple m breaks the check (rows, classes, classes a, row pairs)
    fails = [~scale.isclose(P[:, :, 0], 1.0), ~scale.isclose(P[:, 0], k),
             np.array([products(a).any(axis=(1, 2)) for a in range(n)]).T, close]
    bad = np.array([fail.any(axis=1) for fail in fails])
    if bad.any():
        m = int(np.argmax(bad.any(axis=0)))
        check = int(np.argmax(bad[:, m]))
        first = int(np.argmax(fails[check][m]))
        at = (first,)
        if check == 2:  # the first (b, j) at the first class a
            at += np.unravel_index(np.argmax(products(first, m).T), (n, n))
        elif check == 3:
            at = (later[first], earlier[first])
        what = _CHECKS[check].format(*at)
        raise OracleDisagreement(f"contraction of {set(chunk[m])}: contracted eigenmatrix: {what}")


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


def _sizes(sets_a, sets_b) -> tuple[int, ...]:
    """The sizes |a & b| for a in ``sets_a`` and b in ``sets_b``, row by row."""
    return tuple(len(a & b) for a in sets_a for b in sets_b)


def _orientations(sets_a, sets_b):
    """The ways to lay two dual sides onto a representative, in order:
    (swapped, sets in the {1,2,3} role, sets in the {2,3,4} role).

    Mixed kinds pin the type-1 side to the {1,2,3} role (the subcase list
    is stated that way); equal kinds allow either role.  Within a role the
    order of a side's sets is free.
    """
    for swapped, (x, y) in enumerate([(sets_a, sets_b), (sets_b, sets_a)]):
        if len(x) <= len(y):
            for sa in itertools.permutations(x):
                for sb in itertools.permutations(y):
                    yield swapped, sa, sb


def _overlap_signature(sets_a, sets_b) -> tuple:
    """The kinds of two dual sides (one 3-set or two 2-sets each), the
    type-1 side first, and their smallest intersection sizes over all
    :func:`_orientations`.

    Within a side the sets are disjoint and their sizes are fixed by the
    kind, so these sizes fix every region of the sets' Venn diagram: two
    pairs of sides have one signature iff one is a relabeling of the other.
    """
    kinds = sorted((len(sets_a), len(sets_b)))
    return (*kinds, min(_sizes(sa, sb) for _, sa, sb in _orientations(sets_a, sets_b)))


_LABELS = {_overlap_signature(*rep): label for label, rep in CASE_REPRESENTATIVES.items()}


def _overlap_label(sets_a, sets_b) -> str:
    """Subcase label of two dual sides, in either order: the representative
    with the same :func:`_overlap_signature`."""
    signature = _overlap_signature(sets_a, sets_b)
    if signature not in _LABELS:
        raise Unclassified(signature)
    return _LABELS[signature]


def overlap_case(spec, t1, t2) -> OverlapCase:
    """Match a pair of fusing triples sharing two classes against the 18
    subcases, up to relabeling of relations and idempotents; each triple
    is typed by :func:`classify_triple`, given a scheme or spectral data."""
    t1, t2 = tuple(sorted(t1)), tuple(sorted(t2))
    if len(set(t1) & set(t2)) != 2:
        raise PreconditionFailed(f"triples {t1}, {t2} must share exactly 2 classes")
    try:
        ty1 = classify_triple(spec, t1)
        ty2 = classify_triple(spec, t2)
    except NotFusing as exc:
        raise PreconditionFailed(str(exc)) from exc
    return _overlap_from_types(t1, ty1, t2, ty2)


def _overlap_labels(through: dict, types: dict) -> set[str | None]:
    """The subcase labels of the overlapping pairs of fusing triples, the
    pairs within the lists of ``through``, with ``types[T]`` the type of T
    or None; None marks an untyped pair or a ruled-out case.  The label
    depends only on the kinds and the intersection sizes, so it is looked
    up once per (kinds, sizes) key.
    """
    memo: dict[tuple | None, str | None] = {None: None}  # key None: an untyped pair
    labels = set()
    for group in through.values():
        for T1, T2 in itertools.combinations(group, 2):
            a, b = types[T1], types[T2]
            key = None if a is None or b is None else (a.kind, b.kind, _sizes(a.sets, b.sets))
            if key not in memo:
                label = _overlap_label(a.sets, b.sets)
                memo[key] = label if label in SURVIVING_CASES else None
            labels.add(memo[key])
    return labels


def _overlap_from_types(t1, ty1: TripleType, t2, ty2: TripleType) -> OverlapCase:
    """:func:`overlap_case` for two sorted fusing triples sharing two
    classes, given their types.

    The maps come from the first of the :func:`_orientations` whose
    intersection sizes are the representative's.  Equal sizes give equal
    Venn regions, so each idempotent goes to a representative idempotent
    in the same sets, both taken in ascending order.
    """
    label = _overlap_label(ty1.sets, ty2.sets)
    if label not in SURVIVING_CASES:
        raise Falsification(
            f"overlapping fusing triples {t1}, {t2} realize ruled-out case {label}")
    rep_a, rep_b = CASE_REPRESENTATIVES[label]
    swapped, sa, sb = next(o for o in _orientations(ty1.sets, ty2.sets)
                           if _sizes(o[1], o[2]) == _sizes(rep_a, rep_b))
    first, second = (t2, t1) if swapped else (t1, t2)
    common = sorted(set(first) & set(second))
    (only_a,), (only_b,) = set(first) - set(common), set(second) - set(common)
    pool: dict[tuple, list[int]] = {}
    for e in sorted(set().union(*rep_a, *rep_b)):
        pool.setdefault(tuple(e in s for s in rep_a + rep_b), []).append(e)
    idempotent_map = {e: pool[tuple(e in s for s in sa + sb)].pop(0)
                      for e in sorted(set().union(*sa, *sb))}
    return OverlapCase(label=label, idempotent_map=idempotent_map,
                       relation_map={only_a: 1, common[0]: 2, common[1]: 3, only_b: 4})
