"""Shared fixtures, the label re-validation oracle, the per-class-cell
reference validator, the element-by-element finite-field tables, the
Bell(d) partition enumeration with the all-partitions amorphicity and
idempotent-side hypergraph references built on it, the single-merge
amorphicity reference, the full-tensor references of the two fusion
kernels and of the dual partition, the hand-written overlap label tables,
and the acceptance-criteria summary lines.

A scheme keeps its fusion decisions, spectra and last fused scheme on the
instance, and the ``corpus`` fixture shares its schemes across the whole
session.  A warm scheme answers a question it has seen without running
either oracle, so a test that monkeypatches an oracle, or counts calls into
one, builds its own scheme and never uses a ``corpus`` scheme.
"""

import itertools

import numpy as np
import pytest

import amorphic as am
from amorphic import generators
from amorphic.fusion import ClassPartition, DualPartition, fuses

ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


@pytest.fixture(scope="session")
def corpus():
    """The standard generated corpus, built once per session."""
    return am.standard_corpus()


def fuse_by_relabeling(scheme, pi):
    """Third, test-only fusion oracle: merge the labels of ``scheme`` along
    ``pi`` and re-validate every axiom on the v x v matrix.

    Returns the fused scheme, or None when an axiom fails.
    """
    labels = pi.block_index()[scheme.labels]
    try:
        return am.validate_scheme(am.LabelMatrix(v=scheme.v, d=pi.n_blocks - 1, labels=labels))
    except am.AxiomViolation:
        return None


def enumerate_partitions(d):
    """Test-only reference: all Bell(d) partitions of {1,...,d} (0 stays
    singleton), in restricted-growth string order, each exactly once."""
    if d == 0:
        yield am.ClassPartition.from_blocks([[0]], 0)
        return

    def rec(prefix, nmax):
        if len(prefix) == d:
            yield tuple(prefix)
            return
        for a in range(nmax + 2):
            yield from rec(prefix + [a], max(nmax, a))

    for rgs in rec([0], 0):
        blocks = [[] for _ in range(max(rgs) + 1)]
        for i, a in enumerate(rgs):
            blocks[a].append(i + 1)
        yield am.ClassPartition.from_blocks([[0]] + blocks, d)


def amorphic_by_all_partitions(scheme):
    """Test-only reference for ``amorphic_oracle``: the exact oracle asked
    about every one of the Bell(d) class partitions, not just the single
    merges."""
    return all(fuses(scheme, pi) for pi in enumerate_partitions(scheme.d))


def amorphic_by_single_merges(scheme):
    """Test-only reference for ``amorphic_oracle``: the scalar exact oracle
    asked about each of the 2^d - d - 1 partitions that merge one set of at
    least two classes, one merge at a time."""
    d = scheme.d
    return all(fuses(scheme, am.ClassPartition.merge(d, T))
               for r in range(2, d + 1)
               for T in itertools.combinations(range(1, d + 1), r))


def idempotent_edges_by_all_partitions(scheme, k):
    """Test-only reference for the idempotent side of
    ``build_fusing_hypergraph``: build the fusion for every one of the
    Bell(d) class partitions and keep each k-set that its dual partition
    merges alone."""
    edges = set()
    for pi in enumerate_partitions(scheme.d):
        try:
            rho = am.fuse_direct(scheme, pi).rho
        except am.NotAFusion:
            continue
        big = [b for b in rho.blocks if len(b) >= 2]
        if len(big) == 1 and len(big[0]) == k:
            edges.add(big[0])
    return frozenset(edges)


def block_sums_by_full_tensor(p, S, rep):
    """Test-only reference for ``fusion._stacked_block_sums``: all
    (d+1)^3 block sums F[m, I, J, h] = sum_{i in I, j in J} p_ij^h of every
    stack entry, each compared with its value at h's block representative
    rep[m, h].  ``p`` is shared, p[i, j, h], or per entry, p[m, i, j, h]."""
    c, n, nb = S.shape
    if p.ndim == 3:
        p = np.broadcast_to(p, (c, n, n, n))
    F = np.einsum("mia,mijh,mjb->mabh", S, p.astype(np.float64), S)
    return np.all(F == np.take_along_axis(F, rep[:, None, None, :], axis=3), axis=(1, 2, 3))


def row_sum_by_full_fold(P, S, tol):
    """Test-only reference for ``fusion._stacked_row_sum``: the rows of
    every folded eigenmatrix P S[m] compared pairwise on all its columns,
    then the greedy grouping (a row joins the first earlier leader it is
    close to) one row at a time.  Returns (fused, lead) like the kernel."""
    folded = P @ S
    c, n, nb = S.shape
    fused, lead = np.zeros(c, dtype=bool), np.zeros((c, n), dtype=np.int64)
    for m in range(c):
        close = tol.isclose(folded[m][:, None, :], folded[m][None, :, :]).all(axis=2)
        leaders = []
        for j in range(n):
            lead[m, j] = next((g for g in leaders if close[j, g]), j)
            if lead[m, j] == j:
                leaders.append(j)
        fused[m] = len(leaders) == nb and not close[1:, 0].any()
    return fused, lead


def dual_by_full_fold(P, S, lead, tol):
    """Test-only reference for one entry of ``fusion._duals``: the dual
    partition grouped by the row-sum kernel's leaders ``lead`` and the
    leaders' rows of P S (S one membership matrix), snapped."""
    groups = {}
    for j, g in enumerate(lead.tolist()):
        groups.setdefault(g, []).append(j)
    rho = ClassPartition(d=len(lead) - 1, blocks=tuple(map(tuple, groups.values())))
    return DualPartition(rho=rho, P_fused=tol.snap((P @ S)[list(groups)])[0])


def net_with_group_sizes(n, sizes):
    """Net scheme on AG(2, n) whose class i unites ``sizes[i-1]`` consecutive
    parallel classes; the sizes must add up to n + 1."""
    starts = np.cumsum([0] + list(sizes))
    groups = [list(range(a, b)) for a, b in zip(starts[:-1], starts[1:])]
    return am.gen_net_scheme(n, am.SlopeGrouping.from_groups(n, groups))


def validate_by_class_cells(labels):
    """Test-only reference validator: the four axioms checked with one
    int64 product per class pair, scanned class by class, and the tensor
    read off one representative cell per class.

    Returns (valencies, p) or raises AxiomViolation exactly as
    ``validate_scheme`` must: same axiom, witness cell and message.
    """
    L = np.asarray(labels, dtype=np.int64)
    v, d = L.shape[0], int(L.max())
    diag = np.diagonal(L)
    if np.any(diag != 0):
        x = int(np.argmax(diag != 0))
        raise am.AxiomViolation("identity", (x, x))
    off_zero = (L == 0) & ~np.eye(v, dtype=bool)
    if off_zero.any():
        x, y = map(int, np.argwhere(off_zero)[0])
        raise am.AxiomViolation("identity", (x, y), "label 0 occurs off the diagonal")
    present = np.zeros(d + 1, dtype=bool)
    present[np.unique(L)] = True
    if not present.all():
        missing = int(np.argmin(present))
        raise am.AxiomViolation("partition", missing, f"label {missing} never occurs")
    if not np.array_equal(L, L.T):
        x, y = map(int, np.argwhere(L != L.T)[0])
        raise am.AxiomViolation("symmetry", (x, y))

    mats = [(L == i).astype(np.int64) for i in range(d + 1)]
    class_cells = [np.nonzero(L == h) for h in range(d + 1)]
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for i in range(d + 1):
        for j in range(i, d + 1):
            prod = mats[i] @ mats[j]
            for h in range(d + 1):
                vals = prod[class_cells[h]]
                if np.any(vals != vals[0]):
                    bad = int(np.argmax(vals != vals[0]))
                    cell = (int(class_cells[h][0][bad]), int(class_cells[h][1][bad]))
                    raise am.AxiomViolation(
                        "closure", cell, f"A_{i}A_{j} is not constant on class {h} (cell {cell})")
                p[i, j, h] = p[j, i, h] = vals[0]
    valencies = tuple(int(mats[i][0].sum()) for i in range(d + 1))
    return valencies, p


def field_tables_by_loops(n):
    """Test-only reference for ``SmallField``'s tables: GF(n) = GF(p)[x] /
    (modulus) built one pair of elements at a time, element x encoding the
    polynomial of its base-p digits.  Each product is a ``np.convolve``
    reduced by the monic modulus from the highest degree down.  Returns
    (add, mul) as int64 arrays."""
    p, e = generators._char_of(n)
    modulus = generators._IRREDUCIBLE.get(n)

    def digits(x):
        return np.array([x // p ** t % p for t in range(e)])

    def undigits(ds):
        return int(sum(int(c) * p ** t for t, c in enumerate(ds)))

    def polymul(a, b):
        prod = np.convolve(digits(a), digits(b)) % p
        for deg in range(len(prod) - 1, e - 1, -1):
            c = prod[deg]
            if c:
                prod[deg - e:deg + 1] = (prod[deg - e:deg + 1] - c * np.array(modulus)) % p
        return undigits(prod[:e])

    add = np.array([[undigits((digits(a) + digits(b)) % p) for b in range(n)] for a in range(n)])
    mul = np.array([[polymul(a, b) for b in range(n)] for a in range(n)])
    return add, mul


def overlap_label_by_tables(sets_a, sets_b) -> str:
    """Test-only reference for ``fusion._overlap_label``: the subcase label
    from hand-written tables of the dual-set intersection sizes.

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
            raise am.Unclassified(("II", sig))
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
        raise am.Unclassified(("III", tuple(flat)))
    return table[tuple(flat)]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        desc, ok = ACCEPTANCE_RESULTS[n]
        terminalreporter.write_line(
            f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
