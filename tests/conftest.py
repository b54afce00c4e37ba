"""Shared fixtures, the label re-validation oracle, the label histogram
reference of the intersection tensor, the per-class-cell
reference validator and closure witness scan, the v x v references of the
idempotent basis and the Krein parameters, the class-by-class
eigenvector split with its row-sort bookkeeping, the entry-by-entry
canonical form and tolerance grouping, the element-by-element
finite-field tables, the Bell(d) partition enumeration with the
all-partitions amorphicity and idempotent-side hypergraph references
built on it, the single-merge amorphicity reference, the H(2,2) x H(2,2)
product scheme, the pairwise reference of the transposition blocks and
their singleton stub, the Latin-type search, the sieved prime weights, the
scalar closeness formula, the full-tensor
references of the two fusion kernels, of the dual partition and of
the triple type read off it, the
hand-written overlap label tables, the scanning references of the
sunflower cores, contraction pairs and overlapping pairs, and the
acceptance-criteria summary lines.

The ``corpus`` fixture shares its schemes across the whole session.  A
scheme keeps only its tensor and spectra, so every fusion question runs
both oracles again and a monkeypatched oracle is seen on any scheme.
"""

import itertools
import math

import numpy as np
import pytest

import amorphic as am
from amorphic import core, generators
from amorphic.fusion import ClassPartition, DualPartition, _partition_of, fuses

ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


@pytest.fixture(scope="session")
def corpus():
    """The standard generated corpus, built once per session."""
    return am.standard_corpus()


@pytest.fixture(scope="session")
def spectral_schemes(corpus):
    """The corpus, the six amorphic schemes of the benchmark's ``oracle``
    workload and net(27; 1^28): (name, scheme) pairs."""
    nets = [(7, [2] + [1] * 6), (8, [2, 2] + [1] * 5), (16, [5, 4, 4, 4]),
            (7, [1] * 8), (8, [2] + [1] * 7), (27, [1] * 28)]
    more = [(f"net({n};{sizes})", net_with_group_sizes(n, sizes)) for n, sizes in nets]
    return corpus + more + [("cyclotomic(25,6)", am.gen_cyclotomic(am.CyclotomicSpec(q=25, d=6)))]


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


def tensor_by_label_histogram(scheme):
    """Test-only reference for the tensor a scheme is built with: p_ij^h =
    counts[i, j, h] / k_h, where counts[i, j, h] = #{(z, y): L[0, z] = i,
    L[z, y] = j, L[0, y] = h} is one histogram of all v^2 cells of the
    labels, keyed in int64 on the whole matrix at once.  Exact once closure
    holds."""
    L = scheme.labels.astype(np.int64)
    n, r0 = scheme.d + 1, L[0]
    key = (r0[:, None] * n + L) * n + r0[None, :]
    counts = np.bincount(key.ravel(), minlength=n ** 3).reshape(n, n, n)
    return counts // np.bincount(r0, minlength=n)


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


def block_sums_by_full_tensor(p, stack):
    """Test-only reference for ``fusion._stacked_block_sums``: all
    (d+1)^3 block sums F[m, I, J, h] = sum_{i in I, j in J} p_ij^h of every
    stack entry, each compared with its value at h's block representative
    rep[m, h], on the stack's tensor p[i, j, h].  Reads only the stack's
    membership matrices S and representatives rep."""
    S, rep = stack.S, stack.rep
    F = np.einsum("mia,ijh,mjb->mabh", S, p.astype(np.float64), S)
    return np.all(F == np.take_along_axis(F, rep[:, None, None, :], axis=3), axis=(1, 2, 3))


def row_sum_by_full_fold(P, stack, tol):
    """Test-only reference for ``fusion._stacked_row_sum``: the rows of
    every folded eigenmatrix P S[m] compared pairwise on all its columns,
    then the greedy grouping (a row joins the first earlier leader it is
    close to) one row at a time.  Reads only the stack's membership
    matrices S.  Returns (fused, lead) like the kernel."""
    S = stack.S
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
    """Test-only reference for ``fusion._partition_of`` and
    ``fusion._fused_eigenmatrix``: the dual partition grouped by the
    row-sum kernel's leaders ``lead`` and the leaders' rows of P S (S one
    membership matrix), snapped."""
    groups = {}
    for j, g in enumerate(lead.tolist()):
        groups.setdefault(g, []).append(j)
    rho = ClassPartition(d=len(lead) - 1, blocks=tuple(map(tuple, groups.values())))
    return DualPartition(rho=rho, P_fused=tol.snap((P @ S)[list(groups)])[0])


def triple_type_by_partition(lead, T):
    """Test-only reference for ``fusion._triple_type`` on leaders: the dual
    partition built as a ``ClassPartition`` (``fusion._partition_of``), then
    typed by its blocks of two or more idempotents."""
    rho = _partition_of(lead)
    big = [frozenset(b) for b in rho.blocks if len(b) >= 2]
    sizes = sorted(len(b) for b in big)
    if sizes == [3]:
        return am.TripleType(kind=1, sets=(big[0],))
    if sizes == [2, 2]:
        return am.TripleType(kind=2, sets=tuple(sorted(big, key=min)))
    raise am.Falsification(f"fusing triple {T} has dual block sizes {sizes}, expected [3] or [2, 2]")


def net_with_group_sizes(n, sizes):
    """Net scheme on AG(2, n) whose class i unites ``sizes[i-1]`` consecutive
    parallel classes; the sizes must add up to n + 1."""
    starts = np.cumsum([0] + list(sizes))
    groups = [list(range(a, b)) for a, b in zip(starts[:-1], starts[1:])]
    return am.gen_net_scheme(n, am.SlopeGrouping.from_groups(n, groups))


def validate_by_class_cells(labels):
    """Test-only reference validator: the four axioms checked with one
    float64 product per class pair (exact, as every count is below 2^53),
    scanned class by class, and the tensor read off one representative
    cell per class.

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

    mats = [(L == i).astype(np.float64) for i in range(d + 1)]
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


def closure_witness_by_class_scans(L, p, A_i, i, run):
    """Test-only reference for ``core._closure_witness``: each failing
    product A_i A_j scanned class by class, one ``np.nonzero`` per class,
    raising at the first cell that differs from its class's first cell."""
    d = p.shape[0] - 1
    for j in run:
        prod = A_i @ (L == j).astype(np.float64)
        if np.array_equal(prod, p[i, j][L]):
            continue
        for h in range(d + 1):
            cells = np.nonzero(L == h)
            vals = prod[cells]
            if np.any(vals != vals[0]):
                bad = int(np.argmax(vals != vals[0]))
                cell = (int(cells[0][bad]), int(cells[1][bad]))
                raise am.AxiomViolation(
                    "closure", cell,
                    f"A_{i}A_{j} is not constant on class {h} (cell {cell})")


def idempotents_by_class_matrices(scheme, spec=None):
    """Test-only reference for ``idempotents``: each E_j summed from the
    v x v class matrices and every basis axiom checked on v x v matrices,
    (d+1)(d+2)/2 products of them included.  Returns the E_j as a tuple."""
    spec = spec or scheme.spectral
    v, d, tol = scheme.v, scheme.d, spec.tol
    mats = [scheme.relation(i) for i in range(d + 1)]
    E = []
    for j in range(d + 1):
        Ej = sum(spec.Q[i, j] * mats[i].astype(float) for i in range(d + 1)) / v
        E.append(Ej)

    scale = am.Tolerance(atol=tol.atol * v, rtol=tol.rtol)
    if not scale.allclose(E[0], np.full((v, v), 1.0 / v)):
        raise am.IdempotencyViolation(0, float(np.max(np.abs(E[0] - 1.0 / v))))
    total = sum(E)
    if not scale.allclose(total, np.eye(v)):
        raise am.IdempotencyViolation(-1, float(np.max(np.abs(total - np.eye(v)))))
    for j in range(d + 1):
        if not scale.allclose(E[j], E[j].T):
            raise am.IdempotencyViolation(j, float(np.max(np.abs(E[j] - E[j].T))))
        tr = float(np.trace(E[j]))
        if not scale.close(tr, spec.multiplicities[j]):
            raise am.IdempotencyViolation(j, abs(tr - spec.multiplicities[j]))
        for h in range(j, d + 1):
            target = E[j] if h == j else np.zeros((v, v))
            resid = float(np.max(np.abs(E[j] @ E[h] - target)))
            if resid > scale.atol + scale.rtol:
                raise am.IdempotencyViolation(j, resid)
    return tuple(E)


def krein_by_hadamard_sums(scheme, E, spec=None):
    """Test-only reference for ``krein_parameters``: each q_ij^h summed
    over the v x v cells of E_i o E_j o E_h, given the v x v E_j."""
    spec = spec or scheme.spectral
    v, d, tol = scheme.v, scheme.d, spec.tol
    m = spec.multiplicities
    q = np.zeros((d + 1, d + 1, d + 1), dtype=float)
    neg_bound = tol.atol * v
    for i in range(d + 1):
        for j in range(i, d + 1):
            had = E[i] * E[j]
            for h in range(d + 1):
                val = (v / m[h]) * float(np.sum(had * E[h]))  # trace(M E_h), E_h symmetric
                if val < -neg_bound:
                    raise am.NegativeKrein(i, j, h, val)
                q[i, j, h] = max(val, 0.0)
            q[j, i] = q[i, j]
    scale = am.Tolerance(atol=tol.atol * v, rtol=tol.rtol)
    for j in range(d + 1):
        if not scale.close(q[j, j, 0], m[j]):
            raise am.NegativeKrein(j, j, 0, q[j, j, 0])
    return am.KreinTensor(q=q, tol=tol)


def common_eigenvectors_by_classes(S, tol):
    """Test-only reference for ``core._common_eigenvectors``: split the
    whole space class by class, one ``eigh`` of S_i per current subspace,
    cutting where consecutive eigenvalues are not close and raising where
    such a gap is below ``_GAP_FACTOR * atol``."""
    n = S.shape[0]
    gap_needed = core._GAP_FACTOR * tol.atol
    spaces = [np.eye(n)]
    for i in range(1, n):
        if len(spaces) == n:
            break
        split = []
        for U in spaces:
            if U.shape[1] == 1:
                split.append(U)
                continue
            w, V = np.linalg.eigh(U.T @ S[i] @ U)
            start = 0
            for a in range(len(w) - 1):
                if tol.close(w[a], w[a + 1]):
                    continue
                gap = w[a + 1] - w[a]
                if gap < gap_needed:
                    raise am.DegenerateSpectrum(
                        f"class {i}: eigenvalues {round(w[a], 12)} and {round(w[a + 1], 12)} "
                        f"are {round(gap, 12)} apart, neither equal within tolerance nor "
                        f"the required gap {round(gap_needed, 12)} ({core._GAP_FACTOR:g}*atol) apart")
                split.append(U @ V[:, start:a + 1])
                start = a + 1
            split.append(U @ V[:, start:])
        spaces = split
    if len(spaces) != n:
        dim = max(U.shape[1] for U in spaces)
        raise am.DegenerateSpectrum(
            f"an eigenspace of dimension {dim} is common to all {n - 1} classes")
    return np.hstack(spaces)


def spectral_by_class_splits(scheme, tol=am.DEFAULT_TOL):
    """Test-only reference for ``core._spectral_decomposition``: the
    class-by-class split, rows read by one einsum, and the other rows
    sorted one key tuple at a time by (multiplicity, rounded row)."""
    v, d = scheme.v, scheme.d
    k = np.asarray(scheme.valencies, dtype=float)
    root = np.sqrt(k)
    S = scheme.intersection.p.transpose(0, 2, 1) * root[None, :, None] / root[None, None, :]
    U = common_eigenvectors_by_classes(S, tol)
    rows = np.einsum("aj,iab,bj->ji", U, S, U)
    val_idx = int(np.argmax(tol.isclose(rows, k).all(axis=1)))
    m_raw = v / (rows ** 2 / k).sum(axis=1)
    others = [j for j in range(d + 1) if j != val_idx]
    mults = dict(zip(others, np.round(m_raw[others]).astype(int).tolist()))
    others.sort(key=lambda j: (mults[j], tuple(np.round(rows[j], 6))))
    P, p_mask = tol.snap(rows[[val_idx] + others])
    Q, q_mask = tol.snap(v * np.linalg.inv(P))
    return am.SpectralData(v=v, P=P, Q=Q, valencies=tuple(scheme.valencies),
                           multiplicities=tuple([1] + [mults[j] for j in others]),
                           tol=tol, P_integer_mask=p_mask, Q_integer_mask=q_mask)


def hamming_square_product():
    """H(2,2) x H(2,2): the direct product of the 4-cycle scheme with
    itself, class i * 3 + j on a pair of points i apart in the first factor
    and j apart in the second; v = 16, d = 8, valencies (1, 2, 1, 2, 4, 2,
    1, 2, 1).  It is not amorphic, and its two fusing triples, (1, 4, 7)
    and (3, 4, 5), share one class only."""
    h = am.gen_hamming_binary(2).labels.astype(np.int64)
    return am.validate_scheme((h[:, None, :, None] * 3 + h[None, :, None, :]).reshape(16, 16))


def transposition_blocks_by_pairs(t):
    """Test-only reference of ``fusion._transposition_blocks``: every pair
    of nontrivial classes tested by swapping it on all three axes of the
    (n, n, n) array t, with no pair skipped, and the blocks the joins
    connect, each labelled by its least class."""
    n = len(t)
    block = list(range(n))
    for a, b in itertools.combinations(range(1, n), 2):
        swap = np.arange(n)
        swap[[a, b]] = b, a
        if np.array_equal(t[swap][:, swap][:, :, swap], t):
            old, new = max(block[a], block[b]), min(block[a], block[b])
            block = [new if c == old else c for c in block]
    return block


def singleton_blocks(t):
    """A stub of ``fusion._transposition_blocks`` that puts every class in
    a block of its own: the contraction witnesses then ask every question,
    the exhaustive reference of their orbit-reduced answers."""
    return list(range(len(t)))


def latin_by_search(spec, i):
    """Test-only reference for the Latin typing of ``srg_info``: with v =
    r^2 and two restricted eigenvalues, both snapped to integers, every n
    in (r, -r) and every eigenvalue e as -t, t of the sign of n, tried as
    {-t, n - t} and valency t(n - 1).  Returns the LatinInfo or None."""
    restricted = distinct_by_entries(spec.P[1:, i], spec.tol)
    root = math.isqrt(spec.v)
    if len(restricted) != 2 or root * root != spec.v:
        return None
    snapped, mask = spec.tol.snap(np.asarray(restricted))
    if not mask.all():
        return None
    eigs = {int(e) for e in snapped}
    for n in (root, -root):
        for e in eigs:
            t = -e
            if t == 0 or (t > 0) != (n > 0):
                continue
            if {-t, n - t} == eigs and spec.valencies[i] == t * (n - 1):
                return am.LatinInfo(n=n, t=t, sign="positive" if n > 0 else "negative")
    return None


def weights_by_sieve(d):
    """Test-only reference for ``core._combination_weights``: the square
    roots of the first d primes, sieved up to n (ln n + ln ln n), which is
    above the n-th prime for n >= 6 (to 15 below that)."""
    bound = 15 if d < 6 else int(d * (math.log(d) + math.log(math.log(d)))) + 1
    sieve = np.ones(bound, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q::q] = False
    return np.sqrt(np.flatnonzero(sieve)[:d])


def close_by_scalar_formula(tol, a, b):
    """Test-only reference for ``Tolerance.close``: |a - b| <= atol + rtol
    max(|a|, |b|) written out on Python floats."""
    a, b = float(a), float(b)
    return abs(a - b) <= tol.atol + tol.rtol * max(abs(a), abs(b))


def canonical_on_by_entries(M, tol):
    """Test-only reference for ``classify._canonical_on``: each column's
    rows grouped one entry at a time, each joining the first
    representative it is close to."""
    d = M.shape[0]
    rows, a_vals, b_vals = [], [], []
    for j in range(d):
        groups, reps = {}, []
        for r, x in enumerate(M[:, j]):
            for gi, rep in enumerate(reps):
                if tol.close(x, rep):
                    groups[gi].append(r)
                    break
            else:
                groups[len(reps)] = [r]
                reps.append(float(x))
        if len(reps) != 2:
            return None
        sizes = {gi: len(rs) for gi, rs in groups.items()}
        single = [gi for gi, s in sizes.items() if s == 1]
        if len(single) != 1 or sizes[1 - single[0]] != d - 1:
            return None
        gi = single[0]
        rows.append(groups[gi][0])
        b_vals.append(reps[gi])
        a_vals.append(reps[1 - gi])
    if sorted(rows) != list(range(d)):
        return None
    return rows, a_vals, b_vals


def distinct_by_entries(values, tol):
    """Test-only reference for ``classify._distinct``: each value kept
    unless it is close to a representative kept before it, sorted."""
    reps = []
    for x in values:
        if not any(tol.close(x, r) for r in reps):
            reps.append(float(x))
    return sorted(reps)


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


def sunflower_cores_by_scan(H):
    """Test-only reference for ``sunflower_cores``: each 2-subset C of the
    vertices with C + {w} an edge for every other vertex w, found by
    C(n, 2) (n - 2) membership tests, in ``itertools.combinations`` order."""
    cores = []
    for C in itertools.combinations(H.vertices, 2):
        petals = [w for w in H.vertices if w not in C]
        if petals and all(tuple(sorted(C + (w,))) in H.edges for w in petals):
            cores.append(C)
    return cores


def admissible_pairs_by_lookup(triples, d):
    """Test-only reference for the contraction pairs: (T, ell) with ell
    outside T and some 2-subset s of T with s + {ell} among ``triples``,
    one sorted-tuple lookup each; triples in the given order, ell ascending."""
    fusing = set(triples)
    return [(T, ell) for T in triples for ell in range(1, d + 1)
            if ell not in T
            and any(tuple(sorted(s + (ell,))) in fusing for s in itertools.combinations(T, 2))]


def overlapping_pairs_by_filter(triples):
    """Test-only reference for the overlapping pairs: the pairs of
    ``triples`` that share exactly two classes, found by testing all
    C(t, 2) pairs, in ``itertools.combinations`` order."""
    return [(a, b) for a, b in itertools.combinations(triples, 2) if len(set(a) & set(b)) == 2]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        desc, ok = ACCEPTANCE_RESULTS[n]
        terminalreporter.write_line(
            f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
