"""Fusion machinery: partitions, the two fusion oracles, triple types,
contraction, and the overlap case analysis."""

import gc
import itertools
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amorphic as am
import amorphic.core as core
import amorphic.fusion as fusion
from amorphic.fusion import CASE_REPRESENTATIVES, _overlap_label
from conftest import (admissible_pairs_by_lookup, block_sums_by_full_tensor, dual_by_full_fold,
                      enumerate_partitions, fuse_by_relabeling, net_with_group_sizes,
                      overlap_label_by_tables, overlapping_pairs_by_filter, row_sum_by_full_fold,
                      tensor_by_label_histogram)

TOL = am.DEFAULT_TOL


# ------------------------------------------------------------- partitions

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def test_partition_counts_are_bell_numbers():
    """The test-only Bell(d) reference that the all-partition checks use."""
    for d, bell in BELL.items():
        parts = list(enumerate_partitions(d))
        assert len(parts) == bell
        assert len({p.rgs() for p in parts}) == bell  # no duplicates
        for p in parts:
            assert p.blocks[0] == (0,)


def test_partition_from_string_forms():
    p = am.ClassPartition.from_string("0|1,3|2", 3)
    assert p.blocks == ((0,), (1, 3), (2,))
    assert p == am.ClassPartition.from_string("1,3|2", 3)  # 0 block optional
    assert str(p) == "0|1,3|2"


def test_partition_rejects_zero_in_nontrivial_block():
    with pytest.raises(ValueError):
        am.ClassPartition.from_string("0,1|2", 2)
    with pytest.raises(ValueError):
        am.ClassPartition.merge(3, {0, 1})


def test_merge_matches_from_blocks_reference():
    """merge builds its blocks directly; the reference goes through
    from_blocks's sort and checks."""
    def reference(d, subset):
        subset = set(subset)
        blocks = [[0], sorted(subset)] + [[i] for i in range(1, d + 1) if i not in subset]
        return am.ClassPartition.from_blocks(blocks, d)

    checked = 0
    for d in range(1, 10):
        assert am.ClassPartition.merge(d, ()) == am.ClassPartition.singletons(d)
        for r in range(1, d + 1):
            for T in itertools.combinations(range(1, d + 1), r):
                assert am.ClassPartition.merge(d, T) == reference(d, T), (d, T)
                assert am.ClassPartition.merge(d, reversed(T)) == reference(d, T), (d, T)
                checked += 1
    assert checked == 1013
    for d, subset in ((3, {0}), (3, {0, 1}), (3, {4}), (3, {1, 4}), (3, {-1, 2}), (0, {1})):
        with pytest.raises(ValueError):
            am.ClassPartition.merge(d, subset)
        with pytest.raises(ValueError):
            reference(d, subset)


@pytest.mark.parametrize("d, subset, message", [
    (3, {0, 1}, r"^cannot merge the trivial class$"),
    (3, {-1, 0}, r"^cannot merge the trivial class$"),
    (3, {4}, r"^classes \[4\] are not all in 1\.\.3$"),
    (3, {4, 1}, r"^classes \[1, 4\] are not all in 1\.\.3$"),
    (3, {2, -1}, r"^classes \[-1, 2\] are not all in 1\.\.3$"),
    (0, {1}, r"^classes \[1\] are not all in 1\.\.0$"),
])
def test_merge_names_what_it_cannot_merge(d, subset, message):
    """merge names the trivial class, or the sorted classes outside 1..d,
    before any block is built."""
    with pytest.raises(ValueError, match=message):
        am.ClassPartition.merge(d, subset)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.data())
def test_partition_string_round_trip(d, data):
    rgs = [0] + [data.draw(st.integers(0, min(i, 5))) for i in range(1, d)]
    # normalize to a restricted growth string
    out, top = [], -1
    for a in rgs:
        a = min(a, top + 1)
        top = max(top, a)
        out.append(a)
    blocks = [[] for _ in range(top + 1)]
    for i, a in enumerate(out):
        blocks[a].append(i + 1)
    p = am.ClassPartition.from_blocks([[0]] + blocks, d)
    assert am.ClassPartition.from_string(str(p), d) == p


# ------------------------------------------------------------- the oracles

def test_hamming3_fuse_known_partition():
    scheme = am.gen_hamming_binary(3)
    out = am.fuse_direct(scheme, am.ClassPartition.from_string("1,3|2", 3))
    assert str(out.rho) == "0|1|2,3"
    assert TOL.allclose(out.P_fused, np.array([
        [1, 4, 3],
        [1, -4, 3],
        [1, 0, -1],
    ], dtype=float))
    assert out.scheme.d == 2
    assert out.scheme.valencies == (1, 4, 3)


def test_hamming3_rejects_bad_partition():
    scheme = am.gen_hamming_binary(3)
    with pytest.raises(am.NotAFusion):
        am.fuse_direct(scheme, am.ClassPartition.from_string("2,3|1", 3))


def test_bm_check_matches_direct_everywhere_small():
    """Exhaustive two-oracle agreement on several small schemes."""
    schemes = [
        am.gen_hamming_binary(3),
        am.gen_hamming_binary(4),
        am.gen_net_scheme(3, am.SlopeGrouping.singletons(3)),
        am.gen_cyclotomic(am.CyclotomicSpec(q=13, d=6)),
    ]
    for scheme in schemes:
        spec = am.spectral_decomposition(scheme)
        for pi in enumerate_partitions(scheme.d):
            try:
                direct = am.fuse_direct(scheme, pi)
                ok_direct = True
            except am.NotAFusion:
                ok_direct = False
            try:
                dual = am.bm_check(spec, pi)
                ok_bm = True
            except am.NotAFusion:
                ok_bm = False
            assert ok_direct == ok_bm, (scheme, str(pi))
            if ok_direct:
                # fused eigenmatrix must agree with a fresh decomposition of
                # the fused scheme, up to row order
                fresh = am.spectral_decomposition(direct.scheme)
                got = sorted(map(tuple, np.round(dual.P_fused, 6)))
                want = sorted(map(tuple, np.round(fresh.P, 6)))
                assert got == want


def test_trivial_partitions():
    scheme = am.gen_hamming_binary(4)
    assert am.fuse_direct(scheme, am.ClassPartition.singletons(4)).scheme == scheme
    merged = am.fuse_direct(scheme, am.ClassPartition.merge(4, {1, 2, 3, 4}))
    assert merged.scheme.d == 1  # complete scheme


def test_enumerate_fusing_tuples_hamming():
    h3 = am.gen_hamming_binary(3)
    assert am.enumerate_fusing_tuples(h3, 2) == [(1, 2), (1, 3)]
    h5 = am.gen_hamming_binary(5)
    assert am.enumerate_fusing_tuples(h5, 2) == []
    assert am.enumerate_fusing_tuples(h5, 3) == [(1, 3, 5)]


def test_enumerate_fusing_tuples_amorphic_complete():
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    assert len(am.enumerate_fusing_tuples(scheme, 2)) == 10  # C(5,2)
    assert len(am.enumerate_fusing_tuples(scheme, 3)) == 10  # C(5,3)


def _membership(pi):
    """Test-side membership matrix: S[i, b] = 1 iff class i lies in block b."""
    return np.eye(pi.n_blocks)[pi.block_index()]


def _flip_one(monkeypatch, kernel, pi):
    """Make the kernel named ``kernel`` answer ``pi`` the other way, in any
    stack it appears in."""
    real = getattr(fusion, kernel)
    want = _membership(pi)

    def flipped(*args):
        out = real(*args)
        answers = out[0] if kernel == "_stacked_row_sum" else out
        for m, S in enumerate(args[1]):
            if S.shape == want.shape and np.array_equal(S, want):
                answers[m] = not answers[m]
        return out

    monkeypatch.setattr(fusion, kernel, flipped)


def test_enumeration_cross_checks_exactly_above_v64(monkeypatch):
    """H(8,2) has v = 256: one flipped answer of either kernel is caught by
    a single question, by the amorphicity oracle and by the enumeration."""
    pi = am.ClassPartition.merge(8, (1, 2))
    for kernel in ("_stacked_block_sums", "_stacked_row_sum"):
        scheme = am.gen_hamming_binary(8)
        assert fuse_by_relabeling(scheme, pi) is None
        with monkeypatch.context() as mp:
            _flip_one(mp, kernel, pi)
            for ask in (lambda: fusion.fuses(scheme, pi), lambda: am.amorphic_oracle(scheme),
                        lambda: am.enumerate_fusing_tuples(scheme, 2)):
                with pytest.raises(am.OracleDisagreement, match=re.escape(f"accepts {pi} but")):
                    ask()
        assert fusion.fuses(scheme, pi) is False


def test_criterion_yes_against_exact_no_is_fatal(monkeypatch):
    """A rejection is cross-checked too: when the criterion accepts what the
    tensor rejects, no caller answers."""
    scheme = am.gen_hamming_binary(3)
    bad = am.ClassPartition.from_string("2,3|1", 3)
    assert fuse_by_relabeling(scheme, bad) is None
    _flip_one(monkeypatch, "_stacked_row_sum", bad)
    with pytest.raises(am.OracleDisagreement, match="criterion accepts"):
        fusion.fuses(scheme, bad)
    with pytest.raises(am.OracleDisagreement, match="criterion accepts"):
        am.fuse_direct(scheme, bad)


def test_fused_eigenmatrix_is_read_only():
    """A dual partition is a frozen answer, so its fused eigenmatrix cannot
    be written through."""
    scheme = am.gen_hamming_binary(3)
    pi = am.ClassPartition.from_string("1,3|2", 3)
    out = am.fuse_direct(scheme, pi)
    before = out.P_fused.copy()
    with pytest.raises(ValueError):
        out.P_fused[1, 1] = 99.0
    assert np.array_equal(am.fuse_direct(scheme, pi).P_fused, before)
    assert np.array_equal(am.bm_check(am.spectral_decomposition(scheme), pi).P_fused, before)


def test_disagreement_is_never_stored(monkeypatch):
    """Asked twice, a disagreement raises twice; the honest oracles then
    answer afresh."""
    scheme = am.gen_hamming_binary(3)
    bad = am.ClassPartition.from_string("2,3|1", 3)
    _flip_one(monkeypatch, "_stacked_row_sum", bad)
    for _ in range(2):
        with pytest.raises(am.OracleDisagreement, match="criterion accepts"):
            fusion.fuses(scheme, bad)
    monkeypatch.undo()
    assert fusion.fuses(scheme, bad) is False


def test_fused_scheme_is_not_kept():
    """Each fusion builds a new fused scheme and the parent keeps none, so
    a fused scheme is freed with its caller's last reference."""
    scheme = am.gen_hamming_binary(4)
    pi = am.ClassPartition.from_string("1,3|2,4", 4)
    first = am.fuse_direct(scheme, pi).scheme
    second = am.fuse_direct(scheme, pi).scheme
    assert first == second and first is not second
    ref = weakref.ref(first)
    del first
    gc.collect()
    assert ref() is None
    assert not hasattr(scheme, "_fused") and not hasattr(second, "_fused")


def test_rejection_names_block_pair_and_class():
    scheme = am.gen_hamming_binary(3)
    with pytest.raises(am.NotAFusion, match=r"over i in \{.*\}, j in \{.*\} is \d+ at h=\d"):
        am.fuse_direct(scheme, am.ClassPartition.from_string("2,3|1", 3))


def test_three_oracles_agree_on_every_corpus_partition(corpus):
    """Tensor oracle, label re-validation and bm_check give one answer on
    every partition of every corpus scheme; fused schemes coincide."""
    checks = fusions = 0
    for name, scheme in corpus:
        spec = am.spectral_decomposition(scheme)
        for pi in enumerate_partitions(scheme.d):
            checks += 1
            ok_tensor = bool(fusion._stacked_block_sums(
                scheme.intersection.p, *fusion._stack(pi.block_index()[None]))[0])
            relabeled = fuse_by_relabeling(scheme, pi)
            try:
                dual = am.bm_check(spec, pi)
                ok_bm = True
            except am.NotAFusion:
                ok_bm = False
            assert ok_tensor == (relabeled is not None) == ok_bm, (name, str(pi))
            assert fusion.fuses(scheme, pi) == ok_tensor, (name, str(pi))
            if ok_tensor:
                fusions += 1
                out = am.fuse_direct(scheme, pi)
                assert out.scheme.valencies == relabeled.valencies, (name, str(pi))
                assert out.scheme == relabeled, (name, str(pi))
                # the folded tensor of the unvalidated fused scheme
                assert np.array_equal(out.scheme.intersection.p,
                                      relabeled.intersection.p), (name, str(pi))
                assert out.rho == dual.rho, (name, str(pi))
    assert checks == 1993
    assert fusions > 0


def test_fused_tensor_is_the_fused_labels_histogram(corpus):
    """The tensor fuse_direct folds from the parent's block sums is the
    histogram of the fused labels, for every fusing pair and triple merge
    of the corpus and for H(8,2) with odd and even distances merged."""
    cases = [(name, scheme, am.ClassPartition.merge(scheme.d, T))
             for name, scheme in corpus for r in (2, 3)
             for T in am.enumerate_fusing_tuples(scheme, r)]
    h8 = am.gen_hamming_binary(8)
    cases.append(("H(8,2)", h8, am.ClassPartition.from_blocks([range(1, 9, 2), range(2, 9, 2)], 8)))
    for name, scheme, pi in cases:
        fused = am.fuse_direct(scheme, pi).scheme
        p = fused.intersection.p
        assert p.dtype == np.int64 and not p.flags.writeable, (name, str(pi))
        assert np.array_equal(p, tensor_by_label_histogram(fused)), (name, str(pi))
    assert len(cases) == 224 + 1  # the corpus's fusing pairs and triples, and H(8,2)


# ------------------------------------------------- stacked single merges

def _merges(d, r):
    return list(itertools.combinations(range(1, d + 1), r))


def test_block_index_is_built_once_per_partition():
    """Both oracles of one question read one read-only index."""
    pi = am.ClassPartition.from_string("1,3|2", 3)
    idx = pi.block_index()
    assert idx is pi.block_index() and not idx.flags.writeable
    assert idx.tolist() == [0, 1, 2, 1]


def test_merge_stack_matches_membership():
    """The single-merge stacks, chunk after chunk, hold each merge's
    membership matrix and the first class of each class's block; so does a
    stack built from any partition's block indices."""
    for d in range(1, 10):  # at d = 9 the 126 merges of size 4 fill two chunks
        for r in range(1, d + 1):
            stacks = list(fusion._merge_stacks(d, _merges(d, r)))
            assert [T for chunk, _, _ in stacks for T in chunk] == _merges(d, r)
            S = np.concatenate([S for _, S, _ in stacks])
            rep = np.concatenate([rep for _, _, rep in stacks])
            for m, T in enumerate(_merges(d, r)):
                pi = am.ClassPartition.merge(d, T)
                assert np.array_equal(S[m], _membership(pi)), (d, T)
                assert rep[m].tolist() == [pi.blocks[b][0] for b in pi.block_index()], (d, T)
    for pi in enumerate_partitions(5):
        (S,), (rep,) = fusion._stack(pi.block_index()[None])
        assert np.array_equal(S, _membership(pi)), str(pi)
        assert rep.tolist() == [pi.blocks[b][0] for b in pi.block_index()], str(pi)


def _stacked_answers(scheme, r):
    return [fused for _, fused, _ in fusion._decide_merges(scheme, _merges(scheme.d, r), TOL)]


def test_stacked_merges_match_fuses_on_corpus(corpus):
    """Merge by merge, the stacked answers of every size are the relabeling
    reference's, and each accepted merge's leaders give the dual partition
    bm_check reads off a stack of one, whose fused eigenmatrix is the full
    fold's; a size above d (pairs at d = 1) asks no merges."""
    merges = accepted = 0
    for name, scheme in corpus:
        spec = am.spectral_decomposition(scheme)
        for r in range(1, scheme.d + 2):
            want = [fuse_by_relabeling(scheme, am.ClassPartition.merge(scheme.d, T)) is not None
                    for T in _merges(scheme.d, r)]
            asked = list(fusion._decide_merges(scheme, _merges(scheme.d, r), TOL))
            assert [(T, fused) for T, fused, _ in asked] == list(zip(_merges(scheme.d, r), want))
            for T, fused, leaders in asked:
                if fused:
                    pi = am.ClassPartition.merge(scheme.d, T)
                    one = am.bm_check(spec, pi)
                    ref = dual_by_full_fold(spec.P, _membership(pi), leaders, TOL)
                    assert fusion._partition_of(leaders) == one.rho == ref.rho
                    assert np.array_equal(one.P_fused, ref.P_fused)
            merges += len(want)
            accepted += sum(want)
    assert 0 < accepted < merges


def _by_relabeling(scheme, T):
    return fuse_by_relabeling(scheme, am.ClassPartition.merge(scheme.d, T)) is not None


def _by_krawtchouk(scheme, T):
    """Test-only reference for H(m,2): the row-sum criterion in exact
    integers on the Krawtchouk eigenmatrix, P[j][i] = K_i(j)."""
    m = scheme.d
    pi = am.ClassPartition.merge(m, T)
    rows = [tuple(sum(sum((-1) ** s * math.comb(j, s) * math.comb(m - j, i - s)
                          for s in range(i + 1)) for i in block) for block in pi.blocks)
            for j in range(m + 1)]
    return len(set(rows)) == pi.n_blocks and rows.count(rows[0]) == 1


@pytest.mark.parametrize("build, reference", [
    (lambda: net_with_group_sizes(8, [1] * 9), _by_relabeling),
    (lambda: net_with_group_sizes(9, [1] * 10), _by_relabeling),
    (lambda: am.gen_hamming_binary(9), _by_krawtchouk),
], ids=["net8-d9", "net9-d10", "H(9,2)-d9"])
def test_stacked_merges_match_fuses_above_d8(build, reference):
    """Above d = 8 the merges of one size fill more than one stack."""
    scheme = build()
    for r in range(2, scheme.d + 1):
        want = [reference(scheme, T) for T in _merges(scheme.d, r)]
        assert _stacked_answers(scheme, r) == want, r


# "cold": asked on a fresh scheme, as every question is, since no scheme keeps answers
@pytest.mark.parametrize("fuses", [True, False], ids=["yes-cold", "no-cold"])
@pytest.mark.parametrize("oracle", ["_stacked_block_sums", "_stacked_row_sum"])
def test_stacked_disagreement_is_fatal(monkeypatch, oracle, fuses):
    """One flipped answer, either way and of either kernel, raises and names
    its merge: on a single question, in the amorphicity oracle and in the
    enumeration."""
    scheme = am.gen_hamming_binary(4)
    pi = am.ClassPartition.merge(4, (1, 3) if fuses else (1, 2))
    _flip_one(monkeypatch, oracle, pi)
    exact_accepts = fuses != (oracle == "_stacked_block_sums")
    side = "exact oracle" if exact_accepts else "eigenmatrix criterion"
    asks = [lambda: am.amorphic_oracle(scheme), lambda: am.enumerate_fusing_tuples(scheme, 2),
            lambda: fusion.fuses(scheme, pi)]
    for ask in asks:
        with pytest.raises(am.OracleDisagreement, match=re.escape(f"{side} accepts {pi} but")):
            ask()


def _crafted_spectrum(P, tol):
    P = np.asarray(P, dtype=float)
    ones = (1,) * len(P)
    return am.SpectralData(v=len(P), P=P, Q=P, valencies=ones, multiplicities=ones, tol=tol)


@pytest.mark.parametrize("P, lead, fuses", [
    # rows 1 ~ 2 ~ 3 but not 1 ~ 3: leaders 0, 1 and 3 make three groups
    ([[1, 5, 3, 2], [1, 0, 0, 0], [1, 8e-4, 0, 0], [1, 1.6e-3, 0, 0]], [0, 1, 1, 3], True),
    # three groups, but the valency row shares one with row 1
    ([[1, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [1, 2, 0, 0]], [0, 0, 2, 3], False),
], ids=["chain", "valency-row-shared"])
def test_stacked_row_sum_groups_like_group_rows(P, lead, fuses):
    """A row joins the first leader it is close to, also where closeness is
    not transitive, and the valency row must stay alone; the stack of all
    pairs and bm_check's stack of one give the same answer."""
    tol = am.Tolerance(atol=1e-3, rtol=0.0)
    spec = _crafted_spectrum(P, tol)
    pi = am.ClassPartition.merge(3, (2, 3))
    ((chunk, S, _),) = fusion._merge_stacks(3, _merges(3, 2))
    fused, got = fusion._stacked_row_sum(spec.P, S, tol)
    m = chunk.index((2, 3))
    assert (bool(fused[m]), got[m].tolist()) == (fuses, lead)
    if fuses:
        assert am.bm_check(spec, pi).rho == am.ClassPartition.from_string("1,2|3", 3)
    else:
        with pytest.raises(am.NotAFusion, match="valency row folds onto another eigenrow"):
            am.bm_check(spec, pi)


def test_partition_over_another_d_is_rejected():
    scheme = am.gen_hamming_binary(3)
    spec = am.spectral_decomposition(scheme)
    for pi in (am.ClassPartition.merge(2, (1, 2)), am.ClassPartition.merge(4, (1, 2))):
        for ask in (lambda: am.fuse_direct(scheme, pi), lambda: fusion.fuses(scheme, pi),
                    lambda: am.bm_check(spec, pi)):
            with pytest.raises(am.PreconditionFailed, match=rf"partition is over 0..{pi.d}"):
                ask()


# ------------------------------------ merge-local kernels against references

def _check_kernels(p, P, S, rep, tol=TOL):
    """Both kernels, and the fused eigenmatrices where P is shared, agree
    entry by entry with the full-tensor references on one stack, entry m
    reading p[m] and P[m] where they are per entry; returns the exact
    answers."""
    own = None if P.ndim == 2 else np.arange(len(S))
    exact = fusion._stacked_block_sums(p, S, rep, own)
    assert np.array_equal(exact, block_sums_by_full_tensor(p, S, rep))
    fused, lead = fusion._stacked_row_sum(P, S, tol, own)
    ref_fused, ref_lead = row_sum_by_full_fold(P, S, tol)
    assert np.array_equal(fused, ref_fused) and np.array_equal(lead, ref_lead)
    if P.ndim == 2:
        ok = np.flatnonzero(fused)
        for m, P_m in zip(ok, fusion._fused_eigenmatrices(P, S[ok], lead[ok], tol)):
            ref = dual_by_full_fold(P, S[m], lead[m], tol)
            assert fusion._partition_of(lead[m]) == ref.rho and np.array_equal(P_m, ref.P_fused)
    return exact


def test_kernels_match_references_on_corpus_partitions(corpus):
    """Every partition of every corpus scheme, stacked 64 at a time with
    the others of its block count, so one stack mixes partitions with
    different numbers of merged blocks."""
    checked = accepted = 0
    for name, scheme in corpus:
        P = am.spectral_decomposition(scheme).P
        by_blocks = {}
        for pi in enumerate_partitions(scheme.d):
            by_blocks.setdefault(pi.n_blocks, []).append(pi.block_index())
        for rows in by_blocks.values():
            for start in range(0, len(rows), 64):
                S, rep = fusion._stack(np.array(rows[start:start + 64]))
                exact = _check_kernels(scheme.intersection.p, P, S, rep)
                checked += len(exact)
                accepted += int(exact.sum())
    assert checked == 1993 and 0 < accepted < checked


def test_kernels_match_references_on_net13_merges():
    """Every pair and triple merge of net(13; 1^14), d = 14."""
    scheme = net_with_group_sizes(13, [1] * 14)
    P = am.spectral_decomposition(scheme).P
    for r in (2, 3):
        for _, S, rep in fusion._merge_stacks(scheme.d, _merges(scheme.d, r)):
            assert _check_kernels(scheme.intersection.p, P, S, rep).all()


def test_kernels_match_references_on_per_entry_stacks(corpus):
    """Per-entry tensors and eigenmatrices of the corpus schemes of one d,
    in runs of one scheme and alternating between schemes."""
    by_d = {}
    for _, scheme in corpus:
        by_d.setdefault(scheme.d, []).append(scheme)
    stacks = 0
    for d, schemes in by_d.items():
        if d < 2 or len(schemes) < 2:
            continue
        for r in range(2, d + 1):
            for _, S, rep in fusion._merge_stacks(d, _merges(d, r)):
                c = len(S)
                for order in (np.arange(c) * len(schemes) // c, np.arange(c) % len(schemes)):
                    p = np.array([schemes[i].intersection.p for i in order])
                    P = np.array([am.spectral_decomposition(schemes[i]).P for i in order])
                    _check_kernels(p, P, S, rep)
                    stacks += 1
    assert stacks > 20


def _random_stack(rng, d, nb, c):
    """c random partitions of 0..d with {0} alone and nb blocks."""
    idx = []
    for _ in range(c):
        block = rng.permutation(np.r_[np.arange(1, nb), rng.integers(1, nb, d - nb + 1)])
        blocks = [[0]] + [list(np.flatnonzero(block == b) + 1) for b in range(1, nb)]
        idx.append(am.ClassPartition.from_blocks(blocks, d).block_index())
    return fusion._stack(np.array(idx))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 6), c=st.integers(1, 6),
       per_entry=st.booleans())
def test_kernels_match_references_on_arbitrary_tensors(seed, d, c, per_entry):
    """Integer tensors with no symmetry and no p_0j^h = delta_jh, and
    eigenmatrices with entries equal, within tol or just beyond it, on
    stacks of arbitrary partitions; per-entry eigenmatrices come in runs
    and alternations of a few distinct ones."""
    rng = np.random.default_rng(seed)
    n = d + 1
    S, rep = _random_stack(rng, d, int(rng.integers(2, n + 1)), c)
    p = rng.integers(0, 2, size=(c, n, n, n) if per_entry else (n, n, n))
    base = rng.choice([-1.0, 0.0, 1.0, 2.0], size=(3, n, n))
    base += rng.choice([0.0, 0.0, 4e-9, -4e-9, 3e-8], size=(3, n, n))
    P = base[rng.integers(0, 3, c)] if per_entry else base[0]
    _check_kernels(p, P, S, rep)


# ------------------------------------------------------------ triple types

def test_hamming4_triple_123_is_type2():
    scheme = am.gen_hamming_binary(4)
    spec = am.spectral_decomposition(scheme)
    t = am.classify_triple(spec, (1, 2, 3))
    assert t.kind == 2
    pairs = sorted(sorted(s) for s in t.sets)
    assert pairs == [[1, 4], [2, 3]]
    # multiplicity content is ordering-independent: {1,6} and {4,4}
    mult = sorted(sorted(spec.multiplicities[j] for j in s) for s in t.sets)
    assert mult == [[1, 6], [4, 4]]


def test_hamming5_triple_type2():
    t = am.classify_triple(am.gen_hamming_binary(5), (1, 3, 5))
    assert t.kind == 2


def test_amorphic_triples_are_type1():
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    spec = am.spectral_decomposition(scheme)
    for T in am.enumerate_fusing_tuples(scheme, 3):
        assert am.classify_triple(spec, T).kind == 1


def test_classify_triple_rejects_nonfusing():
    with pytest.raises(am.NotFusing):
        am.classify_triple(am.gen_hamming_binary(4), (1, 3, 4))


@pytest.mark.parametrize("T", [(1, 3, 5), (1, 2, 3)], ids=["fusing", "not-fusing"])
def test_scheme_triples_are_typed_by_both_oracles(monkeypatch, T):
    """Given a scheme, classify_triple and overlap_case decide fusion with
    both oracles, so a flipped exact answer on the triple raises; given
    bare spectral data the row-sum criterion alone answers."""
    scheme = am.gen_hamming_binary(5)  # (1, 3, 5) is its one fusing triple
    spec = am.spectral_decomposition(scheme)
    _flip_one(monkeypatch, "_stacked_block_sums", am.ClassPartition.merge(5, T))
    for ask in (lambda: am.classify_triple(scheme, T),
                lambda: am.overlap_case(scheme, T, (1, 3, 4))):
        with pytest.raises(am.OracleDisagreement, match="accepts 0"):
            ask()
    if T == (1, 3, 5):
        assert am.classify_triple(spec, T).kind == 2
    else:
        with pytest.raises(am.NotFusing):
            am.classify_triple(spec, T)


def test_enumeration_holds_no_memory():
    """Enumerating the 680 triples of net(16; 1^17) leaves nothing behind
    but its answer: no dual partition or fused eigenmatrix is kept."""
    scheme = net_with_group_sizes(16, [1] * 17)
    am.spectral_decomposition(scheme)
    tracemalloc.start()
    try:
        triples = am.enumerate_fusing_tuples(scheme, 3)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(triples) == 680
    assert held < 0.5 * 2 ** 20
    assert sorted(vars(scheme)) == ["_intersection", "_spectra", "label_matrix", "valencies"]


# ------------------------------------------------------------- contraction

def test_contraction_on_amorphic_net(monkeypatch):
    """Every admissible pair contracts.  Each contraction_check is a batch
    of one that histograms the parent's cells once and builds no contracted
    scheme: no fused scheme, tensor or spectrum of one is asked for."""
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    triples = am.enumerate_fusing_tuples(scheme, 3)
    calls = {name: [] for name in ("_contractions", "_row0_counts", "fuse_direct",
                                   "intersection_numbers", "spectral_decomposition")}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name].append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in calls:
        spy(core if name == "intersection_numbers" else fusion, name)
    pairs = 0
    for T in triples:
        for ell in range(1, 6):
            if ell not in T:
                assert am.contraction_check(scheme, T, ell)
                pairs += 1
    assert (len(triples), pairs) == (10, 20)
    assert len(calls["_contractions"]) == len(calls["_row0_counts"]) == 20
    assert all(L is scheme.labels for L in calls["_row0_counts"])
    assert calls["fuse_direct"] == calls["intersection_numbers"] == []
    assert all(s is scheme for s in calls["spectral_decomposition"])


def test_contraction_preconditions():
    scheme = am.gen_hamming_binary(5)
    with pytest.raises(am.PreconditionFailed):
        am.contraction_check(scheme, (1, 2, 3), 4)  # triple does not fuse
    with pytest.raises(am.PreconditionFailed):
        am.contraction_check(scheme, (1, 3, 5), 3)  # ell inside the triple
    with pytest.raises(am.PreconditionFailed):
        # no second fusing triple through ell
        am.contraction_check(scheme, (1, 3, 5), 2)


def test_malformed_triples_and_classes_are_preconditions():
    """A repeated or out-of-range class is a malformed request, not a
    falsified theorem, and not a contraction either."""
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))  # d = 5
    for T in ((1, 2, 2), (0, 1, 2), (1, 2, 6), (1, 2)):
        with pytest.raises(am.PreconditionFailed, match="is not a 3-subset of 1..5"):
            am.classify_triple(scheme, T)
    with pytest.raises(am.PreconditionFailed, match="is not a 3-subset"):
        am.overlap_case(scheme, (1, 2, 2), (1, 2, 3))
    with pytest.raises(am.PreconditionFailed, match="need a 3-subset and an outside class"):
        am.contraction_check(scheme, (1, 2, 2), 4)
    for ell in (0, -1, 6):
        with pytest.raises(am.PreconditionFailed, match="need a 3-subset and an outside class"):
            am.contraction_check(scheme, (1, 2, 3), ell)


def _admissible_by_definition(scheme, triples):
    """Test-side reference: the pairs on which contraction_check's
    preconditions hold, each asked as single fusion questions."""
    d = scheme.d
    return [(T, ell) for T in triples for ell in range(1, d + 1)
            if ell not in T and any(fusion.fuses(scheme, am.ClassPartition.merge(d, s + (ell,)))
                                    for s in itertools.combinations(T, 2))]


def _outside_of(triples):
    """The contraction claim's map T -> outside classes, read off the
    fusing ``triples`` as the verifier reads it."""
    return fusion._outside(triples, fusion._triples_through(triples))


def _flat(outside):
    """The (T, ell) pairs of an ``outside`` map, in its order."""
    return [(T, ell) for T, ells in outside.items() for ell in ells]


def _contraction_schemes(corpus):
    """The corpus schemes with d >= 4, and net(7; 1^8)."""
    schemes = [(name, s) for name, s in corpus if s.d >= 4]
    schemes.append(("net7", net_with_group_sizes(7, [1] * 8)))
    return schemes


def test_batched_contraction_matches_relabeling(corpus):
    """The admissible pairs read off the map from 2-subsets to fusing
    triples are the pairs that meet contraction_check's preconditions (and
    the lookup reference's), and the batched answers, in the map's order,
    are the relabeling reference's for merging T + {ell} in the parent."""
    checked = 0
    for name, scheme in _contraction_schemes(corpus):
        triples = am.enumerate_fusing_tuples(scheme, 3)
        outside = _outside_of(triples)
        pairs = _flat(outside)
        assert pairs == _admissible_by_definition(scheme, triples), name
        assert pairs == admissible_pairs_by_lookup(triples, scheme.d), name
        want = [fuse_by_relabeling(scheme, am.ClassPartition.merge(scheme.d, T + (ell,))) is not None
                for T, ell in pairs]
        assert fusion._contractions(scheme, outside, TOL) == want, name
        checked += len(pairs)
    assert checked > 280


def _flip_first(monkeypatch, on_parent):
    """Flip the first answer of witness A's 4-sets (_decide_merges on the
    parent) or of witness B's contracted pairs (_decide_contracted), each
    yielded as (question, answer, ...); returns the flipped questions."""
    name = "_decide_merges" if on_parent else "_decide_contracted"
    real = getattr(fusion, name)
    flipped = []

    def flip(*args):
        for question, answer, *rest in real(*args):
            if not flipped:
                flipped.append(question)
                answer = not answer
            yield (question, answer, *rest)

    monkeypatch.setattr(fusion, name, flip)
    return flipped


@pytest.mark.parametrize("single", [False, True], ids=["batch", "single"])
@pytest.mark.parametrize("on_parent", [True, False], ids=["parent-4-set", "contracted-pair"])
def test_contraction_witnesses_must_agree(monkeypatch, on_parent, single):
    """Flipping one answer of either witness, in the batch or in a single
    contraction_check, raises OracleDisagreement naming both answers."""
    scheme, outside = _net5_outside()
    flipped = _flip_first(monkeypatch, on_parent)
    pattern = (r"contraction of \{1, 2, 3\} with 4: the parent answers (True|False) for "
               r"merging \{1, 2, 3, 4\}, the contracted scheme answers (True|False)")
    with pytest.raises(am.OracleDisagreement, match=pattern):
        if single:
            am.contraction_check(scheme, (1, 2, 3), 4)
        else:
            fusion._contractions(scheme, outside, TOL)
    assert flipped == [(1, 2, 3, 4) if on_parent else ((1, 2, 3), 4)]


def test_contraction_stacks(monkeypatch):
    """On net(7; 1^8) the parent decides the 70 distinct 4-sets in stacks of
    64 and 6, and witness B derives the eigenmatrices of its 56 contracted
    schemes in one stack and answers their 280 pairs in stacks of 64 across
    triples; each witness yields one answer per question, in order."""
    scheme = net_with_group_sizes(7, [1] * 8)
    triples = am.enumerate_fusing_tuples(scheme, 3)
    outside = _outside_of(triples)
    stacks, asked = [], {"_decide_merges": [], "_decide_contracted": []}
    real_stacks = fusion._merge_stacks

    def spy_stacks(d, merges):
        for chunk, *rest in real_stacks(d, merges):
            stacks.append((len(chunk[0]), len(chunk)))
            yield (chunk, *rest)

    for name, questions in asked.items():
        def spy(*args, real=getattr(fusion, name), questions=questions):
            for question, *rest in real(*args):
                questions.append(question)
                yield (question, *rest)

        monkeypatch.setattr(fusion, name, spy)
    monkeypatch.setattr(fusion, "_merge_stacks", spy_stacks)
    assert all(fusion._contractions(scheme, outside, TOL))
    assert (len(triples), len(_flat(outside))) == (56, 280)
    assert stacks == [(4, 64), (4, 6), (3, 56)] + [(2, 64)] * 4 + [(2, 24)]
    assert asked["_decide_merges"] == sorted({tuple(sorted(T + (ell,))) for T, ell in _flat(outside)})
    assert asked["_decide_contracted"] == _flat(outside)


def test_witness_b_reads_nothing_without_an_admissible_pair(monkeypatch):
    """H(6,2) has one fusing triple and no admissible pair, so the
    verifier's contraction batch asks nothing, and witness B neither
    histograms the parent's cells nor looks up its spectrum."""
    scheme = am.gen_hamming_binary(6)
    calls = []

    def spy(name):
        real = getattr(fusion, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(fusion, name, counted)

    spy("_row0_counts")
    report = am.verify_paper_claims(scheme)
    contraction = next(r for r in report.records if r.claim == "contraction")
    assert not contraction.applicable and contraction.witness == "0 admissible pairs"
    assert len(am.enumerate_fusing_tuples(scheme, 3)) == 1
    spy("spectral_decomposition")
    assert list(fusion._decide_contracted(scheme, {}, TOL)) == []
    assert calls == []


def test_witness_b_inputs_match_fused_schemes(corpus, monkeypatch):
    """For every fusing triple T, the tensor folded from the parent's
    histogram is the histogram of the fused scheme's labels, integer for
    integer (a source fuse_direct's block sums do not share), and
    the eigenmatrix witness B derives from the parent's P and accepts is
    the fused scheme's eigh-based P up to row order."""
    seen = []
    real = fusion._check_characters

    def spy(chunk, p, k, P, v, tol):
        real(chunk, p, k, P, v, tol)
        seen.append((chunk, p, k, P))

    monkeypatch.setattr(fusion, "_check_characters", spy)
    checked = 0
    for name, scheme in _contraction_schemes(corpus):
        d = scheme.d
        triples = am.enumerate_fusing_tuples(scheme, 3)
        seen.clear()
        assert list(fusion._decide_contracted(scheme, dict.fromkeys(triples, []), TOL)) == []
        assert [T for chunk, *_ in seen for T in chunk] == triples, name
        for chunk, p, k_fused, P in seen:
            for m, T in enumerate(chunk):
                fused = am.fuse_direct(scheme, am.ClassPartition.merge(d, T)).scheme
                assert np.array_equal(p[m], tensor_by_label_histogram(fused)), (name, T)
                assert k_fused[m].tolist() == list(fused.valencies), (name, T)
                eigh_P = am.spectral_decomposition(fused).P
                assert (sorted(map(tuple, np.round(P[m], 6)))
                        == sorted(map(tuple, np.round(eigh_P, 6)))), (name, T)
                checked += 1
    assert checked > 56


def test_character_check_peak_is_bounded(monkeypatch):
    """The character check of witness B's first chunk on net(16; 1^17),
    64 contracted schemes with n = 16, peaks under 2 MiB: it holds arrays
    of c n^2 floats, never of c n^3 (2 MiB each; forming check 3's two
    sides whole peaked at 6.5 MiB)."""
    scheme = am.gen_net_scheme(16, am.SlopeGrouping.singletons(16))
    seen = []
    monkeypatch.setattr(fusion, "_check_characters", lambda *args: seen.append(args))
    triples = am.enumerate_fusing_tuples(scheme, 3)[:fusion._MERGE_CHUNK]
    assert list(fusion._decide_contracted(scheme, dict.fromkeys(triples, []), TOL)) == []
    (chunk, p, k, P, v, tol), = seen
    assert P.shape == (64, 16, 16) and p.dtype.kind == "i"
    tracemalloc.start()
    try:
        fusion._check_characters(chunk, p, k, P, v, tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak / 2 ** 20


def test_per_entry_tensors_match_shared_tensor(corpus):
    """Given copies of one tensor and of one eigenmatrix, each per-entry
    kernel answers every pair and triple merge of the corpus as the shared
    one does: with an entry's own copy, and with runs of three entries
    reading one copy, each by index."""
    for name, scheme in corpus:
        p, P = scheme.intersection.p, am.spectral_decomposition(scheme).P
        for r in (2, 3):
            for chunk, S, rep in fusion._merge_stacks(scheme.d, _merges(scheme.d, r)):
                c = len(chunk)
                shared = (fusion._stacked_block_sums(p, S, rep), *fusion._stacked_row_sum(P, S, TOL))
                for own in (np.arange(c), np.arange(c) // 3):
                    copies = [np.broadcast_to(x, (c,) + x.shape) for x in (p, P)]
                    got = (fusion._stacked_block_sums(copies[0], S, rep, own),
                           *fusion._stacked_row_sum(copies[1], S, TOL, own))
                    assert all(map(np.array_equal, got, shared)), (name, r, own)


def test_witness_b_names_a_triple_the_parent_does_not_fuse():
    """Asked directly about a triple that does not fuse, witness B refuses
    it by name before it folds or checks anything."""
    scheme = am.gen_hamming_binary(5)
    assert fuse_by_relabeling(scheme, am.ClassPartition.merge(5, (1, 2, 3))) is None
    with pytest.raises(am.OracleDisagreement, match=re.escape(
            "contraction of {1, 2, 3}: the parent's eigenmatrix does not fuse the triple")):
        fusion._contractions(scheme, {(1, 2, 3): [4]}, TOL)


def _net5_outside():
    """net(4; 1^5) and the outside classes of its fusing triples."""
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    return scheme, _outside_of(am.enumerate_fusing_tuples(scheme, 3))


def test_witness_b_reads_no_parent_tensor(monkeypatch):
    """Witness B answers on a scheme whose spectra are cached and whose
    intersection tensor cannot be read, as it does on the plain scheme;
    its eigenmatrices come from P by the row-sum kernel alone."""
    scheme, outside = _net5_outside()
    want = list(fusion._decide_contracted(scheme, outside, TOL))

    class NoTensor(am.AssociationScheme):
        @property
        def _intersection(self):
            raise AssertionError("witness B read the parent's tensor")

    blind = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    am.spectral_decomposition(blind)
    blind.__class__ = NoTensor
    with pytest.raises(AssertionError, match="parent's tensor"):
        blind.intersection
    for name in ("_decide", "_decide_merges"):  # nor witness A's kernel runs
        monkeypatch.setattr(fusion, name, None)
    got = list(fusion._decide_contracted(blind, outside, TOL))
    assert got == want
    assert [pair for pair, _ in got] == _flat(outside) and len(got) == 20


@pytest.mark.parametrize("tamper, message", [
    (lambda P: P.__setitem__((2, 3), P[2, 3] + 0.5), "row 2 is not a character"),
    (lambda P: P.__setitem__(2, P[1]), "rows 1 and 2 repeat"),
    (lambda P: P.__setitem__((2, 3), np.nan), "row 2 is not a character"),
], ids=["perturbed-entry", "duplicated-row", "nan-entry"])
def test_witness_b_rejects_a_wrong_eigenmatrix(monkeypatch, tamper, message):
    """A contracted eigenmatrix that is not its folded tensor's character
    table is refused, naming the triple and the check: the fused
    eigenmatrix of {1, 2, 3}, the first that witness B derives, is
    tampered with as _fused_eigenmatrices returns it."""
    scheme, outside = _net5_outside()
    real = fusion._fused_eigenmatrices

    def tampered(*args):
        P = real(*args)
        tamper(P[0])
        return P

    monkeypatch.setattr(fusion, "_fused_eigenmatrices", tampered)
    with pytest.raises(am.OracleDisagreement,
                       match=r"contraction of \{1, 2, 3\}: contracted eigenmatrix: " + message):
        fusion._contractions(scheme, outside, TOL)


@pytest.mark.parametrize("cell, message", [
    ((1, 1, 1), r"the folded count 37 of classes 1, 1 at 1 is not a multiple of k'_1 = 9"),
    ((1, 1, 0), r"contracted eigenmatrix: row 0 is not a character of the folded tensor "
                r"at classes 1, 1"),
], ids=["count-not-whole", "count-whole"])
def test_witness_b_rejects_a_fold_off_by_one(monkeypatch, cell, message):
    """One count off in the histogram witness B folds is caught: as a
    count k' does not divide, or else by the eigenmatrix check."""
    scheme, outside = _net5_outside()
    real = fusion._row0_counts

    def off_by_one(L, d):
        counts, k = real(L, d)
        counts = counts.copy()
        counts[cell] += 1
        return counts, k

    monkeypatch.setattr(fusion, "_row0_counts", off_by_one)
    with pytest.raises(am.OracleDisagreement, match=r"contraction of \{1, 2, 3\}: " + message):
        fusion._contractions(scheme, outside, TOL)


@pytest.mark.parametrize("kernel, side", [
    ("_stacked_block_sums", "eigenmatrix criterion"),
    ("_stacked_row_sum", "exact oracle"),
])
def test_witness_b_oracles_must_agree(monkeypatch, kernel, side):
    """A flipped answer of either kernel on a contracted pair raises
    _decide's text, naming the triple."""
    scheme, outside = _net5_outside()
    real = getattr(fusion, kernel)

    def flipped(tensor, S, *rest):
        out = real(tensor, S, *rest)
        answers = out[0] if kernel == "_stacked_row_sum" else out
        # witness B's stacks: one tensor or eigenmatrix per entry
        if tensor.ndim == (4 if kernel == "_stacked_block_sums" else 3):
            answers[0] = not answers[0]
        return out

    monkeypatch.setattr(fusion, kernel, flipped)
    with pytest.raises(am.OracleDisagreement,
                       match=r"contraction of \{1, 2, 3\}: " + side + r" accepts 0\|1,2\|3 but"):
        fusion._contractions(scheme, outside, TOL)


# ------------------------------------------------------------ overlap cases

def test_eighteen_representatives_self_classify():
    assert len(CASE_REPRESENTATIVES) == 18
    assert len(fusion._LABELS) == 18  # the representatives' signatures are distinct
    for label, (sa, sb) in CASE_REPRESENTATIVES.items():
        assert _overlap_label(sa, sb) == label
        assert overlap_label_by_tables(sa, sb) == label


# the first sides of the sweeps below: a type-1 and a type-2 dual side
FIRST_SIDES = [(frozenset({1, 2, 3}),), (frozenset({1, 2}), frozenset({3, 4}))]


def _second_sides():
    """Every dual side over the idempotents 1..8: each 3-set, and each
    ordered pair of disjoint 2-sets."""
    yield from ((frozenset(s),) for s in itertools.combinations(range(1, 9), 3))
    pairs = [frozenset(s) for s in itertools.combinations(range(1, 9), 2)]
    yield from ((a, b) for a in pairs for b in pairs if not a & b)


def test_overlap_labels_match_reference_tables():
    """Every second side gets, in both argument orders, the label of the
    hand-written tables, asked with the type-1 side first."""
    for first, second in itertools.product(FIRST_SIDES, _second_sides()):
        want = overlap_label_by_tables(*sorted((first, second), key=len))
        assert _overlap_label(first, second) == want, (first, second)
        assert _overlap_label(second, first) == want, (first, second)


def test_overlap_maps_carry_dual_sets_onto_representative():
    """For every second side, in both triple orders: a ruled-out label
    raises Falsification; otherwise the relations go to 1..4, mixed kinds
    put the type-1 triple in the {1,2,3} role, and the idempotent map
    carries each triple's dual sets onto the representative's sets of its
    role."""
    t1, t2 = (1, 2, 3), (2, 3, 4)
    for first, second in itertools.product(FIRST_SIDES, _second_sides()):
        for sa, sb in ((first, second), (second, first)):
            ty1, ty2 = am.TripleType(len(sa), sa), am.TripleType(len(sb), sb)
            label = _overlap_label(sa, sb)
            if label not in am.SURVIVING_CASES:
                with pytest.raises(am.Falsification, match=re.escape(
                        f"triples {t1}, {t2} realize ruled-out case {label}")):
                    fusion._overlap_from_types(t1, ty1, t2, ty2)
                continue
            oc = fusion._overlap_from_types(t1, ty1, t2, ty2)
            assert oc.label == label
            assert sorted(oc.relation_map) == [1, 2, 3, 4]
            assert sorted(oc.relation_map.values()) == [1, 2, 3, 4]
            # class 1 lies only in t1, so it is 1 iff t1 plays {1,2,3}
            role_123, role_234 = (sa, sb) if oc.relation_map[1] == 1 else (sb, sa)
            if len(sa) != len(sb):
                assert len(role_123) == 1, (sa, sb)
            idem = oc.idempotent_map
            assert set(idem) == set().union(*sa, *sb)
            assert len(set(idem.values())) == len(idem)
            rep_a, rep_b = CASE_REPRESENTATIVES[label]
            assert {frozenset(idem[e] for e in s) for s in role_123} == set(rep_a)
            assert {frozenset(idem[e] for e in s) for s in role_234} == set(rep_b)


@pytest.mark.parametrize("sets1, sets2, label, relations, idempotents", [
    # equal kinds: t1 keeps the {1,2,3} role when an orientation allows it
    (({2, 3, 4},), ({1, 2, 3},), "I.3", (1, 2, 3, 4), {1: 4, 2: 2, 3: 3, 4: 1}),
    (({1, 4}, {2, 3}), ({1, 2}, {3, 4}), "III.9", (1, 2, 3, 4), {1: 1, 2: 4, 3: 3, 4: 2}),
    # mixed kinds: the type-1 triple t2 plays {1,2,3}; II.3 needs the
    # second order of t1's sets
    (({5, 6}, {7, 8}), ({6, 7, 8},), "II.5", (4, 2, 3, 1), {5: 4, 6: 3, 7: 1, 8: 2}),
    (({4, 5}, {2, 3}), ({1, 2, 3},), "II.3", (4, 2, 3, 1), {1: 1, 2: 2, 3: 3, 4: 4, 5: 5}),
])
def test_overlap_maps_follow_the_first_orientation(sets1, sets2, label, relations, idempotents):
    """The maps of the first orientation that fits, roles before set
    orders, with idempotents matched in ascending order."""
    ty1, ty2 = (am.TripleType(len(s), tuple(map(frozenset, s))) for s in (sets1, sets2))
    oc = fusion._overlap_from_types((1, 2, 3), ty1, (2, 3, 4), ty2)
    assert oc.label == label
    assert oc.relation_map == dict(zip(relations, (1, 2, 3, 4)))
    assert list(oc.idempotent_map.items()) == list(idempotents.items())


def test_signature_matching_no_representative_is_unclassified():
    """A pair of sides no valid type pair has, a 3-set inside a type-2
    side, matches no representative."""
    sets_a, sets_b = (frozenset({1, 2, 3}),), (frozenset({1, 2, 3}), frozenset({4, 5}))
    with pytest.raises(am.Unclassified) as err:
        _overlap_label(sets_b, sets_a)
    assert err.value.signature == (1, 2, (0, 3))
    types = {(1, 2, 3): am.TripleType(1, sets_a), (2, 3, 4): am.TripleType(2, sets_b)}
    with pytest.raises(am.Unclassified):
        fusion._overlap_labels(fusion._triples_through(types), types)


def test_overlap_label_invariant_under_relabeling():
    """The signature is preserved by any permutation of idempotent names."""
    import random
    rng = random.Random(7)
    for label, (sa, sb) in CASE_REPRESENTATIVES.items():
        universe = sorted(set().union(*sa, *sb))
        for _ in range(5):
            perm = {x: y for x, y in zip(universe, rng.sample(universe, len(universe)))}
            pa = tuple(frozenset(perm[x] for x in s) for s in sa)
            pb = tuple(frozenset(perm[x] for x in s) for s in sb)
            assert _overlap_label(pa, pb) == label
        if len(sa) == 2:
            assert _overlap_label(sa[::-1], sb) == label
        if len(sb) == 2:
            assert _overlap_label(sa, sb[::-1]) == label


def test_surviving_cases_frozen():
    assert am.SURVIVING_CASES == {"I.3", "II.3", "II.5", "III.6", "III.9"}


def test_amorphic_overlaps_all_I3():
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    spec = am.spectral_decomposition(scheme)
    triples = am.enumerate_fusing_tuples(scheme, 3)
    seen = set()
    for a, b in itertools.combinations(triples, 2):
        if len(set(a) & set(b)) == 2:
            oc = am.overlap_case(spec, a, b)
            seen.add(oc.label)
            # the relabeling maps must cover the four relations involved
            assert sorted(oc.relation_map.values()) == [1, 2, 3, 4]
    assert seen == {"I.3"}


def test_overlap_requires_two_common_classes():
    scheme = am.gen_net_scheme(5, am.SlopeGrouping.singletons(5))
    with pytest.raises(am.PreconditionFailed):
        am.overlap_case(scheme, (1, 2, 3), (4, 5, 6))


def _direct_labels(pairs, types):
    out = []
    for a, b in pairs:
        try:
            out.append(fusion._overlap_from_types(a, types[a], b, types[b]).label)
        except am.Falsification:
            out.append(None)
    return out


def test_memoized_overlap_labels_match_direct(corpus):
    """The pairs within the lists of the map from 2-subsets to triples are
    exactly the overlapping pairs, each once and each in combinations
    order; the labels memoized per signature over the map are the
    unmemoized ones of all overlapping pairs, and each pair asked alone
    gets its unmemoized label."""
    schemes = [(name, s) for name, s in corpus if s.d >= 3]
    schemes.append(("net8", net_with_group_sizes(8, [1] * 9)))
    overlapping = 0
    for name, scheme in schemes:
        spec = am.spectral_decomposition(scheme)
        triples = am.enumerate_fusing_tuples(scheme, 3)
        through = fusion._triples_through(triples)
        pairs = sorted(pair for group in through.values() for pair in itertools.combinations(group, 2))
        assert pairs == overlapping_pairs_by_filter(triples), name
        types = {T: am.classify_triple(spec, T) for T in triples}
        direct = _direct_labels(pairs, types)
        assert fusion._overlap_labels(through, types) == set(direct), name
        for (a, b), label in zip(pairs, direct):
            alone = {tuple(sorted(set(a) & set(b))): [a, b]}
            assert fusion._overlap_labels(alone, types) == {label}, (name, a, b)
        overlapping += len(pairs)
    assert overlapping > 756


def test_overlap_labels_run_once_per_signature(monkeypatch):
    """Pairs with one kinds-and-sizes key share one label lookup, a
    ruled-out case included, whatever the concrete dual sets."""
    one = lambda *sets: am.TripleType(kind=1, sets=tuple(frozenset(x) for x in sets))
    types = {
        (1, 2, 3): one({1, 2, 3}), (2, 3, 4): one({2, 3, 4}),  # I.3
        (1, 2, 5): one({5, 6, 7}), (2, 5, 6): one({6, 7, 8}),  # I.3, other sets
        (3, 4, 5): one({1, 2, 3}), (4, 5, 6): one({4, 5, 6}),  # I.1, ruled out
        (3, 4, 7): one({7, 8, 9}), (4, 7, 8): one({1, 2, 4}),  # I.1, other sets
    }
    pairs = [((1, 2, 3), (2, 3, 4)), ((1, 2, 5), (2, 5, 6)),
             ((3, 4, 5), (4, 5, 6)), ((3, 4, 7), (4, 7, 8))]
    # each pair alone in the list of the 2-subset it shares
    through = {tuple(sorted(set(a) & set(b))): [a, b] for a, b in pairs}
    real = fusion._overlap_label
    calls = []

    def counted(sets_a, sets_b):
        calls.append((sets_a, sets_b))
        return real(sets_a, sets_b)

    monkeypatch.setattr(fusion, "_overlap_label", counted)
    assert fusion._overlap_labels(through, types) == {"I.3", None}
    assert calls == [(types[a].sets, types[b].sets) for a, b in (pairs[0], pairs[2])]
    assert [fusion._overlap_labels({s: group}, types) for s, group in through.items()] == \
        [{"I.3"}, {"I.3"}, {None}, {None}]
