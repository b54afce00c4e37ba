"""End-to-end acceptance checks over the generated corpus.

Each test covers one numbered criterion and reports a PASS/FAIL line in
the terminal summary.  Float comparisons use absolute tolerance 1e-8
(1e-8 * v for the P.Q = v.I identity); everything combinatorial is exact.
"""

import itertools
import time

import numpy as np
import pytest

import amorphic as am
from conftest import ACCEPTANCE_RESULTS, enumerate_partitions

TOL = am.DEFAULT_TOL


def _criterion(n, desc):
    """Record the pass/fail line for the summary, whatever the outcome."""

    def decorate(fn):
        def wrapper(corpus):
            ACCEPTANCE_RESULTS[n] = (desc, False)
            fn(corpus)
            ACCEPTANCE_RESULTS[n] = (desc, True)

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


@_criterion(1, "amorphic net(4) generator: oracle, integer certificate, P = Q")
def test_criterion_1_amorphic_generator(corpus):
    start = time.monotonic()
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    assert scheme.v == 16 and scheme.d == 5

    count = sum(1 for _ in enumerate_partitions(5))
    assert count == 52
    assert am.amorphic_oracle(scheme)

    spec = am.spectral_decomposition(scheme)
    cert = am.canonical_form_check(spec)
    assert cert is not None and cert.parameterized
    assert cert.n == 4 and cert.t == (1, 1, 1, 1, 1)

    assert np.max(np.abs(spec.P - spec.Q)) <= 1e-8
    assert time.monotonic() - start < 5.0


@_criterion(2, "two distinct 3-sunflower cores force amorphicity (d >= 5)")
def test_criterion_2_two_sunflowers(corpus):
    start = time.monotonic()
    exercised = 0
    for name, scheme in corpus:
        if scheme.d < 5:
            continue
        H = am.build_fusing_hypergraph(scheme, 3)
        cores = am.sunflower_cores(H)
        if len(cores) >= 2:
            exercised += 1
            assert am.is_amorphic(scheme).amorphic, name
    assert exercised >= 2  # at least the amorphic nets at n = 4, 5
    assert time.monotonic() - start < 120.0


@_criterion(3, "complete fusing 3-hypergraph is equivalent to amorphic (d in {5,6})")
def test_criterion_3_complete_hypergraph(corpus):
    for name, scheme in corpus:
        if scheme.d not in (5, 6):
            continue
        complete = am.build_fusing_hypergraph(scheme, 3).is_complete()
        amorphic = am.is_amorphic(scheme).amorphic
        assert complete == amorphic, name


@_criterion(4, "at d = 5 every sunflower core is itself a fusing pair")
def test_criterion_4_core_fuses(corpus):
    exercised = 0
    for name, scheme in corpus:
        if scheme.d != 5:
            continue
        for core in am.sunflower_cores(am.build_fusing_hypergraph(scheme, 3)):
            exercised += 1
            pi = am.ClassPartition.merge(5, core.core)
            am.fuse_direct(scheme, pi)  # raises NotAFusion on failure
    assert exercised > 0


@_criterion(5, "contraction holds for every admissible (triple, class) pair")
def test_criterion_5_contraction(corpus):
    exercised = {}
    for name, scheme in corpus:
        if scheme.d < 4:
            continue
        for T in am.enumerate_fusing_tuples(scheme, 3):
            for ell in range(1, scheme.d + 1):
                if ell in T:
                    continue
                try:
                    ok = am.contraction_check(scheme, T, ell)
                except am.PreconditionFailed:
                    continue
                exercised[name] = exercised.get(name, 0) + 1
                assert ok, (name, T, ell)
    assert exercised.get("net_n4_0-1-2-3-4", 0) > 0
    assert exercised.get("net_n5_0-1-2-3-4-5", 0) > 0


@_criterion(6, "every fusing triple is type 1 xor type 2; H(4,2) {1,2,3} is type 2")
def test_criterion_6_triple_types(corpus):
    for name, scheme in corpus:
        if scheme.d < 3:
            continue
        spec = am.spectral_decomposition(scheme)
        for T in am.enumerate_fusing_tuples(scheme, 3):
            t = am.classify_triple(spec, T)
            assert t.kind in (1, 2), (name, T)

    h4 = am.gen_hamming_binary(4)
    spec = am.spectral_decomposition(h4)
    t = am.classify_triple(spec, (1, 2, 3))
    assert t.kind == 2
    # under this package's deterministic row order the dual pairs come out
    # as {1,4} and {2,3}; their multiplicity content {1,6}, {4,4} is the
    # row-order-free invariant
    assert sorted(sorted(s) for s in t.sets) == [[1, 4], [2, 3]]
    mult = sorted(sorted(spec.multiplicities[j] for j in s) for s in t.sets)
    assert mult == [[1, 6], [4, 4]]


@_criterion(7, "overlapping fusing triples only realize the five surviving cases")
def test_criterion_7_overlap_cases(corpus):
    seen = set()
    for name, scheme in corpus:
        if scheme.d < 4:
            continue
        spec = am.spectral_decomposition(scheme)
        triples = am.enumerate_fusing_tuples(scheme, 3)
        amorphic = am.is_amorphic(scheme).amorphic
        for T1, T2 in itertools.combinations(triples, 2):
            if len(set(T1) & set(T2)) != 2:
                continue
            label = am.overlap_case(spec, T1, T2).label  # raises if ruled out
            seen.add(label)
            assert label in am.SURVIVING_CASES, (name, T1, T2, label)
            if amorphic:
                assert label == "I.3", (name, T1, T2, label)
    assert "I.3" in seen


@_criterion(8, "bm_check agrees with fuse_direct over >= 500 partition checks")
def test_criterion_8_oracle_equivalence(corpus):
    checks = 0
    for name, scheme in corpus:
        if scheme.d > 5 or scheme.v > 64:
            continue
        spec = am.spectral_decomposition(scheme)
        for pi in enumerate_partitions(scheme.d):
            checks += 1
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
            assert ok_direct == ok_bm, (name, str(pi))
            if ok_direct:
                fresh = am.spectral_decomposition(direct.scheme)
                got = sorted(map(tuple, np.round(dual.P_fused, 6)))
                want = sorted(map(tuple, np.round(fresh.P, 6)))
                assert got == want, (name, str(pi))
    assert checks >= 500


@_criterion(9, "spectral identities and the row lemma hold across the corpus")
def test_criterion_9_spectral_identities(corpus):
    for name, scheme in corpus:
        spec = am.spectral_decomposition(scheme)
        n = scheme.d + 1
        assert np.max(np.abs(spec.P @ spec.Q - scheme.v * np.eye(n))) \
            <= 1e-8 * scheme.v, name
        if scheme.d >= 1:
            assert np.max(np.abs(spec.P[1:].sum(axis=1))) <= 1e-7, name
        if 2 <= scheme.d <= 6:
            for which in ("P", "Q"):
                M = spec.principal(which)
                for r in range(2, scheme.d + 1):
                    for rows in itertools.combinations(range(scheme.d), r):
                        assert am.row_lemma_check(M, rows), (name, which, rows)


@_criterion(10, "negative controls: path-shaped H(3,2), non-amorphic cyclotomics")
def test_criterion_10_negative_controls(corpus):
    h3 = am.gen_hamming_binary(3)
    shape = am.graph_shape(am.build_fusing_hypergraph(h3, 2))
    assert shape.connected and shape.is_path
    assert not am.is_amorphic(h3).amorphic

    c13 = am.gen_cyclotomic(am.CyclotomicSpec(q=13, d=3))
    perm = np.random.default_rng(99).permutation(c13.v)
    spec_a = am.spectral_decomposition(c13)
    spec_b = am.spectral_decomposition(am.validate_scheme(c13.labels[perm][:, perm]))
    # irrational entries, grouped stably under point relabeling
    assert not spec_a.P_integer_mask[1:, 1:].any()
    assert TOL.allclose(spec_a.P, spec_b.P)
    assert not am.is_amorphic(c13).amorphic

    pentagon = am.gen_cyclotomic(am.CyclotomicSpec(q=5, d=2))
    spec_p = am.spectral_decomposition(pentagon)
    assert not spec_p.P_integer_mask[1:, 1:].any()
    perm = np.random.default_rng(7).permutation(pentagon.v)
    moved = am.validate_scheme(pentagon.labels[perm][:, perm])
    assert TOL.allclose(spec_p.P, am.spectral_decomposition(moved).P)
    # with d = 2 every partition fuses vacuously; the pentagon still fails
    # the d >= 3 amorphic characterizations: its relation is not of
    # (negative) Latin square type
    assert am.srg_info(spec_p, 1).latin is None
    with pytest.raises(am.PreconditionFailed):
        am.canonical_form_check(spec_p)
