"""Fusing hypergraphs, sunflower cores, and graph shape predicates."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amorphic as am
import amorphic.fusion as fusion
from conftest import (admissible_pairs_by_lookup, idempotent_edges_by_all_partitions,
                      net_with_group_sizes, overlapping_pairs_by_filter, sunflower_cores_by_scan)


def test_hamming3_fusing_graph_is_path():
    H = am.build_fusing_hypergraph(am.gen_hamming_binary(3), 2)
    assert H.sorted_edges() == [(1, 2), (1, 3)]
    shape = am.graph_shape(H)
    assert shape.connected and shape.is_path


def test_hamming5_fusing_graph_disconnected():
    H = am.build_fusing_hypergraph(am.gen_hamming_binary(5), 2)
    assert len(H.edges) == 0
    assert not am.graph_shape(H).connected


def test_amorphic_net_complete_3hypergraph():
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    H = am.build_fusing_hypergraph(scheme, 3)
    assert H.is_complete()
    cores = am.sunflower_cores(H)
    assert [c.core for c in cores] == [
        (1, 2), (1, 3), (1, 4), (1, 5),
        (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]


def test_hamming5_single_sunflower_free():
    H = am.build_fusing_hypergraph(am.gen_hamming_binary(5), 3)
    assert H.sorted_edges() == [(1, 3, 5)]
    assert am.sunflower_cores(H) == []  # (1,3) misses petals 2 and 4


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pair_map_matches_the_scanning_references(data):
    """On a random 3-uniform hypergraph on at most 9 vertices, the map from
    2-subsets to edges gives the scan's sunflower cores, the filter's
    overlapping pairs, each once, and the lookup's contraction pairs, in
    order."""
    n = data.draw(st.integers(3, 9), label="n")
    every = list(itertools.combinations(range(1, n + 1), 3))
    # small drops keep many cores, large ones give sparse hypergraphs
    dropped = data.draw(st.sets(st.sampled_from(every)), label="dropped")
    triples = [T for T in every if T not in dropped]
    H = am.UniformHypergraph(k=3, vertices=tuple(range(1, n + 1)), edges=frozenset(triples))
    assert [c.core for c in am.sunflower_cores(H)] == sunflower_cores_by_scan(H)
    through = fusion._triples_through(triples)
    pairs = sorted(pair for group in through.values() for pair in itertools.combinations(group, 2))
    assert pairs == overlapping_pairs_by_filter(triples)
    outside = fusion._outside(triples, through)
    assert ([(T, ell) for T, ells in outside.items() for ell in ells]
            == admissible_pairs_by_lookup(triples, n))


def test_idempotent_side_hypergraph():
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    Hr = am.build_fusing_hypergraph(scheme, 3, side="relations")
    Hd = am.build_fusing_hypergraph(scheme, 3, side="idempotents")
    assert Hd.side == "idempotents"
    # formally self-dual amorphic scheme: both sides complete
    assert Hd.is_complete() and Hr.is_complete()


def test_idempotent_side_matches_all_partitions(corpus):
    """Asking only the d + 2 - k block partitions loses no edge."""
    checked = 0
    for name, scheme in corpus:
        if scheme.d < 3:
            continue
        for k in (2, 3):
            H = am.build_fusing_hypergraph(scheme, k, side="idempotents")
            assert H.edges == idempotent_edges_by_all_partitions(scheme, k), (name, k)
            checked += 1
    assert checked > 0


def test_idempotent_side_exact_at_d9():
    """net(8; 1^9) is amorphic: every idempotent triple and pair is an edge."""
    scheme = net_with_group_sizes(8, [1] * 9)  # v = 64, d = 9
    assert scheme.d == 9
    H3 = am.build_fusing_hypergraph(scheme, 3, side="idempotents")
    assert H3.sorted_edges() == list(itertools.combinations(range(1, 10), 3))
    assert len(H3.edges) == 84
    H2 = am.build_fusing_hypergraph(scheme, 2, side="idempotents")
    assert H2.sorted_edges() == list(itertools.combinations(range(1, 10), 2))
    assert len(H2.edges) == 36


def test_idempotent_side_disagreement_is_fatal(monkeypatch):
    """A confirmation stack whose P-side kernel groups the idempotents
    otherwise than rho is not skipped: the first candidate is named, by the
    hypergraph and by the verifier's dual claims alike."""
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    P = am.spectral_decomposition(scheme).P
    real = fusion._stacked_row_sum
    calls = []

    def singletons_once(M, stack, *rest):
        fused, lead = real(M, stack, *rest)
        if M is P:  # the confirmation stack, on the scheme's P
            calls.append(len(stack.S))
            lead[0] = np.arange(len(lead[0]))
        return fused, lead

    monkeypatch.setattr(fusion, "_stacked_row_sum", singletons_once)
    with pytest.raises(am.OracleDisagreement, match=re.escape(
            "Q folded over idempotent partition 0|1,2,3|4|5 groups the classes as 0|1|2|3,4,5, "
            "but the two oracles give 0|1|2|3|4|5")):
        am.build_fusing_hypergraph(scheme, 3, side="idempotents")
    assert calls == [10]
    with pytest.raises(am.OracleDisagreement, match=re.escape("but the two oracles give 0|1|2|3|4|5")):
        am.verify_paper_claims(scheme)


def _idempotent_map(P, moved_P, perm, tol):
    """tau with moved_P[tau[j]] = row j of P with its columns moved by the
    class permutation ``perm``, each row matched within ``tol``."""
    rows = np.empty_like(P)
    rows[:, perm] = P
    close = tol.isclose(rows[:, None, :], moved_P[None, :, :]).all(axis=2)
    assert (close.sum(axis=1) == 1).all() and (close.sum(axis=0) == 1).all()
    return close.argmax(axis=1)


def _moved(edges, perm):
    return {tuple(sorted(int(perm[i]) for i in e)) for e in edges}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_fusion_answers_follow_relabelling(corpus, data):
    """Under a random point permutation and class permutation (fixing 0) of
    a corpus scheme with d >= 3, the fusing pairs and triples and the
    relation-side hypergraph move with the classes, the idempotent side
    with the matching permutation of P's rows, and each overlapping pair
    of fusing triples keeps its subcase label."""
    schemes = [scheme for _, scheme in corpus if scheme.d >= 3]
    scheme = data.draw(st.sampled_from(schemes), label="scheme")
    d, tol = scheme.d, am.DEFAULT_TOL
    points = np.array(data.draw(st.permutations(range(scheme.v)), label="points"))
    perm = np.array([0] + data.draw(st.permutations(range(1, d + 1)), label="classes"))
    moved = am.validate_scheme(perm[scheme.labels[np.ix_(points, points)]])
    tau = _idempotent_map(am.spectral_decomposition(scheme).P,
                          am.spectral_decomposition(moved).P, perm, tol)
    for k in (2, 3):
        tuples = am.enumerate_fusing_tuples(scheme, k)
        assert set(am.enumerate_fusing_tuples(moved, k)) == _moved(tuples, perm), k
        for side, relabel in (("relations", perm), ("idempotents", tau)):
            H = am.build_fusing_hypergraph(scheme, k, side=side)
            assert am.build_fusing_hypergraph(moved, k, side=side).edges == \
                _moved(H.edges, relabel), (k, side)
    for t1, t2 in overlapping_pairs_by_filter(am.enumerate_fusing_tuples(scheme, 3)):
        (u1,), (u2,) = _moved([t1], perm), _moved([t2], perm)
        assert am.overlap_case(moved, u1, u2).label == am.overlap_case(scheme, t1, t2).label


def test_uniformity_checks():
    scheme = am.gen_hamming_binary(3)
    with pytest.raises(am.WrongUniformity):
        am.build_fusing_hypergraph(scheme, 4)
    H2 = am.build_fusing_hypergraph(scheme, 2)
    with pytest.raises(am.WrongUniformity):
        am.sunflower_cores(H2)
    H3 = am.build_fusing_hypergraph(scheme, 3)
    with pytest.raises(am.WrongUniformity):
        am.graph_shape(H3)
    with pytest.raises(am.WrongUniformity):
        am.to_dot(H3)


def test_edge_validation():
    with pytest.raises(ValueError):
        am.UniformHypergraph(k=2, vertices=(1, 2), edges=frozenset({(1, 2, 3)}))
    with pytest.raises(ValueError):  # a repeated vertex is not a 3-set
        am.UniformHypergraph(k=3, vertices=(1, 2, 3), edges=frozenset({(1, 1, 2)}))
    with pytest.raises(ValueError):  # an unsorted edge would count twice
        am.UniformHypergraph(k=3, vertices=(1, 2, 3),
                             edges=frozenset({(1, 2, 3), (3, 2, 1)}))


def test_dot_and_edge_list_deterministic():
    H = am.build_fusing_hypergraph(am.gen_hamming_binary(3), 2)
    dot = am.to_dot(H)
    assert dot == ("graph fusing {\n  1;\n  2;\n  3;\n"
                   "  1 -- 2;\n  1 -- 3;\n}\n")
    H3 = am.build_fusing_hypergraph(
        am.gen_net_scheme(3, am.SlopeGrouping.singletons(3)), 3)
    assert am.to_edge_list(H3) == "1 2 3\n1 2 4\n1 3 4\n2 3 4\n"


def test_graph_shape_cycle_is_not_path():
    H = am.UniformHypergraph(
        k=2, vertices=(1, 2, 3),
        edges=frozenset({(1, 2), (2, 3), (1, 3)}))
    shape = am.graph_shape(H)
    assert shape.connected and not shape.is_path
