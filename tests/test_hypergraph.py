"""Fusing hypergraphs, sunflower cores, and graph shape predicates."""

import itertools
import re

import pytest

import amorphic as am
import amorphic.fusion as fusion
import amorphic.hypergraph as hypergraph
from conftest import idempotent_edges_by_all_partitions, net_with_group_sizes


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
    """A confirmation that returns another dual partition is not skipped."""
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    real = hypergraph._decide
    calls = []

    def wrong_rho_once(scheme, pi, tol):
        calls.append(pi)
        dual = real(scheme, pi, tol)
        if len(calls) > 1:
            return dual
        return fusion.DualPartition(rho=am.ClassPartition.singletons(scheme.d),
                                    P_fused=dual.P_fused)

    monkeypatch.setattr(hypergraph, "_decide", wrong_rho_once)
    with pytest.raises(am.OracleDisagreement, match=re.escape("the two oracles give 0|1|2|3|4|5")):
        am.build_fusing_hypergraph(scheme, 3, side="idempotents")
    assert len(calls) == 1


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
