"""Scheme generators and the finite-field tables behind them."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amorphic as am
from amorphic.corpus import _CYCLOTOMIC, _NET_GROUPINGS
from amorphic.generators import SUPPORTED_FIELD_ORDERS, SmallField, _field
from conftest import field_tables_by_loops


def test_field_tables_all_supported_orders():
    # SmallField verifies the field axioms on its own tables at construction
    for n in sorted(SUPPORTED_FIELD_ORDERS):
        F = SmallField(n)
        assert F.order == n
        g = F.multiplicative_generator()
        seen = set()
        x = 1
        for _ in range(n - 1):
            seen.add(x)
            x = int(F.mul[x, g])
        assert len(seen) == n - 1


def field_sub(F, a, b):
    """a - b in the field F, from its addition table and negation."""
    return int(F.add[a, F.neg[b]])


def field_inv(F, a):
    """The inverse of a nonzero a in the field F, from its multiplication table."""
    return int(np.flatnonzero(F.mul[a] == 1)[0])


def test_field_inverse_and_subtraction():
    """The negation table undoes addition and every nonzero element has an
    inverse, which the pairwise label references below rely on."""
    F = SmallField(9)
    for a in range(9):
        for b in range(9):
            assert F.add[field_sub(F, a, b), b] == a
        if a:
            assert F.mul[a, field_inv(F, a)] == 1


@pytest.mark.parametrize("n", sorted(SUPPORTED_FIELD_ORDERS))
def test_field_tables_match_element_loops(n):
    """The broadcast tables equal, dtype and all, the ones built one pair
    of elements at a time."""
    F = SmallField(n)
    add, mul = field_tables_by_loops(n)
    for table, ref in ((F.add, add), (F.mul, mul)):
        assert table.dtype == ref.dtype and np.array_equal(table, ref)


def test_supported_field_orders():
    assert SUPPORTED_FIELD_ORDERS == {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                                      29, 31, 32, 49, 64, 81}


def test_unsupported_order_rejected():
    for n in (6, 37, 121, 128, 243):
        with pytest.raises(am.FieldUnsupported):
            SmallField(n)


@pytest.mark.parametrize("build", [
    lambda: am.gen_net_scheme(17, am.SlopeGrouping.from_groups(17, [range(6), range(6, 18)])),
    lambda: am.gen_cyclotomic(am.CyclotomicSpec(q=19, d=3)),
], ids=["net-GF17", "cyclotomic-GF19"])
def test_new_prime_fields_agree_with_full_validation(build):
    """Schemes over the added prime fields: the row-0 validator and the
    v x v validate_scheme give the same valencies and tensor."""
    scheme = build()
    full = am.validate_scheme(np.array(scheme.labels))
    assert full.valencies == scheme.valencies
    assert np.array_equal(full.intersection.p, scheme.intersection.p)


def test_hamming_valencies_are_binomials():
    for m in (1, 2, 3, 4, 5, 6, 11):  # 11: v = 2048, within the 6561-point bound
        scheme = am.gen_hamming_binary(m)
        assert scheme.v == 2 ** m and scheme.d == m
        assert scheme.valencies == tuple(math.comb(m, i) for i in range(m + 1))


def test_hamming_limit():
    """H(m, 2) stops at m = 12, the largest 2^m within the 6561 points of
    the net on GF(81)^2; m = 13 and m = 0 are refused before any array."""
    with pytest.raises(am.LimitExceeded, match=r"^m must be in 1\.\.12, got 13$"):
        am.gen_hamming_binary(13)
    with pytest.raises(am.LimitExceeded, match=r"^m must be in 1\.\.12, got 0$"):
        am.gen_hamming_binary(0)


def test_net_scheme_valencies_from_group_sizes():
    groups = [[0, 1], [2], [3], [4]]
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.from_groups(4, groups))
    assert scheme.v == 16 and scheme.d == 4
    # class valency = (#slopes in group) * (n - 1), after group sort
    sizes = sorted(len(g) for g in groups)
    by_group = sorted(scheme.valencies[1:])
    assert by_group == sorted(s * 3 for s in sizes)


def test_net_grouping_validation():
    with pytest.raises(ValueError):
        am.SlopeGrouping.from_groups(3, [[0, 1], [2]])  # slope 3 missing
    with pytest.raises(ValueError):
        am.gen_net_scheme(4, am.SlopeGrouping.singletons(3))  # n mismatch


def test_cyclotomic_symmetry_condition():
    # (q-1)/d odd over an odd field puts -1 outside the subgroup
    with pytest.raises(am.NotSymmetric):
        am.gen_cyclotomic(am.CyclotomicSpec(q=11, d=2))
    with pytest.raises(am.NotSymmetric):
        am.gen_cyclotomic(am.CyclotomicSpec(q=13, d=4))
    # even field: always symmetric
    scheme = am.gen_cyclotomic(am.CyclotomicSpec(q=8, d=7))
    assert scheme.v == 8 and scheme.d == 7


def test_cyclotomic_divisibility():
    with pytest.raises(ValueError):
        am.gen_cyclotomic(am.CyclotomicSpec(q=13, d=5))


def test_cyclotomic_valencies_equal():
    scheme = am.gen_cyclotomic(am.CyclotomicSpec(q=25, d=4))
    assert set(scheme.valencies[1:]) == {6}  # (q-1)/d


def test_paley_is_conference_graph():
    # Paley(13): (13, 6, 2, 3) strongly regular graph
    scheme = am.gen_cyclotomic(am.CyclotomicSpec(q=13, d=2))
    A = scheme.relation(1)
    assert set(A.sum(axis=1)) == {6}
    A2 = A @ A
    lam = {int(A2[i, j]) for i in range(13) for j in range(13) if A[i, j]}
    mu = {int(A2[i, j]) for i in range(13) for j in range(13)
          if i != j and not A[i, j]}
    assert lam == {2} and mu == {3}


def test_complete_scheme():
    scheme = am.gen_complete(7)
    assert scheme.d == 1 and scheme.valencies == (1, 6)
    with pytest.raises(ValueError):
        am.gen_complete(1)
    # just above the generators' 6561-point bound, before any v x v table
    with pytest.raises(am.LimitExceeded, match=r"^v = 6562 is above the generators' limit of 6561 points$"):
        am.gen_complete(6562)


def test_standard_corpus_deterministic():
    names = [name for name, _ in am.standard_corpus()]
    assert len(names) == len(set(names)) == 46
    assert names == [name for name, _ in am.standard_corpus()]
    assert "net_n4_0-1-2-3-4" in names and "cyclotomic_q13_d3" in names


def test_write_standard_corpus_round_trips(tmp_path):
    paths = am.write_standard_corpus(tmp_path)
    assert len(paths) == 46
    by_name = {name: s for name, s in am.standard_corpus()}
    for path in paths[:8]:
        loaded = am.load_scheme(path)
        assert loaded == by_name[path.stem]


# ------------------------------------------- labels against pairwise loops

def net_labels_by_loops(n, grouping):
    """Net labels one point pair at a time, straight from the definition."""
    F = _field(n)
    group_of = {s: gi for gi, g in enumerate(grouping.groups) for s in g}
    v = n * n
    labels = np.zeros((v, v), dtype=np.int64)
    for p1 in range(v):
        x1, y1 = divmod(p1, n)
        for p2 in range(p1 + 1, v):
            x2, y2 = divmod(p2, n)
            if x1 == x2:
                slope = n  # vertical
            else:
                slope = int(F.mul[field_sub(F, y2, y1), field_inv(F, field_sub(F, x2, x1))])
            labels[p1, p2] = labels[p2, p1] = group_of[slope] + 1
    return labels


def cyclotomic_labels_by_loops(q, d):
    """Cyclotomic labels one point pair at a time: coset of a - b."""
    F = _field(q)
    g = F.multiplicative_generator()
    dlog, x = {}, 1
    for e in range(q - 1):
        dlog[x] = e
        x = int(F.mul[x, g])
    labels = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(a + 1, q):
            labels[a, b] = labels[b, a] = dlog[field_sub(F, a, b)] % d + 1
    return labels


def test_net_labels_match_pairwise_loops():
    """Every net entry of the standard corpus, plus net(16; 8, 9) at v = 256."""
    cases = [(n, groups) for n, gs in _NET_GROUPINGS.items() for groups in gs]
    cases.append((16, [list(range(8)), list(range(8, 17))]))
    for n, groups in cases:
        grouping = am.SlopeGrouping.from_groups(n, groups)
        labels = am.gen_net_scheme(n, grouping).labels
        expected = net_labels_by_loops(n, grouping)
        assert labels.dtype == np.min_scalar_type(grouping.d) == np.uint8
        assert np.array_equal(labels, expected), (n, groups)


def test_cyclotomic_labels_match_pairwise_loops():
    for q, d in _CYCLOTOMIC:
        labels = am.gen_cyclotomic(am.CyclotomicSpec(q=q, d=d)).labels
        expected = cyclotomic_labels_by_loops(q, d)
        assert labels.dtype == np.min_scalar_type(d) == np.uint8
        assert np.array_equal(labels, expected), (q, d)


# ------------------------------------------- row-0 validation against the v x v one

def _same_as_full_validation(scheme):
    full = am.validate_scheme(scheme.labels)
    assert scheme.labels.tobytes() == full.labels.tobytes()
    assert scheme.valencies == full.valencies
    assert scheme.intersection.p.tobytes() == full.intersection.p.tobytes()


def test_corpus_matches_full_validation(corpus):
    for _, scheme in corpus:
        _same_as_full_validation(scheme)


@pytest.mark.parametrize("m", range(1, 11))
def test_hamming_matches_full_validation(m):
    _same_as_full_validation(am.gen_hamming_binary(m))


@pytest.mark.parametrize("n, groups", [
    (7, [[i] for i in range(8)]),
    (7, [[0, 1, 2], [3, 4], [5, 6, 7]]),
    (8, [[0, 1, 2, 3], [4, 5, 6, 7, 8]]),
    (8, [[0], [1, 2], [3, 4, 5], [6, 7, 8]]),
    (9, [[i] for i in range(10)]),
    (9, [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]]),
    (16, [list(range(8)), list(range(8, 17))]),
    (16, [[0], [1, 2], list(range(3, 17))]),
])
def test_net_matches_full_validation(n, groups):
    _same_as_full_validation(am.gen_net_scheme(n, am.SlopeGrouping.from_groups(n, groups)))


@pytest.mark.parametrize("d", [1, 13])
def test_cyclotomic_q27_matches_full_validation(d):
    _same_as_full_validation(am.gen_cyclotomic(am.CyclotomicSpec(q=27, d=d)))


def test_generators_never_call_validate_scheme(monkeypatch):
    """Generated schemes are checked on row 0 only; a file or a relabelled
    matrix is what still goes through ``validate_scheme``."""
    def spy(labels):
        raise AssertionError("a generator called validate_scheme")

    monkeypatch.setattr(am.core, "validate_scheme", spy)
    monkeypatch.setattr(am.generators, "validate_scheme", spy)
    assert len(am.standard_corpus()) == 46
    am.gen_hamming_binary(8)
    am.gen_net_scheme(16, am.SlopeGrouping.from_groups(16, [list(range(8)), list(range(8, 17))]))
    am.gen_cyclotomic(am.CyclotomicSpec(q=27, d=13))
    am.gen_complete(5)


# ------------------------------------------------------- input checks

@pytest.mark.parametrize("q, d, generator", [(5, 2, 7), (3, 2, 0), (5, 2, -1)])
def test_cyclotomic_rejects_generator_out_of_range(q, d, generator):
    # 7 used to index past the tables (IndexError); 0 used to pass as a
    # generator of GF(3)*, since the walk 1 -> 0 -> 0 has length q - 1
    with pytest.raises(ValueError, match="not a nonzero element"):
        am.gen_cyclotomic(am.CyclotomicSpec(q=q, d=d, generator=generator))


def test_cyclotomic_rejects_non_generator():
    with pytest.raises(ValueError, match="does not generate"):
        am.gen_cyclotomic(am.CyclotomicSpec(q=13, d=2, generator=3))


def test_field_axioms_checked_under_optimize():
    """x^2 + 1 = (x + 1)^2 over GF(2) is reducible: x + 1 has no inverse.
    The check must raise even where ``python -O`` strips asserts."""
    code = (
        "import amorphic.generators as g\n"
        "g._IRREDUCIBLE[4] = (1, 0, 1)\n"
        "try:\n"
        "    g.SmallField(4)\n"
        "except g.FieldUnsupported as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(am.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "the tables for order 4 break the field axiom: multiplicative inverses\n"
