"""Core invariants: axioms, intersection numbers, eigenmatrices,
idempotents, Krein parameters.

Expected values are either produced here by an independent brute-force
oracle (full v x v linear algebra, neighbor counting on the cube) or are
closed-form facts asserted directly.
"""

import dataclasses
import itertools
import math
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amorphic import (
    AssociationScheme,
    AxiomViolation,
    ClassPartition,
    DEFAULT_TOL,
    DegenerateSpectrum,
    IdempotencyViolation,
    IdempotentBasis,
    LabelMatrix,
    NegativeKrein,
    Tolerance,
    formal_duality_permutation,
    fuse_direct,
    gen_complete,
    gen_hamming_binary,
    gen_net_scheme,
    gen_cyclotomic,
    idempotents,
    intersection_numbers,
    is_amorphic,
    krein_parameters,
    spectral_decomposition,
    validate_scheme,
    CyclotomicSpec,
    SlopeGrouping,
)
from amorphic import core
from conftest import (
    close_by_scalar_formula,
    closure_witness_by_class_scans,
    idempotents_by_class_matrices,
    krein_by_hadamard_sums,
    net_with_group_sizes,
    spectral_by_class_splits,
    validate_by_class_cells,
    weights_by_sieve,
)

TOL = DEFAULT_TOL


# ---------------------------------------------------------------- tolerance

def test_tolerance_close_policy():
    t = Tolerance(atol=1e-8, rtol=1e-8)
    assert t.close(1.0, 1.0 + 5e-9)
    assert not t.close(1.0, 1.0 + 1e-6)
    # relative part scales with magnitude
    assert t.close(1e6, 1e6 + 5e-3)
    assert not t.close(1e6, 1e6 + 1.0)


def test_tolerance_snap_masks_irrationals():
    t = Tolerance()
    golden = (np.sqrt(5) - 1) / 2
    arr, mask = t.snap(np.array([3.0 + 1e-12, golden, -2.0]))
    assert list(mask) == [True, False, True]
    assert arr[0] == 3.0 and arr[2] == -2.0
    assert arr[1] == golden


@pytest.mark.parametrize("bad", [-1.0, -1e-12, float("nan"), float("inf"), float("-inf")])
def test_tolerance_rejects_negative_and_nonfinite(bad):
    with pytest.raises(ValueError):
        Tolerance(atol=bad)
    with pytest.raises(ValueError):
        Tolerance(rtol=bad)


def test_tolerance_accepts_zero():
    t = Tolerance(atol=0.0, rtol=0)
    assert t.close(1.0, 1.0) and not t.close(1.0, 1.0 + 1e-15)


EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 1.0 + 1e-8, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
EDGE_TOLERANCES = [0.0, 1e-300, 1e-8, 1.0, 1e300]


def _close_agrees(atol, rtol, a, b):
    tol = Tolerance(atol=atol, rtol=rtol)
    got = tol.close(a, b)
    assert type(got) is bool and got == close_by_scalar_formula(tol, a, b), (atol, rtol, a, b)


# numpy warns where inf - inf or 1e308 - -1e308 leaves the finite floats
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_close_matches_the_scalar_formula_on_edge_values():
    """Every pair of signed zeros, infinities, NaN, subnormals and floats
    near the largest, under zero, tiny, default and huge atol and rtol:
    ``close`` answers as the scalar formula, as a bool."""
    for atol, rtol in itertools.product(EDGE_TOLERANCES, repeat=2):
        for a, b in itertools.product(EDGE_FLOATS, repeat=2):
            _close_agrees(atol, rtol, a, b)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_close_matches_the_scalar_formula(data):
    """Any floats, and pairs within a few tolerances of each other, under
    any finite atol and rtol: ``close`` answers as the scalar formula."""
    tolerance = st.sampled_from(EDGE_TOLERANCES) | st.floats(0, 1e3)
    atol, rtol = data.draw(tolerance, label="atol"), data.draw(tolerance, label="rtol")
    a = data.draw(st.floats() | st.sampled_from(EDGE_FLOATS), label="a")
    b = data.draw(st.floats() | st.sampled_from(EDGE_FLOATS)
                  | st.floats(-3, 3).map(lambda x: a + x * (atol + rtol * abs(a))), label="b")
    _close_agrees(atol, rtol, a, b)


# ------------------------------------------------------------------- axioms

def test_validate_rejects_nonzero_diagonal():
    labels = np.ones((3, 3), dtype=np.int64)
    with pytest.raises(AxiomViolation) as err:
        validate_scheme(LabelMatrix(v=3, d=1, labels=labels))
    assert err.value.axiom == "identity"


def test_validate_rejects_asymmetry():
    labels = np.zeros((3, 3), dtype=np.int64)
    labels[0, 1] = 1
    labels[1, 0] = 2
    labels[0, 2] = labels[2, 0] = 1
    labels[1, 2] = labels[2, 1] = 2
    with pytest.raises(AxiomViolation) as err:
        validate_scheme(LabelMatrix(v=3, d=2, labels=labels))
    assert err.value.axiom == "symmetry"


def test_validate_rejects_unclosed_labeling():
    # pentagon relation split arbitrarily: not closed under multiplication
    labels = np.zeros((5, 5), dtype=np.int64)
    for i in range(5):
        labels[i, (i + 1) % 5] = labels[(i + 1) % 5, i] = 1
        labels[i, (i + 2) % 5] = labels[(i + 2) % 5, i] = 2
    labels[0, 1] = labels[1, 0] = 2  # break one edge
    with pytest.raises(AxiomViolation) as err:
        validate_scheme(LabelMatrix(v=5, d=2, labels=labels))
    assert err.value.axiom in ("closure", "partition")


@pytest.mark.parametrize("labels, d, missing", [
    ([[0, 1], [1, 0]], 10 ** 12, 2),
    ([[0, 1, 3], [1, 0, 3], [3, 3, 0]], 10 ** 12, 2),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 3, 2),
])
def test_more_classes_than_points_is_a_partition_violation(labels, d, missing):
    """d >= v cannot be a scheme: row 0 has v - 1 cells off the diagonal.
    The smallest missing label is named without counting all d + 1 labels,
    which at d = 10^12 would need 8 TB."""
    with pytest.raises(AxiomViolation, match=f"^label {missing} never occurs$") as err:
        validate_scheme(LabelMatrix(v=len(labels), d=d, labels=np.array(labels)))
    assert (err.value.axiom, err.value.witness) == ("partition", missing)


def deviates(labels, cell):
    """True when some product A_i A_j differs at ``cell`` from its value at
    the first cell of the same class, i.e. the cell really breaks closure."""
    L = np.asarray(labels)
    h = L[cell]
    first = tuple(np.argwhere(L == h)[0])
    mats = [(L == i).astype(np.float64) for i in range(L.max() + 1)]
    return any((mats[i] @ mats[j])[cell] != (mats[i] @ mats[j])[first]
               for i in range(len(mats)) for j in range(i, len(mats)))


def validate_strictly(labels):
    """validate_scheme with every numpy floating-point event and every
    warning turned into an error."""
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        return validate_scheme(LabelMatrix(v=labels.shape[0], d=int(labels.max()), labels=labels))


def label_missing_from_row0():
    # label 2 occurs only on the edge {1, 2}, never in row 0, so k_2 = 0
    labels = np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64)
    labels[1, 2] = labels[2, 1] = 2
    return labels


def irregular_class_graph():
    # class 1 is the path 0-1-2-3-4, class 2 its complement: degrees 1 and 2
    labels = np.full((5, 5), 2, dtype=np.int64)
    np.fill_diagonal(labels, 0)
    for x in range(4):
        labels[x, x + 1] = labels[x + 1, x] = 1
    return labels


@pytest.mark.parametrize("make", [label_missing_from_row0, irregular_class_graph])
def test_validate_rejects_malformed_closure(make):
    labels = make()
    with pytest.raises(AxiomViolation) as err:
        validate_strictly(labels)
    assert err.value.axiom == "closure"
    assert deviates(labels, err.value.witness)
    with pytest.raises(AxiomViolation) as ref:
        validate_by_class_cells(labels)
    assert err.value.witness == ref.value.witness
    assert str(err.value) == str(ref.value)


def assert_same_verdict(labels):
    """validate_scheme and the per-class-cell reference agree on accept or
    reject, the axiom, witness and message, and the tensor and valencies."""
    try:
        expected = validate_by_class_cells(labels)
    except AxiomViolation as ref:
        with pytest.raises(AxiomViolation) as err:
            validate_strictly(labels)
        assert (err.value.axiom, err.value.witness) == (ref.axiom, ref.witness)
        assert str(err.value) == str(ref)
        if err.value.axiom == "closure":
            assert deviates(labels, err.value.witness)
        return
    scheme = validate_strictly(labels)
    valencies, p = expected
    assert scheme.valencies == valencies
    assert scheme.intersection.p.dtype == p.dtype
    assert np.array_equal(scheme.intersection.p, p)
    assert np.array_equal(intersection_numbers(scheme).p, p)


def test_validation_agrees_with_reference_on_corpus(corpus):
    for name, scheme in corpus:
        assert_same_verdict(np.array(scheme.labels))


def draw_label_swap(data, scheme):
    """The labels of ``scheme`` with one off-diagonal cell pair relabeled."""
    v, d = scheme.v, scheme.d
    x = data.draw(st.integers(0, v - 1), label="x")
    y = data.draw(st.integers(0, v - 1).filter(lambda y: y != x), label="y")
    new = data.draw(st.integers(1, d), label="label")
    labels = np.array(scheme.labels)
    labels[x, y] = labels[y, x] = new
    return labels


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_validation_agrees_with_reference_on_label_swaps(corpus, data):
    """One off-diagonal cell pair of a corpus scheme gets another label."""
    name, scheme = data.draw(st.sampled_from(corpus), label="scheme")
    assert_same_verdict(draw_label_swap(data, scheme))


@pytest.fixture(scope="module")
def thin_z2_4():
    """The thin scheme of Z_2^4: v = 16 and d = 15, all digits bits, so
    rows 1-3, 4-7, 8-13 and 14-15 each share one packed product."""
    return gen_cyclotomic(CyclotomicSpec(q=16, d=15))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_validation_agrees_with_reference_on_split_runs(thin_z2_4, data):
    """One off-diagonal cell pair of the thin scheme of Z_2^4 gets another
    label."""
    assert_same_verdict(draw_label_swap(data, thin_z2_4))


# H(8,2) with its classes renumbered: class j is distance order[j].  With
# the antipodal matching as class 1, A_1 A_j is another class, so no pair
# (1, j) with j <= 6 sees a cell move between classes 7 and 8 (distances 3
# and 5); the first failing pair of such a move is (1, 7), late in the first
# product, which stacks rows 1 and 2 (46.4 of 53 bits).
ANTIPODAL_FIRST = (0, 8, 1, 2, 4, 6, 7, 3, 5)
# Class 1 is distance 3, so row 1 packs the large counts p_35^h in base 57;
# rows 3 and 4 share a product of 51.7 bits, and rows 4 and 5 under
# ANTIPODAL_FIRST one of 51.7, near the 2^53 that float64 holds exactly.
LARGE_SEVENTH = (0, 3, 1, 2, 4, 6, 7, 5, 8)


def hamming8(order=tuple(range(9))):
    label_of = np.zeros(9, dtype=np.int64)
    label_of[list(order)] = np.arange(9)
    return label_of[gen_hamming_binary(8).labels]


def moved_pair(labels, x, y, new):
    labels[x, y] = labels[y, x] = new
    return labels


@pytest.mark.parametrize("order, x, y, new", [
    (tuple(range(9)), 5, 9, 3),  # first failing pair (1, 1), in the first product
    (ANTIPODAL_FIRST, 3, 100, 7),  # first failing pair (1, 7), in a stack of rows 1-2
    (ANTIPODAL_FIRST, 0, 7, 8),  # row 0 moves too, so the tensor holds -1 marks
])
def test_validation_agrees_with_reference_on_hamming8_swaps(order, x, y, new):
    labels = hamming8(order)
    assert labels[x, y] != new
    labels[x, y] = labels[y, x] = new
    assert_same_verdict(labels)


def test_valid_schemes_never_scan_pairs(monkeypatch, corpus, thin_z2_4):
    """A valid scheme is decided by the packed products alone: the pair by
    pair scan runs only to name the witness of a violation."""
    def scan(*args):
        raise AssertionError(f"pair scan ran on a valid scheme: {args[3:]}")

    monkeypatch.setattr(core, "_closure_witness", scan)
    labels = [scheme.labels for _, scheme in corpus]
    labels += [thin_z2_4.labels, net_with_group_sizes(16, [8, 9]).labels]
    labels += [hamming8(order) for order in (tuple(range(9)), ANTIPODAL_FIRST, LARGE_SEVENTH)]
    for L in labels:
        validate_scheme(np.array(L))


def raised_closure(witness, L, p, i):
    """(axiom, witness, message) that ``witness`` raises on the pairs (i, j),
    j >= i, or None."""
    try:
        witness(L, p, (L == i).astype(np.float64), i, range(i, p.shape[0]))
    except AxiomViolation as exc:
        return exc.axiom, exc.witness, str(exc)
    return None


@pytest.mark.parametrize("labels", [
    label_missing_from_row0(),
    irregular_class_graph(),
    *(moved_pair(hamming8(order), x, y, new) for order, x, y, new in [
        (tuple(range(9)), 5, 9, 3), (ANTIPODAL_FIRST, 3, 100, 7), (ANTIPODAL_FIRST, 0, 7, 8)]),
], ids=["missing-from-row0", "irregular", "h8-swap", "h8-antipodal-swap", "h8-row0-swap"])
def test_closure_witness_matches_the_class_scan(labels):
    """Row by row, the witness read off one ``np.unique`` names the same
    cell and message as one ``np.nonzero`` scan per class, or raises
    nothing where the scan raises nothing, on the histogram's tensor with
    its -1 marks."""
    d = int(labels.max())
    counts, k = core._row0_counts(labels, d)
    whole = (k > 0) & (counts % np.maximum(k, 1) == 0)
    p = np.where(whole, counts // np.maximum(k, 1), -1)
    found = [raised_closure(core._closure_witness, labels, p, i) for i in range(1, d + 1)]
    assert found == [raised_closure(closure_witness_by_class_scans, labels, p, i)
                     for i in range(1, d + 1)]
    assert any(found)


def assert_tight_plan(K):
    """The closure plan for row-count bounds K covers every pair once, in
    row-major order; every digit has room for its count; every product
    stays within 2^53 and would pass it with one more row or column.
    Returns the number of products."""
    d = len(K) - 1
    plan = core._closure_plan(K, d)
    pairs = [(i, j) for rows, cols, _ in plan for i in rows for j in cols if j >= i]
    assert pairs == [(i, j) for i in range(1, d + 1) for j in range(i, d + 1)]
    for rows, cols, radix in plan:
        assert len(radix) == len(cols)
        # j < i in a stack of rows is the pair (j, i) again, and is packed too
        assert all(r > min(K[i], K[j]) for i in rows for j, r in zip(cols, radix))
        assert math.prod(radix) ** len(rows) <= 2 ** 53
        if cols.start == rows.start and cols.stop == d + 1:  # whole rows
            if rows.stop <= d:
                top = max(K[i] for i in range(rows.start, rows.stop + 1))
                more = math.prod(min(top, K[j]) + 1 for j in cols)
                assert more ** (len(rows) + 1) > 2 ** 53
        else:  # a run of a row too long for one product
            (i,) = rows
            assert math.prod(min(K[i], K[j]) + 1 for j in range(i, d + 1)) > 2 ** 53
            if cols.stop <= d:
                assert math.prod(radix) * (min(K[i], K[cols.stop]) + 1) > 2 ** 53
    return len(plan)


@pytest.mark.parametrize("K, products", [
    ([math.comb(8, i) for i in range(9)], 5),  # H(8,2)
    ([math.comb(10, i) for i in range(11)], 7),  # H(10,2)
    ([1, 8 * 15, 9 * 15], 1),  # net(16; 8,9)
    ([1] + [31] * 33, 69),  # net(32; 1^33)
    ([1] * 64, 56),  # the thin scheme of Z_2^6: rows 1-10 split
], ids=["H(8,2)", "H(10,2)", "net(16;8,9)", "net(32;1^33)", "thin-Z2^6"])
def test_closure_plan_is_tight(K, products):
    assert assert_tight_plan(K) == products


def test_closure_plan_is_tight_on_corpus(corpus):
    for name, scheme in corpus:
        products = assert_tight_plan(list(scheme.valencies))
        if scheme.d <= 6:
            assert products <= 2, name


@pytest.mark.parametrize("v, d", [(1, 1), (5, 3), (128, 4), (300, 7)])
def test_largest_row_counts(v, d):
    L = np.random.default_rng(v).integers(0, d + 1, (v, v))
    expected = [max(np.count_nonzero(row == c) for row in L) for c in range(d + 1)]
    assert core._largest_row_counts(L, d) == expected


def test_validation_leaves_the_callers_array_writeable():
    """The scheme keeps its own read-only labels; the array passed in stays
    the caller's, writeable, and writing into it does not reach the scheme."""
    L = np.array(gen_hamming_binary(3).labels)
    scheme = validate_scheme(L)
    assert L.flags.writeable and not scheme.labels.flags.writeable
    L[0, 1] = L[1, 0] = 3
    assert scheme.labels[0, 1] == 1
    assert scheme == gen_hamming_binary(3)


# ----------------------------------------- closure from one generator

def assert_generator_plan(scheme):
    """The generator plan of a scheme's (p, K) against its pairwise closure
    plan: the runs cover the columns 1..d once, in order; every digit has
    room for its count; every product stays within 2^53 and would pass it
    with one more column; and it needs fewer products.  Returns (U, number
    of products)."""
    p, K, d = scheme.intersection.p, list(scheme.valencies), scheme.d
    most = len(core._closure_plan(K, d))
    U, runs = core._generator_plan(p, K, d, most)
    assert [j for cols, _ in runs for j in cols] == list(range(1, d + 1))
    for (cols, radix), later in zip(runs, runs[1:] + [None]):
        assert len(radix) == len(cols)
        for j, r in zip(cols, radix):
            assert r > min(sum(u * min(K[i], K[j]) for i, u in enumerate(U)), max(U) * K[j])
        assert math.prod(radix) <= 2 ** 53
        if later is not None:
            assert math.prod(radix) * later[1][0] > 2 ** 53
    assert len(runs) < most
    return tuple(int(u) for u in U), len(runs)


def generates(scheme, U):
    """The Krylov certificate for the generator sum_i U_i A_i."""
    return core._generates(np.tensordot(np.asarray(U), scheme.intersection.p, 1).T)


@pytest.mark.parametrize("m", [8, 10])
def test_hamming_closure_is_generated_by_the_distance_one_class(m):
    """A_1 has m + 1 eigenvalues on H(m,2), so it generates, in 1 product
    against the pairwise 5 (m = 8) or 7 (m = 10).  The antipodal class,
    tried first (K = 1), does not; nor does U = 0..d, since the eigenvalue
    sum_i i K_i(r) of the Krawtchouk polynomials is 0 for every r >= 2."""
    scheme = gen_hamming_binary(m)
    e = np.eye(m + 1, dtype=np.int64)
    assert assert_generator_plan(scheme) == (tuple(e[1]), 1)
    assert not generates(scheme, e[m])
    assert not generates(scheme, np.arange(m + 1))


def test_net32_closure_is_generated_by_all_classes_weighted():
    """net(32; 1^33): each A_i is strongly regular, with 3 eigenvalues, so no
    single class generates the 34-dimensional algebra; U = 0..d does, in 7
    products against the pairwise 69."""
    scheme = gen_net_scheme(32, SlopeGrouping.singletons(32))
    d = scheme.d
    assert not any(generates(scheme, np.eye(d + 1, dtype=np.int64)[c]) for c in range(1, d + 1))
    assert assert_generator_plan(scheme) == (tuple(range(d + 1)), 7)


def test_thin_closure_is_generated_by_all_classes_weighted(thin_z2_6):
    """The thin scheme of Z_2^6: every class is an involution, with 2
    eigenvalues; U = 0..d generates in 8 products against the pairwise 56."""
    assert assert_generator_plan(thin_z2_6) == (tuple(range(64)), 8)


def count_products(monkeypatch):
    """Record every packed closure product that validate_scheme forms."""
    products = []
    agrees = core._packed_agrees

    def spy(*args):
        products.append(args[2])  # U, the row weights
        return agrees(*args)

    monkeypatch.setattr(core, "_packed_agrees", spy)
    return products


def test_relabelled_hamming8_is_validated_by_one_product(monkeypatch):
    products = count_products(monkeypatch)
    for order in (tuple(range(9)), ANTIPODAL_FIRST, LARGE_SEVENTH):
        products.clear()
        scheme = validate_scheme(hamming8(order))
        assert len(products) == 1
        assert list(products[0]) == list(np.eye(9)[order.index(1)])
        assert scheme.valencies == tuple(math.comb(8, order[c]) for c in range(9))


def test_uncertified_generator_falls_back_to_pairwise_products(
        monkeypatch, corpus, thin_z2_4, thin_z2_6):
    """With a certificate that never succeeds, every input is validated by
    the products of ``_closure_plan``, to the same tensor."""
    labels = [scheme.labels for _, scheme in corpus]
    labels += [thin_z2_4.labels, thin_z2_6.labels, net_with_group_sizes(16, [5, 4, 4, 4]).labels]
    labels += [hamming8(order) for order in (tuple(range(9)), ANTIPODAL_FIRST, LARGE_SEVENTH)]
    labels = [np.array(L) for L in labels]
    expected = [validate_scheme(L) for L in labels]
    monkeypatch.setattr(core, "_generates", lambda B: False)
    products = count_products(monkeypatch)
    for L, want in zip(labels, expected):
        products.clear()
        scheme = validate_scheme(L)
        assert scheme.valencies == want.valencies
        assert np.array_equal(scheme.intersection.p, want.intersection.p)
        assert len(products) == len(core._closure_plan(list(scheme.valencies), scheme.d))


def draw_label_exchange(data, labels):
    """``labels`` with two off-diagonal cell pairs off row 0 exchanging their
    labels, where the two pairs lie in the same classes of row 0.  The row-0
    histogram, and so the candidate tensor, is unchanged; a single swap
    would make some mean a fraction, a -1 mark."""
    row0 = labels[0]
    x = data.draw(st.integers(1, len(row0) - 1), label="x")
    y = data.draw(st.integers(1, len(row0) - 1).filter(lambda y: y != x), label="y")
    others = [(a, b) for a in np.flatnonzero(row0 == row0[x]) for b in np.flatnonzero(row0 == row0[y])
              if a != b and labels[a, b] != labels[x, y]]
    assume(others)
    a, b = data.draw(st.sampled_from(others), label="other pair")
    labels = labels.copy()
    labels[x, y], labels[a, b] = labels[a, b], labels[x, y]
    labels[y, x], labels[b, a] = labels[x, y], labels[a, b]
    return labels


@settings(max_examples=6, deadline=None)
@given(order=st.permutations(range(1, 9)), data=st.data())
def test_validation_agrees_with_reference_on_relabelled_hamming8_exchanges(order, data):
    """Relabelled H(8,2) with two cell pairs exchanging labels: the tensor is
    still H(8,2)'s, so a generator is certified, and its product disagrees
    before the pairwise loop names the witness."""
    assert_same_verdict(draw_label_exchange(data, hamming8((0,) + tuple(order))))


def test_generator_product_catches_a_label_exchange(monkeypatch):
    """A label exchange that keeps the tensor is caught by the generator's
    product, then named by the pairwise loop as the reference names it."""
    labels = hamming8(ANTIPODAL_FIRST)
    # vertices 3 and 5 are at distance 2 from 0; 6 and 9 at distance 2 too
    assert labels[0, 3] == labels[0, 5] == labels[0, 6] == labels[0, 9]
    labels[3, 5], labels[6, 9] = labels[6, 9], labels[3, 5]
    labels[5, 3], labels[9, 6] = labels[3, 5], labels[6, 9]
    assert labels[3, 5] != labels[6, 9]
    products = count_products(monkeypatch)
    assert_same_verdict(labels)
    assert np.count_nonzero(products[0]) == 1  # the single class of distance 1
    assert len(products) > 1


@pytest.fixture(scope="module")
def thin_z2_6():
    """The thin scheme of Z_2^6: v = 64 and d = 63, all digits bits, so each
    of rows 1-10 (63 to 54 classes) is cut into two runs of columns."""
    return gen_cyclotomic(CyclotomicSpec(q=64, d=63))


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_validation_agrees_with_reference_on_split_rows(thin_z2_6, data):
    """One off-diagonal cell pair of the thin scheme of Z_2^6 gets another
    label."""
    assert_same_verdict(draw_label_swap(data, thin_z2_6))


def test_validation_leaves_numpy_ma_unimported():
    """Validation reads its partition and identity checks from one
    bincount; ``np.unique`` would import ``numpy.ma`` on first use."""
    src = str(Path(core.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, amorphic\n"
            "amorphic.validate_scheme(amorphic.gen_hamming_binary(4).labels)\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ------------------------------------------- translation schemes on row 0

def xor_table(m):
    """sub[g, a] = g - a in Z_2^m."""
    pts = np.arange(1 << m)
    return pts[:, None] ^ pts[None, :]


def cyclic_table(v):
    """sub[g, a] = g - a in Z_v."""
    pts = np.arange(v)
    return (pts[:, None] - pts[None, :]) % v


def outcome(build):
    """A build's scheme (labels, valencies, tensor) or its rejection
    (axiom, witness, message), comparable across the two validators."""
    try:
        s = build()
    except AxiomViolation as exc:
        return ("rejected", exc.axiom, exc.witness, str(exc))
    except ValueError as exc:
        return ("ValueError", str(exc))
    return ("valid", s.labels.tobytes(), s.valencies, s.intersection.p.tobytes())


def assert_row0_agrees(row0, sub, d):
    """The row-0 validator and validate_scheme on the v x v label matrix
    give the same scheme or the same rejection."""
    row0 = np.asarray(row0, dtype=np.int64)
    fast = outcome(lambda: core._translation_scheme(row0, sub, d))
    full = outcome(lambda: validate_scheme(LabelMatrix(v=len(row0), d=d, labels=row0[sub.T])))
    assert fast == full
    return fast


def hamming8_row0(order=tuple(range(9))):
    label_of = np.zeros(9, dtype=np.int64)
    label_of[list(order)] = np.arange(9)
    return label_of[gen_hamming_binary(8).labels[0]]


def moved(row0, g, new):
    row0 = row0.copy()
    assert row0[g] != new
    row0[g] = new
    return row0


@pytest.mark.parametrize("row0, sub, d, expected", [
    ([1, 1, 1, 1, 1], cyclic_table(5), 1, ("identity", (0, 0))),
    ([0, 1, 0, 0, 1], cyclic_table(5), 1, ("identity", (0, 2))),
    ([0, 1, 1, 1, 1], cyclic_table(5), 2, ("partition", 2)),  # d passed, not read off row 0
    ([0, 1, 1, 2, 2], cyclic_table(5), 2, ("symmetry", (0, 1))),
    ([0, 1, 1, 2, 2, 2, 2, 2], xor_table(3), 2, ("closure", (0, 4))),
    (moved(hamming8_row0(), 5, 3), xor_table(8), 8, ("closure", (0, 7))),
    # the antipodal class first: the first failing pair is (1, 7), as in
    # the v x v H(8,2) swaps
    (moved(hamming8_row0(ANTIPODAL_FIRST), 7, 8), xor_table(8), 8, ("closure", (0, 31))),
    # d >= v: a class is missing, and validate_scheme's order decides
    ([0, 0, 1], cyclic_table(3), 3, ("partition", 2)),
    ([0, 0, 0], cyclic_table(3), 3, ("partition", 1)),
])
def test_row0_rejection_matches_full_validation(row0, sub, d, expected):
    result = assert_row0_agrees(row0, sub, d)
    assert result[0] == "rejected" and result[1:3] == expected


def test_row0_range_error_matches_label_matrix():
    assert assert_row0_agrees([0, 3, 1, 1, 3], cyclic_table(5), 2)[0] == "ValueError"


def test_row0_agrees_with_full_validation_exhaustively():
    """Every row 0 of Z_6 with entries 0..2, and every labelling of Z_2^3
    off 0 with labels 1..3: each axiom fails somewhere, some rows pass, and
    closure fails first on several different pairs."""
    results = [assert_row0_agrees(row0, cyclic_table(6), 2)
               for row0 in itertools.product(range(2), *[range(3)] * 5)]
    results += [assert_row0_agrees((0,) + tail, xor_table(3), 3)
                for tail in itertools.product(range(1, 4), repeat=7)]
    kinds = {r[1] if r[0] == "rejected" else r[0] for r in results}
    assert kinds == {"identity", "partition", "symmetry", "closure", "valid"}
    pairs = {r[3].split()[0] for r in results if r[:2] == ("rejected", "closure")}
    assert len(pairs) >= 3, pairs


def test_label_matrix_range_check():
    with pytest.raises(ValueError):
        LabelMatrix(v=2, d=1, labels=np.array([[0, 5], [5, 0]]))


@pytest.mark.parametrize("build, message", [
    (lambda: validate_scheme(np.array([[0.0, 1.5], [1.5, 0.0]])), r"^label 1\.5 at \(0, 1\) is not an integer$"),
    (lambda: LabelMatrix(v=2, d=1, labels=[[0, 0.9], [0.9, 0]]), r"^label 0\.9 at \(0, 1\) is not an integer$"),
    (lambda: validate_scheme([[0, 1], [1, math.nan]]), r"^label nan at \(1, 1\) is not an integer$"),
    (lambda: validate_scheme([[0, math.inf], [1, 0]]), r"^label inf at \(0, 1\) is not an integer$"),
    (lambda: validate_scheme(np.float32([[0, 1], [-math.inf, 0]])), r"^label -inf at \(1, 0\) is not an integer$"),
    (lambda: validate_scheme([["0", "1"], ["1", "0"]]), r"^labels must be integers, got dtype <U1$"),
    (lambda: validate_scheme(np.array([[0, 1j], [1j, 0]])), r"^labels must be integers, got dtype complex128$"),
    (lambda: validate_scheme(5), r"^label matrix must be square, got shape \(\)$"),
], ids=["fraction", "fraction-truncated-to-0", "nan", "inf", "minus-inf-float32", "strings", "complex",
        "scalar"])
def test_labels_that_are_not_integers_are_rejected(build, message):
    """A label that is not an integer is named, never truncated; a dtype
    that holds no integer labels and input that is no matrix are refused.
    Each used to be truncated or to escape as a numpy or Python error."""
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: validate_scheme([[0, 2 ** 70], [2 ** 70, 0]]),
     r"^label out of range \[0, 18446744073709551615\] at \(0, 1\)$"),
    (lambda: validate_scheme([[0, 1, 2 ** 70], [1, 0, 1], [-2 ** 70, 1, 0]]),
     r"^label out of range \[0, 18446744073709551615\] at \(0, 2\)$"),
    (lambda: LabelMatrix(v=2, d=1, labels=[[0, 2 ** 70], [2 ** 70, 0]]),
     r"^label out of range \[0, 1\] at \(0, 1\)$"),
    (lambda: LabelMatrix(v=2, d=3, labels=[[0, 1], [-2 ** 70, 0]]),
     r"^label out of range \[0, 3\] at \(1, 0\)$"),
    (lambda: validate_scheme([[0, 2 ** 70], [2 ** 70, "0"]]), r"^labels must be integers, got dtype object$"),
    (lambda: validate_scheme([[0, None], [None, 0]]), r"^labels must be integers, got dtype object$"),
], ids=["beyond-uint64", "first-cell-named", "above-d", "below-0", "with-a-string", "with-none"])
def test_python_int_labels_beyond_int64_are_named(build, message):
    """An integer label too large for int64 makes numpy build an object
    array; its first cell out of range is named as for integer arrays.
    Object input holding anything but Python ints is refused by dtype."""
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("label, error, message", [
    (2.0 ** 63, AxiomViolation, r"^label 1 never occurs$"),
    (1e19, AxiomViolation, r"^label 1 never occurs$"),
    (3.0, AxiomViolation, r"^label 1 never occurs$"),
    (2.0 ** 64, ValueError, r"^label out of range \[0, 18446744073709551615\] at \(0, 1\)$"),
], ids=["2^63", "1e19", "3", "2^64"])
def test_large_float_labels_are_range_checked_before_the_cast(label, error, message):
    """An integral float label that an unsigned label dtype holds reaches
    validation, whatever its size, and one beyond every label dtype is
    named as out of range; none of them warns.  Casting to int64 first
    wrapped 2^63 and 1e19 with a RuntimeWarning and named them out of a
    range that holds them."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            validate_scheme([[0, label], [label, 0]])


def test_integral_bool_and_float_labels_are_accepted():
    base = gen_hamming_binary(3)
    for labels in (base.labels.astype(np.float64), base.labels.astype(np.float32).tolist()):
        assert validate_scheme(labels) == base
    k2 = LabelMatrix(v=2, d=1, labels=np.array([[False, True], [True, False]]))
    assert k2.labels.dtype == np.uint8 and k2.labels.tolist() == [[0, 1], [1, 0]]
    k2 = LabelMatrix(v=2, d=1, labels=np.array([[0, 1], [1, 0]], dtype=object))
    assert k2.labels.dtype == np.uint8 and k2.labels.tolist() == [[0, 1], [1, 0]]


def test_label_dtype_does_not_depend_on_the_input_dtype():
    """One scheme given as uint8, uint16, int32 and int64 arrays and as a
    nested list is one scheme: labels in the smallest dtype that holds d,
    one tensor, equal and with one hash."""
    base = gen_net_scheme(4, SlopeGrouping.singletons(4))
    given = [base.labels.astype(dt) for dt in (np.uint8, np.uint16, np.int32, np.int64)]
    schemes = [validate_scheme(L) for L in given + [base.labels.tolist()]]
    for scheme in schemes:
        assert scheme.labels.dtype == np.min_scalar_type(base.d) == np.uint8
        assert np.array_equal(scheme.labels, base.labels)
        assert np.array_equal(scheme.intersection.p, base.intersection.p)
        assert scheme == base and hash(scheme) == hash(base)
    assert all(L.flags.writeable for L in given)  # the caller's arrays are left as they were


@pytest.mark.parametrize("d, dtype", [(255, np.uint8), (256, np.uint16), (65536, np.uint32)])
def test_label_matrix_narrows_to_the_smallest_dtype_that_holds_d(d, dtype):
    labels = np.array([[0, d], [d, 0]], dtype=np.int64)
    lm = LabelMatrix(v=2, d=d, labels=labels)
    assert lm.labels.dtype == dtype
    assert lm.labels.tolist() == labels.tolist()
    assert not lm.labels.flags.writeable and lm.labels.flags.c_contiguous


@pytest.mark.parametrize("bad", [-1, 6, 256])
def test_out_of_range_labels_are_rejected_in_any_dtype(bad):
    """A label outside 0..d is named before narrowing, so 256 with d = 5
    does not wrap to 0 in uint8, whatever dtype holds it."""
    labels = np.zeros((3, 3), dtype=np.int64) + 1 - np.eye(3, dtype=np.int64)
    labels[1, 2] = bad
    message = r"^label out of range \[0, 5\] at \(1, 2\)$"
    inputs = [labels.tolist()] + [labels.astype(dt) for dt in (
        np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint64)
        if np.can_cast(np.min_scalar_type(bad), dt)]
    assert len(inputs) >= 4
    for given in inputs:
        with pytest.raises(ValueError, match=message):
            LabelMatrix(v=3, d=5, labels=given)


def test_v1024_uint8_labels_answer_as_int64_ones():
    """Above v = 255 a row index no longer fits uint8: validation, fusion and
    the row-0 histogram on relabelled uint8 H(10,2) labels give the answers
    the same labels give as int64."""
    base = gen_hamming_binary(10)
    perm = np.random.default_rng(3).permutation(base.v)
    L8 = np.ascontiguousarray(base.labels[perm][:, perm])
    L64 = L8.astype(np.int64)
    assert L8.dtype == np.uint8 and base.v == 1024
    scheme = validate_scheme(L8)
    assert np.array_equal(scheme.labels, L64)
    assert scheme.valencies == base.valencies
    assert np.array_equal(scheme.intersection.p, base.intersection.p)
    # the histogram's own arithmetic, on the whole int64 matrix at once
    n, r0 = base.d + 1, L64[0]
    key = (r0[:, None] * n + L64) * n + r0[None, :]
    counts = np.bincount(key.ravel(), minlength=n ** 3).reshape(n, n, n)
    for L in (L8, L64):
        got, k = core._row0_counts(L, base.d)
        assert np.array_equal(got, counts) and np.array_equal(k, np.bincount(r0, minlength=n))
    odd_even = ClassPartition.from_blocks([range(1, 11, 2), range(2, 11, 2)], base.d)
    fused = fuse_direct(scheme, odd_even).scheme
    assert fused.labels.dtype == np.uint8
    assert np.array_equal(fused.labels, odd_even.block_index()[L64])
    assert np.array_equal(fused.intersection.p, validate_scheme(fused.labels).intersection.p)


def test_scheme_equality_and_hash():
    a = gen_hamming_binary(2)
    b = gen_hamming_binary(2)
    assert a == b and hash(a) == hash(b)
    assert a != gen_complete(4)


# ------------------------------------------------- intersection numbers

def brute_force_cube_p(m):
    """p_ij^h for H(m,2) by counting common neighbors directly."""
    v = 1 << m
    dist = lambda x, y: bin(x ^ y).count("1")
    p = np.zeros((m + 1, m + 1, m + 1), dtype=np.int64)
    for h in range(m + 1):
        x, y = 0, (1 << h) - 1  # representative pair at distance h
        for i in range(m + 1):
            for j in range(m + 1):
                p[i, j, h] = sum(
                    1 for z in range(v) if dist(x, z) == i and dist(z, y) == j)
    return p


def test_intersection_numbers_match_neighbor_counts():
    for m in (2, 3, 4):
        scheme = gen_hamming_binary(m)
        assert np.array_equal(scheme.intersection.p, brute_force_cube_p(m))


def test_intersection_numbers_complete_scheme():
    p = gen_complete(5).intersection.p
    assert p[1, 1, 0] == 4  # k_1
    assert p[1, 1, 1] == 3
    assert p[1, 1, 1] + p[1, 1, 0] - p[0, 1, 1] == 6  # consistency spot check


def test_valencies_row_regularity():
    scheme = gen_net_scheme(3, SlopeGrouping.singletons(3))
    for i in range(scheme.d + 1):
        A = scheme.relation(i)
        assert set(A.sum(axis=1)) == {scheme.valencies[i]}
    assert sum(scheme.valencies) == scheme.v


# ------------------------------------------------------------- eigenmatrices

def test_hamming9_at_v512_krawtchouk():
    """H(9,2), v = 512: validated, and P equals the Krawtchouk closed form
    P[j][i] = sum_s (-1)^s C(j, s) C(m - j, i - s), multiplicity C(m, j)."""
    m = 9
    scheme = gen_hamming_binary(m)
    assert scheme.v == 512
    assert scheme.valencies == tuple(math.comb(m, i) for i in range(m + 1))
    spec = spectral_decomposition(scheme)
    kraw = [[sum((-1) ** s * math.comb(j, s) * math.comb(m - j, i - s) for s in range(i + 1))
             for i in range(m + 1)] for j in range(m + 1)]
    expected = sorted((math.comb(m, j), tuple(row)) for j, row in enumerate(kraw))
    got = sorted((mult, tuple(float(x) for x in row))
                 for mult, row in zip(spec.multiplicities, spec.P))
    assert got == expected
    assert spec.P_integer_mask.all()



def test_hamming3_eigenmatrix_frozen():
    spec = spectral_decomposition(gen_hamming_binary(3))
    expected = np.array([
        [1, 3, 3, 1],
        [1, -3, 3, -1],
        [1, -1, -1, 1],
        [1, 1, -1, -1],
    ], dtype=float)
    assert TOL.allclose(spec.P, expected)
    assert spec.multiplicities == (1, 1, 3, 3)
    assert spec.valencies == (1, 3, 3, 1)


def test_eigenvalues_against_full_adjacency():
    """Cross-check: every P row must be a joint eigenvalue vector of the
    actual v x v adjacency matrices (independent of the B_i route)."""
    for scheme in (gen_hamming_binary(4),
                   gen_net_scheme(3, SlopeGrouping.singletons(3)),
                   gen_cyclotomic(CyclotomicSpec(q=13, d=2))):
        spec = spectral_decomposition(scheme)
        for j, Ej in enumerate(dense_idempotents(scheme, idempotents(scheme, spec))):
            for i in range(scheme.d + 1):
                A = scheme.relation(i).astype(float)
                assert np.max(np.abs(A @ Ej - spec.P[j, i] * Ej)) < 1e-7


def test_pq_identity_and_row_sums():
    for scheme in (gen_hamming_binary(5), gen_complete(7),
                   gen_cyclotomic(CyclotomicSpec(q=9, d=4))):
        spec = spectral_decomposition(scheme)
        n = scheme.d + 1
        assert np.max(np.abs(spec.P @ spec.Q - scheme.v * np.eye(n))) < 1e-8 * scheme.v
        assert np.max(np.abs(spec.P[1:].sum(axis=1))) < 1e-7
        assert sum(spec.multiplicities) == scheme.v
        assert TOL.allclose(spec.Q[0], np.array(spec.multiplicities, dtype=float))


def test_row_order_is_deterministic():
    scheme = gen_hamming_binary(4)
    a = spectral_decomposition(scheme)
    perm = np.random.default_rng(12345).permutation(scheme.v)
    b = spectral_decomposition(validate_scheme(scheme.labels[perm][:, perm]))
    assert TOL.allclose(a.P, b.P)
    mults = a.multiplicities
    assert list(mults[1:]) == sorted(mults[1:])


def _bookkeeping_by_rows(rows, k, v, tol):
    """Test-only reference: the row-by-row search for the valency row and
    the multiplicities that spectral_decomposition ran before it used
    array operations; returns (valency row, multiplicities) or raises."""
    val_idx = next((j for j in range(len(rows)) if tol.allclose(rows[j], k)), None)
    if val_idx is None:
        raise DegenerateSpectrum("no eigenvector reproduces the valency row")
    mults = {}
    for j in (j for j in range(len(rows)) if j != val_idx):
        m_raw = v / float(np.sum(rows[j] ** 2 / k))
        if not tol.close(m_raw, int(round(m_raw))):
            raise DegenerateSpectrum(f"multiplicity {m_raw!r} is not near an integer")
        mults[j] = int(round(m_raw))
    return val_idx, mults


@pytest.mark.parametrize("scale", ["none", "valency", "two-rows"])
def test_spectral_bookkeeping_matches_row_by_row_reference(monkeypatch, scale):
    """The valency row and the multiplicities are found by array
    operations with the row-by-row search's results: the same P and
    multiplicities, and the same error naming the first bad row when an
    eigenvector is scaled off its unit length."""
    scheme = gen_hamming_binary(5)
    real = core._common_eigenvectors
    seen = {}

    def scaled(S, tol):
        U = real(S, tol)
        rows = np.einsum("aj,iab,bj->ji", U, S, U)
        k = np.asarray(scheme.valencies, dtype=float)
        val_idx = int(np.argmax(TOL.isclose(rows, k).all(axis=1)))
        cols = {"none": [], "valency": [val_idx],
                "two-rows": [j for j in range(len(k)) if j != val_idx][2:4]}[scale]
        U = U.copy()
        U[:, cols] *= 1.5
        seen["rows"], seen["k"] = np.einsum("aj,iab,bj->ji", U, S, U), k
        return U

    monkeypatch.setattr(core, "_common_eigenvectors", scaled)
    if scale == "none":
        spec = spectral_decomposition(scheme)
        val_idx, mults = _bookkeeping_by_rows(seen["rows"], seen["k"], scheme.v, TOL)
        assert TOL.allclose(spec.P[0], seen["rows"][val_idx])
        assert list(spec.multiplicities[1:]) == sorted(mults.values())
        return
    with pytest.raises(DegenerateSpectrum) as got:
        spectral_decomposition(scheme)
    with pytest.raises(DegenerateSpectrum) as ref:
        _bookkeeping_by_rows(seen["rows"], seen["k"], scheme.v, TOL)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith("no eigenvector" if scale == "valency" else "multiplicity")


def uncached(scheme):
    """The same scheme with empty caches, sharing labels and tensor."""
    return AssociationScheme(scheme.label_matrix, scheme.valencies, scheme.intersection)


def count_eigh(monkeypatch):
    """Count the ``np.linalg.eigh`` calls from here on: a one-item list."""
    calls, real = [0], np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls[0] += 1
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def assert_matches_reference(spec, ref, name):
    """Same row order, multiplicities and snap masks; P and Q bit for bit
    where P is integral, within 1e-12 otherwise."""
    assert spec.multiplicities == ref.multiplicities, name
    assert np.array_equal(spec.P_integer_mask, ref.P_integer_mask), name
    assert np.array_equal(spec.Q_integer_mask, ref.Q_integer_mask), name
    if ref.P_integer_mask.all():
        assert spec.P.tobytes() == ref.P.tobytes() and spec.Q.tobytes() == ref.Q.tobytes(), name
    else:
        assert np.abs(spec.P - ref.P).max() <= 1e-12, name
        assert np.abs(spec.Q - ref.Q).max() <= 1e-12, name


def test_spectral_decomposition_matches_class_by_class_reference(spectral_schemes):
    """On the corpus, the six ``oracle`` schemes and net(27; 1^28), the
    eigenmatrices from the class combination are the class-by-class
    split's."""
    for name, scheme in spectral_schemes:
        assert_matches_reference(core._spectral_decomposition(scheme, TOL),
                                 spectral_by_class_splits(scheme), name)


def test_one_eigh_per_spectral_decomposition(monkeypatch, corpus):
    """The combination alone splits every corpus scheme: one ``eigh`` per
    decomposition, so a return to class-by-class splitting fails here."""
    calls = count_eigh(monkeypatch)
    for name, scheme in corpus:
        calls[0] = 0
        spectral_decomposition(uncached(scheme))
        assert calls[0] == 1, name


def _past_deadline(signum, frame):
    raise TimeoutError("the prime weights did not finish within 5 s")


def test_combination_weights_match_the_sieve_reference():
    """The square roots of the first d primes by trial division are the
    sieve's, bit for bit, for d = 1..300, cached read-only float64.  The
    uncached calls run under a 5 s deadline, so a search that never finds
    its primes fails here instead of hanging."""
    previous = signal.signal(signal.SIGALRM, _past_deadline)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        for d in range(1, 301):
            w = core._combination_weights(d)
            assert w.dtype == np.float64 and not w.flags.writeable
            assert np.array_equal(w, weights_by_sieve(d)), d
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert core._combination_weights(300) is w


@pytest.mark.parametrize("weights, least", [(np.zeros, 2), (lambda d: np.eye(d)[0], 1)],
                         ids=["zero", "class-1"])
def test_class_loop_finishes_the_split(monkeypatch, spectral_schemes, weights, least):
    """With weights that make M separate nothing (M = 0, so the loop always
    runs) or only what class 1 does, the class loop finishes the split and
    gives the reference P."""
    monkeypatch.setattr(core, "_combination_weights", weights)
    calls = count_eigh(monkeypatch)
    for name, scheme in spectral_schemes:
        calls[0] = 0
        spec = core._spectral_decomposition(scheme, TOL)
        assert calls[0] >= least, name
        assert_matches_reference(spec, spectral_by_class_splits(scheme), name)


def test_ambiguous_gap_across_a_class_1_split_names_class_2():
    """H(5,2) with distance 3 as class 1 and distance 1 as class 2: rows
    with class-1 eigenvalues -2 and 2 (apart by 4 >= 100*atol) have
    class-2 eigenvalues 1 and -1, apart by 2, more than the tolerance
    there (1.025) and less than 100*atol = 2.5.  The class split never
    compares them, as class 1 splits them first, and decomposes; the
    column rule raises, naming class 2."""
    sigma = np.array([0, 2, 3, 1, 4, 5])  # distance i becomes class sigma[i]
    scheme = validate_scheme(sigma[gen_hamming_binary(5).labels])
    tol = Tolerance(atol=0.025, rtol=1.0)
    ref = spectral_by_class_splits(scheme, tol)
    assert TOL.allclose(ref.P, spectral_decomposition(scheme).P)
    with pytest.raises(DegenerateSpectrum,
                       match=r"^class 2: eigenvalues -1\.0 and 1\.0 are 2\.0 apart, neither equal "
                             r"within tolerance nor the required gap 2\.5 \(100\*atol\) apart$"):
        spectral_decomposition(scheme, tol=tol)


def test_rows_close_in_every_class_column_raise():
    """Two rows that M may separate but that are close in every class
    column raise as the class loop's common eigenspace did."""
    rows = np.array([[1.0, 3.0, 3.0], [1.0, 1.0, -1.0], [1.0, 1.0 + 1e-12, -1.0]])
    with pytest.raises(DegenerateSpectrum,
                       match=r"^an eigenspace of dimension 2 is common to all 2 classes$"):
        core._check_column_gaps(rows, TOL)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_eigenmatrix_follows_class_relabeling(corpus, data):
    """The combination's weights depend on class order, but renaming the
    classes only permutes the columns of P: each row, with its
    multiplicity, is a row of the renamed P up to that permutation, and
    the amorphic verdict and the certificate's n are unchanged."""
    scheme = data.draw(st.sampled_from([s for _, s in corpus]), label="scheme")
    sigma = np.array([0] + data.draw(st.permutations(range(1, scheme.d + 1)), label="classes"))
    renamed = validate_scheme(sigma[scheme.labels])  # class i is renamed sigma[i]
    a, b = spectral_decomposition(scheme), spectral_decomposition(renamed)
    assert a.multiplicities == b.multiplicities
    unmatched = list(range(scheme.d + 1))
    for row, mult in zip(a.P, a.multiplicities):
        j = next(j for j in unmatched
                 if b.multiplicities[j] == mult and TOL.allclose(b.P[j, sigma], row))
        unmatched.remove(j)
    va, vb = is_amorphic(scheme), is_amorphic(renamed)
    assert va.amorphic == vb.amorphic
    assert (va.certificate and va.certificate.n) == (vb.certificate and vb.certificate.n)


def test_spectral_data_cached_per_instance_and_tolerance():
    scheme = gen_hamming_binary(4)
    spec = spectral_decomposition(scheme)
    assert scheme.spectral is spec
    assert spectral_decomposition(scheme, seed=5) is spec  # seed is ignored
    loose = Tolerance(atol=1e-6, rtol=1e-6)
    other = spectral_decomposition(scheme, tol=loose)
    assert other is not spec and other.tol == loose
    assert spectral_decomposition(scheme, tol=loose) is other
    # an equal scheme built separately holds its own cache
    twin = gen_hamming_binary(4)
    assert twin == scheme
    assert spectral_decomposition(twin) is not spec
    assert np.array_equal(spectral_decomposition(twin).P, spec.P)


@pytest.mark.parametrize("n, sizes", [(7, [1] * 8), (8, [2] + [1] * 7)])
def test_d8_net_eigenmatrix_closed_form(n, sizes):
    """d = 8 nets net(7;1^8) and net(8;2,1^7).  On the eigenspace of the
    slopes in group j, class i has eigenvalue n - g_i if i == j and -g_i
    otherwise, with multiplicity g_j (n - 1)."""
    scheme = net_with_group_sizes(n, sizes)
    assert scheme.d == 8
    spec = spectral_decomposition(scheme)
    expected = [(1, (1,) + tuple(g * (n - 1) for g in sizes))] + [
        (gj * (n - 1), (1,) + tuple(n - g if i == j else -g for i, g in enumerate(sizes)))
        for j, gj in enumerate(sizes)]
    got = [(mult, tuple(float(x) for x in row))
           for mult, row in zip(spec.multiplicities, spec.P)]
    assert sorted(got) == sorted(expected)
    assert spec.P_integer_mask.all() and spec.Q_integer_mask.all()


def test_thin_eigenvalue_gap_names_both_numbers():
    """K_3 has eigenvalues 2 and -1; under atol = rtol = 0.5 the gap of 3 is
    neither a tie nor the 100*atol = 50 a split needs."""
    loose = Tolerance(atol=0.5, rtol=0.5)
    with pytest.raises(DegenerateSpectrum,
                       match=r"class 1: eigenvalues -1\.0 and 2\.0 are 3\.0 apart.*"
                             r"required gap 50\.0 \(100\*atol\)"):
        spectral_decomposition(gen_complete(3), tol=loose)


def test_irrational_entries_not_snapped():
    spec = spectral_decomposition(gen_cyclotomic(CyclotomicSpec(q=5, d=2)))
    golden = (np.sqrt(5) - 1) / 2
    assert TOL.allclose(spec.P, np.array([
        [1, 2, 2],
        [1, -1 - golden, golden],
        [1, golden, -1 - golden],
    ]))
    assert not spec.P_integer_mask[1, 1]
    assert spec.P_integer_mask[0].all()


# ----------------------------------------------------------- idempotents

def dense_idempotents(scheme, basis):
    """The v x v E_j of a basis, gathered from its class values."""
    return tuple(basis.values[scheme.labels, j] for j in range(scheme.d + 1))


def test_idempotents_of_complete_scheme_closed_form():
    v = 6
    scheme = gen_complete(v)
    E = dense_idempotents(scheme, idempotents(scheme))
    J = np.full((v, v), 1.0 / v)
    assert np.max(np.abs(E[0] - J)) < 1e-9
    assert np.max(np.abs(E[1] - (np.eye(v) - J))) < 1e-9


def test_idempotent_invariants():
    scheme = gen_net_scheme(4, SlopeGrouping.singletons(4))
    spec = spectral_decomposition(scheme)
    E = dense_idempotents(scheme, idempotents(scheme, spec))
    v = scheme.v
    for j, Ej in enumerate(E):
        assert np.max(np.abs(Ej @ Ej - Ej)) < 1e-8 * v
        assert abs(np.trace(Ej) - spec.multiplicities[j]) < 1e-7
    total = sum(E)
    assert np.max(np.abs(total - np.eye(v))) < 1e-8 * v


def bumped(spec, bumps):
    """``spec`` with Q[c, j] moved by ``bumps[(c, j)]``."""
    Q = spec.Q.copy()
    for (c, j), delta in bumps.items():
        Q[c, j] += delta
    return dataclasses.replace(spec, Q=Q)


def test_idempotents_and_krein_match_the_vxv_references(corpus):
    """The class-value basis equals the one summed from v x v class
    matrices, entry for entry, and q is within 1e-9 of the cell-by-cell
    Hadamard sums, on the corpus, H(8,2), H(9,2) and two schemes with
    irrational eigenvalues."""
    schemes = [scheme for _, scheme in corpus]
    schemes += [gen_hamming_binary(8), gen_hamming_binary(9),
                gen_cyclotomic(CyclotomicSpec(q=17, d=2)), gen_cyclotomic(CyclotomicSpec(q=29, d=7))]
    assert not schemes[-1].spectral.P_integer_mask.all()
    assert not schemes[-2].spectral.P_integer_mask.all()
    for scheme in schemes:
        basis, ref = idempotents(scheme), idempotents_by_class_matrices(scheme)
        E = dense_idempotents(scheme, basis)
        assert len(E) == len(ref) and all(np.array_equal(Ej, Fj) for Ej, Fj in zip(E, ref))
        q = krein_parameters(scheme, basis).q
        assert np.max(np.abs(q - krein_by_hadamard_sums(scheme, ref).q)) < 1e-9


def test_idempotents_and_krein_read_no_labels(corpus):
    """The basis and the Krein parameters come from the tensor and the
    spectrum alone: on a scheme whose labels cannot be read they are the
    plain scheme's, bit for bit, on the corpus and H(8,2)."""

    class NoLabels(AssociationScheme):
        @property
        def labels(self):
            raise AssertionError("the labels were read")

    for name, scheme in corpus + [("H(8,2)", gen_hamming_binary(8))]:
        basis = idempotents(scheme)
        q = krein_parameters(scheme, basis).q
        no_matrix = SimpleNamespace(v=scheme.v, d=scheme.d)  # v and d, and no labels
        blind = NoLabels(no_matrix, scheme.valencies, scheme.intersection)
        with pytest.raises(AssertionError, match="labels were read"):
            blind.labels
        blind_basis = idempotents(blind)
        assert blind_basis.values.tobytes() == basis.values.tobytes(), name
        assert krein_parameters(blind, blind_basis).q.tobytes() == q.tobytes(), name


# H(4,2): Q's row 0 is (1, 1, 4, 4, 6), k_1 = 4, k_2 = 6.  The trace and
# product bumps keep every row sum of E_1 and E_2, so E_0 E_h, which is
# that row sum times J/v, does not move, and each bump passes every check
# before the one it targets.
@pytest.mark.parametrize("bumps, index, residual", [
    ({(1, 0): 0.5}, 0, 0.5 / 16),  # E_0 = J/v
    ({(1, 1): 0.5}, -1, 0.5 / 16),  # sum_j E_j = I
    ({(0, 1): 0.5, (1, 1): -0.125, (0, 2): -0.5, (1, 2): 0.125}, 1, 0.5),  # trace E_1 = m_1
    ({(1, 1): 0.25, (2, 1): -1 / 6, (1, 2): -0.25, (2, 2): 1 / 6}, 1, None),  # E_1 E_h
], ids=["E0", "sum", "trace", "product"])
def test_idempotency_violations_match_the_reference(bumps, index, residual):
    scheme = gen_hamming_binary(4)
    spec = bumped(spectral_decomposition(scheme), bumps)
    with pytest.raises(IdempotencyViolation) as err:
        idempotents(scheme, spec)
    with pytest.raises(IdempotencyViolation) as ref:
        idempotents_by_class_matrices(scheme, spec)
    assert err.value.index == ref.value.index == index
    assert err.value.residual == pytest.approx(ref.value.residual, rel=1e-9, abs=0)
    if residual is not None:
        assert err.value.residual == pytest.approx(residual, rel=1e-9, abs=0)


# ---------------------------------------------------------------- Krein

def test_krein_complete_scheme_closed_form():
    # K_v: q_11^1 = (v-1) - 2(v-1)/v ... derived directly from E_1 = I - J/v
    v = 5
    scheme = gen_complete(v)
    basis = idempotents(scheme)
    K = krein_parameters(scheme, basis)
    E1 = np.eye(v) - np.full((v, v), 1.0 / v)
    expected = v * float(np.sum((E1 * E1) * E1)) / (v - 1)
    assert abs(K.q[1, 1, 1] - expected) < 1e-9
    assert abs(K.q[1, 1, 0] - (v - 1)) < 1e-9
    assert abs(K.q[0, 1, 1] - 1.0) < 1e-9


def test_krein_nonnegative_and_symmetric():
    for scheme in (gen_hamming_binary(3),
                   gen_cyclotomic(CyclotomicSpec(q=13, d=2))):
        basis = idempotents(scheme)
        K = krein_parameters(scheme, basis)
        assert K.q.min() >= 0.0
        assert np.max(np.abs(K.q - K.q.transpose(1, 0, 2))) < 1e-9


def basis_of_columns(scheme, Q):
    """The basis with class values Q / v, with no check."""
    return IdempotentBasis(values=Q / scheme.v)


@pytest.mark.parametrize("build, column, scale, indices", [
    (lambda: gen_hamming_binary(4), 4, -1.0, (2, 2, 4)),
    (lambda: gen_cyclotomic(CyclotomicSpec(q=13, d=3)), 2, -1.0, (1, 1, 2)),
    (lambda: gen_cyclotomic(CyclotomicSpec(q=13, d=3)), 1, 1.1, (1, 1, 0)),  # q_11^0 = m_1
], ids=["hamming4", "cyclotomic13", "q_jj^0"])
def test_krein_violations_match_the_reference(build, column, scale, indices):
    """A basis with one column of Q scaled: negated, some q_ij^h turns
    negative; scaled by 1.1, q_jj^0 misses m_j.  Both raise NegativeKrein
    at the reference's (i, j, h)."""
    scheme = build()
    spec = spectral_decomposition(scheme)
    Q = spec.Q.copy()
    Q[:, column] *= scale
    basis = basis_of_columns(scheme, Q)
    with pytest.raises(NegativeKrein) as err:
        krein_parameters(scheme, basis, spec)
    with pytest.raises(NegativeKrein) as ref:
        krein_by_hadamard_sums(scheme, dense_idempotents(scheme, basis), spec)
    assert err.value.indices == ref.value.indices == indices
    assert err.value.value == pytest.approx(ref.value.value, rel=1e-9)


# --------------------------------------------------------- formal duality

def test_hamming_self_duality_up_to_permutation():
    for m in (3, 4, 8, 9):
        spec = spectral_decomposition(gen_hamming_binary(m))
        sigma = formal_duality_permutation(spec)
        assert sigma is not None
        S = np.zeros((m + 1, m + 1))
        for j, sj in enumerate(sigma):
            S[sj, j] = 1.0
        assert TOL.allclose(S @ spec.P, spec.Q @ S.T)


def test_no_duality_permutation_when_q_is_not_a_relabelled_p():
    """At d = 8, a Q with one multiplicity moved off every entry of P has
    no sigma; row 0 of Q is met only in pairs (0, c) with c > 0."""
    spec = spectral_decomposition(gen_hamming_binary(8))
    Q = spec.Q.copy()
    Q[0, 3] += 0.5
    assert not np.isclose(spec.P, Q[0, 3]).any()
    assert formal_duality_permutation(dataclasses.replace(spec, Q=Q)) is None


def test_net16_entrywise_self_dual():
    spec = spectral_decomposition(gen_net_scheme(4, SlopeGrouping.singletons(4)))
    assert np.max(np.abs(spec.P - spec.Q)) < 1e-8
