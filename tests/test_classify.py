"""SRG typing, canonical form, amorphicity, the distinguished 4-class
eigenmatrix pattern, the row lemma, and the per-scheme claim verifier."""

import ast
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amorphic as am
import amorphic.classify as classify
import amorphic.fusion as fusion
from amorphic.fusion import fuses
from conftest import (
    amorphic_by_all_partitions,
    amorphic_by_single_merges,
    canonical_on_by_entries,
    distinct_by_entries,
    enumerate_partitions,
    hamming_square_product,
    latin_by_search,
    net_with_group_sizes,
    singleton_blocks,
)
from test_fusion import _flip_one

TOL = am.DEFAULT_TOL


# ----------------------------------------------------------------- srg_info

def test_net9_singleton_class_is_latin():
    spec = am.spectral_decomposition(
        am.gen_net_scheme(3, am.SlopeGrouping.singletons(3)))
    info = am.srg_info(spec, 1)
    assert info.strongly_regular
    assert info.latin == am.LatinInfo(n=3, t=1, sign="positive")


def test_paley9_is_latin_l2_3():
    spec = am.spectral_decomposition(am.gen_cyclotomic(am.CyclotomicSpec(q=9, d=2)))
    info = am.srg_info(spec, 1)
    assert sorted(info.restricted) == [-2, 1]
    assert info.latin == am.LatinInfo(n=3, t=2, sign="positive")


def test_clebsch_classes_are_negative_latin():
    # GF(16) cubes: each class is a (16,5,0,2) graph, negative Latin NL_1(4)
    spec = am.spectral_decomposition(am.gen_cyclotomic(am.CyclotomicSpec(q=16, d=3)))
    for i in range(1, 4):
        info = am.srg_info(spec, i)
        assert sorted(info.restricted) == [-3, 1]
        assert info.latin == am.LatinInfo(n=-4, t=-1, sign="negative")


def test_cyclotomic_16_5_classes_are_latin():
    spec = am.spectral_decomposition(am.gen_cyclotomic(am.CyclotomicSpec(q=16, d=5)))
    for i in range(1, 6):
        assert am.srg_info(spec, i).latin == am.LatinInfo(n=4, t=1, sign="positive")


def test_paley13_srg_but_not_latin():
    spec = am.spectral_decomposition(am.gen_cyclotomic(am.CyclotomicSpec(q=13, d=2)))
    info = am.srg_info(spec, 1)
    assert info.strongly_regular and info.latin is None  # 13 is not a square


def test_complete_scheme_class_degenerate():
    spec = am.spectral_decomposition(am.gen_complete(6))
    info = am.srg_info(spec, 1)
    assert info.degenerate and not info.strongly_regular


def test_latin_typing_matches_the_search_reference(spectral_schemes):
    """On every class of the corpus, the six ``oracle`` schemes and
    net(27; 1^28), the closed-form Latin typing is the search's, with
    Python ints; both signs occur."""
    signs = []
    for name, scheme in spectral_schemes:
        spec = am.spectral_decomposition(scheme)
        for i in range(1, scheme.d + 1):
            latin = am.srg_info(spec, i).latin
            assert latin == latin_by_search(spec, i), (name, i)
            if latin is not None:
                assert type(latin.n) is int and type(latin.t) is int
                signs.append(latin.sign)
    assert (signs.count("positive"), signs.count("negative")) == (160, 3)


def _spectrum(r, k, lo, hi):
    """A d = 2 spectrum on v = r^2 points whose class 1 has valency k and
    restricted eigenvalues lo and hi, and class 2 the complement's; only
    what ``srg_info`` reads is meaningful."""
    v = r * r
    P = np.array([[1, k, v - 1 - k], [1, lo, -1 - lo], [1, hi, -1 - hi]], dtype=float)
    return am.SpectralData(v=v, P=P, Q=P, valencies=(1, k, v - 1 - k), multiplicities=(1, 1, 1))


def test_latin_typing_matches_the_search_on_small_spectra():
    """On d = 2 spectra with v = r^2, r = 2..9, every integer pair lo < hi
    with hi - lo in r - 1..r + 1 and lo in -r - 2..r + 1, and class 1's
    valency within 1 of either Latin valency, -lo (r - 1) or hi (r + 1),
    both classes are typed as the search types them."""
    signs = []
    for r in range(2, 10):
        for lo in range(-r - 2, r + 2):
            for hi in range(lo + r - 1, lo + r + 2):
                for k in {k + dk for k in (-lo * (r - 1), hi * (r + 1)) for dk in (-1, 0, 1)}:
                    spec = _spectrum(r, k, lo, hi)
                    for i in (1, 2):
                        latin = am.srg_info(spec, i).latin
                        assert latin == latin_by_search(spec, i), (r, k, lo, hi, i)
                        signs.append(latin and latin.sign)
    assert (signs.count("positive"), signs.count("negative")) == (164, 140)


# ----------------------------------------------------------- canonical form

def test_net9_coarse_grouping_certificate():
    scheme = am.gen_net_scheme(3, am.SlopeGrouping.from_groups(3, [[0, 1], [2], [3]]))
    cert = am.canonical_form_check(am.spectral_decomposition(scheme))
    assert cert is not None and cert.parameterized
    assert cert.n == 3 and sorted(cert.t) == [1, 1, 2]
    assert cert.sign == "positive"
    assert sorted(cert.distinguished_rows) == [1, 2, 3]


def test_clebsch_scheme_certificate_negative():
    scheme = am.gen_cyclotomic(am.CyclotomicSpec(q=16, d=3))
    cert = am.canonical_form_check(am.spectral_decomposition(scheme))
    assert cert is not None and cert.parameterized
    assert cert.n == -4 and set(cert.t) == {-1}
    assert cert.sign == "negative"


def test_hamming_has_no_canonical_form():
    for m in (3, 4, 5):
        spec = am.spectral_decomposition(am.gen_hamming_binary(m))
        assert am.canonical_form_check(spec) is None


def test_canonical_form_needs_three_classes():
    spec = am.spectral_decomposition(am.gen_complete(4))
    with pytest.raises(am.PreconditionFailed):
        am.canonical_form_check(spec)


def reference_certificate(spec):
    """``canonical_form_check`` with the entry-by-entry ``_canonical_on``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "_canonical_on", canonical_on_by_entries)
        return classify.canonical_form_check(spec)


def test_canonical_form_matches_entry_by_entry_reference(spectral_schemes):
    """On both principal parts of the corpus, the six ``oracle`` schemes
    and net(27; 1^28), the column grouping finds the reference's form, or
    its absence, and the certificates are identical."""
    for name, scheme in spectral_schemes:
        spec = am.spectral_decomposition(scheme)
        for which in "PQ":
            M = spec.principal(which)
            assert classify._canonical_on(M, TOL) == canonical_on_by_entries(M, TOL), (name, which)
        if scheme.d >= 3:
            assert am.canonical_form_check(spec) == reference_certificate(spec), name


@pytest.mark.parametrize("n, t, sign", [
    (3, (1, 1, 2), "positive"),
    (-4, (-1, -1, -1), "negative"),
    (3, (1, -1, 2), None),
    (-3, (-1, 1, -1), None),
    (-3, (1, 1, 1), None),
    (3, (0, 1, 1), None),
    (3, (1, 1, 1.5), None),
], ids=["positive", "negative", "mixed-t", "mixed-t-negative-n", "n-against-t", "zero-t",
        "fractional-t"])
def test_canonical_form_is_parameterized_by_one_sign(n, t, sign):
    """A principal part with b_j = n - t_j on a transversal and a_j = -t_j
    off it: the form is parameterized, with integer n and t, exactly when
    n and every t_j are integers of one nonzero sign."""
    d = len(t)
    P = np.eye(d + 1)
    P[1:, 1:] = -np.array(t, dtype=float) + n * np.eye(d)
    cert = am.canonical_form_check(am.SpectralData(
        v=16, P=P, Q=P, valencies=(1,) * (d + 1), multiplicities=(1,) * (d + 1)))
    assert (cert.which, cert.distinguished_rows) == ("P", (1, 2, 3))
    assert (cert.parameterized, cert.sign) == (sign is not None, sign)
    assert (cert.n, cert.t) == (n, t)
    assert all(type(x) is (int if sign else float) for x in (cert.n, *cert.t))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tolerance_grouping_matches_entry_by_entry_reference(spectral_schemes, data):
    """A principal part with its rows permuted and every entry moved by
    noise of 1e-9 (or 1e-8, where ties start to break): the canonical
    form, the certificate and each column's distinct values are the
    entry-by-entry reference's."""
    _, scheme = data.draw(st.sampled_from(spectral_schemes), label="scheme")
    spec = am.spectral_decomposition(scheme)
    which = data.draw(st.sampled_from("PQ"), label="which")
    rows = [0] + data.draw(st.permutations(range(1, scheme.d + 1)), label="rows")
    scale = data.draw(st.sampled_from([0.0, 1e-9, 1e-8]), label="scale")
    noise = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    E = getattr(spec, which)[rows]
    E[1:, 1:] += scale * noise.standard_normal((scheme.d, scheme.d))
    M = E[1:, 1:]
    assert classify._canonical_on(M, TOL) == canonical_on_by_entries(M, TOL)
    for j in range(scheme.d):
        assert classify._distinct(M[:, j], TOL) == distinct_by_entries(M[:, j], TOL)
    if scheme.d >= 3:
        moved = dataclasses.replace(spec, **{which: E})
        assert am.canonical_form_check(moved) == reference_certificate(moved)


# -------------------------------------------------------------- amorphicity

def test_amorphic_oracle_exhaustive():
    assert am.amorphic_oracle(am.gen_net_scheme(4, am.SlopeGrouping.singletons(4)))
    assert not am.amorphic_oracle(am.gen_hamming_binary(4))
    assert am.amorphic_oracle(am.gen_complete(5)) is True  # d = 1: no pairs to ask


def test_is_amorphic_cross_checks():
    v = am.is_amorphic(am.gen_net_scheme(4, am.SlopeGrouping.singletons(4)))
    assert v.amorphic and v.oracle_checked and v.certificate is not None
    v = am.is_amorphic(am.gen_hamming_binary(5))
    assert not v.amorphic and v.oracle_checked


def test_oracle_agrees_with_all_partitions_on_corpus(corpus):
    verdicts = []
    for name, scheme in corpus:
        verdict = am.amorphic_oracle(scheme)
        assert verdict == amorphic_by_all_partitions(scheme), name
        verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def test_oracle_agrees_with_single_merges(corpus):
    """The pair pass against the 2^d - d - 1 single merges, asked one at a
    time through the scalar exact oracle."""
    cases = [(f"corpus {name}", s) for name, s in corpus]
    cases += [(f"H({m},2)", am.gen_hamming_binary(m)) for m in range(1, 10)]
    cases += [(f"net({n}; {sizes})", net_with_group_sizes(n, sizes))
              for n, sizes in ((7, [1] * 8), (8, [2] + [1] * 7), (8, [1] * 9), (9, [1] * 10))]
    verdicts = []
    for name, scheme in cases:
        verdict = am.amorphic_oracle(scheme)
        assert verdict == amorphic_by_single_merges(scheme), name
        verdicts.append(verdict)
    assert max(s.d for _, s in cases) == 10
    assert any(verdicts) and not all(verdicts)


def _block_sum_conditions(d, H):
    """The block-sum conditions of merging H alone, as integer rows over
    the generic symmetric tensor: one unknown p_ij^h per nontrivial h and
    i <= j.  Row (I, J, h) says that sum_{i in I, j in J} p_ij^h equals
    the same sum at h = min H.  Sums over the block {0} give no rows:
    sum_{j in J} p_0j^h is 1 for h in J and 0 otherwise, constant on H."""
    col = {}
    for h in range(1, d + 1):
        for i in range(1, d + 1):
            for j in range(i, d + 1):
                col[i, j, h] = len(col)
    blocks = [tuple(H)] + [(k,) for k in range(1, d + 1) if k not in H]
    rows = set()
    for a, I in enumerate(blocks):
        for J in blocks[a:]:
            for h in H[1:]:
                row = [0] * len(col)
                for i in I:
                    for j in J:
                        row[col[min(i, j), max(i, j), h]] += 1
                        row[col[min(i, j), max(i, j), H[0]]] -= 1
                if any(row):
                    rows.add(tuple(row))
    return rows


def _combine(a, ca, b, cb):
    """ca * a - cb * b, divided by the gcd of its entries: fraction-free."""
    row = [ca * x - cb * y for x, y in zip(a, b)]
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _reduce(row, basis):
    """Remainder of ``row`` against a basis kept in fraction-free reduced
    echelon form, {pivot column: row}: zero at every pivot column."""
    row = list(row)
    for c, pivot in basis.items():
        if row[c]:
            row = _combine(row, pivot[c], pivot, row[c])
    return row


def _add(row, basis):
    row = _reduce(row, basis)
    c = next((k for k, x in enumerate(row) if x), None)
    if c is None:
        return
    for k, pivot in basis.items():
        if pivot[c]:
            basis[k] = _combine(pivot, row[c], row, pivot[c])
    basis[c] = row


@pytest.mark.parametrize("d, rank", [(3, 8), (4, 25), (5, 54), (6, 98), (7, 160)])
def test_pair_conditions_imply_every_merge(d, rank):
    """The lemma behind amorphic_oracle, in exact integer arithmetic on a
    generic symmetric intersection tensor: the block-sum conditions of the
    C(d, 2) pair merges span those of every larger single merge."""
    basis = {}
    for H in itertools.combinations(range(1, d + 1), 2):
        for row in _block_sum_conditions(d, H):
            _add(row, basis)
    assert len(basis) == rank
    larger = 0
    for r in range(3, d + 1):
        for H in itertools.combinations(range(1, d + 1), r):
            for row in _block_sum_conditions(d, H):
                larger += 1
                assert not any(_reduce(row, basis)), (H, row)
    assert larger > 0


def test_single_block_merges_decide_every_corpus_partition(corpus):
    """The lemma behind amorphic_oracle: when merging each nontrivial block
    of pi alone fuses, pi fuses."""
    checked = premise = 0
    for name, scheme in corpus:
        for pi in enumerate_partitions(scheme.d):
            checked += 1
            merges = [am.ClassPartition.merge(scheme.d, b) for b in pi.blocks if len(b) >= 2]
            if all(fuses(scheme, m) for m in merges):
                premise += 1
                assert fuses(scheme, pi), (name, str(pi))
    assert checked == 1993
    assert premise == 604


@pytest.mark.parametrize("n, sizes", [(7, [1] * 8), (8, [2] + [1] * 7)])
def test_d8_nets_are_amorphic_and_oracle_checked(n, sizes):
    verdict = am.is_amorphic(net_with_group_sizes(n, sizes))
    assert verdict.amorphic and verdict.oracle_checked and verdict.certificate is not None


def test_d9_net_is_oracle_checked():
    """Above the old d <= 8 ceiling the exact oracle still cross-checks."""
    verdict = am.is_amorphic(net_with_group_sizes(8, [1] * 9))
    assert verdict.amorphic and verdict.oracle_checked and verdict.certificate is not None


def test_d14_net_is_oracle_checked():
    """The pair oracle cross-checks net n = 13 (d = 14)."""
    scheme = net_with_group_sizes(13, [1] * 14)
    assert scheme.d == 14
    verdict = am.is_amorphic(scheme)
    assert verdict.amorphic and verdict.oracle_checked and verdict.certificate is not None


@pytest.mark.parametrize("build, amorphic", [
    (lambda: net_with_group_sizes(16, [1] * 17), True),
    (lambda: net_with_group_sizes(27, [1] * 28), True),
    # Z_2^4 with every nonzero element its own class: thin, not amorphic
    (lambda: am.gen_cyclotomic(am.CyclotomicSpec(q=16, d=15)), False),
], ids=["net16-d17", "net27-d28", "cyclotomic16-d15"])
def test_is_amorphic_is_oracle_checked_above_d14(build, amorphic):
    verdict = am.is_amorphic(build())
    assert verdict.amorphic == amorphic and verdict.oracle_checked
    assert (verdict.certificate is not None) == amorphic


# Measured peak: 37.4 MB on net n = 27 (d = 28, 378 pairs; numpy 2.4, 64
# merges per stack).  The product array alone for all 378 pairs in one
# stack would be about 72 MB.
ORACLE_PEAK_BOUND_MB = 48.0


def test_oracle_memory_is_flat_at_d28():
    import tracemalloc
    scheme = net_with_group_sizes(27, [1] * 28)
    am.spectral_decomposition(scheme)
    scheme.intersection
    tracemalloc.start()
    try:
        assert am.amorphic_oracle(scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ORACLE_PEAK_BOUND_MB * 1e6, peak


# Measured peaks at v = 1024, in units of v^2 bytes (numpy 2.4): 4.6 to
# generate net(32; 1^33) and 13.3 to validate a relabelled H(10,2), whose
# one v x v float64 array is the packed products' BLAS operand.  With int64
# labels and whole-matrix int64 keys they were 43.6 and 33.0.
GENERATION_PEAK_BOUND = 8
VALIDATION_PEAK_BOUND = 16


def test_v1024_generation_and_validation_peaks_are_bounded():
    import tracemalloc
    v = 1024
    hamming = am.gen_hamming_binary(10)
    perm = np.random.default_rng(5).permutation(v)
    relabelled = np.ascontiguousarray(hamming.labels[perm][:, perm])
    for bound, build in (
            (GENERATION_PEAK_BOUND, lambda: net_with_group_sizes(32, [1] * 33)),
            (VALIDATION_PEAK_BOUND, lambda: am.validate_scheme(relabelled))):
        tracemalloc.start()
        try:
            assert build().v == v
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * v ** 2, peak / v ** 2


def test_h10_idempotents_and_krein_peak_is_bounded():
    """The idempotent basis and the Krein parameters of H(10,2), v = 1024,
    are read off the 11 x 11 class values: together they peak under
    1 MiB, where 11 dense 1024 x 1024 float64 E_j took 88 MiB."""
    import tracemalloc
    scheme = am.gen_hamming_binary(10)
    am.spectral_decomposition(scheme)
    tracemalloc.start()
    try:
        q = am.krein_parameters(scheme, am.idempotents(scheme)).q
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.shape == (11, 11, 11)
    assert peak < 2 ** 20, peak


def test_verifier_holds_only_triple_types():
    """The verifier types each of the 680 fusing triples of net(16; 1^17) as
    the pass yields it and holds only the types, 0.40 MiB; the triples'
    dual partitions would hold 0.74 MiB."""
    import tracemalloc
    scheme = net_with_group_sizes(16, [1] * 17)
    am.spectral_decomposition(scheme)
    tracemalloc.start()
    try:
        types = classify._triple_types(scheme, TOL)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(types) == am.enumerate_fusing_tuples(scheme, 3)
    assert all(type(ty) is fusion.TripleType for ty in types.values())
    assert held < 0.55 * 2 ** 20, held


def test_is_amorphic_raises_when_the_two_answers_differ(monkeypatch):
    """A canonical form the oracle rejects, or a missing form on a scheme
    the oracle accepts, raises OracleDisagreement naming both answers."""
    net = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))  # amorphic
    cert = classify.canonical_form_check(am.spectral_decomposition(net))
    cases = [(net, None, "amorphic=False, exhaustive oracle says True"),
             (am.gen_hamming_binary(3), cert, "amorphic=True, exhaustive oracle says False")]
    for scheme, forced, message in cases:
        monkeypatch.setattr(classify, "canonical_form_check", lambda spec: forced)
        with pytest.raises(am.OracleDisagreement, match=message):
            am.is_amorphic(scheme)


def test_is_amorphic_raises_when_a_low_class_scheme_fails_the_oracle(monkeypatch):
    monkeypatch.setattr(classify, "amorphic_oracle", lambda scheme, tol: False)
    with pytest.raises(am.OracleDisagreement, match="d <= 2 scheme failed the vacuous oracle"):
        am.is_amorphic(am.gen_cyclotomic(am.CyclotomicSpec(q=5, d=2)))


def test_is_amorphic_clebsch():
    assert am.is_amorphic(am.gen_cyclotomic(am.CyclotomicSpec(q=16, d=3))).amorphic


def test_low_class_schemes_amorphic_by_convention():
    for scheme in (am.gen_complete(5),
                   am.gen_cyclotomic(am.CyclotomicSpec(q=5, d=2))):
        v = am.is_amorphic(scheme)
        assert v.amorphic and v.oracle_checked and v.certificate is None


# -------------------------------------------------- distinguished 4-class form

def _fake_spec(P):
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    return am.SpectralData(
        v=int(P[0].sum()), P=P, Q=np.eye(n),
        valencies=tuple(P[0]), multiplicities=(1,) * n)


def test_ephemeral_pattern_positive():
    # the shape with one distinguished column and a 3x3 two-level block,
    # rows and columns deliberately shuffled
    base = np.array([
        [1, 6, 4, 4, 4],
        [1, 2, 1, 1, 1],
        [1, -2, -3, -3, 1],
        [1, -2, -3, 1, -3],
        [1, -2, 1, -3, -3],
    ], dtype=float)
    rows = [0, 3, 1, 4, 2]
    cols = [0, 2, 1, 4, 3]
    shuffled = base[rows][:, cols]
    hit = am.ephemeral_form_check(_fake_spec(shuffled))
    assert hit is not None
    assert hit.k1 == 6 and hit.k2 == 4
    assert (hit.b1, hit.a1, hit.b2, hit.a2) == (2, -2, -3, 1)


def test_ephemeral_pattern_negative_on_hamming4():
    spec = am.spectral_decomposition(am.gen_hamming_binary(4))
    assert am.ephemeral_form_check(spec) is None


def test_ephemeral_pattern_wrong_class_count():
    with pytest.raises(am.WrongClassCount):
        am.ephemeral_form_check(am.spectral_decomposition(am.gen_hamming_binary(3)))


# ---------------------------------------------------------------- row lemma

def test_row_lemma_on_corpus_principal_parts():
    for scheme in (am.gen_hamming_binary(4),
                   am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))):
        spec = am.spectral_decomposition(scheme)
        import itertools
        for which in ("P", "Q"):
            M = spec.principal(which)
            for r in range(2, scheme.d + 1):
                for rows in itertools.combinations(range(scheme.d), r):
                    assert am.row_lemma_check(M, rows)


def test_row_lemma_detects_failure():
    M = np.array([[1, 1, 5], [1, 1, 7]], dtype=float)  # only 1 non-constant column
    assert not am.row_lemma_check(M, [0, 1])


def test_row_lemma_needs_two_rows():
    with pytest.raises(am.PreconditionFailed):
        am.row_lemma_check(np.eye(3), [0])


@pytest.mark.parametrize("rows", [[0, 0], [-1, 0], [0, 3], [0, 5]],
                         ids=["repeated", "negative", "one-past-end", "out-of-range"])
def test_row_lemma_rejects_bad_rows(rows):
    """A repeated or out-of-range row is a malformed request: it neither
    falsifies the theory nor wraps around to the last row."""
    with pytest.raises(am.PreconditionFailed, match="not distinct rows in 0..2"):
        am.row_lemma_check(np.eye(3), rows)


def _row_lemma_by_scalars(M, rows):
    """Test-side reference: the non-constant columns counted entry by entry
    with Tolerance.close against the subset's first row."""
    nonconstant = sum(not all(TOL.close(M[r, j], M[rows[0], j]) for r in rows[1:])
                      for j in range(M.shape[1]))
    return nonconstant >= len(rows)


def test_row_subset_table_holds_each_subset_once():
    """The per-d table holds each row subset of sizes 2..d once, by size and
    then in combinations order, so each row's first member is its least;
    it is cached read-only."""
    for d in range(2, 7):
        member = classify._row_subsets(d)
        assert member.dtype == bool and not member.flags.writeable
        assert [tuple(np.flatnonzero(row)) for row in member] == [
            rows for r in range(2, d + 1) for rows in itertools.combinations(range(d), r)], d
        assert classify._row_subsets(d) is member
    assert classify._row_subsets(6).shape == (57, 6)


def test_batched_row_lemma_matches_single_subsets(corpus):
    """Every subset of sizes 2..d, answered in one pass over the per-d
    table, gets the answers of row_lemma_check and of the scalar reference,
    on every principal part of the corpus and on a crafted M that fails."""
    crafted = np.array([[1, 1, 5], [1, 1, 7], [2, 1 + 1e-9, 5]], dtype=float)
    parts = [(name, spec.principal(which)) for name, scheme in corpus
             for spec in [am.spectral_decomposition(scheme)] for which in ("P", "Q")]
    failed = []
    for name, M in parts + [("crafted", crafted)]:
        member = classify._row_subsets(M.shape[0])
        got = classify._row_lemma_holds(TOL.isclose(M[:, None, :], M[None, :, :]), member).tolist()
        subsets = [np.flatnonzero(row).tolist() for row in member]
        assert got == [am.row_lemma_check(M, rows) for rows in subsets], name
        assert got == [_row_lemma_by_scalars(M, rows) for rows in subsets], name
        failed += [(name, rows) for rows, ok in zip(subsets, got) if not ok]
    # the crafted M fails on {0, 1}, {0, 2} and {0, 1, 2}, and no corpus part fails
    assert failed == [("crafted", [0, 1]), ("crafted", [0, 2]), ("crafted", [0, 1, 2])]


# ------------------------------------------------------------ claim verifier

def test_verify_claims_amorphic_net():
    report = am.verify_paper_claims(am.gen_net_scheme(4, am.SlopeGrouping.singletons(4)))
    assert not report.falsified
    by_name = {r.claim: r for r in report.records}
    for name in ("two_sunflowers_imply_amorphic",
                 "complete_3hypergraph_implies_amorphic",
                 "sunflower_core_fuses",
                 "contraction", "triple_types", "row_lemma", "overlap_cases"):
        assert by_name[name].applicable and by_name[name].verified, name
    assert by_name["overlap_cases"].witness == "I.3"


def test_verify_claims_computes_the_verdict_once(monkeypatch):
    import amorphic.classify as classify
    calls = []
    real = classify.is_amorphic

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(classify, "is_amorphic", counted)
    report = am.verify_paper_claims(am.gen_net_scheme(4, am.SlopeGrouping.singletons(4)))
    by_name = {r.claim: r for r in report.records}
    uses = [name for name in ("two_sunflowers_imply_amorphic",
                              "complete_3hypergraph_implies_amorphic",
                              "dual_two_sunflowers_imply_amorphic",
                              "dual_complete_3hypergraph_implies_amorphic")
            if by_name[name].applicable]
    assert len(uses) >= 2 and all(by_name[name].verified for name in uses)
    assert len(calls) == 1


def _claims_with_a_fixed_verdict(monkeypatch, scheme):
    """verify_paper_claims with the amorphicity verdict stubbed as True, so
    that the pair merges it would ask are not asked."""
    monkeypatch.setattr(classify, "is_amorphic",
                        lambda scheme, tol: classify.AmorphicVerdict(True, None, True))
    return {r.claim: r for r in am.verify_paper_claims(scheme).records}


def test_sunflower_cores_are_asked_in_one_stack(monkeypatch):
    """Claim (c) asks all ten cores of the d = 5 net in one pass of pair
    merges, which decides them in one stack, and a flipped answer of either
    kernel on a core still raises."""
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    asked, stacks = [], []
    real, real_stacks = classify._decide_merges, fusion._merge_stacks

    def spy(scheme, merges, tol):
        asked.append(list(merges))
        yield from real(scheme, asked[-1], tol)

    def spy_stacks(d, merges):
        for chunk, *rest in real_stacks(d, merges):
            stacks.append((d, chunk))
            yield (chunk, *rest)

    monkeypatch.setattr(classify, "_decide_merges", spy)
    monkeypatch.setattr(fusion, "_merge_stacks", spy_stacks)
    claim = _claims_with_a_fixed_verdict(monkeypatch, scheme)["sunflower_core_fuses"]
    assert claim.applicable and claim.verified
    assert asked == [_pairs(5)]
    # the pair merges of 1..5: no other pass asks them with the verdict fixed
    assert [chunk for d, chunk in stacks if d == 5 and len(chunk[0]) == 2] == [_pairs(5)]
    core = am.ClassPartition.merge(5, (2, 4))
    for kernel in ("_stacked_block_sums", "_stacked_row_sum"):
        fresh = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
        with monkeypatch.context() as mp:
            _flip_one(mp, kernel, core)
            with pytest.raises(am.OracleDisagreement, match=re.escape(f"accepts {core} but")):
                _claims_with_a_fixed_verdict(mp, fresh)


def _pairs(d):
    return list(itertools.combinations(range(1, d + 1), 2))


def test_verify_claims_types_each_triple_once(monkeypatch):
    """Claims (f) and (h) read each fusing triple's type once, off the dual
    partition from the verifier's pass over the triples, and run no
    row-sum criterion of their own."""
    import amorphic.classify as classify
    import amorphic.fusion as fusion
    typed, criterion = [], []
    real_type, real_bm = classify._triple_type, fusion.bm_check

    def counted_type(leaders, T):
        typed.append(T)
        return real_type(leaders, T)

    def counted_bm(*args, **kwargs):
        criterion.append(args)
        return real_bm(*args, **kwargs)

    monkeypatch.setattr(classify, "_triple_type", counted_type)
    monkeypatch.setattr(fusion, "bm_check", counted_bm)
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    report = am.verify_paper_claims(scheme)
    by_name = {r.claim: r for r in report.records}
    assert by_name["triple_types"].verified and by_name["overlap_cases"].verified
    assert sorted(typed) == am.enumerate_fusing_tuples(scheme, 3)
    assert len(typed) == 10 and criterion == []


def test_verifier_bookkeeping_is_small_at_d33(monkeypatch):
    """With all C(33, 3) triples fusing and every witness stubbed, what the
    verifier itself holds, the map from 2-subsets to triples, the outside
    classes and the answers, peaks under 8 MiB (a list of the 163,680
    contraction pairs and the 245,520 overlapping pairs alone held 25 MiB)."""
    import tracemalloc
    from types import SimpleNamespace
    d = 33
    types = {T: am.TripleType(kind=1, sets=(frozenset(T),))  # the I.3 overlaps of a net
             for T in itertools.combinations(range(1, d + 1), 3)}
    asked = []

    def contractions(scheme, outside, tol):
        asked.append(sum(map(len, outside.values())))
        return ((T, [True] * len(ells)) for T, ells in outside.items())

    vertices = tuple(range(1, d + 1))
    monkeypatch.setattr(classify, "spectral_decomposition", lambda scheme, tol: None)
    monkeypatch.setattr(classify, "_triple_types", lambda scheme, tol: types)
    monkeypatch.setattr(classify, "_contractions", contractions)
    monkeypatch.setattr(classify, "is_amorphic",
                        lambda scheme, tol: classify.AmorphicVerdict(True, None, True))
    monkeypatch.setattr(classify, "_dual_merges", lambda scheme, k, tol: iter(()))
    tracemalloc.start()
    try:
        report = am.verify_paper_claims(SimpleNamespace(d=d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    by_name = report.as_dict()
    assert asked == [math.comb(d, 3) * (d - 3)]
    assert by_name["two_sunflowers_imply_amorphic"]["witness"] == f"{math.comb(d, 2)} cores"
    assert by_name["complete_3hypergraph_implies_amorphic"]["witness"] == "5456 edges"
    assert by_name["overlap_cases"] == {"applicable": True, "verified": True, "witness": "I.3"}
    assert peak < 8 * 2 ** 20, peak / 2 ** 20


def test_untyped_overlapping_triple_fails_the_overlap_claim(monkeypatch):
    """A fusing triple with neither dual shape fails claim (f), and every
    overlapping pair through it fails claim (h): it is not skipped."""
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    real = classify._triple_types
    monkeypatch.setattr(classify, "_triple_types",
                        lambda scheme, tol: {**real(scheme, tol), (1, 2, 3): None})
    claims = _claims_with_a_fixed_verdict(monkeypatch, scheme)
    assert claims["triple_types"].applicable and not claims["triple_types"].verified
    overlap = claims["overlap_cases"]
    assert overlap.applicable and not overlap.verified and overlap.witness == "I.3"
    one = am.TripleType(kind=1, sets=(frozenset({1, 2, 3}),))
    assert fusion._overlap_labels({(2, 3): [(1, 2, 3), (2, 3, 4)]},
                                  {(1, 2, 3): None, (2, 3, 4): one}) == {None}


def _read_bm_check_duals(corpus, monkeypatch):
    """Verify every corpus scheme with d >= 3 and check that the triples
    the verifier reads are the enumeration's, each dual partition it hands
    to claim (f) is bm_check's, and each fused eigenmatrix witness B
    derives is bm_check's; afterwards the scheme holds only its labels,
    valencies, tensor and spectra.  Returns how many triples were read
    and how many eigenmatrices compared."""
    seen, derived = [], []
    real, real_check = classify._fusing_triples, fusion._check_characters

    def spy(scheme, tol):
        for T, leaders in real(scheme, tol):
            seen.append((T, leaders))
            yield T, leaders

    def spy_check(T, p, k, P, v, tol):
        derived.append((T, P))
        real_check(T, p, k, P, v, tol)

    monkeypatch.setattr(classify, "_fusing_triples", spy)
    monkeypatch.setattr(fusion, "_check_characters", spy_check)
    checked = compared = 0
    for name, scheme in corpus:
        if scheme.d < 3:
            continue
        seen.clear()
        derived.clear()
        am.verify_paper_claims(scheme)
        assert sorted(vars(scheme)) == ["_intersection", "_spectra", "label_matrix", "valencies"]
        assert [T for T, _ in seen] == am.enumerate_fusing_tuples(scheme, 3), name
        spec = am.spectral_decomposition(scheme)
        for T, leaders in seen:
            rho = fusion._partition_of(leaders)
            assert rho == am.bm_check(spec, am.ClassPartition.merge(scheme.d, T)).rho, (name, T)
        for T, P in derived:
            ref = am.bm_check(spec, am.ClassPartition.merge(scheme.d, T))
            assert np.array_equal(P, ref.P_fused), (name, T)
        checked += len(seen)
        compared += len(derived)
    return checked, compared


def test_verifier_reads_bm_check_duals(corpus, monkeypatch):
    """On the exhaustive path (every class a block of its own), witness B
    derives the eigenmatrix of every contraction triple, and each is
    bm_check's, as is each dual partition the verifier reads."""
    monkeypatch.setattr(fusion, "_transposition_blocks", singleton_blocks)
    checked, compared = _read_bm_check_duals(corpus, monkeypatch)
    assert checked > 50 and compared > 50


def test_verifier_reads_bm_check_duals_on_orbits(corpus, monkeypatch):
    """On the orbit path witness B derives one eigenmatrix per orbit of
    contraction triples, 15 over the corpus against 80 triples, and each
    is still bm_check's."""
    checked, compared = _read_bm_check_duals(corpus, monkeypatch)
    assert checked > 50 and compared == 15


def test_verify_claims_dual_side_at_d9():
    """Claim (d) applies above the old partition limit, with no note."""
    report = am.verify_paper_claims(net_with_group_sizes(8, [1] * 9))
    assert not report.falsified
    by_name = {r.claim: r for r in report.records}
    for name in ("dual_two_sunflowers_imply_amorphic",
                 "dual_complete_3hypergraph_implies_amorphic"):
        assert by_name[name].applicable and by_name[name].verified, name
        assert by_name[name].witness == "", name


def test_verify_claims_on_two_triples_sharing_one_class():
    """H(2,2) x H(2,2), d = 8, is not amorphic and has two fusing triples,
    (1, 4, 7) and (3, 4, 5), that share one class and no 2-subset: no
    class outside a triple completes a second one through a 2-subset of
    it, so no contraction pair is admissible and the claim does not
    apply; a rule that took every class of every other triple would ask
    four pairs, and merging (1, 4, 7) with 3 does not fuse."""
    scheme = hamming_square_product()
    assert scheme.valencies == (1, 2, 1, 2, 4, 2, 1, 2, 1)
    assert not am.is_amorphic(scheme).amorphic
    types = classify._triple_types(scheme, TOL)
    assert list(types) == [(1, 4, 7), (3, 4, 5)]
    assert fusion._outside(types, fusion._triples_through(types)) == {}
    assert not fuses(scheme, am.ClassPartition.merge(8, (1, 3, 4, 7)))
    report = am.verify_paper_claims(scheme)
    assert not report.falsified
    assert {name: (r["applicable"], r["witness"]) for name, r in report.as_dict().items()} == {
        "two_sunflowers_imply_amorphic": (False, "0 cores"),
        "complete_3hypergraph_implies_amorphic": (False, "2 edges"),
        "sunflower_core_fuses": (False, ""),
        "dual_two_sunflowers_imply_amorphic": (False, ""),
        "dual_complete_3hypergraph_implies_amorphic": (False, ""),
        "contraction": (False, "0 admissible pairs"),
        "triple_types": (True, "2 fusing triples"),
        "row_lemma": (False, ""),
        "overlap_cases": (False, "")}


def test_verify_claims_hamming5():
    report = am.verify_paper_claims(am.gen_hamming_binary(5))
    assert not report.falsified
    by_name = {r.claim: r for r in report.records}
    assert by_name["triple_types"].applicable and by_name["triple_types"].verified
    assert not by_name["two_sunflowers_imply_amorphic"].applicable


def test_claim_report_as_dict_round_trips():
    report = am.verify_paper_claims(am.gen_hamming_binary(3))
    d = report.as_dict()
    assert set(d) == {r.claim for r in report.records}
    for rec in report.records:
        assert d[rec.claim]["verified"] == rec.verified


def mapped_cores(witness, perm):
    """The cores of a ``sunflower_core_fuses`` witness, each mapped through
    the class permutation ``perm`` and sorted, in sorted order."""
    cores = ast.literal_eval(witness.removeprefix("cores "))
    return sorted(tuple(sorted(int(perm[c]) for c in core)) for core in cores)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_claims_are_invariant_under_relabelling(corpus, data):
    """A random point permutation of a corpus scheme with d >= 3 leaves the
    claim report as it is; a random class permutation fixing 0 keeps every
    claim's applicability, verdict and witness, with the sunflower cores
    mapped through the permutation."""
    schemes = [scheme for _, scheme in corpus if scheme.d >= 3]
    scheme = data.draw(st.sampled_from(schemes), label="scheme")
    expected = am.verify_paper_claims(scheme).as_dict()

    points = np.array(data.draw(st.permutations(range(scheme.v)), label="points"))
    moved = am.validate_scheme(scheme.labels[np.ix_(points, points)])
    assert am.verify_paper_claims(moved).as_dict() == expected

    perm = np.array([0] + data.draw(st.permutations(range(1, scheme.d + 1)), label="classes"))
    report = am.verify_paper_claims(am.validate_scheme(perm[scheme.labels])).as_dict()
    assert report.keys() == expected.keys()
    for claim, record in report.items():
        want = expected[claim]
        if claim == "sunflower_core_fuses" and want["applicable"]:
            assert mapped_cores(record["witness"], range(scheme.d + 1)) == \
                mapped_cores(want["witness"], perm)
            record, want = {**record, "witness": ""}, {**want, "witness": ""}
        assert record == want, claim
