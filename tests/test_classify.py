"""SRG typing, canonical form, amorphicity, the distinguished 4-class
eigenmatrix pattern, the row lemma, and the per-scheme claim verifier."""

import ast
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amorphic as am
import amorphic.classify as classify
from amorphic.fusion import fuses
from conftest import (
    amorphic_by_all_partitions,
    amorphic_by_single_merges,
    enumerate_partitions,
    net_with_group_sizes,
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


def test_batched_row_lemma_matches_single_subsets(corpus):
    """All subsets of one size, read off one closeness tensor, get the
    answers of row_lemma_check and of the scalar reference, on every
    principal part of the corpus and on a crafted M that fails."""
    crafted = np.array([[1, 1, 5], [1, 1, 7], [2, 1 + 1e-9, 5]], dtype=float)
    parts = [(name, spec.principal(which)) for name, scheme in corpus
             for spec in [am.spectral_decomposition(scheme)] for which in ("P", "Q")]
    failures = 0
    for name, M in parts + [("crafted", crafted)]:
        close = TOL.isclose(M[:, None, :], M[None, :, :])
        for r in range(2, M.shape[0] + 1):
            subsets = np.array(list(itertools.combinations(range(M.shape[0]), r)))
            got = classify._row_lemma_holds(close, subsets).tolist()
            assert got == [am.row_lemma_check(M, rows) for rows in subsets.tolist()], (name, r)
            assert got == [_row_lemma_by_scalars(M, rows) for rows in subsets.tolist()], (name, r)
            failures += got.count(False)
    # the crafted M fails on {0, 1}, {0, 2} and {0, 1, 2}, and no corpus part fails
    assert failures == 3


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
    """Claim (c) asks all ten cores of the d = 5 net as one stack of pair
    merges, and a flipped answer of either kernel on a core still raises."""
    scheme = am.gen_net_scheme(4, am.SlopeGrouping.singletons(4))
    stacks = []
    real = classify._decide_merges

    def spy(scheme, merges, tol):
        for stack in real(scheme, merges, tol):
            stacks.append(stack[0])
            yield stack

    monkeypatch.setattr(classify, "_decide_merges", spy)
    claim = _claims_with_a_fixed_verdict(monkeypatch, scheme)["sunflower_core_fuses"]
    assert claim.applicable and claim.verified
    assert stacks == [_pairs(5)]
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
    that the triple enumeration kept, and run no row-sum criterion of their
    own."""
    import amorphic.classify as classify
    import amorphic.fusion as fusion
    typed, criterion = [], []
    real_type, real_bm = classify._triple_type, fusion.bm_check

    def counted_type(dual, T):
        typed.append(T)
        return real_type(dual, T)

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


def test_verify_claims_dual_side_at_d9():
    """Claim (d) applies above the old partition limit, with no note."""
    report = am.verify_paper_claims(net_with_group_sizes(8, [1] * 9))
    assert not report.falsified
    by_name = {r.claim: r for r in report.records}
    for name in ("dual_two_sunflowers_imply_amorphic",
                 "dual_complete_3hypergraph_implies_amorphic"):
        assert by_name[name].applicable and by_name[name].verified, name
        assert by_name[name].witness == "", name


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
