"""A fixed catalogue of mutations of the library, each with the tests that
must kill it: the record of what the two oracles, the two witnesses and
their tests catch.

Run from anywhere:  python3 tools/mutants.py

First the named tests of every entry run on an unmutated copy and must
pass, or nothing else runs.  Then, for each entry, the script copies
``src/``, ``tests/`` and ``pyproject.toml`` into a new temporary
directory, replaces one exact snippet of one file by its mutation, and
runs pytest there on the entry's named tests only (stopping at the first
failure, BLAS threads 1, the copy's ``src/`` first on the path).  The
mutant is killed when pytest reports a failed test (exit status 1) and
survives when every named test passes; any other pytest status (a test
id that no longer exists, a collection error) is reported as an error.
A pytest run is stopped after TIMEOUT seconds: a mutant whose tests do
not finish by then (one that loops forever) counts as killed and is
reported as timed out, and an unmutated run that does not finish stops
the script.
A snippet that does not occur exactly once in its file is reported as
stale and runs nothing.  The exit status is 0 only when every mutant is
killed.

It uses only the standard library and pytest, and is not part of the test
suite (pytest collects ``tests/`` only).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 60  # seconds per pytest run


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    snippet: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


CATALOGUE = (
    # Witness B of the contraction claim (fusion._decide_contracted): each
    # asked triple's eigenmatrix read off the merge of the triple before it
    # in ``outside`` (the last one, for the first), a fused eigenmatrix of
    # another fusing triple
    Mutant("witness-b-neighbouring-P", "src/amorphic/fusion.py",
           "        _, stack = next(_merge_stacks(d, [T]))\n",
           "        _, stack = next(_merge_stacks(d, [list(outside)[list(outside).index(T) - 1]]))\n",
           ("tests/test_fusion.py::test_witness_b_inputs_match_fused_schemes",
            "tests/test_fusion.py::test_batched_contraction_matches_relabeling",
            "tests/test_classify.py::test_verifier_reads_bm_check_duals")),
    Mutant("witness-b-no-character-check", "src/amorphic/fusion.py",
           "        _check_characters(T, p, k_fused, P, scheme.v, tol)\n",
           "",
           ("tests/test_fusion.py::test_witness_b_rejects_a_wrong_eigenmatrix",
            "tests/test_fusion.py::test_witness_b_rejects_a_fold_off_by_one")),
    # check 3 of each row at class a read off the tensor's slice at a - 1
    Mutant("character-check-neighbouring-class", "src/amorphic/fusion.py",
           "p @ P.T",
           "np.roll(p, 1, axis=0) @ P.T",
           ("tests/test_fusion.py::test_witness_b_inputs_match_fused_schemes",
            "tests/test_fusion.py::test_batched_contraction_matches_relabeling")),
    # the two rows of a contracted eigenmatrix with n = 2 (a triple of a
    # d = 3 parent) differ in the last column alone
    Mutant("character-check-columns-short", "src/amorphic/fusion.py",
           "tol.isclose(P[later], P[earlier]).all(axis=1)",
           "tol.isclose(P[later, :-1], P[earlier, :-1]).all(axis=1)",
           ("tests/test_fusion.py::test_witness_b_inputs_match_fused_schemes",
            "tests/test_fusion.py::test_batched_contraction_matches_relabeling")),
    # each triple's pairs asked on the contracted scheme of the triple
    # before it in ``outside`` (the last one, for the first): its folded
    # tensor and its eigenmatrix, which pass the character check together;
    # every admissible pair of the corpus fuses on either, so only a scheme
    # whose pairs also answer no (H(2,2) x H(2,2), every class outside each
    # triple) tells
    Mutant("witness-b-previous-triple", "src/amorphic/fusion.py",
           "        _, stack = next(_merge_stacks(d, [T]))\n"
           "        fused, lead = _stacked_row_sum(parent_P, stack, tol)\n"
           "        if not fused[0]:\n"
           "            raise OracleDisagreement(f\"contraction of {set(T)}: \"\n"
           "                                     f\"the parent's eigenmatrix does not fuse the triple\")\n"
           "        P = _fused_eigenmatrix(parent_P, stack.S[0], lead[0], tol)\n"
           "        p, k_fused = _contracted_tensor(T, counts, k)\n",
           "        U = list(outside)[list(outside).index(T) - 1]\n"
           "        _, stack = next(_merge_stacks(d, [U]))\n"
           "        fused, lead = _stacked_row_sum(parent_P, stack, tol)\n"
           "        P = _fused_eigenmatrix(parent_P, stack.S[0], lead[0], tol)\n"
           "        p, k_fused = _contracted_tensor(U, counts, k)\n",
           ("tests/test_fusion.py::test_witness_b_answers_every_outside_class",)),
    Mutant("fold-skips-remainder-check", "src/amorphic/fusion.py",
           "    fraction = p != np.rint(p)\n",
           "    fraction = np.zeros_like(p, dtype=bool)\n",
           ("tests/test_fusion.py::test_witness_b_rejects_a_fold_off_by_one[count-not-whole]",)),
    # the fold's class map leaves T[2] out of the merge: it lands on the
    # class above it, or past the last class when T[2] = d
    Mutant("fold-leaves-third-class-unmerged", "src/amorphic/fusion.py",
           "    c[[T[1], T[2]]] = T[0]\n",
           "    c[T[1]] = T[0]\n",
           ("tests/test_fusion.py::test_witness_b_inputs_match_fused_schemes",)),
    # The orbits of the contraction witnesses (fusion._transposition_blocks,
    # fusion._walk_orbits): a join without the exact test joins every
    # class to the first nontrivial one.
    Mutant("transposition-joined-unchecked", "src/amorphic/fusion.py",
           "            if (t.take(swap, axis=0).take(swap, axis=1).take(swap, axis=2) == t).all():\n",
           "            if True:\n",
           ("tests/test_fusion.py::test_transposition_blocks_match_the_pairwise_reference",
            "tests/test_fusion.py::test_contraction_orbits_match_the_exhaustive_path")),
    # a pair's key without ell's block merges the orbits of one triple's
    # pairs, so each witness asks one question where it should ask several;
    # the merged orbits of these schemes answer alike, so only the count tells
    Mutant("pair-orbit-drops-ell-block", "src/amorphic/fusion.py",
           "        blocks = [block[ell] for ell in ells]\n",
           "        blocks = [0 for ell in ells]\n",
           ("tests/test_fusion.py::test_contraction_asks_the_first_question_of_each_orbit",)),
    # The verifier counts the contraction pairs off each triple's answers.
    Mutant("contraction-counts-triples", "src/amorphic/classify.py",
           "        pairs += len(answers)\n",
           "        pairs += 1\n",
           ("tests/test_cli.py::test_corpus_run_is_byte_identical",)),
    # The verifier's fusing triples (fusion._fusing_triples) and their
    # types, read off the leaders fusion._decide_merges yields with each
    # answer.
    Mutant("fusing-triples-previous-rho", "src/amorphic/fusion.py",
           "        yield from zip(chunk, fused.tolist(), lead)\n",
           "        yield from zip(chunk, fused.tolist(), np.roll(lead, 1, axis=0))\n",
           ("tests/test_classify.py::test_verifier_reads_bm_check_duals",
            "tests/test_classify.py::test_verify_claims_types_each_triple_once")),
    # The idempotent side (fusion._dual_merges): each edge Q's row sums
    # propose is confirmed by both oracles on the scheme's P.
    Mutant("dual-merges-unconfirmed", "src/amorphic/fusion.py",
           "        found, found_lead = _reconcile(scheme.intersection.p, spec.P, _stack(idx[ask]), tol, own_P)\n",
           "        found, found_lead = fused[ask], stack.rep[ask]\n",
           ("tests/test_hypergraph.py::test_idempotent_side_disagreement_is_fatal",)),
    # Q's stacks read P's own-column table: the row pairs apart in P's
    # columns, not Q's.  The table is handed over from a pass's second
    # stack on (more than 64 triples, d >= 9), and on the schemes tried the
    # edges came out the same, so the test checks the table itself.
    Mutant("own-columns-of-the-other-eigenmatrix", "src/amorphic/fusion.py",
           "        fused, lead = _stacked_row_sum(spec.Q, stack, tol, own_Q)\n",
           "        fused, lead = _stacked_row_sum(spec.Q, stack, tol, own_P)\n",
           ("tests/test_fusion.py::test_passes_hand_each_stack_its_eigenmatrix_own_columns",)),
    # The single-merge stacks write their structure down from their merges
    # (fusion._merge_stacks): rep, and the moved classes the exact kernel
    # compares with it.
    Mutant("merge-rep-last-class", "src/amorphic/fusion.py",
           "        rep = np.where(merged, tuples[:, :1], classes)\n",
           "        rep = np.where(merged, tuples[:, -1:], classes)\n",
           ("tests/test_fusion.py::test_merge_stack_matches_membership",
            "tests/test_fusion.py::test_merge_stacks_equal_the_general_stacks")),
    # a triple's merge is then accepted by the exact kernel on its second
    # class alone
    Mutant("merge-moved-drops-last", "src/amorphic/fusion.py",
           "moved=tuples[:, 1:],",
           "moved=tuples[:, 1:-1],",
           ("tests/test_fusion.py::test_merge_stacks_equal_the_general_stacks",
            "tests/test_fusion.py::test_stacked_merges_match_fuses_on_corpus")),
    # The map from 2-subsets to fusing triples and what the verifier reads
    # off it (fusion._triples_through, fusion._outside, fusion._overlap_labels,
    # hypergraph._cores).
    Mutant("sunflower-core-off-by-one", "src/amorphic/hypergraph.py",
           "len(edges) == n - 2)",
           "len(edges) == n - 3)",
           ("tests/test_hypergraph.py::test_amorphic_net_complete_3hypergraph",
            "tests/test_hypergraph.py::test_pair_map_matches_the_scanning_references")),
    Mutant("map-lists-out-of-triple-order", "src/amorphic/fusion.py",
           "through.setdefault(s, []).append(T)",
           "through.setdefault(s, []).insert(0, T)",
           ("tests/test_fusion.py::test_memoized_overlap_labels_match_direct",
            "tests/test_hypergraph.py::test_pair_map_matches_the_scanning_references")),
    Mutant("outside-keeps-own-classes", "src/amorphic/fusion.py",
           "for U in through[s] for c in U} - set(T)",
           "for U in through[s] for c in U}",
           ("tests/test_hypergraph.py::test_pair_map_matches_the_scanning_references",
            "tests/test_fusion.py::test_batched_contraction_matches_relabeling")),
    Mutant("every-outside-class-admissible", "src/amorphic/fusion.py",
           "for s in itertools.combinations(T, 2) for U in through[s] for c in U}",
           "for group in through.values() for U in group for c in U}",
           ("tests/test_hypergraph.py::test_pair_map_matches_the_scanning_references",
            "tests/test_classify.py::test_verify_claims_on_two_triples_sharing_one_class")),
    Mutant("overlap-skips-untyped-pairs", "src/amorphic/fusion.py",
           "            labels.add(memo[key])\n",
           "            if key is not None:\n                labels.add(memo[key])\n",
           ("tests/test_classify.py::test_untyped_overlapping_triple_fails_the_overlap_claim",)),
    # The fused tensor fuse_direct folds from the parent's block sums.
    Mutant("fused-tensor-at-first-classes", "src/amorphic/fusion.py",
           "_block_sums(scheme.intersection.p, pi)[:, :, [b[0] for b in pi.blocks]]",
           "_block_sums(scheme.intersection.p, pi)[:, :, :pi.n_blocks]",
           ("tests/test_fusion.py::test_fused_tensor_is_the_fused_labels_histogram",)),
    Mutant("block-sums-assigned-not-added", "src/amorphic/fusion.py",
           "    np.add.at(F, (idx[:, None], idx[None, :]), p.astype(np.int64))\n",
           "    F[idx[:, None], idx[None, :]] = p\n",
           ("tests/test_fusion.py::test_fused_tensor_is_the_fused_labels_histogram",)),
    # The idempotent basis and the Krein parameters read class values only.
    Mutant("krein-reads-labels", "src/amorphic/core.py",
           "    Q = v * basis.values\n",
           "    Q = v * basis.values[np.unique(scheme.labels[0])]\n",
           ("tests/test_core.py::test_idempotents_and_krein_read_no_labels",)),
    Mutant("idempotents-gather-dense", "src/amorphic/core.py",
           "    return IdempotentBasis(values=e, tol=tol)\n",
           "    dense = [e[scheme.labels, j] for j in range(n)]\n"
           "    return IdempotentBasis(values=e, tol=tol)\n",
           ("tests/test_classify.py::test_h10_idempotents_and_krein_peak_is_bounded",
            "tests/test_core.py::test_idempotents_and_krein_read_no_labels")),
    # The translation-scheme validator reads the axioms off row 0.
    Mutant("row0-skips-symmetry", "src/amorphic/core.py",
           " or (row0[sub[0]] != row0).any()",
           "",
           ("tests/test_core.py::test_row0_rejection_matches_full_validation[row03-sub3-2-expected3]",)),
    # Rules stated once: the Latin typing and the canonical form's sign
    # in closed form, the scalar closeness test through the elementwise one,
    # merge through from_blocks, the prime weights by trial division.
    Mutant("latin-negative-reads-lo", "src/amorphic/classify.py",
           "(-root, -hi)",
           "(-root, -lo)",
           ("tests/test_classify.py::test_clebsch_classes_are_negative_latin",
            "tests/test_classify.py::test_latin_typing_matches_the_search_on_small_spectra")),
    Mutant("canonical-mixed-sign-parameterized", "src/amorphic/classify.py",
           "(signs == signs[0]).all()",
           "(signs == signs[0]).any()",
           ("tests/test_classify.py::test_canonical_form_is_parameterized_by_one_sign",)),
    Mutant("close-absolute-only", "src/amorphic/core.py",
           "        return bool(self.isclose(a, b))\n",
           "        return abs(float(a) - float(b)) <= self.atol\n",
           ("tests/test_core.py::test_tolerance_close_policy",
            "tests/test_core.py::test_close_matches_the_scalar_formula_on_edge_values")),
    # A partition built from its fields must be canonical.
    Mutant("partition-unchecked", "src/amorphic/fusion.py",
           "    def __post_init__(self):\n        if sorted(",
           "    def __post_init__(self):\n        return\n        if sorted(",
           ("tests/test_fusion.py::test_partition_constructed_directly_must_be_canonical",)),
    Mutant("merge-skips-range-check", "src/amorphic/fusion.py",
           "        if merged and (merged[0] < 1 or merged[-1] > d):\n"
           "            raise ValueError(f\"classes {merged} are not all in 1..{d}\")\n",
           "",
           ("tests/test_fusion.py::test_merge_names_what_it_cannot_merge",)),
    Mutant("primes-skip-two", "src/amorphic/core.py",
           "all(q % p for p in primes)",
           "all(q % p for p in primes[1:])",
           ("tests/test_core.py::test_combination_weights_match_the_sieve_reference",)),
    # finds no first prime and never stops: killed by the test's deadline
    Mutant("primes-any-for-all", "src/amorphic/core.py",
           "all(q % p for p in primes)",
           "any(q % p for p in primes)",
           ("tests/test_core.py::test_combination_weights_match_the_sieve_reference",)),
    # The row lemma's per-d table of row subsets (classify._row_subsets):
    # without the full set, the crafted M's failure on {0, 1, 2} goes unseen.
    Mutant("row-lemma-drops-full-set", "src/amorphic/classify.py",
           "for r in range(2, d + 1)",
           "for r in range(2, d)",
           ("tests/test_classify.py::test_batched_row_lemma_matches_single_subsets",)),
    # Labels that are not integers.
    Mutant("float-labels-truncated", "src/amorphic/core.py",
           " | (labels != np.round(labels))",
           "",
           ("tests/test_core.py::test_labels_that_are_not_integers_are_rejected",)),
    # The scheme file format and its parse.
    Mutant("parse-names-later-cell", "src/amorphic/cli.py",
           "divmod(min(cells), v)",
           "divmod(max(cells), v)",
           ("tests/test_cli.py::test_parse_errors_across_blocks",)),
    Mutant("load-scheme-parses-int64", "src/amorphic/cli.py",
           "else 0, dtype=_label_dtype(d))",
           "else 0, dtype=np.int64)",
           ("tests/test_cli.py::test_load_scheme_hands_the_label_dtype_over",)),
    Mutant("parse-block-drops-last-row", "src/amorphic/cli.py",
           "    tokens = [t for row in block for t in row[0]]\n",
           "    tokens = [t for row in block[:-1] for t in row[0]]\n",
           ("tests/test_cli.py::test_parse_holds_one_block_of_tokens",
            "tests/test_cli.py::test_save_load_round_trip_byte_stable")),
    Mutant("parse-keeps-lone-cr", "src/amorphic/cli.py",
           "map(bytes.splitlines, f)",
           '([piece.rstrip(b"\\r\\n")] for piece in f)',
           ("tests/test_cli.py::test_mixed_line_ends_load_as_line_feeds",)),
    Mutant("save-tab-delimited", "src/amorphic/cli.py",
           'np.savetxt(fh, scheme.labels, fmt="%d")',
           'np.savetxt(fh, scheme.labels, fmt="%d", delimiter="\\t")',
           ("tests/test_cli.py::test_saved_bytes_match_row_joins",)),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tests, edit=None) -> subprocess.CompletedProcess | None:
    """pytest on ``tests`` in a fresh copy of the tree, with ``edit`` =
    (file, new text) written into the copy first; None when it has not
    finished after TIMEOUT seconds (it is then stopped)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        _copy_tree(tmp)
        if edit:
            (tmp / edit[0]).write_text(edit[1])
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1",
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        try:
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return None


def run(mutant: Mutant) -> tuple[str, str]:
    """(outcome, detail) of one mutant: killed, SURVIVED, STALE or ERROR."""
    source = (ROOT / mutant.file).read_text()
    if source.count(mutant.snippet) != 1:
        return "STALE", f"snippet occurs {source.count(mutant.snippet)} times in {mutant.file}"
    proc = _pytest(mutant.tests, (mutant.file, source.replace(mutant.snippet, mutant.replacement)))
    if proc is None:
        return "killed", f"timed out after {TIMEOUT} s"
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    last = (failed or proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 1:
        return "killed", last
    if proc.returncode == 0:
        return "SURVIVED", last
    return "ERROR", f"pytest exit {proc.returncode}: {last}"


def main() -> int:
    start, failed = time.perf_counter(), 0
    baseline = _pytest(sorted({test for m in CATALOGUE for test in m.tests}))
    if baseline is None:
        print(f"unmutated: timed out after {TIMEOUT} s")
        return 1
    print(f"unmutated: {(baseline.stdout.strip().splitlines() or [''])[-1]}", flush=True)
    if baseline.returncode != 0:
        print(baseline.stdout[-2000:], baseline.stderr[-2000:], sep="\n")
        return 1
    for m in CATALOGUE:
        began = time.perf_counter()
        outcome, detail = run(m)
        failed += outcome != "killed"
        print(f"{outcome:8} {m.name} ({time.perf_counter() - began:.1f} s): {detail}", flush=True)
    print(f"{len(CATALOGUE) - failed} of {len(CATALOGUE)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
