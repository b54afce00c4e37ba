"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

The interpreter starts cold, as it does for a command-line user: the
library's process-wide spectral cache and every ``cached_property`` are
empty.  The worker builds its inputs from the seed, runs one pass of the
workload while sampling the host's speed (and tracing it when asked),
checks every answer against expectations written from theory and an
independent numpy witness, and prints one JSON line.  A wrong answer
exits with status 3 and no result line.

Usage (from the repository root, with the library on the path):

    PYTHONPATH=src python3 bench/worker.py --workload scale --seed 1 \
        --trace 0 --work bench/.work
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import amorphic
import amorphic.classify as classify
import amorphic.cli as cli
import amorphic.core as core
import amorphic.corpus as corpus
import amorphic.errors as errors
import amorphic.fusion as fusion
import amorphic.generators as generators
import amorphic.hypergraph as hypergraph

import spans
import speed

MODULES = (amorphic, core, fusion, classify, hypergraph, generators, cli, corpus, errors)
EXIT_WRONG = 3


class WrongAnswer(Exception):
    """The library returned an answer that contradicts the expectation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


def relabel(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply a random point permutation; every verdict is invariant under it."""
    p = rng.permutation(labels.shape[0])
    return np.ascontiguousarray(labels[p][:, p])


# ---------------------------------------------------------------- theory

def krawtchouk_P(m: int) -> list[list[int]]:
    """Eigenmatrix of H(m, 2): P[j][i] = K_i(j), exact integers."""
    return [[sum((-1) ** s * math.comb(j, s) * math.comb(m - j, i - s) for s in range(i + 1))
             for i in range(m + 1)] for j in range(m + 1)]


def net_P(n: int, sizes: list[int]) -> list[list[int]]:
    """Eigenmatrix of a net scheme whose class i unites ``sizes[i-1]`` parallel
    classes of AG(2, n).  On the eigenspace of a slope in group j, class i
    has eigenvalue n - g_i if i == j and -g_i otherwise."""
    rows = [[1] + [g * (n - 1) for g in sizes]]
    for j in range(len(sizes)):
        rows.append([1] + [n - g if i == j else -g for i, g in enumerate(sizes)])
    return rows


def fusing_tuples(P: list[list[int]], k: int) -> list[tuple[int, ...]]:
    """k-subsets whose merge fuses, by the row-sum criterion applied to an
    exact integer eigenmatrix: the folded rows must take exactly one value
    per block, with the valency row alone."""
    d = len(P) - 1
    out = []
    for T in itertools.combinations(range(1, d + 1), k):
        blocks = [[0], list(T)] + [[i] for i in range(1, d + 1) if i not in T]
        folded = [tuple(sum(row[i] for i in b) for b in blocks) for row in P]
        if len(set(folded)) == len(blocks) and folded.count(folded[0]) == 1:
            out.append(T)
    return out


def srg_witness(labels: np.ndarray, d: int) -> bool:
    """For d >= 3: amorphic iff every class graph has at most 3 distinct
    eigenvalues (van Dam & Muzychuk, JCTA 2010), computed with eigvalsh."""
    for i in range(1, d + 1):
        w = np.linalg.eigvalsh((labels == i).astype(float))
        distinct = 1 + int(np.count_nonzero(np.diff(w) > 1e-6 * max(1.0, abs(w).max())))
        if distinct > 3:
            return False
    return True


def same_rows(P, expected, tol: float = 1e-6) -> bool:
    got = sorted(tuple(round(float(x) / tol) for x in row) for row in np.asarray(P))
    want = sorted(tuple(round(float(x) / tol) for x in row) for row in expected)
    return got == want


# ---------------------------------------------------------------- passes

class Pass:
    """Counts the operations one pass issues and those that fail.

    An operation fails when it raises a SchemeError other than the
    ``NotAFusion`` that answers a fusion question with "no".
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        with self.tracer.request(label) if self.tracer else contextlib.nullcontext():
            try:
                return fn(*args, **kwargs)
            except errors.NotAFusion as exc:
                return exc
            except errors.SchemeError as exc:
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
                return FAILED

    def skip(self, label: str, count: int, why: str) -> None:
        self.attempted += count
        self.failures.extend([f"{label}: skipped, {why}"] * count)


FAILED = object()


# corpus: the CLI path over the shipped corpus, written as files.

def setup_corpus(rng, work: Path):
    directory = work / "corpus"
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob("*.scheme"):
        old.unlink()
    names = []
    for name, scheme in corpus.standard_corpus():
        moved = core.validate_scheme(relabel(scheme.labels, rng))
        cli.save_scheme(moved, directory / f"{name}.scheme", comment=name)
        names.append(name)
    return {"dir": directory, "report": work / "corpus-report.json", "names": names}


def run_corpus(state, tracer):
    run = Pass(tracer)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.op("corpus", cli.run_command,
                        ["--report", str(state["report"]), "corpus", str(state["dir"])])
    run.attempted += len(state["names"]) - 1  # one operation per file
    return run, {"status": status, "stdout": out.getvalue()}


def check_corpus(state, run, result):
    expect("FALSIFIED" not in result["stdout"], "a FALSIFIED line was printed")
    report = json.loads(state["report"].read_text())
    files = report["files"]
    expect(sorted(files) == sorted(f"{n}.scheme" for n in state["names"]),
           "the report does not list every corpus file")
    errored = [f for f, claims in files.items() if "error" in claims]
    run.failures.extend(f"{f}: {files[f]['error']}" for f in errored)
    # exit 1 reports files that failed with an error; anything else but 0 is wrong
    expect(result["status"] == (1 if errored else 0), f"corpus exited {result['status']}")
    for fname, claims in files.items():
        if "error" in claims:
            continue
        amorphic_claimed = any(
            claims[c]["applicable"] and claims[c]["verified"]
            for c in ("two_sunflowers_imply_amorphic", "complete_3hypergraph_implies_amorphic"))
        if amorphic_claimed:
            scheme = cli.load_scheme(state["dir"] / fname)
            expect(srg_witness(scheme.labels, scheme.d),
                   f"{fname}: verified as amorphic, but a class graph has more than 3 eigenvalues")
    return {"report_sha": hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()}


# scale: the per-layer chain at growing v; the core layer does the work.

def _hamming(m):
    return {
        "name": f"H({m},2)", "v": 1 << m,
        "gen": lambda: generators.gen_hamming_binary(m),
        "valencies": tuple(math.comb(m, i) for i in range(m + 1)),
        "P": krawtchouk_P(m),
        "multiplicities": [math.comb(m, j) for j in range(m + 1)],
        "amorphic": False,  # H(m,2), m >= 3: the distance-1 graph has m+1 eigenvalues
        "accept": [[0], list(range(1, m + 1, 2)), list(range(2, m + 1, 2))],  # odd|even
        "merge12_fuses": False,  # {1,2} merged does not fuse for m >= 4
    }


def _net(n: int, groups):
    return generators.gen_net_scheme(n, generators.SlopeGrouping.from_groups(n, groups))


def _net_scale():
    n, groups = 16, [list(range(8)), list(range(8, 17))]
    sizes = [len(g) for g in groups]
    valencies = (1,) + tuple(g * (n - 1) for g in sizes)
    return {
        "name": "net(16;8,9)", "v": n * n,
        "gen": lambda: _net(n, groups),
        "valencies": valencies,
        "P": net_P(n, sizes),
        "multiplicities": list(valencies),  # equal to the valencies for a net
        "amorphic": True,  # d <= 2: amorphic by convention
        "accept": [[0], [1], [2]],
        "merge12_fuses": True,  # every partition of a net scheme fuses
    }


SCALE = (_hamming(4), _hamming(6), _hamming(8), _net_scale())
SCALE_STEPS = 11


def setup_scale(rng, work: Path):
    # One point permutation per scheme, drawn before the pass.
    return {"perms": [rng.permutation(spec["v"]) for spec in SCALE]}


def run_scale(state, tracer):
    run = Pass(tracer)
    results = []
    for spec, p in zip(SCALE, state["perms"]):
        r = {}
        results.append(r)
        base = run.op("generate", spec["gen"])
        if base is FAILED:
            run.skip(spec["name"], SCALE_STEPS - 1, "generation failed")
            continue
        scheme = run.op("validate", core.validate_scheme,
                        np.ascontiguousarray(base.labels[p][:, p]))
        if scheme is FAILED:
            run.skip(spec["name"], SCALE_STEPS - 2, "validation failed")
            continue
        r["scheme"] = scheme
        r["intersection"] = run.op("intersection", lambda: scheme.intersection)
        r["spectral"] = run.op("spectral", core.spectral_decomposition, scheme)
        d = scheme.d
        accept = fusion.ClassPartition.from_blocks(spec["accept"], d)
        reject = fusion.ClassPartition.merge(d, [1, 2])
        for tag, pi in (("accept", accept), ("merge12", reject)):
            r[f"fuse_{tag}"] = run.op("fuse_direct", fusion.fuse_direct, scheme, pi)
            if r["spectral"] is FAILED:
                run.skip(spec["name"], 1, "no spectral data for bm_check")
            else:
                r[f"bm_{tag}"] = run.op("bm_check", fusion.bm_check, r["spectral"], pi)
        r["tuples2"] = run.op("tuples", fusion.enumerate_fusing_tuples, scheme, 2)
        r["tuples3"] = run.op("tuples", fusion.enumerate_fusing_tuples, scheme, 3)
        r["amorphic"] = run.op("is_amorphic", classify.is_amorphic, scheme)
    return run, results


def check_scale(state, run, results):
    verdicts = {}
    for spec, r in zip(SCALE, results):
        name = spec["name"]
        if "scheme" not in r:
            continue
        scheme = r["scheme"]
        expect(scheme.valencies == spec["valencies"],
               f"{name}: valencies {scheme.valencies} != {spec['valencies']}")
        pt = r["intersection"]
        if pt is not FAILED:
            p = pt.p
            k = np.asarray(spec["valencies"])
            expect(np.array_equal(p[0], np.eye(scheme.d + 1, dtype=np.int64)), f"{name}: p_0 != I")
            expect(np.array_equal(p.sum(axis=1), np.repeat(k[:, None], scheme.d + 1, axis=1)),
                   f"{name}: sum_j p_ij^h != k_i")
            expect(all(k[h] * p[i, j, h] == k[j] * p[i, h, j]
                       for i in range(scheme.d + 1) for j in range(scheme.d + 1)
                       for h in range(scheme.d + 1)),
                   f"{name}: k_h p_ij^h != k_j p_ih^j")
        sp = r["spectral"]
        if sp is not FAILED:
            expect(same_rows(sp.P, spec["P"]), f"{name}: P differs from the closed form")
            expect(sorted(sp.multiplicities) == sorted(spec["multiplicities"]),
                   f"{name}: multiplicities {sp.multiplicities}")
        for tag, fuses in (("accept", True), ("merge12", spec["merge12_fuses"])):
            out = r.get(f"fuse_{tag}", FAILED)
            bm = r.get(f"bm_{tag}", FAILED)
            if out is not FAILED:
                expect(isinstance(out, errors.NotAFusion) != fuses,
                       f"{name}: fuse_direct {tag} answered {out!r}, expected fuses={fuses}")
                if fuses:
                    blocks = spec["accept"] if tag == "accept" else [[0], list(range(1, scheme.d + 1))]
                    want = tuple(sum(spec["valencies"][i] for i in b) for b in blocks)
                    expect(out.scheme.valencies == want,
                           f"{name}: fused valencies {out.scheme.valencies} != {want}")
            if bm is not FAILED:
                expect(isinstance(bm, errors.NotAFusion) != fuses,
                       f"{name}: bm_check {tag} answered {bm!r}, expected fuses={fuses}")
                if fuses and out is not FAILED:
                    expect(bm.rho == out.rho, f"{name}: bm_check and fuse_direct disagree on rho")
        for k in (2, 3):
            got = r[f"tuples{k}"]
            if got is not FAILED:
                want = fusing_tuples(spec["P"], k)
                expect(list(got) == want, f"{name}: fusing {k}-tuples {got} != {want}")
        verdict = r["amorphic"]
        if verdict is not FAILED:
            expect(verdict.amorphic == spec["amorphic"],
                   f"{name}: is_amorphic says {verdict.amorphic}, theory says {spec['amorphic']}")
            verdicts[name] = verdict.amorphic
        if scheme.d >= 3:
            expect(srg_witness(scheme.labels, scheme.d) == spec["amorphic"],
                   f"{name}: the eigenvalue witness contradicts the expected verdict")
    return {"amorphic": verdicts}


# oracle: amorphicity with the exhaustive cross-check, all six amorphic.

ORACLE = (
    ("net(7;2,1^6)", lambda: _net(7, [[0, 1]] + [[s] for s in range(2, 8)])),
    ("net(8;2^2,1^5)", lambda: _net(8, [[0, 1], [2, 3]] + [[s] for s in range(4, 9)])),
    ("net(16;5,4^3)", lambda: _net(16, [range(0, 5), range(5, 9), range(9, 13), range(13, 17)])),
    ("cyclotomic(25,6)", lambda: generators.gen_cyclotomic(generators.CyclotomicSpec(q=25, d=6))),
    # d = 8: both fail today in spectral_decomposition (DegenerateSpectrum)
    ("net(7;1^8)", lambda: _net(7, [[s] for s in range(8)])),
    ("net(8;2,1^7)", lambda: _net(8, [[0, 1]] + [[s] for s in range(2, 9)])),
)


def setup_oracle(rng, work: Path):
    return {"schemes": [(name, core.validate_scheme(relabel(build().labels, rng)))
                        for name, build in ORACLE]}


def run_oracle(state, tracer):
    run = Pass(tracer)
    verdicts = [run.op("is_amorphic", classify.is_amorphic, scheme)
                for _, scheme in state["schemes"]]
    return run, verdicts


def check_oracle(state, run, verdicts):
    out = {}
    for (name, scheme), verdict in zip(state["schemes"], verdicts):
        # every scheme here is amorphic: nets and a semiprimitive
        # cyclotomic scheme (25 = 5^2, 6 divides 5 + 1)
        expect(srg_witness(scheme.labels, scheme.d), f"{name}: witness says not amorphic")
        if verdict is FAILED:
            out[name] = "failed"
            continue
        expect(verdict.amorphic, f"{name}: is_amorphic says False, theory says True")
        expect(verdict.oracle_checked, f"{name}: the exhaustive cross-check did not run")
        out[name] = True
    return {"amorphic": out}


WORKLOADS = {
    "corpus": (setup_corpus, run_corpus, check_corpus),
    "scale": (setup_scale, run_scale, check_scale),
    "oracle": (setup_oracle, run_oracle, check_oracle),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True,
                    help="directory for inputs, reports and spans")
    args = ap.parse_args(argv)

    setup, run_pass, check = WORKLOADS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    with speed.SpeedProbe() as setup_probe:
        state = setup(np.random.default_rng(args.seed), args.work)
    ready = time.monotonic()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        originals = tracer.install(MODULES)
        missed = spans.missed_bindings(list(MODULES) + [globals()], originals)
        if missed:
            print(f"untraced bindings: {missed}", file=sys.stderr)
            return 2

    # In a traced pass the probe's time is charged to no span.
    probe = speed.SpeedProbe(on_busy=tracer.add_overhead if tracer else None)
    with probe:
        start = time.monotonic()
        run, result = run_pass(state, tracer)
        done = time.monotonic()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
        (args.work / f"spans-{args.workload}.json").write_text(json.dumps(tracer.dump()))

    try:
        verdicts = check(state, run, result)
    except WrongAnswer as exc:
        print(f"WRONG ANSWER ({args.workload}, seed {args.seed}): {exc}", file=sys.stderr)
        return EXIT_WRONG

    print(json.dumps({
        "ready": ready, "start": start, "done": done,
        "setup_probe": {"total_s": setup_probe.total_s, "mean_s": setup_probe.mean_s},
        "probe": {"busy_s": probe.busy_s, "mean_s": probe.mean_s, "samples": len(probe.samples)},
        "maxrss_kb": maxrss_kb,
        "attempted": run.attempted, "failed": len(run.failures),
        "failures": run.failures,
        "verdicts": verdicts,
        "library": str(Path(amorphic.__file__).resolve().parent),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
