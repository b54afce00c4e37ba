"""Scheme file format, command surface, corpus runner, and reports.

Exit codes: 0 success, 1 operational error, 2 usage error, 3 a
machine-checked mathematical claim failed (falsification).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .classify import (
    is_amorphic,
    amorphic_oracle,
    verify_paper_claims,
)
from .core import (
    AssociationScheme,
    LabelMatrix,
    Tolerance,
    _BLOCK_CELLS,
    _label_dtype,
    spectral_decomposition,
    validate_scheme,
)
from .errors import Falsification, NotAFusion, ParseError, SchemeError
from .fusion import ClassPartition, enumerate_fusing_tuples, fuse_direct
from .generators import (
    CyclotomicSpec,
    SlopeGrouping,
    gen_complete,
    gen_cyclotomic,
    gen_hamming_binary,
    gen_net_scheme,
)
from .hypergraph import build_fusing_hypergraph, graph_shape, sunflower_cores, to_dot, to_edge_list

__all__ = ["load_scheme", "save_scheme", "run_command", "main", "entrypoint"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_FALSIFIED = 3


def load_scheme(path) -> AssociationScheme:
    """Parse a scheme file: header "v d", then v rows of v labels.

    Lines starting with '#' are comments.  A file that is not UTF-8 text,
    a malformed header or row, or a label outside 0..d raises
    :class:`ParseError` with the 1-based line (and column for bad tokens).
    The data rows are converted a block of about ``_BLOCK_CELLS`` labels at
    a time, each in one numpy conversion, straight into the label array in
    the label dtype, which :class:`LabelMatrix` takes without a copy; only
    a block that fails is scanned token by token.  The lines (ended by LF,
    CR LF or a lone CR) are read from the open file, never held whole.  The
    first bad token or non-UTF-8 line, in file order, comes first; then a
    label beyond int64, the row count, a row's length, and the first label
    out of range in row-major order.
    """
    header, rows, block, pending = None, [], [], 0  # rows: (label count, line number) of each row
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        # the file splits after "\n" only; each piece splits again at a lone "\r"
        lines = itertools.chain.from_iterable(map(bytes.splitlines, f))
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode()
            except UnicodeDecodeError as exc:
                for row in block:  # a bad token on an earlier line comes first
                    _integers(*row)
                raise ParseError(f"not UTF-8 text: {exc.reason}", line=lineno) from exc
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if header is None:
                values = _integers(stripped.split(), line, lineno)
                if len(values) != 2:
                    raise ParseError("header must be 'v d'", line=lineno)
                if min(values) < 1:
                    raise ParseError("header needs v >= 1 and d >= 1", line=lineno)
                v, d = header = values
                hline, filled, beyond, wrong = lineno, 0, None, None
                # a file of fewer bytes than v^2 cannot hold v rows of v labels
                labels = np.empty(v * v if v * v <= size else 0, dtype=_label_dtype(d))
                continue
            tokens = stripped.split()
            rows.append((len(tokens), lineno))
            block.append((tokens, line, lineno))
            pending += len(tokens)
            if pending >= _BLOCK_CELLS:
                filled, beyond, wrong = _convert(block, labels, filled, d, beyond, wrong)
                block, pending = [], 0
    if header is None:
        raise ParseError("empty scheme file", line=1)
    filled, beyond, wrong = _convert(block, labels, filled, d, beyond, wrong)
    if beyond is not None:
        raise ParseError(f"label out of range [0, {d}]", line=beyond)
    if len(rows) != v:
        raise ParseError(f"expected {v} data rows, found {len(rows)}",
                         line=rows[-1][1] if rows else hline)
    for count, lineno in rows:
        if count != v:
            raise ParseError(f"expected {v} labels, found {count}", line=lineno)
    # the first label out of range in a block that failed, and the first
    # stored above d (the array is unsigned); the earlier one is named
    cells = [] if wrong is None else [wrong]
    if labels.max(initial=0) > d:
        cells.append(int(np.argmax(labels > d)))
    if cells:
        r, c = divmod(min(cells), v)
        raise ParseError(f"label out of range [0, {d}] at ({r}, {c})", line=rows[r][1])
    labels = labels.reshape(v, v)
    labels.flags.writeable = False  # handed over, not copied
    return validate_scheme(LabelMatrix(v=v, d=d, labels=labels))


def _convert(block, labels: np.ndarray, filled: int, d: int, beyond, wrong):
    """Write the labels of the data rows in ``block``, (tokens, line, line
    number) each, into ``labels`` after its first ``filled``; returns the
    new fill, the line of the first label beyond int64 so far, and the
    index of the first label outside 0..d so far in a block that failed.

    A block converts in one numpy conversion.  A block that fails, on a
    bad token or a label the dtype cannot hold, is scanned token by token:
    a bad token raises :class:`ParseError`, and a label outside 0..d is
    stored as 0.  A block beyond the end of ``labels`` is scanned and not
    stored; the row counts then fail.
    """
    tokens = [t for row in block for t in row[0]]
    end = filled + len(tokens)
    if end <= len(labels):
        try:
            labels[filled:end] = tokens
            return end, beyond, wrong
        except (ValueError, OverflowError):
            pass
    at = filled
    for tokens, line, lineno in block:
        values = _integers(tokens, line, lineno)
        if beyond is None and not all(-2 ** 63 <= x < 2 ** 63 for x in values):
            beyond = lineno
        if wrong is None and not all(0 <= x <= d for x in values):
            wrong = at + next(i for i, x in enumerate(values) if not 0 <= x <= d)
        if end <= len(labels):
            labels[at:at + len(values)] = [x if 0 <= x <= d else 0 for x in values]
        at += len(values)
    return end, beyond, wrong


def _integers(tokens: list[str], line: str, lineno: int) -> list[int]:
    """The tokens of one line as integers; a bad token raises
    :class:`ParseError` naming its line and column."""
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            # the bad token is token number len(values) of the line
            starts = [m.start() for m in re.finditer(r"\S+", line)]
            raise ParseError(f"bad integer {tok!r}", line=lineno,
                             column=starts[len(values)] + 1)
    return values


def save_scheme(scheme: AssociationScheme, path, comment: str | None = None) -> None:
    path = Path(path)
    with open(path, "w") as fh:
        if comment:
            fh.writelines(f"# {line}\n" for line in comment.splitlines())
        fh.write(f"{scheme.v} {scheme.d}\n")
        np.savetxt(fh, scheme.labels, fmt="%d")


def _fmt(x) -> str:
    f = float(x)
    return str(int(f)) if f == int(f) else repr(f)


def _matrix_rows(M) -> list[list[str]]:
    return [[_fmt(x) for x in row] for row in np.asarray(M)]


def _write_report(report: dict, path) -> None:
    with open(path, "w") as fh:  # one write: json.dump would stream thousands of small ones
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
        Tolerance(atol=value, rtol=value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}: {exc}") from exc
    return value


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="amorphic",
        description="Fusion analysis of symmetric association schemes")
    ap.add_argument("--tol", type=_tolerance, default=1e-8, metavar="REAL",
                    help="absolute and relative comparison tolerance (finite, >= 0)")
    ap.add_argument("--report", type=Path, default=None, metavar="PATH",
                    help="write a JSON report with deterministic key order")
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("validate", "spectrum", "sunflowers", "amorphic", "verify"):
        p = sub.add_parser(name)
        p.add_argument("file", type=Path)
    sub.choices["amorphic"].add_argument("--oracle", action="store_true",
                                         help="run only the exact oracle over all pairs of classes")

    p = sub.add_parser("fuse")
    p.add_argument("file", type=Path)
    p.add_argument("--partition", required=True, metavar="BLOCKS",
                   help='e.g. "0|1,3|2" (the 0 block may be omitted)')

    p = sub.add_parser("tuples")
    p.add_argument("file", type=Path)
    p.add_argument("--k", type=int, choices=(2, 3), required=True)

    p = sub.add_parser("hypergraph")
    p.add_argument("file", type=Path)
    p.add_argument("--k", type=int, choices=(2, 3), required=True)
    p.add_argument("--side", choices=("relations", "idempotents"), default="relations")
    p.add_argument("--dot", type=Path, default=None)

    p = sub.add_parser("generate")
    gsub = p.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("net")
    g.add_argument("-n", type=int, required=True)
    g.add_argument("--groups", required=True,
                   help='slope groups, e.g. "0,1|2|3|4" (index n is the vertical slope)')
    g.add_argument("-o", "--output", type=Path, required=True)
    g = gsub.add_parser("cyclotomic")
    g.add_argument("-q", type=int, required=True)
    g.add_argument("-d", type=int, required=True)
    g.add_argument("-o", "--output", type=Path, required=True)
    g = gsub.add_parser("hamming")
    g.add_argument("-m", type=int, required=True)
    g.add_argument("-o", "--output", type=Path, required=True)
    g = gsub.add_parser("complete")
    g.add_argument("-v", type=int, required=True)
    g.add_argument("-o", "--output", type=Path, required=True)

    p = sub.add_parser("corpus")
    p.add_argument("directory", type=Path)
    return ap


def run_command(argv) -> int:
    """Dispatch one parsed invocation; returns the process exit status."""
    args = _parser().parse_args(argv)
    tol = Tolerance(atol=args.tol, rtol=args.tol)
    # the eigen-split is deterministic; the seed key stays 0 so reports stay byte-stable
    report: dict = {"command": args.command, "tol": args.tol, "seed": 0}

    try:
        status = _dispatch(args, tol, report)
    except Falsification as exc:
        print(f"FALSIFICATION: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except (SchemeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.report is not None:
        _write_report(report, args.report)
    return status


def _dispatch(args, tol: Tolerance, report: dict) -> int:
    cmd = args.command

    if cmd == "generate":
        if args.family == "net":
            groups = [[int(t) for t in g.split(",")] for g in args.groups.split("|")]
            scheme = gen_net_scheme(args.n, SlopeGrouping.from_groups(args.n, groups))
        elif args.family == "cyclotomic":
            scheme = gen_cyclotomic(CyclotomicSpec(q=args.q, d=args.d))
        elif args.family == "hamming":
            scheme = gen_hamming_binary(args.m)
        else:
            scheme = gen_complete(args.v)
        save_scheme(scheme, args.output)
        print(f"wrote {args.output} (v={scheme.v}, d={scheme.d})")
        report.update({"v": scheme.v, "d": scheme.d, "output": str(args.output)})
        return EXIT_OK

    if cmd == "corpus":
        return _run_corpus(args, tol, report)

    scheme = load_scheme(args.file)
    report.update({"file": str(args.file), "v": scheme.v, "d": scheme.d,
                   "valencies": list(scheme.valencies[1:])})

    if cmd == "validate":
        print(f"valid scheme: v={scheme.v}, d={scheme.d}, "
              f"valencies={scheme.valencies[1:]}")
        return EXIT_OK

    if cmd == "spectrum":
        spec = spectral_decomposition(scheme, tol=tol)
        report["P"] = _matrix_rows(spec.P)
        report["Q"] = _matrix_rows(spec.Q)
        report["multiplicities"] = list(spec.multiplicities)
        print("P =")
        for row in spec.P:
            print("  " + " ".join(f"{_fmt(x):>10}" for x in row))
        print(f"multiplicities = {spec.multiplicities}")
        return EXIT_OK

    if cmd == "fuse":
        pi = ClassPartition.from_string(args.partition, scheme.d)
        try:
            out = fuse_direct(scheme, pi, tol=tol)
        except NotAFusion as exc:
            print(f"not a fusion: {exc}", file=sys.stderr)
            report["fuses"] = False
            return EXIT_ERROR
        report.update({"fuses": True, "rho": str(out.rho),
                       "P_fused": _matrix_rows(out.P_fused),
                       "fused_valencies": list(out.scheme.valencies[1:])})
        print(f"fuses; rho = {out.rho}")
        print("fused eigenmatrix =")
        for row in out.P_fused:
            print("  " + " ".join(f"{_fmt(x):>10}" for x in row))
        return EXIT_OK

    if cmd == "tuples":
        tuples = enumerate_fusing_tuples(scheme, args.k, tol=tol)
        report["fusing_tuples"] = [list(t) for t in tuples]
        for t in tuples:
            print(" ".join(str(i) for i in t))
        print(f"{len(tuples)} fusing {args.k}-tuples")
        return EXIT_OK

    if cmd == "hypergraph":
        if args.dot is not None and args.k != 2:
            raise ValueError(f"--dot: DOT export is for k = 2 (graphs), got k = {args.k}")
        H = build_fusing_hypergraph(scheme, args.k, side=args.side, tol=tol)
        report["edges"] = [list(e) for e in H.sorted_edges()]
        report["side"] = H.side
        if args.k == 2:
            shape = graph_shape(H)
            report["connected"] = shape.connected
            report["is_path"] = shape.is_path
            print(f"{len(H.edges)} edges; connected={shape.connected}, "
                  f"is_path={shape.is_path}")
            if args.dot is not None:
                args.dot.write_text(to_dot(H))
                print(f"wrote {args.dot}")
        else:
            sys.stdout.write(to_edge_list(H))
            print(f"{len(H.edges)} edges")
        return EXIT_OK

    if cmd == "sunflowers":
        H = build_fusing_hypergraph(scheme, 3, side="relations", tol=tol)
        cores = sunflower_cores(H)
        report["cores"] = [list(c.core) for c in cores]
        for c in cores:
            print(" ".join(str(i) for i in c.core))
        print(f"{len(cores)} sunflower cores")
        return EXIT_OK

    if cmd == "amorphic":
        if args.oracle:
            ok = amorphic_oracle(scheme, tol=tol)
            report["amorphic"] = ok
            print(f"amorphic={ok} (exhaustive oracle)")
        else:
            verdict = is_amorphic(scheme, tol=tol)
            report["amorphic"] = verdict.amorphic
            report["oracle_checked"] = verdict.oracle_checked
            if verdict.certificate is not None:
                report["canonical_n"] = verdict.certificate.n
                report["canonical_t"] = list(verdict.certificate.t or [])
            print(f"amorphic={verdict.amorphic} "
                  f"(oracle_checked={verdict.oracle_checked})")
        return EXIT_OK

    if cmd == "verify":
        claims = verify_paper_claims(scheme, tol=tol)
        report["claims"] = claims.as_dict()
        for r in claims.records:
            state = ("FALSIFIED" if r.applicable and not r.verified
                     else "verified" if r.applicable else "n/a")
            print(f"{r.claim:45s} {state}  {r.witness}")
        if claims.falsified:
            # returned, not raised, so that run_command still writes the report
            print(f"FALSIFICATION: claims falsified on {args.file}", file=sys.stderr)
            return EXIT_FALSIFIED
        return EXIT_OK

    raise AssertionError(f"unhandled command {cmd}")  # pragma: no cover


def _run_corpus(args, tol: Tolerance, report: dict) -> int:
    files = sorted(Path(args.directory).glob("*.scheme"))
    if not files:
        print(f"error: no .scheme files in {args.directory}", file=sys.stderr)
        return EXIT_ERROR
    report["files"] = {}
    worst = EXIT_OK
    for path in files:
        try:
            scheme = load_scheme(path)
            claims = verify_paper_claims(scheme, tol=tol)
        except Falsification as exc:
            print(f"{path.name}: FALSIFICATION: {exc}", file=sys.stderr)
            report["files"][path.name] = {"error": str(exc), "falsified": True}
            worst = EXIT_FALSIFIED
            continue
        except (SchemeError, OSError) as exc:
            print(f"{path.name}: error: {exc}", file=sys.stderr)
            report["files"][path.name] = {"error": str(exc)}
            worst = max(worst, EXIT_ERROR)
            continue
        report["files"][path.name] = claims.as_dict()
        if claims.falsified:
            print(f"{path.name}: FALSIFIED")
            worst = EXIT_FALSIFIED
        else:
            print(f"{path.name}: ok")
    return worst


def main(argv=None) -> int:
    """Entry point; returns the exit status instead of raising SystemExit
    except for usage errors (argparse exits 2 itself)."""
    return run_command(sys.argv[1:] if argv is None else list(argv))


def entrypoint() -> None:  # console script
    sys.exit(main())
