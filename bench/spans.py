"""Call spans for traced benchmark runs, and the per-layer metrics read
from them.

A :class:`Tracer` replaces every module-level binding of selected library
functions with one wrapper per function, so a call is recorded whichever
module it is reached through.  Spans stay in memory as plain lists and are
written out once, when the run ends; :func:`layer_metrics` turns a span
list into the per-layer metrics that ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import statistics
import time

# Span fields, in the order each span list stores them.
FIELDS = ("name", "start", "end", "parent", "request", "error", "key", "overhead")
NAME, START, END, PARENT, REQUEST, ERROR, KEY, OVERHEAD = range(len(FIELDS))

# Library functions the trace wraps, by "<module>.<function>".  Each is
# wrapped in every module namespace that binds it, the package included.
TRACED = {
    "core": ("validate_scheme", "intersection_numbers", "spectral_decomposition"),
    "fusion": ("fuse_direct", "bm_check", "enumerate_fusing_tuples",
               "contraction_check", "classify_triple", "overlap_case"),
    "classify": ("is_amorphic", "amorphic_oracle", "canonical_form_check",
                 "verify_paper_claims"),
    "hypergraph": ("build_fusing_hypergraph", "sunflower_cores"),
    "generators": ("gen_net_scheme", "gen_cyclotomic", "gen_hamming_binary",
                   "gen_complete"),
    "cli": ("load_scheme", "save_scheme", "run_command"),
}

# Spans opened by the benchmark itself around each operation it issues.
REQUEST_PREFIX = "bench."


def _labels_digest(scheme) -> str:
    labels = scheme.labels
    return hashlib.blake2b(labels.tobytes(), digest_size=16).hexdigest() + str(labels.shape)


def _fusion_question(args) -> str:
    return f"{_labels_digest(args['scheme'])}:{args['pi'].rgs()}"


def _spectral_question(args) -> str:
    return f"{_labels_digest(args['scheme'])}:{args['tol']!r}:{args['seed']}"


# Functions whose calls are keyed, so the number of distinct questions can
# be counted: a fusion question is (labels, partition), a spectral one is
# the library's own cache key (labels, tolerance, seed).
KEYED = {
    "fusion.fuse_direct": _fusion_question,
    "core.spectral_decomposition": _spectral_question,
}


class Tracer:
    """Records one span per call of a wrapped function.

    ``overhead`` is the time the wrapper spent computing the span's key,
    plus any time the speed probe interrupted the span for (see
    :meth:`add_overhead`); it is subtracted from the span's self time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, start: float, key, overhead: float) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, start, 0.0, parent, self._request, None, key, overhead]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list, exc: BaseException | None) -> None:
        span[END] = time.perf_counter()
        if exc is not None:
            span[ERROR] = type(exc).__name__
        self._stack.pop()

    def wrap(self, name: str, fn):
        keyer = KEYED.get(name)
        sig = inspect.signature(fn) if keyer else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            key, overhead = None, 0.0
            if keyer is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key = keyer(bound.arguments)
                overhead = time.perf_counter() - start
            span = self._open(name, start, key, overhead)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                raise
            self._close(span, None)
            return result

        traced.__wrapped_by_bench__ = fn
        return traced

    def add_overhead(self, seconds: float) -> None:
        """Charge ``seconds`` spent outside the library to the innermost
        open span, so that no span's self time counts them."""
        if self._stack and self._stack[-1] < len(self.spans):
            self.spans[self._stack[-1]][OVERHEAD] += seconds

    @contextlib.contextmanager
    def request(self, label: str):
        """Span for one operation the benchmark issues; library spans
        opened inside it share its request id."""
        self._request += 1
        span = self._open(REQUEST_PREFIX + label, time.perf_counter(), None, 0.0)
        try:
            yield
        except BaseException as exc:
            self._close(span, exc)
            raise
        self._close(span, None)

    def install(self, modules) -> dict[str, object]:
        """Wrap every binding of each TRACED function in ``modules``.

        Returns the original functions by traced name.
        """
        originals = traced_functions(modules)
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in originals.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return originals

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self) -> dict:
        return {"fields": list(FIELDS), "spans": self.spans}


def traced_functions(modules) -> dict[str, object]:
    """The TRACED functions, looked up in their defining modules."""
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    out = {}
    for short, names in TRACED.items():
        module = by_name[short]
        for fname in names:
            fn = vars(module)[fname]
            out[f"{short}.{fname}"] = getattr(fn, "__wrapped_by_bench__", fn)
    return out


def missed_bindings(namespaces, originals) -> list[str]:
    """Names in ``namespaces`` (modules or dicts) still bound to an
    unwrapped original: a call through any of them would escape the trace."""
    ids = {id(fn) for fn in originals.values()}
    missed = []
    for ns in namespaces:
        items = ns if isinstance(ns, dict) else vars(ns)
        label = items.get("__name__", "?")
        for attr, value in items.items():
            if id(value) in ids:
                missed.append(f"{label}.{attr}")
    return sorted(missed)


def self_times(spans) -> list[float]:
    """Each span's duration minus its children's durations and its own
    tracing overhead.  Spans nest, so children never overlap."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - covered[i] - s[OVERHEAD] for i, s in enumerate(spans)]


# Per-layer metrics, with their units and which direction is better; the
# order matches BENCHMARK.json.
PER_LAYER = (
    ("fusion.fuse_direct.calls", "count", "lower"),
    ("fusion.fuse_direct.distinct_frac", "ratio", "higher"),
    ("fusion.fuse_direct.accept_frac", "ratio", "higher"),
    ("fusion.fuse_direct.self_s", "s", "lower"),
    ("fusion.bm_check.calls", "count", "lower"),
    ("fusion.bm_check.self_s", "s", "lower"),
    ("fusion.enumerate_fusing_tuples.self_s", "s", "lower"),
    ("fusion.contraction_check.self_s", "s", "lower"),
    ("core.validate_scheme.under_fuse.calls", "count", "lower"),
    ("core.validate_scheme.under_fuse.self_s", "s", "lower"),
    ("core.validate_scheme.outside_fuse.calls", "count", "lower"),
    ("core.validate_scheme.outside_fuse.self_s", "s", "lower"),
    ("core.intersection.s", "s", "lower"),
    ("core.spectral_decomposition.calls", "count", "lower"),
    ("core.spectral_decomposition.distinct", "count", "lower"),
    ("core.spectral_decomposition.self_s", "s", "lower"),
    ("core.spectral_decomposition.failed", "count", "lower"),
    ("generators.gen.self_s", "s", "lower"),
    ("classify.is_amorphic.failed", "count", "lower"),
    ("classify.is_amorphic.self_s", "s", "lower"),
    ("classify.amorphic_oracle.self_s", "s", "lower"),
    ("classify.verify_paper_claims.self_s", "s", "lower"),
    ("hypergraph.build_fusing_hypergraph.self_s", "s", "lower"),
    ("cli.load_scheme.self_s", "s", "lower"),
    ("cli.run_command.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Metrics that are exact counts: two traced runs of one workload must
# agree on them, whatever the seed.
COUNTS = tuple(name for name, unit, _ in PER_LAYER
               if unit == "count" or name.endswith("_frac"))


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_s)."""
    self_s = self_times(spans)
    calls: dict[str, int] = {}
    failed: dict[str, int] = {}
    busy: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    keys: dict[str, set] = {}
    validate = {"under_fuse": [0, 0.0], "outside_fuse": [0, 0.0]}
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + self_s[i]
        inclusive[name] = inclusive.get(name, 0.0) + (s[END] - s[START] - s[OVERHEAD])
        if s[ERROR] is not None:
            failed[name] = failed.get(name, 0) + 1
        if s[KEY] is not None:
            keys.setdefault(name, set()).add(s[KEY])
        if name == "core.validate_scheme":
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
            cell = validate["under_fuse" if parent == "fusion.fuse_direct" else "outside_fuse"]
            cell[0] += 1
            cell[1] += self_s[i]

    fd = "fusion.fuse_direct"
    fd_calls = calls.get(fd, 0)
    fd_rejects = failed.get(fd, 0)
    out = {
        "fusion.fuse_direct.calls": fd_calls,
        "fusion.fuse_direct.distinct_frac": len(keys.get(fd, ())) / fd_calls if fd_calls else 0.0,
        "fusion.fuse_direct.accept_frac": (fd_calls - fd_rejects) / fd_calls if fd_calls else 0.0,
        "fusion.fuse_direct.self_s": busy.get(fd, 0.0),
        "fusion.bm_check.calls": calls.get("fusion.bm_check", 0),
        "fusion.bm_check.self_s": busy.get("fusion.bm_check", 0.0),
        "fusion.enumerate_fusing_tuples.self_s": busy.get("fusion.enumerate_fusing_tuples", 0.0),
        "fusion.contraction_check.self_s": busy.get("fusion.contraction_check", 0.0),
        "core.validate_scheme.under_fuse.calls": validate["under_fuse"][0],
        "core.validate_scheme.under_fuse.self_s": validate["under_fuse"][1],
        "core.validate_scheme.outside_fuse.calls": validate["outside_fuse"][0],
        "core.validate_scheme.outside_fuse.self_s": validate["outside_fuse"][1],
        "core.intersection.s": inclusive.get("core.intersection_numbers", 0.0),
        "core.spectral_decomposition.calls": calls.get("core.spectral_decomposition", 0),
        "core.spectral_decomposition.distinct": len(keys.get("core.spectral_decomposition", ())),
        "core.spectral_decomposition.self_s": busy.get("core.spectral_decomposition", 0.0),
        "core.spectral_decomposition.failed": failed.get("core.spectral_decomposition", 0),
        "generators.gen.self_s": sum(t for n, t in busy.items() if n.startswith("generators.gen_")),
        "classify.is_amorphic.failed": failed.get("classify.is_amorphic", 0),
        "classify.is_amorphic.self_s": busy.get("classify.is_amorphic", 0.0),
        "classify.amorphic_oracle.self_s": busy.get("classify.amorphic_oracle", 0.0),
        "classify.verify_paper_claims.self_s": busy.get("classify.verify_paper_claims", 0.0),
        "hypergraph.build_fusing_hypergraph.self_s": busy.get("hypergraph.build_fusing_hypergraph", 0.0),
        "cli.load_scheme.self_s": busy.get("cli.load_scheme", 0.0),
        "cli.run_command.self_s": busy.get("cli.run_command", 0.0),
    }
    return out


def combine(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes; counts must repeat exactly."""
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if name in COUNTS:
            if len(set(values)) != 1:
                raise ValueError(f"count {name} differs between traced passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out
