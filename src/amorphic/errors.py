"""Exception hierarchy shared by all modules."""


class SchemeError(Exception):
    """Base class for everything raised by this package."""


class AxiomViolation(SchemeError):
    """One of the four defining axioms fails.

    ``axiom`` is one of "identity", "partition", "symmetry", "closure";
    ``witness`` locates an offending cell (or label) when available.
    """

    def __init__(self, axiom, witness=None, message=""):
        self.axiom = axiom
        self.witness = witness
        detail = f" at {witness}" if witness is not None else ""
        super().__init__(message or f"axiom {axiom!r} violated{detail}")


class DegenerateSpectrum(SchemeError):
    """Two eigenvalues are neither equal within tolerance nor far enough
    apart to trust, or a spectral identity fails beyond tolerance."""


class IdempotencyViolation(SchemeError):
    """An idempotent-basis invariant exceeds tolerance."""

    def __init__(self, index, residual):
        self.index = index
        self.residual = residual
        super().__init__(f"idempotent {index}: residual {residual:.3e} exceeds tolerance")


class NegativeKrein(SchemeError):
    """A Krein parameter falls below -tolerance."""

    def __init__(self, i, j, h, value):
        self.indices = (i, j, h)
        self.value = value
        super().__init__(f"q[{i}][{j}][{h}] = {value:.6g} is negative")


class NotAFusion(SchemeError):
    """The requested class partition does not yield a fusion scheme."""


class NotFusing(NotAFusion):
    """A tuple handed to a triple classifier does not fuse."""


class OracleDisagreement(SchemeError):
    """The exact integer oracle and the eigenmatrix criterion disagree.

    This must never happen; it indicates a numerical-policy failure, so we
    abort instead of picking a winner.
    """


class LimitExceeded(SchemeError):
    """An enumeration limit (class count, word length, ...) was exceeded."""


class PreconditionFailed(SchemeError):
    """A stated precondition of an operation does not hold."""


class Unclassified(SchemeError):
    """An overlap pattern matches none of the known subcases."""

    def __init__(self, signature):
        self.signature = signature
        super().__init__(f"overlap signature {signature!r} matches no subcase")


class WrongUniformity(SchemeError):
    """Hypergraph operation called with an unsupported uniformity k."""


class WrongClassCount(SchemeError):
    """Operation restricted to a fixed class count d."""


class NotSymmetric(SchemeError):
    """Construction would produce a non-symmetric relation."""


class FieldUnsupported(SchemeError):
    """No construction table for the requested field order."""


class ParseError(SchemeError):
    """Scheme file fails to parse; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)


class Falsification(SchemeError):
    """A machine-checked claim failed on a concrete scheme.

    Mathematically impossible if the theory is right, so any instance is a
    bug alarm and is treated as fatal in corpus runs.
    """
