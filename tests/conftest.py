"""Shared fixtures, the label re-validation oracle, the per-class-cell
reference validator, and the acceptance-criteria summary lines."""

import numpy as np
import pytest

import amorphic as am

ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


@pytest.fixture(scope="session")
def corpus():
    """The standard generated corpus, built once per session."""
    return am.standard_corpus()


def fuse_by_relabeling(scheme, pi):
    """Third, test-only fusion oracle: merge the labels of ``scheme`` along
    ``pi`` and re-validate every axiom on the v x v matrix.

    Returns the fused scheme, or None when an axiom fails.
    """
    labels = pi.block_index()[scheme.labels]
    try:
        return am.validate_scheme(am.LabelMatrix(v=scheme.v, d=pi.n_blocks - 1, labels=labels))
    except am.AxiomViolation:
        return None


def validate_by_class_cells(labels):
    """Test-only reference validator: the four axioms checked with one
    int64 product per class pair, scanned class by class, and the tensor
    read off one representative cell per class.

    Returns (valencies, p) or raises AxiomViolation exactly as
    ``validate_scheme`` must: same axiom, same witness cell.
    """
    L = np.asarray(labels, dtype=np.int64)
    v, d = L.shape[0], int(L.max())
    diag = np.diagonal(L)
    if np.any(diag != 0):
        x = int(np.argmax(diag != 0))
        raise am.AxiomViolation("identity", (x, x))
    off_zero = (L == 0) & ~np.eye(v, dtype=bool)
    if off_zero.any():
        x, y = map(int, np.argwhere(off_zero)[0])
        raise am.AxiomViolation("identity", (x, y))
    present = np.zeros(d + 1, dtype=bool)
    present[np.unique(L)] = True
    if not present.all():
        raise am.AxiomViolation("partition", int(np.argmin(present)))
    if not np.array_equal(L, L.T):
        x, y = map(int, np.argwhere(L != L.T)[0])
        raise am.AxiomViolation("symmetry", (x, y))

    mats = [(L == i).astype(np.int64) for i in range(d + 1)]
    class_cells = [np.nonzero(L == h) for h in range(d + 1)]
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for i in range(d + 1):
        for j in range(i, d + 1):
            prod = mats[i] @ mats[j]
            for h in range(d + 1):
                vals = prod[class_cells[h]]
                if np.any(vals != vals[0]):
                    bad = int(np.argmax(vals != vals[0]))
                    cell = (int(class_cells[h][0][bad]), int(class_cells[h][1][bad]))
                    raise am.AxiomViolation("closure", cell)
                p[i, j, h] = p[j, i, h] = vals[0]
    valencies = tuple(int(mats[i][0].sum()) for i in range(d + 1))
    return valencies, p


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        desc, ok = ACCEPTANCE_RESULTS[n]
        terminalreporter.write_line(
            f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
