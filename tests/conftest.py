"""Shared fixtures, the label re-validation oracle, and the
acceptance-criteria summary lines."""

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        desc, ok = ACCEPTANCE_RESULTS[n]
        terminalreporter.write_line(
            f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
