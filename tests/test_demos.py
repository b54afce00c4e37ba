"""The demos, run as scripts, print exactly what they printed before.

Each demo runs in its own interpreter, as a reader would run it.  A change
that keeps every answer keeps every digest; a change meant to alter a
demo's output states why and updates its digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import amorphic as am

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_spectrum_basics.py": "7578035e3968bc4e5d8c1d3ee5a82134a06d82c619bde234e7d65ebdfd29d90d",
    "02_fusion_oracles.py": "1b2a69d965262b12b5881bd683a7f2c15a3134dd53e4c94f9a3627b77e04a805",
    "03_sunflowers_amorphic.py": "a7c1999666cc857e89b0c7db973c55b5382559bcf870f40fe3a659dbbd71bf9e",
    "04_claim_verifier.py": "9c5e001bdf50a7183468af5493d36903ab9cd565f5200c7fe95dfae6c54846b5",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_byte_identical(name):
    src = str(Path(am.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
