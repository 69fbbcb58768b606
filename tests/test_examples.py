"""Smoke tests: every example script must run to completion.

Examples are the public face of the library; these tests execute each
one in a subprocess (so import-time and ``__main__`` behaviour are both
covered) and sanity-check the printed output.
"""

import doctest
import os
import subprocess
import sys

import pytest

import repro

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
)

EXPECTED_SNIPPETS = {
    "quickstart.py": ["DM-SDH (exact)", "error rate vs exact"],
    "membrane_rdf.py": ["g(r), all atoms", "virial pressure"],
    "nbody_approximate.py": ["m=5", "err h3"],
    "region_queries.py": ["verified against filtered brute force"],
    "trajectory_incremental.py": ["speedup", "max bucket deviation"],
    "periodic_md_analysis.py": [
        "matches min-image brute force",
        "coordination number",
    ],
    "service_quickstart.py": [
        "identical to direct compute_sdh",
        "plan cache: 1 build",
    ],
    "parallel_requests.py": [
        "available engines",
        "bit-identical to the serial grid engine",
    ],
}


def _run(script: str) -> str:
    result = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::DeprecationWarning",
            os.path.join(EXAMPLES_DIR, script),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("script", sorted(EXPECTED_SNIPPETS))
def test_example_runs(script):
    stdout = _run(script)
    for snippet in EXPECTED_SNIPPETS[script]:
        assert snippet in stdout, (script, snippet, stdout[-2000:])


def test_package_docstring_example():
    """The usage example in ``repro.__doc__`` runs as written."""
    result = doctest.testmod(repro)
    assert result.attempted > 0
    assert result.failed == 0


def test_all_examples_are_covered():
    """Every example on disk has a smoke test (and vice versa)."""
    on_disk = {
        name
        for name in os.listdir(EXAMPLES_DIR)
        if name.endswith(".py")
    }
    assert on_disk == set(EXPECTED_SNIPPETS)
