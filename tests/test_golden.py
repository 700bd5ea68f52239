"""Golden CLI outputs: every command on a fixed set of instance files,
compared byte for byte (exit code, stdout, stderr) with recorded runs.

The instances under data/golden cover a plain lattice with a body,
exact alpha, exact alpha at d = 4 whose minima pick four points, an
ambient frame with a body, a precision floor, a truncated literal
beside a rational, exact and truncated coset representatives, a mixed
exact-series/rational alpha, q = 4 with a modulus, q = 3, an
N-rational alpha (exit 1) and a construction refusal (exit 3).  Regenerate expected.json, after checking that a change of
output is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from fflat import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
EXPECTED = GOLDEN / "expected.json"
INSTANCES = sorted(p.stem for p in GOLDEN.glob("*.json") if p != EXPECTED)
COMMANDS = (
    ["reduce"], ["minima"], ["covrad"], ["covrad", "--oracle"], ["packrad"],
    ["density"], ["count"], ["count", "--radius", "1"],
    ["count", "--radius", "-2"], ["count", "--radius", "3"], ["dinv"], ["mink-search"],
)


def outputs(name: str) -> list:
    """Every command on one instance in both formats, as
    [argv, exit code, stdout, stderr], argv naming the instance by stem."""
    out = []
    for cmd in COMMANDS:
        for fmt in ("text", "json"):
            argv = [*cmd, "--format", fmt]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([*argv, str(GOLDEN / f"{name}.json")])
            out.append([[*argv, name], code, stdout.getvalue(), stderr.getvalue()])
    return out


@pytest.mark.parametrize("name", INSTANCES)
def test_cli_outputs_match_the_recorded_runs(name):
    want = json.loads(EXPECTED.read_text())[name]
    assert outputs(name) == want


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps({n: outputs(n) for n in INSTANCES}, indent=1) + "\n")
    sys.exit(0)
