"""Byte-exact CLI outputs pinned against a frozen capture.

Each case pins stdout, stderr and the exit code of one invocation. The
report cases cover the logical and fault-tolerance tables and the
published-T-count comparison on stderr; the logical cases cover every
strategy's markdown row and its full JSON report. Refresh the capture,
only after a deliberate output change, from the repository root:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from qsimcost.cli import main

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "cli_golden.json"
LOGICAL = (
    "logical", "--m", "6.1e6", "--beta", "166", "--epsilon", "1e-4",
    "--n-spin-orbitals", "108",
)
STRATEGIES = {
    "serial": ("--strategy", "serial"),
    "nesting": ("--strategy", "nesting", "--parallelism", "26"),
    "par": ("--strategy", "par"),
}
REPORT = ("report", "--structure", "struct-1", "--error-rates", "1e-3", "1e-6")
CASES = {
    "report-json": REPORT + ("--format", "json"),
    "report-markdown": REPORT + ("--format", "markdown"),
    "physical-table3": ("physical", "--p", "1e-3"),
    "physical-topological": (
        "physical", "--p", "1e-4", "--scenario", "topological",
    ),
    **{
        f"logical-{name}{suffix}": LOGICAL + ("--format", form) + flags
        for name, flags in STRATEGIES.items()
        for form, suffix in (("markdown", ""), ("json", "-json"))
    },
}


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(golden, name):
    want = golden[name]
    assert want["argv"] == list(CASES[name])
    got = capture(CASES[name])
    assert got["exit"] == want["exit"]
    assert got["stderr"] == want["stderr"]
    assert got["stdout"] == want["stdout"]


if __name__ == "__main__":
    frozen = {
        name: dict(argv=list(argv), **capture(argv))
        for name, argv in sorted(CASES.items())
    }
    GOLDEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
