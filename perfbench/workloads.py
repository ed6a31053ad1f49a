"""Request lists and output checks for the benchmark workloads.

Every workload is a closed loop with one client: the next request is sent
only after the previous one returns. A request is a callable that runs one
unit of user work through qsimcost's public entry points; its check
compares the output with frozen references in ``fixtures/``, and
``Request.judge`` turns that into one of three outcomes:

    "ok"       output present and correct
    "refused"  the program refused the request with the exit code and
               message the golden records for it, a known defect
    "wrong"    any other failure or any output that misses its reference

Module attributes are looked up at call time (``cli.main``,
``oracle.strang_error_scan``), so the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"
BUNDLED_DIR = Path("src") / "qsimcost" / "data"

STRUCTURES = ("struct-1", "struct-2")
BETA_CASES = ("rigorous", "pessimistic", "rescaled", "optimistic")
COMBINATIONS = ("variance", "worst_case")
PRESET_ERROR_RATES = ("1e-3", "1e-6", "1e-9")
FCIDUMP_ERROR_RATES = ("1e-3", "1e-6")

BUNDLED = ("h2_sto3g", "h2_stretched", "heh_plus", "h3_plus", "h4_chain")
# hydrogen chains at 1.5 Bohr spacing frozen by make_fixtures.py:
# label -> (atoms, charge)
CHAINS = {
    "h5p_chain": (5, 1),
    "h6_chain": (6, 0),
    "h8_chain": (8, 0),
    "h10_chain": (10, 0),
}
EXACT_MOLECULES = BUNDLED + ("h5p_chain",)
SAMPLED_MOLECULES = ("h6_chain", "h8_chain", "h10_chain")
ORACLE_MOLECULES = BUNDLED + ("h5p_chain", "h6_chain")

ORACLE_GRID = tuple(float(t) for t in np.geomspace(1e-3, 0.2, 20))
# the H6 sector (dim 924) costs seconds per step size, so it scans one
ORACLE_STEPS = {"h6_chain": (0.2,)}
# the median fcidump-exact request is a bundled molecule's, far cheaper than
# H5+; sending each bundled molecule this often per pass gives it enough
# samples per run for a steady median
BUNDLED_REPEATS = 4
# alone, a bundled molecule's oracle scan takes a few ms whose time doubles
# under host contention, too noisy for the median request; one
# oracle-validate request scans all five
ORACLE_REQUESTS = {
    "bundled": BUNDLED,
    "h5p_chain": ("h5p_chain",),
    "h6_chain": ("h6_chain",),
}

REL_TOL = 1e-9  # exact-path numbers against goldens
ABS_TOL = 1e-15
SIGMAS = 4.0  # sampled h against its reference, in combined standard errors


class Mismatch(Exception):
    """An output that disagrees with its frozen reference."""


@dataclasses.dataclass(frozen=True)
class Request:
    id: str
    run: Callable[[], object]
    check: Callable[[object], str]  # "ok" or "refused"; raises if wrong

    def judge(self, result):
        """(outcome, reason): the check's outcome, or "wrong" and why."""
        try:
            return self.check(result), None
        except (Mismatch, ValueError, KeyError, TypeError) as exc:
            return "wrong", f"{type(exc).__name__}: {exc}"


def fcidump_path(label):
    """Checkout-relative path of a molecule's FCIDUMP."""
    if label in BUNDLED:
        return str(BUNDLED_DIR / f"{label}.fcidump")
    return str(Path("perfbench") / "fixtures" / f"{label}.fcidump")


def preset_argv(structure, beta_case, combination):
    fmt = "json" if combination == "variance" else "markdown"
    return [
        "report", "--structure", structure, "--beta-case", beta_case,
        "--combination", combination, "--epsilons", "1e-4", "1e-3",
        "--strategies", "serial", "nesting", "par",
        "--error-rates", *PRESET_ERROR_RATES, "--format", fmt,
    ]


def fcidump_argv(label, seed=None):
    argv = ["report", "--fcidump", fcidump_path(label),
            "--error-rates", *FCIDUMP_ERROR_RATES]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def preset_ids():
    return [
        f"{s}/{b}/{c}"
        for s in STRUCTURES for b in BETA_CASES for c in COMBINATIONS
    ]


def run_cli(argv):
    """Run ``qsimcost`` in-process; returns (exit code, stdout, stderr)."""
    from qsimcost import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def load_json(name):
    with open(FIXTURES / name) as handle:
        return json.load(handle)


# ---------------------------------------------------------------- comparisons

def compare(got, want, where="$"):
    """Raise Mismatch unless got equals want, numbers to REL_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            raise Mismatch(f"{where}: keys differ")
        for key in want:
            compare(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise Mismatch(f"{where}: list length differs")
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, f"{where}[{i}]")
    elif isinstance(want, bool) or want is None or isinstance(want, str):
        if got != want:
            raise Mismatch(f"{where}: {got!r} != {want!r}")
    elif isinstance(want, (int, float)):
        if (isinstance(got, bool) or not isinstance(got, (int, float))
                or not math.isclose(got, want, rel_tol=REL_TOL,
                                    abs_tol=ABS_TOL)):
            raise Mismatch(f"{where}: {got!r} != {want!r}")
    else:
        raise Mismatch(f"{where}: unexpected golden type {type(want)}")


def all_finite(node, where="$"):
    if isinstance(node, dict):
        for key, value in node.items():
            all_finite(value, f"{where}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            all_finite(value, f"{where}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise Mismatch(f"{where}: non-finite {node!r}")


def _cli_outcome(result, golden):
    """Outcome of a report request against its golden entry."""
    code, stdout, stderr = result
    if golden["exit"] != 0:
        if code == golden["exit"] and golden["stderr"] in stderr:
            return "refused"  # the recorded known defect
        if code != 0:
            raise Mismatch(f"exit {code}: {stderr.strip()}")
        # the defect is fixed: no golden exists, so check sanity only
        if golden["format"] == "json":
            all_finite(json.loads(stdout))
        elif not stdout.strip():
            raise Mismatch("empty report")
        return "ok"
    if code != 0:
        raise Mismatch(f"exit {code}")
    if golden["format"] == "json":
        compare(json.loads(stdout), golden["output"])
    elif stdout != golden["output"]:
        raise Mismatch("markdown report differs from golden")
    return "ok"


# ------------------------------------------------------------------ workloads

class Workload:
    """A named request list plus the state its checks need."""

    name = ""

    def __init__(self, seed):
        self.seed = seed

    def requests(self):
        raise NotImplementedError


class PresetGrid(Workload):
    """``report`` over the published preset grid, through ``cli.main``."""

    name = "preset-grid"

    def __init__(self, seed):
        super().__init__(seed)
        self.goldens = load_json("goldens_preset_grid.json")

    def requests(self):
        out = []
        for rid in preset_ids():
            argv = preset_argv(*rid.split("/"))
            golden = self.goldens[rid]
            out.append(Request(
                rid, lambda argv=argv: run_cli(argv),
                lambda r, g=golden: _cli_outcome(r, g),
            ))
        return out


class FcidumpExact(Workload):
    """``report --fcidump`` on inputs small enough for exhaustive h."""

    name = "fcidump-exact"

    def __init__(self, seed):
        super().__init__(seed)
        self.goldens = load_json("goldens_fcidump_exact.json")
        for label in EXACT_MOLECULES:
            Path(fcidump_path(label)).stat()

    def requests(self):
        out = []
        for label in EXACT_MOLECULES:
            argv = fcidump_argv(label)
            golden = self.goldens[label]
            request = Request(
                label, lambda argv=argv: run_cli(argv),
                lambda r, g=golden: _cli_outcome(r, g),
            )
            out.extend([request] * (BUNDLED_REPEATS if label in BUNDLED
                                    else 1))
        return out


class FcidumpSampled(Workload):
    """``report --fcidump --seed`` on inputs past the exhaustive cap."""

    name = "fcidump-sampled"

    def __init__(self, seed):
        super().__init__(seed)
        self.reference = load_json("reference.json")
        self.goldens = load_json("goldens_fcidump_sampled.json")
        for label in SAMPLED_MOLECULES:
            Path(fcidump_path(label)).stat()
        self._standard_errors = {}

    def standard_error(self, label, method):
        """SE of the request path's estimator for this seed (untimed)."""
        key = (label, method)
        if key not in self._standard_errors:
            from qsimcost import hamiltonian, trotter

            terms = hamiltonian.enumerate_terms(
                hamiltonian.parse_fcidump(fcidump_path(label))
            )
            estimate = trotter.estimate_error_constant(
                terms, method=method, seed=self.seed
            )
            self._standard_errors[key] = estimate.std_error
        return self._standard_errors[key]

    def check(self, label, result):
        code, stdout, _ = result
        if code != 0:
            raise Mismatch(f"exit {code}")
        data = json.loads(stdout)
        all_finite(data)
        params = data["parameters"]
        golden = self.goldens[label]
        for key in ("m_terms", "n_spin_orbitals", "nesting_parallelism"):
            compare(params[key]["value"], golden[key], f"$.parameters.{key}")
        if params["seed"]["value"] != self.seed:
            raise Mismatch("seed not passed through")
        h = params["h_bound"]["value"]
        ref = self.reference["h"][label]
        method = params["h_bound"]["method"]
        se = 0.0 if method == "exhaustive" else self.standard_error(
            label, method)
        tolerance = SIGMAS * math.hypot(se, ref["std_error"])
        if abs(h - ref["value"]) > tolerance:
            raise Mismatch(
                f"h {h:.6g} is {abs(h - ref['value']) / tolerance * SIGMAS:.1f} "
                f"combined SE from reference {ref['value']:.6g}"
            )
        for eps, beta in params["beta"]["value"].items():
            compare(beta, math.sqrt(h / float(eps)), f"$.beta.{eps}")
        return "ok"

    def requests(self):
        out = []
        for label in SAMPLED_MOLECULES:
            argv = fcidump_argv(label, self.seed)
            out.append(Request(
                label, lambda argv=argv: run_cli(argv),
                lambda r, label=label: self.check(label, r),
            ))
        return out


class OracleValidate(Workload):
    """``strang_error_scan`` rows checked against frozen exact h."""

    name = "oracle-validate"

    def __init__(self, seed):
        super().__init__(seed)
        from qsimcost import datasets, hamiltonian

        self.reference = load_json("reference.json")
        self.terms = {}
        for label in ORACLE_MOLECULES:
            if label in BUNDLED:
                table = datasets.load_molecule(label)
            else:
                table = hamiltonian.parse_fcidump(fcidump_path(label))
            self.terms[label] = hamiltonian.enumerate_terms(table)

    def check_rows(self, label, rows):
        steps = ORACLE_STEPS.get(label, ORACLE_GRID)
        if len(rows) != len(steps):
            raise Mismatch(f"{len(rows)} rows for {len(steps)} step sizes")
        h = self.reference["h"][label]["value"]
        compare(rows[0].e_fci, self.reference["e_fci"][label], "$.e_fci")
        checked = 0
        for row in rows:
            if row.phase_wrapped:
                continue
            checked += 1
            if h * row.t**2 < row.delta_e:
                raise Mismatch(
                    f"bound violated at t={row.t:g}: h t^2 = {h * row.t**2:.3e}"
                    f" < delta_e = {row.delta_e:.3e}"
                )
        if not checked:
            raise Mismatch("every row wrapped its phase")
        return "ok"

    def requests(self):
        from qsimcost import oracle

        def scan(labels):
            return [
                (label, oracle.strang_error_scan(
                    self.terms[label], ORACLE_STEPS.get(label, ORACLE_GRID)))
                for label in labels
            ]

        def check(results):
            for label, rows in results:
                self.check_rows(label, rows)
            return "ok"

        return [
            Request(rid, lambda labels=labels: scan(labels), check)
            for rid, labels in ORACLE_REQUESTS.items()
        ]


WORKLOADS = {
    cls.name: cls
    for cls in (PresetGrid, FcidumpExact, FcidumpSampled, OracleValidate)
}
