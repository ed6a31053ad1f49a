"""Freeze the benchmark's input files and reference values.

Writes into perfbench/fixtures/:

    h5p_chain.fcidump ... h10_chain.fcidump
        linear hydrogen chains at 1.5 Bohr spacing (H5+ carries charge +1),
        built with the STO-3G Hartree-Fock engine of
        tools/make_test_integrals.py, imported unmodified
    reference.json
        h per molecule: exhaustive for the bundled molecules, H5+ and H6
        (H6 takes about half a minute), a high-sample stratified value
        with its standard error for H8 and H10; dense ground energies
        (core included) for the oracle molecules
    goldens_*.json
        outputs of the exact-path report requests, and the seed-independent
        fields of the sampled-path requests

Run from the repository root: python3 perfbench/make_fixtures.py
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from qsimcost import datasets, hamiltonian, oracle, trotter  # noqa: E402

import workloads as wl  # noqa: E402

SPACING = 1.5  # Bohr
REFERENCE_SAMPLES_PER_STRATUM = 40000
REFERENCE_SEED = 20160511


def _integral_tool():
    path = ROOT / "tools" / "make_test_integrals.py"
    spec = importlib.util.spec_from_file_location("make_test_integrals", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_chains():
    tool = _integral_tool()
    for label, (atoms, charge) in wl.CHAINS.items():
        geometry = [("H", [0, 0, z * SPACING]) for z in range(atoms)]
        mol, h_mo, eri_mo, e_nuc = tool.build(label, geometry, charge)
        tool.write_fcidump(
            wl.FIXTURES / f"{label}.fcidump", h_mo, eri_mo, e_nuc,
            mol.n_electrons,
        )


def _terms(label):
    if label in wl.BUNDLED:
        table = datasets.load_molecule(label)
    else:
        table = hamiltonian.parse_fcidump(wl.fcidump_path(label))
    return hamiltonian.enumerate_terms(table)


def reference_values():
    h, e_fci = {}, {}
    for label in wl.BUNDLED + tuple(wl.CHAINS):
        terms = _terms(label)
        start = time.perf_counter()
        if label in ("h8_chain", "h10_chain"):
            estimate = trotter.estimate_error_constant(
                terms, method="stratified",
                samples_per_stratum=REFERENCE_SAMPLES_PER_STRATUM,
                seed=REFERENCE_SEED,
            )
        else:
            estimate = trotter.estimate_error_constant(terms)
        h[label] = {
            "value": estimate.value,
            "std_error": estimate.std_error,
            "method": estimate.method,
            "samples": estimate.samples,
        }
        print(f"{label}: M={len(terms)} h={estimate.value:.10g} "
              f"se={estimate.std_error:.3g} "
              f"({time.perf_counter() - start:.1f} s)")
        if label in wl.ORACLE_MOLECULES:
            matrix = oracle.build_matrix(
                terms, particle_sector=terms.n_electrons
            )
            e_fci[label] = matrix.ground_state()[0]
    return {"h": h, "e_fci": e_fci}


def _cli_golden(argv, fmt):
    code, stdout, stderr = wl.run_cli(argv)
    if code == 0:
        output = json.loads(stdout) if fmt == "json" else stdout
        return {"exit": 0, "format": fmt, "output": output}
    print(f"  exit {code}: {stderr.strip()}")
    return {"exit": code, "format": fmt, "output": None,
            "stderr": stderr.strip()}


def goldens():
    preset = {}
    for rid in wl.preset_ids():
        structure, case, combination = rid.split("/")
        fmt = "json" if combination == "variance" else "markdown"
        print(rid)
        preset[rid] = _cli_golden(wl.preset_argv(structure, case, combination),
                                  fmt)
    exact = {}
    for label in wl.EXACT_MOLECULES:
        print(label)
        exact[label] = _cli_golden(wl.fcidump_argv(label), "json")
    sampled = {}
    for label in wl.SAMPLED_MOLECULES:
        code, stdout, stderr = wl.run_cli(wl.fcidump_argv(label, 0))
        if code != 0:
            raise SystemExit(f"{label}: exit {code}: {stderr}")
        params = json.loads(stdout)["parameters"]
        sampled[label] = {
            key: params[key]["value"]
            for key in ("m_terms", "n_spin_orbitals", "nesting_parallelism")
        }
    return preset, exact, sampled


def _dump(name, data):
    with open(wl.FIXTURES / name, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main():
    os.chdir(ROOT)  # goldens hold checkout-relative paths
    wl.FIXTURES.mkdir(exist_ok=True)
    write_chains()
    _dump("reference.json", reference_values())
    preset, exact, sampled = goldens()
    _dump("goldens_preset_grid.json", preset)
    _dump("goldens_fcidump_exact.json", exact)
    _dump("goldens_fcidump_sampled.json", sampled)


if __name__ == "__main__":
    main()
