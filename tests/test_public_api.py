"""The package's public surface and the cost of importing it."""

import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import types

import qsimcost
from qsimcost.costs import SynthesisModel
from qsimcost.hamiltonian import HamiltonianTerm, IntegralTable, TermList
from qsimcost.oracle import FockMatrixHamiltonian, _ActionTable, _StrangEvaluator

LAYERS = (
    "hamiltonian", "trotter", "oracle", "costs", "par", "surface_code",
    "scenarios", "datasets",
)

# module-level names that no longer exist anywhere
GONE = {
    "trotter": (
        "TrotterNumberModel", "trotter_number_model", "sampling_variance",
        "chebyshev_samples", "_MAX_MASK_BITS",
    ),
    "oracle": ("strang_effective_energy",),
}
# internal plumbing: kept in its module, out of __all__ and the package
INTERNAL = {"costs": ("approx_optimal_budget",), "oracle": ("FockMatrixHamiltonian",)}


def test_public_surface_is_the_layer_exports():
    exported = set()
    for layer in LAYERS:
        module = importlib.import_module(f"qsimcost.{layer}")
        for name in module.__all__:
            assert hasattr(module, name), f"{layer}.__all__ lists missing {name}"
        exported.update(module.__all__)

    reexported = {
        name for name, value in vars(qsimcost).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert reexported <= exported, sorted(reexported - exported)

    for layer, names in GONE.items():
        module = importlib.import_module(f"qsimcost.{layer}")
        for name in names:
            assert not hasattr(module, name), f"{layer}.{name}"
            assert not hasattr(qsimcost, name), name
    for layer, names in INTERNAL.items():
        module = importlib.import_module(f"qsimcost.{layer}")
        for name in names:
            assert hasattr(module, name), f"{layer}.{name}"
            assert name not in module.__all__, f"{layer}.{name}"
            assert not hasattr(qsimcost, name), name
    assert "samples" not in inspect.signature(
        qsimcost.estimate_error_constant
    ).parameters
    for owner, attributes in (
        (HamiltonianTerm, (
            "number_indices", "sort_key", "hop_endpoints", "creation",
            "annihilation", "support", "is_diagonal", "is_one_body",
            "jw_chain", "ladder",
        )),
        (IntegralTable, ("check_symmetry",)),
        (TermList, ("m_unmerged",)),
        (SynthesisModel, ("meets_worst_case_lower_bound",)),
        (_StrangEvaluator, ("report", "step_unitary")),
        (FockMatrixHamiltonian, ("_actions",)),
        (_ActionTable, ("restricted",)),
    ):
        for attribute in attributes:
            assert not hasattr(owner, attribute), f"{owner.__name__}.{attribute}"
    # the row order is the step order; no label names it
    terms = qsimcost.enumerate_terms(qsimcost.load_molecule("h2_sto3g"))
    assert not hasattr(terms, "ordering")
    for function, parameter in (
        (TermList, "ordering"),
        (qsimcost.build_matrix, "include_core"),
        (qsimcost.hartree_fock_overlap, "degeneracy_tol"),
        (qsimcost.costs.approx_optimal_budget, "grid"),
        (qsimcost.physical_report, "processor_logical_qubits"),
    ):
        assert parameter not in inspect.signature(function).parameters, parameter


def test_import_loads_neither_scipy_nor_mpmath():
    # both are test-only dependencies; a stray import would move every
    # command's start-up time
    src = str(pathlib.Path(qsimcost.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    probe = (
        "import sys, qsimcost, qsimcost.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.partition('.')[0] in ('scipy', 'mpmath')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]", result.stdout
