"""spinqec: spin-qudit code construction, tailoring, and detection cycles.

Layout
------
``spin``       spin systems, Hamiltonians, dressed states, transition data
``linalg``     Hermitian eigensolver (round-robin Jacobi, numpy) and Kronecker helpers
``codewords``  code-word families, error sets, Knill-Laflamme residuals
``tailor``     branch-angle tailoring: closed-form solves, sweeps, contours
``register``   three-qudit + ancilla state vector and pulse application
``blocks``     pulse-sequence synthesis (encode / entangle / detection)
``cycle``      detection plans, decode-cycle simulation, pulse budgets
``cli``        command-line interface
"""

from .blocks import Block, SynthesisError, detection_block, enc_block, \
    encode_register, entangle_block, psi_encoded
from .codewords import CodeWord, ErrorSet, KLReport, kl_residuals, \
    lift_to_electron_nuclear, make_codeword, standard_error_sets
from .cycle import DetectionPlan, SyndromeRecord, build_detection_plan, \
    detection_records, fidelity_threshold, full_order, pulse_budget, \
    run_detection, z_biased_order
from .linalg import EigenDecomposition, NumericalError, PreconditionError, \
    hermitian_eigendecompose, kron
from .register import AnnihilationError, Gate, QuditRegister, apply_error, \
    apply_gate, apply_gates, gates_matrix, init_register, inverted_gates, \
    pi_pulse, rotation
from .spin import LabelingError, SpinSystem, build_hamiltonian, \
    dressed_eigenstates, get_system, load_system, manifold_states, \
    nuclear_transition_frequencies, spin_operators, transition_gradients
from .tailor import TailoringProblem, TailoringSolution, field_sweep_tailoring, \
    solve_full_tailoring_92, solve_partial_tailoring_72, trace_zero_contour

__version__ = "0.1.0"

#: No compiled kernels exist: every kernel is plain numpy.  These two names
#: stay for callers that record run metadata.
HAVE_NUMBA = False


def backend_name():
    """Name of the kernel implementation; always ``"numpy"``."""
    return "numpy"


__all__ = [
    "AnnihilationError", "Block", "CodeWord", "DetectionPlan",
    "EigenDecomposition", "ErrorSet", "Gate", "HAVE_NUMBA", "KLReport",
    "LabelingError", "NumericalError", "PreconditionError", "QuditRegister",
    "SpinSystem", "SyndromeRecord", "SynthesisError", "TailoringProblem",
    "TailoringSolution", "apply_error", "apply_gate", "apply_gates",
    "backend_name", "build_detection_plan", "build_hamiltonian",
    "detection_block", "detection_records",
    "dressed_eigenstates", "enc_block", "encode_register", "entangle_block",
    "fidelity_threshold", "field_sweep_tailoring", "full_order",
    "gates_matrix", "get_system", "hermitian_eigendecompose",
    "init_register", "inverted_gates",
    "kl_residuals", "kron", "lift_to_electron_nuclear", "load_system",
    "make_codeword", "manifold_states", "nuclear_transition_frequencies",
    "pi_pulse", "psi_encoded", "pulse_budget", "rotation", "run_detection",
    "solve_full_tailoring_92", "solve_partial_tailoring_72",
    "spin_operators", "standard_error_sets", "trace_zero_contour",
    "transition_gradients", "z_biased_order", "__version__",
]
