"""hamca: exact simulation and verification of integer-valued Hamiltonian
cellular automata.

The exact layer (gaussian, models, dynamics, conservation, ontology) never
rounds; the continuum layer (continuum) is the floating-point bridge to
ordinary wave mechanics, and it imports numpy only when first used.  See
the README for the file formats and the command-line interface.
"""

from .gaussian import (
    GaussInt,
    GaussMatrix,
    GaussVector,
    inner_product,
    is_hermitian,
    mat_vec,
)
from .models import (
    HamiltonianSpec,
    basis_state,
    build_hamiltonian,
    make_cyclic_model,
    resolve_builtin,
)
from .dynamics import (
    evolve,
    step_backward,
    step_forward,
    stream_states,
    transfer_operators,
)
from .conservation import (
    ConservationReport,
    LinkReport,
    commutator,
    link_counts,
    q1,
    q_G,
)
from .ontology import (
    CycleReport,
    Visit,
    classify_state,
    default_scan_budget,
    find_period,
    scan_ontological_pairs,
)
from .continuum import (
    BandlimitedSignal,
    BornReport,
    ClosedFormSolver,
    Q1Result,
    SpectralForm,
    born_convergence,
    evolve_float,
    q1_constancy,
    reconstruct,
    sinh_residual,
    sinh_residual_bound,
    smooth_partner,
    spectral_decompose,
    tail_bound,
)
from . import errors

__version__ = "0.1.0"
