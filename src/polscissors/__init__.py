"""Heralded preparation of polarization entanglement via quantum scissors.

Sparse polarized-Fock-space simulation of the preparation circuits plus the
closed-form analytics they must reproduce, with a sweep/verification harness
and CLI on top.
"""

from .fock import (
    H,
    V,
    CutoffError,
    FockError,
    ProjectionOutcome,
    PureState,
    ShapeMismatchError,
    ZeroNormError,
    coherent_tail_weight,
    dump_lines,
    fidelity,
    inner_product,
    make_state,
    min_cutoff,
    normalize,
    permute_modes,
    project_number,
    prune,
    tensor,
    vacuum,
)
from .elements import (
    BeamSplitterSpec,
    SqueezerSpec,
    apply_bs,
    apply_hwp,
    apply_pbs,
    apply_pol_phase,
    apply_squeezer_exact,
)
from .sources import (
    SourceParams,
    cat,
    coherent,
    lambda_circuit,
    lambda_state,
    split_amplitudes,
    target_omega,
    xi_circuit,
    xi_direct,
)
from .scissors import (
    ScissorsResult,
    pqs1_apply,
    pqs2_apply,
    qs_apply,
)
from .preparations import (
    PREPARATIONS,
    Pipeline,
    PrepResult,
    analytic_named,
    prepare_bell,
    prepare_named,
    prepare_stages,
    required_cutoff,
)
from . import analytics

__version__ = "0.1.0"
