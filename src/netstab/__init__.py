"""netstab: stabilization of linear plants over capacity-constrained
MIMO transceivers.

Decides whether a continuous-time plant can be stabilized through a bank of
fixed-capacity subchannels (AWGN or fading), synthesizes the feedback gain
and encoder/decoder pair when it can, and verifies the closed loop
numerically.
"""

from .analysis import (
    AnalysisReport,
    StateSpace,
    analyze,
    channel_powers_awgn,
    closed_loop,
    h2_gramian_entrywise,
    h2_norm_squared,
    mixed_norms,
    ms_norm,
    ms_operator_abscissa,
    simulate_fading_covariance,
)
from .codesign import (
    CoDesign,
    CoDesignResult,
    check_corollaries,
    codesign,
    synthesize_codec,
    synthesize_gain,
)
from .cyclic import (
    CyclicDecomposition,
    cyclic_decompose,
    cyclic_index,
    verify_decomposition,
)
from .majorize import (
    OrderVerdict,
    brute_force_feasible_gamma,
    check_order,
    construct_intermediate,
    pad_to_match,
    schur_horn_isometry,
)
from .numerics import (
    integrate_linear_matrix_ode,
    solve_care_stabilizing,
    solve_lyapunov,
    spectral_radius,
)
from .plantmodel import (
    ChannelEnsemble,
    Plant,
    capacities,
    topological_entropy,
    total_capacity,
    validate_plant,
)

__version__ = "0.1.0"
