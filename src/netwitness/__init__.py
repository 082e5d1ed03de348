"""Entanglement detection by state preparation and a fixed measurement.

Build witnesses and the network states that realize them, verify the
reconstruction identities exactly, simulate the teleportation-filtering
protocol (exactly and with finite shots), and locate bound entangled states
at desk scale.
"""

__version__ = "0.1.0"

from .tensor import (
    DensityOperator,
    Mat,
    density,
    partial_transpose,
)
from .witnesses import (
    Witness,
    bell_diagonal_witness,
    breuer_hall_witness,
    choi_witness,
    cyclic_inequality_check,
    decomposable_witness,
    reduction_witness,
    sep_floor_estimate,
    two_qubit_pt_witness,
)
from .networks import (
    NetworkState,
    bh_network,
    choi_network,
    decomposable_network,
    flip_network,
    network_from_decomposition,
    pbd_network,
    ppt_report,
    reconstruct_witness,
    reduction_network,
    smolin_network,
    solve_decomposition,
    two_qubit_network,
)
from .protocol import (
    DetectionReport,
    bell_outcome_distribution,
    bell_overlap_raw,
    detect_exact,
    detect_shots,
    filtering_channel,
    measurement_circuit_probs,
    singlet_fraction,
)
from .states import (
    bell_diagonal_state,
    find_choi_detected_ppt,
    isotropic_state,
    random_state,
)
