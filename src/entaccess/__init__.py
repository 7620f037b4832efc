"""Entanglement access control on a star quantum network.

Exact state-vector simulation of fair W-state contention, deterministic EPR
extraction from a shared GHZ state, and the uplink/downlink time-slot
protocols that teleport payload qubits over the extracted pair.
"""

from .circuits import (
    GateList,
    GateOp,
    LeaderAwareLayout,
    ancilla_count,
    leader_aware_circuit,
    prepare_ghz,
    prepare_leader_aware,
    prepare_w,
)
from .extraction import (
    BELL_PHI_MINUS,
    BELL_PHI_PLUS,
    ExtractionResult,
    PSequence,
    apply_up,
    bell_pair_reference,
    build_p_sequence,
    extract_epr,
    parity_correct,
    unitary_for,
)
from .protocol import (
    ClassicalMessage,
    ContentionOutcome,
    EndNodeReport,
    OrchestratorBroadcast,
    ProtocolError,
    Role,
    SlotReport,
    SlotType,
    contend,
    decode_ancilla,
    delivered_fidelity,
    local_view,
    message_bits,
    message_shape,
    read_ancillas,
    run_contention,
    run_downlink_slot,
    run_slot,
    run_uplink_slot,
    teleport_receive,
    teleport_send,
)
from .session import (
    AnonymityReport,
    FairnessResult,
    SessionConfig,
    SessionStats,
    SlotBranch,
    anonymity_experiment,
    collect_traffic_shapes,
    enumerate_slot_branches,
    fairness_experiment,
    run_session,
)
from .statevector import (
    Basis,
    Gate,
    HADAMARD,
    IDENTITY,
    MeasurementRecord,
    PAULI_X,
    PAULI_Z,
    RandomSource,
    StateVector,
    apply_cnot,
    apply_single,
    enumerate_branches,
    fidelity,
    haar_qubit,
    marginal_distribution,
    measure,
    product_state,
    tensor_product,
)

__version__ = "0.1.0"
