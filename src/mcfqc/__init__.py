"""Multicore-fibre quantum channels and bound-entanglement certification.

A d-core fibre is modeled as a quantum channel parameterized by a crosstalk
probability table and a dephasing coefficient table. The package verifies
channel physicality (trace preservation, complete positivity via the Choi
operator), propagates states, certifies entanglement of the protocol output
with PPT and realignment criteria (generic and closed-form specialized
routes), and classifies Dicke-diagonal targets through the doubly-
nonnegative and completely-positive matrix cones, including the inverse
design of a channel that realizes a given pair-weight matrix.
"""

from .channel import (
    CptpReport,
    McfChannel,
    apply,
    channel_from_choi,
    channel_from_config,
    channel_to_config,
    choi,
    cp_boundary_uniform_alpha,
    extend_one_side,
    hat_block,
    verify_cptp,
)
from .cones import (
    Classification,
    ConeVerdict,
    CpStatus,
    FactorizationResult,
    SearchBudget,
    classify_ds,
    cp_factorize,
    cp_sufficient,
    is_dnn,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    entrywise_one_norm,
    is_psd,
    matrix_from_literal,
    matrix_to_literal,
    trace_norm,
)
from .pipeline import CertificationReport, DsSection, SweepRow, run_protocol, sweep_alpha
from .states import (
    ClduiState,
    Conclusion,
    CriterionVerdict,
    DensityMatrix,
    is_ppt,
    max_coherent,
    max_entangled,
    partial_trace,
    partial_transpose,
    realign,
    realignment_trace_norm,
    state_from_json,
    state_to_json,
)
from .symmetric_states import (
    DsState,
    channel_from_ds,
    cldui_is_ppt,
    cldui_realignment_test,
    ds_from_m_matrix,
    ds_partial_transpose,
    ds_to_density,
    m_matrix,
)

__version__ = "0.1.0"
