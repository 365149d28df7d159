"""Multicore-fibre quantum channels and bound-entanglement certification.

A d-core fibre is modeled as a quantum channel parameterized by a crosstalk
probability table and a dephasing coefficient table. The package verifies
channel physicality (trace preservation, complete positivity via the Choi
operator), propagates states, and certifies entanglement of the protocol
output, the Choi state held as its (weights, coherences) pair of d x d
tables, with closed-form PPT and realignment criteria on that pair (the
generic dense criteria remain as the reference). A Dicke-diagonal target is
given by its pair-weight matrix M alone: its partial transpose is the pair
(M, M). Such targets are classified through the doubly-nonnegative and
completely-positive matrix cones, and ``channel_from_ds`` designs the
channel that realizes a given M.
"""

from .channel import (
    CptpReport,
    McfChannel,
    apply,
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
    partial_transpose,
    realign,
    realignment_trace_norm,
    state_from_json,
    state_to_json,
)
from .symmetric_states import (
    channel_from_ds,
    cldui_is_ppt,
    cldui_realignment_test,
)

__version__ = "0.1.0"
