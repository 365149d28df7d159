"""End-to-end certification protocol.

The protocol sends one half of a maximally entangled pair through the fibre
and certifies the entanglement of the output state: the Choi state, which
``channel.choi`` builds in closed form as a ``ClduiState``, its (weights,
coherences) pair of d x d tables (the tests compare its dense expansion
with the one-sided application). Each criterion is decided once, by the
closed-form test on that pair. The report holds that one pair as its
``cldui`` field and section; no d^2 x d^2 matrix is built. When the pair is
(M, M) with M symmetric, the output is the partial transpose of a
Dicke-diagonal state, and M, already written as the weights, is classified
through the matrix cones in ``ds_section``; only ``run_protocol`` classifies
M. The dense criteria of ``states`` are mathematically equivalent; the
tests keep them as the reference the closed forms are checked against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import (
    CptpReport,
    McfChannel,
    _apply,
    _choi,
    channel_to_config,
    verify_cptp,
)
from .cones import Classification, ConeVerdict, SearchBudget, classify_ds
from .linalg import DEFAULT_TOL, Tolerance, dump_json, matrix_to_literal
from .states import ClduiState, CriterionVerdict, max_coherent
from .symmetric_states import cldui_is_ppt, cldui_realignment_test


@dataclass(frozen=True)
class DsSection:
    """Cone verdict on the pair-weight matrix, the report's weights, present
    only when the output state is the pair (M, M)."""

    classification: Classification
    cone: ConeVerdict


@dataclass(frozen=True)
class CertificationReport:
    """``channel_config`` is the certified channel's config, the dict the
    provenance digest was computed from; the report writes it as is."""

    cptp: CptpReport
    cldui: ClduiState
    verdicts: tuple[CriterionVerdict, ...]
    ds_section: DsSection | None
    provenance: dict
    warnings: tuple[str, ...]
    channel_config: dict = field(repr=False, compare=False)

    def verdict(self, name: str) -> CriterionVerdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        obj = {
            "channel": self.channel_config,
            "cptp": self.cptp.to_json_dict(),
            "cldui": {
                "weights": matrix_to_literal(self.cldui.weights),
                "coherences": matrix_to_literal(self.cldui.coherences),
            },
            "verdicts": [_verdict_to_json(v) for v in self.verdicts],
            "ds_section": None,
            "provenance": self.provenance,
            "warnings": list(self.warnings),
            "tolerances": dict(self.provenance["tolerances"]),
        }
        if self.ds_section is not None:
            obj["ds_section"] = {
                "classification": self.ds_section.classification.value,
                "cone": self.ds_section.cone.to_json_dict(),
            }
        return obj


def _verdict_to_json(v: CriterionVerdict) -> dict:
    return {"name": v.name, "value": v.value, "flag": v.flag.value}


def config_digest(obj) -> str:
    """sha256 of the canonical JSON encoding of a config object: the compact
    text of linalg.dump_json, which the tests hold equal to
    json.dumps(obj, sort_keys=True, separators=(",", ":")). The matrix
    literals in the config are formatted once, for the digest and the report."""
    return hashlib.sha256(dump_json(obj, compact=True).encode("utf-8")).hexdigest()


def run_protocol(
    ch: McfChannel,
    *,
    tol: Tolerance = DEFAULT_TOL,
    budget: SearchBudget = SearchBudget(),
    force: bool = False,
    timestamp: str | None = None,
) -> CertificationReport:
    """Generate the protocol output state and certify it from its table pair.

    The report carries the Choi state as its (weights, coherences) pair and
    the closed-form PPT and realignment verdicts on that pair, each decided
    once. Requires a trace-preserving channel. A channel outside the
    completely positive window is refused unless forced, in which case the
    report is marked as an unphysical-parameter evaluation and the criteria
    are still computed mechanically. A pair (M, M) with M symmetric is
    classified under the budget in ``ds_section``.

    The channel is serialized once: the provenance digest hashes that
    config, and the report writes the same dict.
    """
    cptp, cldui, verdicts, warnings = _certify(ch, tol, force)
    ds_section = None
    weights = cldui.weights
    symmetric = np.abs(weights - weights.T).max() <= tol.eq_tol
    hat_matches = np.abs(cldui.coherences - weights).max() <= tol.eq_tol
    if symmetric and hat_matches:
        ds_section = DsSection(*classify_ds(weights, budget, tol))
    channel = channel_to_config(ch)
    tolerances = _fields(tol)
    config = {
        "channel": channel,
        "budget": _fields(budget),
        "force": force,
        "tolerances": tolerances,
    }
    provenance = {
        "config_sha256": config_digest(config),
        "seed": budget.seed,
        "timestamp": timestamp,
        "tolerances": tolerances,
    }
    return CertificationReport(cptp, cldui, verdicts, ds_section, provenance, warnings, channel)


def _fields(obj) -> dict:
    """A flat dataclass as a dict: dataclasses.asdict without its deep copy."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _certify(ch: McfChannel, tol: Tolerance, force: bool):
    """The physicality gate and the criteria on the Choi pair, shared by
    run_protocol and sweep_alpha: (cptp, cldui, verdicts, warnings)."""
    cptp = verify_cptp(ch, tol)
    if not cptp.tp_ok:
        raise ValueError("channel is not trace-preserving (crosstalk rows must sum to 1)")
    warnings: tuple[str, ...] = ()
    if not cptp.cp_ok:
        if not force:
            raise ValueError(
                "channel is not completely positive; pass force to evaluate anyway"
            )
        warnings = ("unphysical parameters",)

    cldui = _choi(ch, cptp)
    verdicts = (cldui_is_ppt(cldui, tol), cldui_realignment_test(cldui, tol))
    return cptp, cldui, verdicts, warnings


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    cp_ok: bool
    verdicts: tuple[CriterionVerdict, ...]
    action: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "cp_ok": self.cp_ok,
            "verdicts": [_verdict_to_json(v) for v in self.verdicts],
            "action_abs": matrix_to_literal(np.abs(self.action)),
        }


def sweep_alpha(
    crosstalk,
    grid,
    *,
    tol: Tolerance = DEFAULT_TOL,
    budget: SearchBudget = SearchBudget(),
) -> list[SweepRow]:
    """Evaluate a uniform-dephasing family over a grid of alpha values.

    Each row records the physicality check, the certification verdicts of
    the protocol output, and the channel action on the maximally coherent
    state, built once for the whole grid. Rows follow the grid order;
    channels outside the completely positive window are evaluated in forced
    mode rather than skipped. Rows carry no provenance, so no row builds or
    hashes a channel config, and no cone section, so ``budget`` goes unused.
    """
    rows = []
    probe = None
    for alpha in grid:
        ch = McfChannel.with_uniform_dephasing(crosstalk, float(alpha))
        if probe is None:
            probe = max_coherent(ch.d)
        cptp, _, verdicts, _ = _certify(ch, tol, force=True)
        action = _apply(ch, probe, cptp, force=True)
        rows.append(SweepRow(float(alpha), cptp.cp_ok, verdicts, action.mat))
    return rows
