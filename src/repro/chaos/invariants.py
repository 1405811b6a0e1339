"""Safety and liveness invariants for chaos-injected rounds.

The paper's correctness claim under faults (Alg. 4, Sec. V) decomposes
into two machine-checkable invariants:

**Safety** — a round that *reports* completion must produce the exact
aggregate: bit-identical to the fault-free aggregate of the same seed.
SAC's fault tolerance recovers the *same* subtotals a fault-free round
computes (every peer's shares were distributed before any tolerated
crash), and summation order is deterministic, so any deviation — a
wrong average, a missing contributor, a float reordering — is a bug,
not noise.  The reference is an array, not a second simulation: the
no-simulator Alg. 3 computation
(:func:`repro.core.wire_round.two_layer_reference_average`,
:func:`repro.secure.protocol.sac_reference_average`), which has no way
to fail and is pinned bit-identical to the fault-free actor round.

**Liveness** — a round must either complete or fail *typed*: a
:class:`~repro.simnet.RoundOutcome` naming the cause (unrecoverable
dropout, isolated leader, exhausted retransmit budget).  Idling to the
blunt ``round_timeout_ms`` is the degradation mode this PR engineers
away; :func:`check_liveness` flags it as a hang.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..simnet import TIMED_OUT, RoundOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..secure.protocol import ActorRoundResult


@dataclass(frozen=True)
class InvariantVerdict:
    """One invariant's pass/fail plus a human-readable explanation."""

    ok: bool
    detail: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def check_safety(
    result: "ActorRoundResult", reference: Optional[np.ndarray]
) -> InvariantVerdict:
    """A completed chaos round must equal the fault-free reference exactly.

    ``reference`` is the fault-free aggregate of the same round (same
    models, same seed).  It is read only when the round completed — a
    degraded chaos round is vacuously safe (it produced no aggregate to
    be wrong), so callers need not compute a reference for one.
    """
    if not result.outcome.ok:
        if result.average is not None:
            return InvariantVerdict(
                False,
                f"degraded round ({result.outcome}) still exposes an average",
            )
        return InvariantVerdict(
            True, f"no aggregate exposed ({result.outcome.status})"
        )
    if result.average is None:
        return InvariantVerdict(False, "completed round has no average")
    if not np.array_equal(np.asarray(result.average), np.asarray(reference)):
        delta = float(
            np.max(np.abs(np.asarray(result.average) - np.asarray(reference)))
        )
        return InvariantVerdict(
            False,
            f"aggregate deviates from the fault-free run (max abs diff {delta:g})",
        )
    return InvariantVerdict(True, "aggregate bit-identical to fault-free run")


#: reason prefix used by the blunt-timeout classifier — a round that
#: idled to ``round_timeout_ms`` without a sharper cause.
_HANG_PREFIX = "round timeout"


def check_liveness(result: "ActorRoundResult") -> InvariantVerdict:
    """The round completed, or failed with a *typed* cause — not a hang."""
    outcome = result.outcome
    if outcome.ok:
        return InvariantVerdict(True, "completed")
    if outcome.status == TIMED_OUT and outcome.reason.startswith(_HANG_PREFIX):
        return InvariantVerdict(
            False, f"hung to the round timeout: {outcome.reason}"
        )
    return InvariantVerdict(True, f"typed degradation: {outcome}")


# ---------------------------------------------------------------------------
# cross-round (campaign) invariants
# ---------------------------------------------------------------------------

@runtime_checkable
class CampaignRound(Protocol):
    """Duck type for one campaign round record (see repro.campaign)."""

    index: int
    outcome: RoundOutcome
    #: True when the round ran with no fault schedule, no churn applied
    #: at its boundary, and a feasible (post-reshard) topology.
    quiesced: bool


def check_eventual_recovery(rounds: "Sequence[CampaignRound]") -> InvariantVerdict:
    """Any degraded round is recovered by the next quiesced round.

    The campaign analogue of liveness: degradation under active churn or
    faults is allowed, but once the schedule quiesces the very next
    quiet round must complete.  A degraded round with no later quiesced
    round (the campaign ended mid-storm, or collapsed below the k-of-n
    floor for good) is vacuously satisfied — the *typed* collapse is
    already reported per-round.
    """
    for i, rec in enumerate(rounds):
        if rec.outcome.ok:
            continue
        quiet = next((q for q in rounds[i + 1:] if q.quiesced), None)
        if quiet is not None and not quiet.outcome.ok:
            return InvariantVerdict(
                False,
                f"round {rec.index} degraded ({rec.outcome.status}) and the "
                f"next quiesced round {quiet.index} did not recover "
                f"({quiet.outcome.status}: {quiet.outcome.reason})",
            )
    return InvariantVerdict(True, "every degraded round recovered on quiesce")


def check_reshard_floor(plan, k: int) -> InvariantVerdict:
    """A reshard plan never produces a group below the k-of-n floor.

    ``plan`` is a :class:`repro.core.resharding.ReshardPlan` (duck-typed
    on ``.topology`` to keep this module free of a core dependency).
    """
    sizes = plan.topology.group_sizes
    if not sizes:
        return InvariantVerdict(False, "reshard plan has no groups")
    if min(sizes) < k:
        return InvariantVerdict(
            False,
            f"reshard produced a group of {min(sizes)} < k={k} "
            f"(sizes {sizes})",
        )
    return InvariantVerdict(
        True, f"all {len(sizes)} group(s) at or above the k={k} floor"
    )
