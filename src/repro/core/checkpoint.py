"""Checkpoint/resume for long FL sessions and campaigns.

A checkpoint captures the global model, the round counter, and (for
campaign runs) a topology/membership snapshot — enough to restart a
1000-round run (paper scale) after an interruption.  Peer-side optimizer
moments and RNG streams are *not* captured: federated rounds re-seed
local training from the global model anyway, so a resumed run is
statistically equivalent but not bit-identical to an uninterrupted one.

Robustness contract:

- every checkpoint carries a format ``version``; :func:`load_checkpoint`
  raises a typed :class:`CheckpointError` (never a raw ``KeyError`` or
  ``zipfile`` traceback) on a missing file, a truncated/corrupt archive,
  missing arrays, or an unknown version;
- writes are atomic (tmp file + ``os.replace``), so a crash mid-save
  never leaves a truncated checkpoint behind — the previous checkpoint,
  if any, survives intact.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from dataclasses import dataclass

import numpy as np

from .topology import Topology

#: current checkpoint format version, embedded in every archive.
CHECKPOINT_VERSION = 1

#: arrays every checkpoint archive must contain.
_REQUIRED_KEYS = ("global_weights", "next_round", "metadata", "version")


class CheckpointError(Exception):
    """A checkpoint could not be read: missing, corrupt, or unknown version."""


@dataclass(frozen=True)
class Checkpoint:
    """A saved training state."""

    global_weights: np.ndarray
    next_round: int
    metadata: dict
    version: int = CHECKPOINT_VERSION

    @property
    def topology(self) -> Topology | None:
        """The topology snapshot saved with this checkpoint, if any."""
        snap = self.metadata.get("topology")
        if snap is None:
            return None
        return Topology(
            groups=tuple(tuple(g) for g in snap["groups"]),
            leaders=tuple(snap["leaders"]),
        )

    @property
    def members(self) -> tuple[int, ...] | None:
        """The stable membership snapshot saved with this checkpoint."""
        members = self.metadata.get("members")
        return None if members is None else tuple(members)


def topology_snapshot(
    topology: Topology, members: tuple[int, ...] | None = None
) -> dict:
    """JSON-serializable topology/membership snapshot for metadata."""
    snap: dict = {
        "topology": {
            "groups": [list(g) for g in topology.groups],
            "leaders": list(topology.leaders),
        }
    }
    if members is not None:
        snap["members"] = list(members)
    return snap


def save_checkpoint(
    path: str,
    global_weights: np.ndarray,
    next_round: int,
    metadata: dict | None = None,
    topology: Topology | None = None,
    members: tuple[int, ...] | None = None,
) -> str:
    """Atomically write a checkpoint (.npz with JSON metadata side channel).

    ``topology``/``members`` snapshot the deployment shape into the
    metadata so a resumed campaign can rebuild its grouping; they merge
    into (and override the same keys of) ``metadata``.
    """
    if next_round < 0:
        raise ValueError("next_round must be non-negative")
    meta = dict(metadata or {})
    if topology is not None:
        meta.update(topology_snapshot(topology, members))
    elif members is not None:
        meta["members"] = list(members)
    final = path if path.endswith(".npz") else path + ".npz"
    parent = os.path.dirname(final) or "."
    os.makedirs(parent, exist_ok=True)
    # Atomic: np.savez into a tmp file in the same directory, then
    # os.replace — a crash mid-save never truncates an existing file.
    fd, tmp = tempfile.mkstemp(suffix=".npz.tmp", dir=parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                global_weights=np.asarray(global_weights, dtype=np.float64),
                next_round=np.int64(next_round),
                metadata=json.dumps(meta),
                version=np.int64(CHECKPOINT_VERSION),
            )
        os.replace(tmp, final)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return final


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; raises :class:`CheckpointError` on any defect."""
    if not path.endswith(".npz") and not os.path.exists(path):
        path = path + ".npz"
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        data = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError, OSError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    with data:
        missing = [k for k in _REQUIRED_KEYS if k not in data.files
                   and k != "version"]
        if missing:
            raise CheckpointError(
                f"checkpoint {path} is missing arrays {missing}"
            )
        # Version 0 archives (pre-hardening) carried no version array.
        version = int(data["version"]) if "version" in data.files else 0
        if version > CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has unknown version {version} "
                f"(this build reads <= {CHECKPOINT_VERSION})"
            )
        try:
            metadata = json.loads(str(data["metadata"]))
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {path} has corrupt metadata: {exc}"
            ) from exc
        return Checkpoint(
            global_weights=data["global_weights"],
            next_round=int(data["next_round"]),
            metadata=metadata,
            version=version,
        )
