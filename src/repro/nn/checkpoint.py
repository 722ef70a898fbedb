"""Checkpoint IO: one ``.npz`` payload with an embedded JSON meta record.

This module is the single serialisation substrate of the repository.  A
checkpoint file is a plain (uncompressed) NumPy ``.npz`` archive whose
entries are float/int arrays plus one reserved ``__meta__`` entry holding a
JSON document — so every durable artifact (trainer checkpoints, model
artifacts in :mod:`repro.artifacts`, telemetry logs) shares one format that
``numpy`` alone can read back, with no pickling anywhere.

Three layers are provided:

* :func:`write_npz` / :func:`read_npz` — raw array-dict + meta-dict IO
  (used by the artifact store and :class:`repro.simulation.RaceTelemetry`);
* :func:`rng_state` / :func:`rng_from_state` / :func:`restore_rng` — JSON
  round-trips of ``numpy.random.Generator`` streams, which is what makes
  restored models and resumed training runs *bit-exact* rather than merely
  statistically equivalent;
* :func:`save_checkpoint` / :func:`load_checkpoint` — full training-state
  snapshots: ``Module`` weights, optimizer buffers (ADAM moments and step
  count), scheduler / early-stopping counters and an RNG stream, keyed by
  namespaced entries (``model/<param>``, ``opt/<slot>/<i>``,
  ``extra/<key>``).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "config_hash",
    "write_npz",
    "read_npz",
    "rng_state",
    "rng_from_state",
    "restore_rng",
    "save_checkpoint",
    "load_checkpoint",
]

#: bump when the key layout of checkpoint files changes incompatibly
CHECKPOINT_SCHEMA_VERSION = 1

_META_KEY = "__meta__"


def config_hash(config: dict) -> str:
    """Stable short hash of a JSON-safe dict (canonical JSON, sha256[:12]).

    The single hashing convention shared by
    :meth:`repro.models.base.ModelArtifact.config_hash` and the artifact
    store's cache keys — keep them byte-for-byte in agreement.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# ----------------------------------------------------------------------
# raw npz + JSON-meta IO
# ----------------------------------------------------------------------
def write_npz(path: str, arrays: Dict[str, np.ndarray], meta: Optional[dict] = None) -> None:
    """Write ``arrays`` and a JSON ``meta`` record as one ``.npz`` file.

    The file is written through an explicit handle so the given ``path`` is
    used verbatim (``np.savez`` would append ``.npz`` to a bare name).
    """
    if _META_KEY in arrays:
        raise ValueError(f"array key {_META_KEY!r} is reserved for the meta record")
    payload = {key: np.asarray(value) for key, value in arrays.items()}
    payload[_META_KEY] = np.array(json.dumps(meta if meta is not None else {}))
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def read_npz(path) -> Tuple[Dict[str, np.ndarray], dict]:
    """Read back ``(arrays, meta)`` written by :func:`write_npz`.

    ``path`` may be a filename or an open binary file object (which lets the
    telemetry loader sniff the format before committing to a parser).
    """
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files if key != _META_KEY}
        meta = json.loads(str(data[_META_KEY])) if _META_KEY in data.files else {}
    return arrays, meta


# ----------------------------------------------------------------------
# RNG stream round-trips
# ----------------------------------------------------------------------
def rng_state(rng: np.random.Generator) -> dict:
    """JSON-safe snapshot of a ``Generator`` stream.

    The bit-generator state fixes the stream's next draws; the
    ``seed_seq`` record (entropy as decimal strings, spawn key, pool size
    and children spawned so far) fixes the child streams a later
    ``rng.spawn`` derives, which the bit-generator state does not hold.
    """
    state = rng.bit_generator.state
    seed_seq = rng.bit_generator.seed_seq
    if isinstance(seed_seq, np.random.SeedSequence):
        state["seed_seq"] = {
            "entropy": _entropy_to_json(seed_seq.entropy),
            "spawn_key": [int(k) for k in seed_seq.spawn_key],
            "pool_size": int(seed_seq.pool_size),
            "n_children_spawned": int(seed_seq.n_children_spawned),
        }
    return state


def _entropy_to_json(entropy):
    # 128-bit OS entropy overflows a JSON number in most readers
    if isinstance(entropy, (int, np.integer)):
        return str(int(entropy))
    return [str(int(word)) for word in entropy]


#: SeedSequence mixes its pool in pool_size**2 steps without releasing the
#: GIL, so a snapshot (which may arrive over the wire) is held to a small pool
_MAX_POOL_SIZE = 64


def _seed_seq_from(record: dict) -> np.random.SeedSequence:
    if not isinstance(record, dict):
        raise ValueError("rng seed_seq record must be a JSON object")
    entropy = record["entropy"]
    words = [entropy] if isinstance(entropy, str) else list(entropy)
    words = [int(word) for word in words]
    spawn_key = tuple(int(k) for k in record["spawn_key"])
    pool_size = int(record["pool_size"])
    n_children = int(record["n_children_spawned"])
    if min(words + list(spawn_key), default=0) < 0:
        raise ValueError("rng seed_seq entropy and spawn key must be non-negative")
    if not 4 <= pool_size <= _MAX_POOL_SIZE:
        raise ValueError(f"rng seed_seq pool_size must be in [4, {_MAX_POOL_SIZE}], got {pool_size}")
    if not 0 <= n_children < 2**32:
        raise ValueError(f"rng seed_seq n_children_spawned out of range: {n_children}")
    return np.random.SeedSequence(
        words[0] if isinstance(entropy, str) else words,
        spawn_key=spawn_key,
        pool_size=pool_size,
        n_children_spawned=n_children,
    )


def _lineage(seed_seq: np.random.SeedSequence) -> tuple:
    """What identifies a seed sequence, apart from how many children it spawned."""
    return _entropy_to_json(seed_seq.entropy), tuple(seed_seq.spawn_key), seed_seq.pool_size


def _position(state: dict) -> dict:
    """The bit-generator part of an :func:`rng_state` snapshot."""
    return {key: value for key, value in state.items() if key != "seed_seq"}


def rng_from_state(state: dict) -> np.random.Generator:
    """Rebuild a ``Generator`` producing the exact continuation of ``state``.

    A snapshot with a ``seed_seq`` record also spawns the original's
    children; one without it gets a fresh seed sequence, as it always did.
    """
    name = state["bit_generator"]
    try:
        bit_generator_cls = getattr(np.random, name)
    except AttributeError as exc:
        raise ValueError(f"unknown bit generator {name!r}") from exc
    record = state.get("seed_seq")
    bit_generator = bit_generator_cls(None if record is None else _seed_seq_from(record))
    bit_generator.state = _position(state)
    return np.random.Generator(bit_generator)


def restore_rng(rng: np.random.Generator, state: dict) -> np.random.Generator:
    """Restore ``state`` into an existing ``Generator`` in place.

    A Generator's seed sequence cannot be replaced, so a snapshot with a
    ``seed_seq`` record must come from the same sequence (same entropy,
    spawn key and pool size); the stream then spawns (and discards) the
    children it is behind, so its next ``spawn`` matches the original's.
    """
    if rng.bit_generator.state["bit_generator"] != state["bit_generator"]:
        raise ValueError(
            f"bit generator mismatch: stream is "
            f"{rng.bit_generator.state['bit_generator']!r}, "
            f"state is {state['bit_generator']!r}"
        )
    record = state.get("seed_seq")
    if record is not None:
        saved = _seed_seq_from(record)
        current = rng.bit_generator.seed_seq
        if not isinstance(current, np.random.SeedSequence) or _lineage(current) != _lineage(saved):
            raise ValueError(
                "seed sequence mismatch: the snapshot comes from a stream with "
                "different entropy, spawn key or pool size"
            )
        behind = saved.n_children_spawned - current.n_children_spawned
        if behind < 0:
            raise ValueError(
                f"stream has spawned {current.n_children_spawned} children, the "
                f"snapshot only {saved.n_children_spawned}: a spawn cannot be undone"
            )
        if behind:
            current.spawn(behind)
    rng.bit_generator.state = _position(state)
    return rng


# ----------------------------------------------------------------------
# full training-state checkpoints
# ----------------------------------------------------------------------
def save_checkpoint(
    path: str,
    model=None,
    optimizer=None,
    scheduler=None,
    early_stopping=None,
    rng: Optional[np.random.Generator] = None,
    extra_arrays: Optional[Dict[str, np.ndarray]] = None,
    meta: Optional[dict] = None,
) -> None:
    """Snapshot any subset of the training state into one ``.npz`` file.

    Every component is optional; only what is passed is recorded, and
    :func:`load_checkpoint` restores only what it is asked to.  ``model``
    must expose ``state_dict()``; ``optimizer``/``scheduler``/
    ``early_stopping`` must expose ``state_dict()`` in the
    :mod:`repro.nn.optimizers` / :mod:`repro.nn.schedulers` convention.
    """
    arrays: Dict[str, np.ndarray] = {}
    record: dict = {"schema_version": CHECKPOINT_SCHEMA_VERSION}
    if model is not None:
        for name, value in model.state_dict().items():
            arrays[f"model/{name}"] = value
        record["has_model"] = True
    if optimizer is not None:
        opt_state = optimizer.state_dict()
        slots = opt_state.pop("slots", {})
        for slot, buffers in slots.items():
            for i, value in enumerate(buffers):
                arrays[f"opt/{slot}/{i}"] = value
        record["optimizer"] = {**opt_state, "slot_names": sorted(slots)}
    if scheduler is not None:
        record["scheduler"] = scheduler.state_dict()
    if early_stopping is not None:
        record["early_stopping"] = early_stopping.state_dict()
    if rng is not None:
        record["rng"] = rng_state(rng)
    if extra_arrays:
        for key, value in extra_arrays.items():
            arrays[f"extra/{key}"] = value
    record["meta"] = meta if meta is not None else {}
    write_npz(path, arrays, record)


def load_checkpoint(
    path: str,
    model=None,
    optimizer=None,
    scheduler=None,
    early_stopping=None,
    rng: Optional[np.random.Generator] = None,
) -> dict:
    """Restore a checkpoint into the given components.

    Returns a dict with the caller-supplied ``meta`` record under
    ``"meta"`` and any ``extra_arrays`` under ``"arrays"``.  Raises
    ``ValueError`` when the file's schema version is newer than this code
    understands, or when a requested component was not recorded.
    """
    arrays, record = read_npz(path)
    version = int(record.get("schema_version", 0))
    if version > CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(
            f"checkpoint {os.path.basename(str(path))!r} has schema version "
            f"{version}; this build reads <= {CHECKPOINT_SCHEMA_VERSION}"
        )
    if model is not None:
        if not record.get("has_model"):
            raise ValueError("checkpoint holds no model state")
        prefix = "model/"
        state = {
            key[len(prefix) :]: value
            for key, value in arrays.items()
            if key.startswith(prefix)
        }
        model.load_state_dict(state)
    if optimizer is not None:
        opt_record = record.get("optimizer")
        if opt_record is None:
            raise ValueError("checkpoint holds no optimizer state")
        slots: Dict[str, list] = {}
        for slot in opt_record.get("slot_names", []):
            buffers = []
            i = 0
            while f"opt/{slot}/{i}" in arrays:
                buffers.append(arrays[f"opt/{slot}/{i}"])
                i += 1
            slots[slot] = buffers
        state = {k: v for k, v in opt_record.items() if k != "slot_names"}
        state["slots"] = slots
        optimizer.load_state_dict(state)
    if scheduler is not None:
        if "scheduler" not in record:
            raise ValueError("checkpoint holds no scheduler state")
        scheduler.load_state_dict(record["scheduler"])
    if early_stopping is not None:
        if "early_stopping" not in record:
            raise ValueError("checkpoint holds no early-stopping state")
        early_stopping.load_state_dict(record["early_stopping"])
    if rng is not None:
        if "rng" not in record:
            raise ValueError("checkpoint holds no RNG state")
        restore_rng(rng, record["rng"])
    extra_prefix = "extra/"
    extra = {
        key[len(extra_prefix) :]: value
        for key, value in arrays.items()
        if key.startswith(extra_prefix)
    }
    return {"meta": record.get("meta", {}), "arrays": extra, "record": record}
