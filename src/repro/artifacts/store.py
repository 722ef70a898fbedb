"""On-disk registry of fitted-model artifacts.

The :class:`ArtifactStore` turns the in-memory
:class:`~repro.models.base.ModelArtifact` snapshots into durable files so
the two phases of the paper's workload can run in separate processes: an
experiment (or a training job) fits a forecaster once and registers it; any
later process — another experiment sharing the same fitted model, or a
:class:`~repro.serving.ForecastService` — loads it by name and produces
byte-identical forecasts.

Layout of a store directory::

    <root>/
        manifest.json          # index: name -> family, hashes, checksum
        aliases.json           # mutable alias -> artifact-name pointers
        <name>.npz             # one npz+meta payload per artifact

Every artifact file goes through the shared npz+meta checkpoint format
(:mod:`repro.nn.checkpoint`).  The manifest records, per artifact, the
model family, the hash of its constructor config, the fingerprint of the
data it was fitted on, and a SHA-256 checksum of the payload; loading
verifies the checksum (:class:`ArtifactIntegrityError` on corruption) and
refuses payloads written by a newer schema (:class:`ArtifactSchemaError`).

Cache keys — :meth:`ArtifactStore.key_for` — combine
``family + config hash + data fingerprint`` so the experiment runner's
``--artifacts-dir`` caching is invalidated automatically whenever the model
configuration *or* the training data changes.

Aliases — :meth:`ArtifactStore.set_alias` / :meth:`ArtifactStore.resolve` —
are mutable pointers (``champion`` -> ``deepar-abc123``) stored in
``aliases.json`` next to the manifest.  They are what the continuous-learning
promotion manager flips: serving traffic addressed to an alias is resolved to
its current target at submit time, so promoting a challenger or rolling back
to the previous champion never rewrites an artifact.  Deleting or unloading
an artifact that an alias still points at is a structured
:class:`ArtifactAliasError` rather than a silently dangling pointer.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..nn.checkpoint import config_hash, read_npz, write_npz

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..models.base import ModelArtifact

__all__ = [
    "ArtifactAliasError",
    "ArtifactError",
    "ArtifactIntegrityError",
    "ArtifactNotFoundError",
    "ArtifactSchemaError",
    "ArtifactStore",
    "config_hash",
    "fingerprint_series",
]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class ArtifactError(RuntimeError):
    """Base class of artifact-store failures."""


class ArtifactNotFoundError(ArtifactError):
    """The requested artifact is not registered (or its file is gone)."""


class ArtifactIntegrityError(ArtifactError):
    """The artifact payload does not match its recorded checksum."""


class ArtifactSchemaError(ArtifactError):
    """The artifact was written by a newer, incompatible schema."""


class ArtifactAliasError(ArtifactError):
    """An alias operation would corrupt the catalog.

    Raised when an alias would shadow an artifact name, chain onto another
    alias, or when deleting/unloading an artifact that an alias still
    points at — every case where continuing silently would leave serving
    traffic bound to a stale or dangling handle.
    """


def fingerprint_series(series_list: Sequence, extra: Optional[Sequence] = None) -> str:
    """Content fingerprint of the series a model was fitted on.

    Hashes each series' identity (race, car) together with every per-lap
    array the forecaster families consume — ranks, lap times, time behind
    leader and the full covariate matrix — so two runs over the same
    generated dataset share a fingerprint while any change to the data
    (different seed, different seasons, edited telemetry — including
    covariate-only edits that leave the ranks intact) produces a new one.
    ``extra`` appends a second collection (e.g. the validation split).
    """
    digest = hashlib.sha256()
    for group in (series_list, extra or ()):
        for series in group:
            digest.update(str(getattr(series, "race_id", "")).encode())
            digest.update(int(getattr(series, "car_id", -1)).to_bytes(8, "little", signed=True))
            digest.update(len(series).to_bytes(8, "little"))
            for attr in ("rank", "lap_time", "time_behind_leader", "covariates"):
                values = getattr(series, attr, None)
                if values is None:
                    continue
                column = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
                digest.update(column.tobytes())
    return digest.hexdigest()[:12]


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ArtifactStore:
    """Directory-backed registry of named :class:`ModelArtifact` payloads."""

    MANIFEST_NAME = "manifest.json"
    MANIFEST_SCHEMA_VERSION = 1
    ALIASES_NAME = "aliases.json"

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self._manifest: Dict[str, dict] = {}
        self._aliases: Dict[str, dict] = {}
        self._aliases_mtime: Optional[float] = None
        self._read_manifest()
        self._read_aliases()

    # ------------------------------------------------------------------
    # manifest bookkeeping
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, self.MANIFEST_NAME)

    def _read_manifest(self) -> None:
        if not os.path.exists(self.manifest_path):
            self._manifest = {}
            return
        with open(self.manifest_path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        version = int(document.get("schema_version", 0))
        if version > self.MANIFEST_SCHEMA_VERSION:
            raise ArtifactSchemaError(
                f"manifest schema version {version} is newer than supported "
                f"version {self.MANIFEST_SCHEMA_VERSION}"
            )
        self._manifest = dict(document.get("artifacts", {}))

    def _write_manifest(self) -> None:
        document = {
            "schema_version": self.MANIFEST_SCHEMA_VERSION,
            "artifacts": self._manifest,
        }
        tmp_path = self.manifest_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp_path, self.manifest_path)

    # ------------------------------------------------------------------
    # aliases
    # ------------------------------------------------------------------
    @property
    def aliases_path(self) -> str:
        return os.path.join(self.root, self.ALIASES_NAME)

    def _read_aliases(self) -> None:
        if not os.path.exists(self.aliases_path):
            self._aliases = {}
            self._aliases_mtime = None
            return
        with open(self.aliases_path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        self._aliases = dict(document.get("aliases", {}))
        self._aliases_mtime = os.path.getmtime(self.aliases_path)

    def _write_aliases(self) -> None:
        document = {"aliases": self._aliases}
        tmp_path = self.aliases_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp_path, self.aliases_path)
        self._aliases_mtime = os.path.getmtime(self.aliases_path)

    def _refresh_aliases(self) -> None:
        # promotions land from other processes (the repro-learn CLI flips an
        # alias while repro-serve holds the store open); pick them up on the
        # cheap mtime signal instead of re-reading on every resolve
        try:
            mtime = os.path.getmtime(self.aliases_path)
        except OSError:
            mtime = None
        if mtime != self._aliases_mtime:
            self._read_aliases()

    def aliases(self) -> Dict[str, str]:
        """All aliases as ``{alias: target artifact name}`` (a copy)."""
        self._refresh_aliases()
        return {alias: entry["target"] for alias, entry in sorted(self._aliases.items())}

    def is_alias(self, name: str) -> bool:
        self._refresh_aliases()
        return name in self._aliases

    def aliases_for(self, name: str) -> List[str]:
        """Every alias currently pointing at artifact ``name``."""
        self._refresh_aliases()
        return sorted(a for a, entry in self._aliases.items() if entry["target"] == name)

    def set_alias(self, alias: str, target: str) -> dict:
        """Point ``alias`` at artifact ``target`` (creating or re-pointing).

        The target must be a registered artifact — aliases never chain onto
        other aliases and never shadow an artifact name, so ``resolve`` is a
        single deterministic hop.
        """
        alias = self._check_name(alias)
        self._refresh_aliases()
        if alias in self._manifest:
            raise ArtifactAliasError(
                f"alias {alias!r} would shadow a registered artifact of the same name"
            )
        if target in self._aliases:
            raise ArtifactAliasError(
                f"alias target {target!r} is itself an alias; aliases must "
                "point directly at an artifact"
            )
        if target not in self._manifest:
            raise ArtifactNotFoundError(
                f"alias target {target!r} is not registered in {self.root}"
            )
        entry = {"target": target, "updated_at": time.time()}
        self._aliases[alias] = entry
        self._write_aliases()
        return dict(entry)

    def delete_alias(self, alias: str) -> None:
        self._refresh_aliases()
        if alias not in self._aliases:
            raise ArtifactNotFoundError(f"alias {alias!r} is not registered")
        del self._aliases[alias]
        self._write_aliases()

    def resolve(self, name: str) -> str:
        """Resolve ``name`` through the alias table to an artifact name.

        Artifact names resolve to themselves (even if an alias of the same
        name could exist — it can't, ``set_alias`` forbids shadowing).
        Unknown names pass through unchanged so callers keep their existing
        not-found handling.
        """
        if name in self._manifest:
            return name
        self._refresh_aliases()
        entry = self._aliases.get(name)
        if entry is None:
            return name
        target = entry["target"]
        if target not in self._manifest:
            raise ArtifactNotFoundError(
                f"alias {name!r} points at {target!r}, which is no longer registered"
            )
        return target

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------
    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"invalid artifact name {name!r}: use letters, digits, '.', '_' or '-'"
            )
        return name

    def _payload_path(self, name: str) -> str:
        return os.path.join(self.root, f"{name}.npz")

    @staticmethod
    def key_for(family: str, config: dict, data_fingerprint: str = "") -> str:
        """Canonical cache key: ``family-<config hash>[-<data fingerprint>]``."""
        key = f"{family}-{config_hash(config)}"
        if data_fingerprint:
            key = f"{key}-{data_fingerprint}"
        return key

    # ------------------------------------------------------------------
    # save / load
    # ------------------------------------------------------------------
    def save(
        self, name: str, artifact: ModelArtifact, data_fingerprint: str = ""
    ) -> dict:
        """Write ``artifact`` under ``name`` and register it in the manifest."""
        name = self._check_name(name)
        if self.is_alias(name):
            raise ArtifactAliasError(
                f"{name!r} is an alias; save artifacts under their own name "
                "and re-point the alias with set_alias"
            )
        path = self._payload_path(name)
        # write-then-rename so an interrupted overwrite can never leave a
        # truncated payload behind a manifest entry that still validates it
        tmp_path = path + ".tmp"
        write_npz(
            tmp_path,
            artifact.arrays,
            {
                "family": artifact.family,
                "config": artifact.config,
                "state": artifact.state,
                "schema_version": artifact.schema_version,
            },
        )
        os.replace(tmp_path, path)
        entry = {
            "file": os.path.basename(path),
            "family": artifact.family,
            "config_hash": artifact.config_hash(),
            "data_fingerprint": data_fingerprint,
            "schema_version": artifact.schema_version,
            "sha256": _file_sha256(path),
            "created_at": time.time(),
        }
        self._manifest[name] = entry
        self._write_manifest()
        return dict(entry)

    def load(self, name: str, verify: bool = True) -> ModelArtifact:
        """Read the named artifact back; verifies integrity by default.

        Accepts an alias — it is resolved to its current target first.
        """
        name = self.resolve(name)
        entry = self._manifest.get(name)
        if entry is None:
            raise ArtifactNotFoundError(
                f"artifact {name!r} is not registered in {self.root}"
            )
        path = self._payload_path(name)
        if not os.path.exists(path):
            raise ArtifactNotFoundError(f"artifact payload missing: {path}")
        if verify and _file_sha256(path) != entry["sha256"]:
            raise ArtifactIntegrityError(
                f"artifact {name!r} failed its checksum; the payload on disk "
                "does not match the manifest record"
            )
        # imported lazily: repro.models pulls in the serving layer, which
        # itself imports this module at interpreter start
        from ..models.base import ARTIFACT_SCHEMA_VERSION, ModelArtifact

        arrays, meta = read_npz(path)
        version = int(meta.get("schema_version", 0))
        if version > ARTIFACT_SCHEMA_VERSION:
            raise ArtifactSchemaError(
                f"artifact {name!r} has schema version {version}; this build "
                f"reads <= {ARTIFACT_SCHEMA_VERSION}"
            )
        return ModelArtifact(
            family=meta["family"],
            config=meta["config"],
            state=meta["state"],
            arrays=arrays,
            schema_version=version,
        )

    def load_model(self, name: str, verify: bool = True):
        """Load the named artifact and rebuild the fitted forecaster."""
        from ..models import from_artifact

        return from_artifact(self.load(name, verify=verify))

    def save_model(
        self,
        name: str,
        model,
        data_fingerprint: str = "",
        precision: str = "float64",
    ) -> dict:
        """Convenience: snapshot ``model`` via ``to_artifact`` and save it.

        ``precision`` selects the stored weight format (``"float64"`` —
        the unchanged v1 layout, ``"float32"`` or ``"int8"``; see
        :meth:`repro.models.base.RankForecaster.to_artifact`).
        """
        return self.save(
            name, model.to_artifact(precision=precision), data_fingerprint=data_fingerprint
        )

    # ------------------------------------------------------------------
    # listing / maintenance
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._manifest)

    def entries(self) -> Dict[str, dict]:
        """Manifest records keyed by artifact name (a defensive copy)."""
        return {name: dict(entry) for name, entry in self._manifest.items()}

    def catalog(self) -> List[dict]:
        """The store's model catalog: one record per artifact, name included.

        The flat-list form the serving gateway's ``GET /v1/models`` returns
        — each entry is the manifest record plus its ``name``, sorted by
        name.
        """
        return [{"name": name, **self.entry(name)} for name in self.names()]

    def entry(self, name: str) -> dict:
        """The manifest record of one artifact ({} when unregistered)."""
        return dict(self._manifest.get(name, {}))

    def __contains__(self, name: str) -> bool:
        return name in self._manifest

    def __len__(self) -> int:
        return len(self._manifest)

    def delete(self, name: str) -> None:
        if self.is_alias(name):
            raise ArtifactAliasError(
                f"{name!r} is an alias; use delete_alias to remove it"
            )
        referencing = self.aliases_for(name)
        if referencing:
            raise ArtifactAliasError(
                f"artifact {name!r} is the target of alias(es) "
                f"{', '.join(repr(a) for a in referencing)}; re-point or delete "
                "them first"
            )
        entry = self._manifest.pop(name, None)
        if entry is None:
            raise ArtifactNotFoundError(f"artifact {name!r} is not registered")
        path = self._payload_path(name)
        if os.path.exists(path):
            os.remove(path)
        self._write_manifest()

    def verify_all(self) -> List[str]:
        """Checksum every registered payload; returns the verified names."""
        verified = []
        for name in self.names():
            self.load(name, verify=True)
            verified.append(name)
        return verified

    def __repr__(self) -> str:  # pragma: no cover
        return f"ArtifactStore(root={self.root!r}, artifacts={len(self)})"
