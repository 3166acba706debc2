"""Persistence of learned embedding artifacts (npz matrices + JSON header).

A pipeline run is expensive; serving it should not require re-running the
solver.  :class:`EmbeddingStore` writes named artifacts into a directory:

* ``<name>.json`` — a versioned header (format marker, format version,
  artifact kind, hyperparameters, solver report, extraction metadata and a
  SHA-256 checksum of the matrix archive),
* ``<name>.<checksum12>.npz`` — all dense matrices of the artifact, under a
  content-addressed file name referenced by the header; the header rename
  is the commit point of a save, so an interrupted overwrite never damages
  the previously stored artifact.

Loading validates the format marker, the version, the checksum and the
matrix/extraction shape agreement, raising :class:`StoreFormatError` (a
:class:`ReproError` subclass) with a precise message on any mismatch, so a
corrupt or incompatible artifact never produces silently wrong vectors.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.deepwalk.deepwalk import NodeEmbeddingResult
from repro.errors import StoreFormatError
from repro.util import faults
from repro.retrofit.combine import TextValueEmbeddingSet
from repro.retrofit.extraction import (
    ExtractionResult,
    RelationGroup,
    TextValueRecord,
)
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.initialization import InitialisedMatrix
from repro.retrofit.retro import SolverReport

STORE_FORMAT = "repro-embedding-store"
#: Version 2: relation-group names carry join metadata ([fk:col]/[m2m:via])
#: and embedding sets are versioned with delta records.  Version-1
#: artifacts would silently mismatch the new relation names during delta
#: derivation, so they are rejected loudly and rebuilt instead.
STORE_VERSION = 2

KIND_EMBEDDING_SET = "embedding_set"
KIND_RETRO_RESULT = "retro_result"
KIND_EMBEDDING_SUITE = "embedding_suite"
KIND_EMBEDDING_DELTA = "embedding_delta"

#: Artifact-name suffix pattern of a delta record: ``<base>.delta<6 digits>``.
_DELTA_NAME_RE = re.compile(r"^(?P<base>.+)\.delta(?P<version>\d{6})$")

#: npz key prefix under which an embedding suite's per-set matrices live.
_SUITE_SET_PREFIX = "set::"


# --------------------------------------------------------------------------- #
# extraction (de)serialisation
# --------------------------------------------------------------------------- #
def extraction_to_dict(extraction: ExtractionResult) -> dict[str, Any]:
    """A JSON-serialisable representation of an :class:`ExtractionResult`."""
    return {
        "records": [
            [record.index, record.text, record.table, record.column]
            for record in extraction.records
        ],
        # list of pairs, not an object: category *order* is part of the
        # artifact and must survive json round-trips with sorted keys
        "categories": [
            [category, list(indices)]
            for category, indices in extraction.categories.items()
        ],
        "relation_groups": [
            {
                "name": group.name,
                "kind": group.kind,
                "source_category": group.source_category,
                "target_category": group.target_category,
                "pairs": [[i, j] for i, j in group.pairs],
            }
            for group in extraction.relation_groups
        ],
    }


def extraction_from_dict(payload: dict[str, Any]) -> ExtractionResult:
    """Rebuild an :class:`ExtractionResult` from :func:`extraction_to_dict`."""
    try:
        records = [
            TextValueRecord(
                index=int(index), text=str(text), table=str(table), column=str(column)
            )
            for index, text, table, column in payload["records"]
        ]
        categories = {
            str(category): [int(i) for i in indices]
            for category, indices in payload["categories"]
        }
        groups = [
            RelationGroup(
                name=str(group["name"]),
                kind=str(group["kind"]),
                source_category=str(group["source_category"]),
                target_category=str(group["target_category"]),
                pairs=[(int(i), int(j)) for i, j in group["pairs"]],
            )
            for group in payload["relation_groups"]
        ]
    except (KeyError, TypeError, ValueError) as error:
        raise StoreFormatError(f"malformed extraction metadata: {error}") from error
    n_records = len(records)
    for position, record in enumerate(records):
        if record.index != position:
            raise StoreFormatError(
                f"extraction record {position} carries index {record.index}"
            )
    # range-check every stored index: a corrupt header must fail loudly at
    # load time, not wrap around (negative) or crash later during a query
    for category, indices in categories.items():
        for index in indices:
            if not 0 <= index < n_records:
                raise StoreFormatError(
                    f"category {category!r} references record {index}, "
                    f"outside 0..{n_records - 1}"
                )
    for group in groups:
        for i, j in group.pairs:
            if not (0 <= i < n_records and 0 <= j < n_records):
                raise StoreFormatError(
                    f"relation group {group.name!r} references pair "
                    f"({i}, {j}), outside 0..{n_records - 1}"
                )
    return ExtractionResult(
        records=records, categories=categories, relation_groups=groups
    )


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fsync_file(path: Path) -> None:
    """Flush a freshly written file to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    """Persist a rename: fsync the directory that holds the new entry."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _maybe_tear(path: Path, point: str) -> None:
    """Torn-write fault: truncate ``path`` mid-content and abort.

    Emulates the on-disk state of a crash part-way through writing the
    temp file — the torn bytes stay under the *uncommitted* temp name,
    which is exactly what the commit protocol must tolerate.
    """
    fraction = faults.torn_fraction(point)
    if fraction is None:
        return
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(max(1, int(size * fraction)))
    raise faults.FaultInjected(f"torn write at {point} ({path.name})")


@dataclass(frozen=True)
class DeltaRecord:
    """One stored embedding-set delta, as appended by the delta pipeline.

    ``added_matrix``/``changed_matrix`` carry the vectors of
    ``added_indices``/``changed_rows`` (post-delta row numbering); either
    may be ``None`` when the delta touched no such rows.
    """

    version: int
    extraction_delta: Any
    added_indices: list[int] = field(default_factory=list)
    changed_rows: list[int] = field(default_factory=list)
    added_matrix: np.ndarray | None = None
    changed_matrix: np.ndarray | None = None


class EmbeddingStore:
    """A directory of named, versioned embedding artifacts."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        #: name -> (header file identity, base ``set_version``)
        self._base_versions: dict[str, tuple[tuple[int, int, int], int]] = {}

    # ------------------------------------------------------------------ #
    # low-level artifact IO
    # ------------------------------------------------------------------ #
    def _header_path(self, name: str) -> Path:
        if (
            not name
            or "/" in name
            or "\\" in name
            or name.startswith(".")
        ):
            raise StoreFormatError(f"invalid artifact name {name!r}")
        return self.root / f"{name}.json"

    def _write(
        self, name: str, kind: str, header: dict[str, Any], arrays: dict[str, np.ndarray]
    ) -> Path:
        header_path = self._header_path(name)
        self.root.mkdir(parents=True, exist_ok=True)
        # the matrix lives under a content-addressed name and the header
        # rename is the single commit point: a crash anywhere mid-save
        # leaves the previous artifact (header + its own matrix file)
        # fully intact, never a header whose checksum mismatches its matrix;
        # the tmp name is per-process so concurrent savers never collide
        matrix_tmp = self.root / f"{name}.{os.getpid()}.tmp.npz"
        faults.fire("store.artifact_write", "before")
        np.savez_compressed(matrix_tmp, **arrays)
        _maybe_tear(matrix_tmp, "store.artifact_write")
        _fsync_file(matrix_tmp)
        checksum = _sha256(matrix_tmp)
        matrix_path = self.root / f"{name}.{checksum[:12]}.npz"
        faults.fire("store.matrix_rename", "before")
        os.replace(matrix_tmp, matrix_path)
        _fsync_dir(self.root)
        payload = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "kind": kind,
            "matrix_file": matrix_path.name,
            "matrix_sha256": checksum,
            **header,
        }
        header_tmp = header_path.with_name(
            f"{header_path.name}.{os.getpid()}.tmp"
        )
        header_tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        _maybe_tear(header_tmp, "store.header_write")
        _fsync_file(header_tmp)
        faults.fire("store.header_commit", "before")
        os.replace(header_tmp, header_path)  # commit
        _fsync_dir(self.root)
        faults.fire("store.header_commit", "after")
        self._drop_stale_matrices(name, keep=matrix_path.name)
        return header_path

    #: Grace period before a superseded matrix file is garbage-collected.
    #: A concurrent saver's freshly renamed matrix (header not yet
    #: committed) must never be deleted from under it; anything older than
    #: this that the current header does not reference is genuinely stale.
    STALE_GRACE_SECONDS = 60.0

    def _drop_stale_matrices(self, name: str, keep: str) -> None:
        """Delete superseded matrix files and crashed-save leftovers of
        ``name`` (both past the grace period)."""
        escaped = re.escape(name)
        stale = re.compile(rf"^{escaped}\.[0-9a-f]{{12}}\.npz$")
        orphan_matrix = re.compile(rf"^{escaped}\.\d+\.tmp\.npz$")
        orphan_header = re.compile(rf"^{escaped}\.json\.\d+\.tmp$")
        # mmap sidecars (see open_matrix_readonly) are content-addressed by
        # the archive checksum; any sidecar of a superseded archive is stale
        keep_checksum = keep.rsplit(".", 2)[-2] if keep.endswith(".npz") else ""
        sidecar = re.compile(
            rf"^{escaped}\.(?P<checksum>[0-9a-f]{{12}})\.[A-Za-z0-9_-]+\.npy$"
        )
        orphan_sidecar = re.compile(rf"^{escaped}\.\d+\.tmp\.sidecar\.npy$")
        cutoff = time.time() - self.STALE_GRACE_SECONDS
        for candidate in self.root.glob(f"{name}.*"):
            if candidate.name == keep:
                continue
            sidecar_match = sidecar.match(candidate.name)
            if sidecar_match is not None:
                if sidecar_match.group("checksum") == keep_checksum:
                    continue  # sidecar of the live archive
            elif not (
                stale.match(candidate.name)
                or orphan_matrix.match(candidate.name)
                or orphan_header.match(candidate.name)
                or orphan_sidecar.match(candidate.name)
            ):
                continue
            try:
                if candidate.stat().st_mtime < cutoff:
                    candidate.unlink()
            except OSError:
                pass  # a concurrent save may have removed it already

    def _read_header(self, name: str) -> dict[str, Any]:
        """Parse an artifact's JSON header (no format/version validation)."""
        header_path = self._header_path(name)
        if not header_path.exists():
            raise StoreFormatError(f"no artifact {name!r} in store {self.root}")
        try:
            header = json.loads(header_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise StoreFormatError(
                f"unreadable artifact header {header_path}: {error}"
            ) from error
        if not isinstance(header, dict):
            raise StoreFormatError(f"{header_path} does not hold a JSON object")
        return header

    def _validate_header(self, name: str, header: dict[str, Any], kind: str) -> None:
        header_path = self._header_path(name)
        if header.get("format") != STORE_FORMAT:
            raise StoreFormatError(
                f"{header_path} is not a {STORE_FORMAT} artifact"
            )
        version = header.get("version")
        if version != STORE_VERSION:
            raise StoreFormatError(
                f"artifact {name!r} has format version {version!r}, this "
                f"library reads version {STORE_VERSION}"
            )
        if header.get("kind") != kind:
            raise StoreFormatError(
                f"artifact {name!r} is a {header.get('kind')!r}, expected {kind!r}"
            )

    def _verified_matrix_path(self, name: str, kind: str) -> tuple[dict[str, Any], Path]:
        """Header plus checksum-verified matrix archive path of ``name``."""
        header = self._read_header(name)
        for attempt in (0, 1):
            self._validate_header(name, header, kind)
            matrix_file = header.get("matrix_file")
            if (
                not isinstance(matrix_file, str)
                or "/" in matrix_file
                or "\\" in matrix_file
                or not matrix_file.endswith(".npz")
            ):
                raise StoreFormatError(
                    f"artifact {name!r} has an invalid matrix_file reference"
                )
            matrix_path = self.root / matrix_file
            if not matrix_path.exists():
                if attempt == 0:
                    header = self._read_header(name)
                    continue
                raise StoreFormatError(f"artifact {name!r} lacks its matrix file")
            checksum = _sha256(matrix_path)
            if checksum != header.get("matrix_sha256"):
                if attempt == 0:
                    header = self._read_header(name)
                    continue
                raise StoreFormatError(
                    f"matrix file of artifact {name!r} is corrupt "
                    f"(checksum {checksum[:12]}… does not match the header)"
                )
            return header, matrix_path
        raise StoreFormatError(f"artifact {name!r} could not be read")  # unreachable

    def open_matrix_readonly(
        self, name: str, array: str = "matrix", kind: str = KIND_EMBEDDING_SET
    ) -> np.ndarray:
        """Open one array of artifact ``name`` as a read-only memory map.

        npz archives are zip files, so ``np.load(..., mmap_mode="r")``
        silently ignores the mmap request and decompresses every array
        into private process memory — N shard workers would hold N full
        float64 copies.  This instead extracts the requested array once
        into a content-addressed ``.npy`` sidecar
        (``<name>.<checksum12>.<array>.npy``, committed via atomic
        rename) and memory-maps that: the checksum is verified once at
        extraction, and every process mapping the same sidecar shares
        its read-only pages with the page cache.
        """
        header, matrix_path = self._verified_matrix_path(name, kind)
        return self._map_sidecar(name, header, matrix_path, array)

    def _map_sidecar(
        self, name: str, header: dict[str, Any], matrix_path: Path, array: str
    ) -> np.ndarray:
        """Map ``array`` of a verified archive, extracting its sidecar once."""
        checksum12 = str(header["matrix_sha256"])[:12]
        safe_array = re.sub(r"[^A-Za-z0-9_-]", "_", array)
        sidecar = self.root / f"{name}.{checksum12}.{safe_array}.npy"
        if not sidecar.exists():
            self._extract_sidecar(name, matrix_path, array, sidecar)
        try:
            loaded = np.load(sidecar, mmap_mode="r", allow_pickle=False)
        except (ValueError, OSError):
            # recovery-on-load: a torn or externally corrupted sidecar is
            # only a cache of the (checksummed) archive — re-extract it
            try:
                sidecar.unlink()
            except OSError:
                pass
            self._extract_sidecar(name, matrix_path, array, sidecar)
            loaded = np.load(sidecar, mmap_mode="r", allow_pickle=False)
        if not isinstance(loaded, np.memmap):  # pragma: no cover - defensive
            raise StoreFormatError(
                f"sidecar {sidecar.name} of artifact {name!r} did not map"
            )
        return loaded

    def _extract_sidecar(
        self, name: str, matrix_path: Path, array: str, sidecar: Path
    ) -> None:
        """Extract one archive member into its mmap sidecar, atomically."""
        with np.load(matrix_path, allow_pickle=False) as archive:
            if array not in archive.files:
                raise StoreFormatError(
                    f"artifact {name!r} has no array {array!r}"
                )
            extracted = archive[array]
        tmp = self.root / f"{name}.{os.getpid()}.tmp.sidecar.npy"
        faults.fire("store.sidecar_extract", "before")
        np.save(tmp, extracted, allow_pickle=False)
        _maybe_tear(tmp, "store.sidecar_extract")
        _fsync_file(tmp)
        os.replace(tmp, sidecar)
        _fsync_dir(self.root)

    def load_embedding_set_readonly(self, name: str) -> tuple[TextValueEmbeddingSet, int]:
        """``(embeddings, base_version)`` with a memory-mapped matrix.

        Returns the *base* artifact only — delta records are deliberately
        not replayed here, because replay would materialise a private
        matrix copy and defeat the shared mapping.  Callers that need the
        newest version (shard workers) replay the chain themselves via
        :meth:`read_embedding_set_delta`, touching only their own rows.
        """
        header, matrix_path = self._verified_matrix_path(name, KIND_EMBEDDING_SET)
        extraction = extraction_from_dict(header.get("extraction", {}))
        # one verified header for both halves: a concurrent re-save cannot
        # pair this extraction with another version's matrix
        matrix = self._map_sidecar(name, header, matrix_path, "matrix")
        if matrix.ndim != 2 or matrix.shape[0] != len(extraction):
            raise StoreFormatError(
                f"artifact {name!r}: mapped matrix has shape {matrix.shape} "
                f"but the extraction lists {len(extraction)} text values"
            )
        embeddings = TextValueEmbeddingSet(
            extraction=extraction,
            matrix=matrix,
            name=str(header.get("set_name", name)),
        )
        return embeddings, int(header.get("set_version", 0))

    def _read(self, name: str, kind: str) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        # a concurrent re-save can garbage-collect the matrix file between
        # header read and open; _verified_matrix_path re-reads the (now
        # new, self-consistent) header once to recover from that
        header, matrix_path = self._verified_matrix_path(name, kind)
        with np.load(matrix_path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        return header, arrays

    def list_artifacts(self) -> list[str]:
        """Names of all artifacts in the store, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.json"))

    def has_artifact(self, name: str) -> bool:
        """Whether an artifact called ``name`` exists."""
        return self._header_path(name).exists()

    def artifact_kind(self, name: str) -> str:
        """The kind of artifact ``name`` (without loading its matrices)."""
        kind = self._read_header(name).get("kind")
        if not isinstance(kind, str):
            raise StoreFormatError(f"artifact {name!r} lacks a kind marker")
        return kind

    # ------------------------------------------------------------------ #
    # embedding sets
    # ------------------------------------------------------------------ #
    def save_embedding_set(
        self, name: str, embeddings: TextValueEmbeddingSet, index=None,
        version: int = 0, dtype: str | np.dtype | None = None,
    ) -> Path:
        """Persist one :class:`TextValueEmbeddingSet` as artifact ``name``.

        ``index`` optionally persists a trained :class:`repro.serving.VectorIndex`
        over the full matrix alongside the vectors.  For an
        :class:`repro.serving.IVFIndex` the k-means centroids and cell
        assignments are stored, so :meth:`ServingSession.from_store` serves
        the artifact without re-running the clustering; a
        :class:`repro.serving.PQIndex` stores its codebooks, coarse
        centroids, assignments and uint8 codes, a
        :class:`repro.serving.NSWIndex` its graph adjacency and entry
        point, and a :class:`repro.serving.FlatIndex` only records its
        metric.  ``version`` marks the embedding-set version this base
        artifact reflects; delta records with higher versions are
        replayed on load.  ``dtype`` optionally narrows the stored matrix
        (``"float32"`` halves every replica's resident bytes at ~1e-7
        cosine error); the narrowed dtype is preserved through mmap
        sidecars and the delta-replay path alike.
        """
        if _DELTA_NAME_RE.match(name):
            raise StoreFormatError(
                f"artifact name {name!r} is reserved for delta records"
            )
        matrix = embeddings.matrix
        if dtype is not None:
            dtype = np.dtype(dtype)
            if dtype not in (np.float32, np.float64):
                raise StoreFormatError(
                    f"embedding matrices store as float32 or float64, "
                    f"not {dtype}"
                )
            matrix = np.asarray(matrix, dtype=dtype)
        header: dict[str, Any] = {
            "set_name": embeddings.name,
            "dimension": embeddings.dimension,
            "n_values": len(embeddings),
            "set_version": int(version),
            "extraction": extraction_to_dict(embeddings.extraction),
        }
        arrays: dict[str, np.ndarray] = {"matrix": matrix}
        if index is not None:
            from repro.serving.index import FlatIndex, IVFIndex
            from repro.serving.nsw import NSWIndex
            from repro.serving.pq import PQIndex

            if index.matrix.shape != embeddings.matrix.shape:
                raise StoreFormatError(
                    f"index covers a {index.matrix.shape} matrix but the "
                    f"embedding set is {embeddings.matrix.shape}; persisted "
                    "indexes must span the full set"
                )
            if isinstance(index, IVFIndex):
                header["index"] = {
                    "type": "ivf",
                    "metric": index.metric,
                    "nprobe": index.nprobe,
                    "n_cells": index.n_cells,
                }
                arrays["index_centroids"] = index.centroids
                arrays["index_assignments"] = index.assignments
            elif isinstance(index, PQIndex):
                header["index"] = {
                    "type": "pq",
                    "metric": index.metric,
                    "nprobe": index.nprobe,
                    "rerank": index.rerank,
                    "n_subspaces": index.n_subspaces,
                    "n_codes": index.n_codes,
                    "n_cells": index.n_cells,
                }
                arrays["index_codebooks"] = index.codebooks
                arrays["index_centroids"] = index.centroids
                arrays["index_assignments"] = index.assignments
                arrays["index_codes"] = index.codes
            elif isinstance(index, NSWIndex):
                header["index"] = {
                    "type": "nsw",
                    "metric": index.metric,
                    "max_degree": index.max_degree,
                    "ef_construction": index.ef_construction,
                    "ef_search": index.ef_search,
                    "entry_point": index.entry_point,
                }
                arrays["index_adjacency"] = index.adjacency
            elif isinstance(index, FlatIndex):
                header["index"] = {"type": "flat", "metric": index.metric}
            else:
                raise StoreFormatError(
                    f"cannot persist index of type {type(index).__name__}"
                )
        return self._write(name, KIND_EMBEDDING_SET, header, arrays)

    def load_embedding_set(self, name: str) -> TextValueEmbeddingSet:
        """Reload an embedding set saved by :meth:`save_embedding_set`.

        Any delta records appended after the base artifact was written are
        replayed, so readers always see the newest version.
        """
        return self.load_embedding_set_versioned(name)[0]

    def load_embedding_set_with_index(self, name: str):
        """Reload an embedding set plus its persisted index (or ``None``).

        The returned index is rebuilt from stored state — an IVF index skips
        its k-means training pass entirely, even when delta records are
        replayed on top of the base artifact (new rows are assigned to the
        stored centroids).
        """
        embeddings, index, _ = self.load_embedding_set_versioned(name)
        return embeddings, index

    def load_embedding_set_versioned(self, name: str):
        """Reload ``(embeddings, index, version)`` with delta replay.

        ``version`` is the base artifact's ``set_version`` plus every
        replayed delta record.  The chain must be contiguous — a missing
        intermediate delta raises :class:`StoreFormatError` rather than
        silently serving a state that never existed.
        """
        header, arrays = self._read(name, KIND_EMBEDDING_SET)
        extraction = extraction_from_dict(header.get("extraction", {}))
        matrix = arrays.get("matrix")
        if matrix is None or matrix.ndim != 2:
            raise StoreFormatError(f"artifact {name!r} lacks a 2-D matrix")
        if matrix.shape[0] != len(extraction):
            raise StoreFormatError(
                f"artifact {name!r}: matrix has {matrix.shape[0]} rows but the "
                f"extraction lists {len(extraction)} text values"
            )
        version = int(header.get("set_version", 0))
        pending = [
            (delta_version, delta_name)
            for delta_version, delta_name in self.list_embedding_set_deltas(name)
            if delta_version > version
        ]
        if not pending:
            embeddings = TextValueEmbeddingSet(
                extraction=extraction,
                matrix=matrix,
                name=str(header.get("set_name", name)),
            )
            return (
                embeddings,
                self._restore_index(name, header, arrays, matrix),
                version,
            )

        # pending deltas invalidate the base index — even one that keeps
        # the row count (changed vectors, pairs-only changes) means the
        # stored matrix is no longer the served one.  Carry only the raw
        # trained state through the replay (row-aligned arrays remapped
        # through each delta's old->new row map) and build the index once
        # at the end, on the replayed matrix.
        index_state: dict[str, Any] | None = None
        if isinstance(header.get("index"), dict):
            index_state = {}
            stored = arrays.get("index_assignments")
            if stored is not None:
                index_state["assignments"] = np.asarray(
                    stored, dtype=np.int64
                ).copy()
            stored = arrays.get("index_codes")
            if stored is not None:
                index_state["codes"] = np.asarray(stored, dtype=np.uint8).copy()
            stored = arrays.get("index_adjacency")
            if stored is not None:
                index_state["adjacency"] = np.asarray(
                    stored, dtype=np.int64
                ).copy()
                index_state["entry_point"] = int(
                    header["index"].get("entry_point", -1)
                )

        for delta_version, delta_name in pending:
            if delta_version != version + 1:
                raise StoreFormatError(
                    f"artifact {name!r}: delta chain jumps from version "
                    f"{version} to {delta_version}"
                )
            matrix, extraction, index_state = self._replay_delta(
                delta_name, matrix, extraction, index_state
            )
            version = delta_version

        embeddings = TextValueEmbeddingSet(
            extraction=extraction,
            matrix=matrix,
            name=str(header.get("set_name", name)),
        )
        if index_state:
            arrays = dict(arrays)
            if "assignments" in index_state:
                arrays["index_assignments"] = index_state["assignments"]
            if "codes" in index_state:
                arrays["index_codes"] = index_state["codes"]
            if "adjacency" in index_state:
                arrays["index_adjacency"] = index_state["adjacency"]
                header = dict(header)
                header["index"] = dict(
                    header["index"], entry_point=index_state["entry_point"]
                )
        return (
            embeddings,
            self._restore_index(name, header, arrays, matrix, partial=True),
            version,
        )

    def _replay_delta(self, delta_name: str, matrix, extraction, index_state):
        """Apply one stored delta record to (matrix, extraction, index state).

        ``index_state`` is ``None`` or a dict of row-aligned trained-index
        arrays (``assignments``/``codes`` for IVF and PQ, ``adjacency`` +
        ``entry_point`` for NSW); every row-aligned array is remapped
        through the delta's old→new row map, rows the delta added or
        changed are marked for re-derivation (assignment ``-1`` / the NSW
        ``NOT_INSERTED`` marker), and adjacency *values* — which are row
        ids themselves — are remapped too, dropping links to removed rows.
        """
        from repro.retrofit.extraction import ExtractionDelta

        header, arrays = self._read(delta_name, KIND_EMBEDDING_DELTA)
        delta = ExtractionDelta.from_dict(header.get("extraction_delta", {}))
        delta_map = extraction.apply_delta(delta)
        n_new = len(extraction)
        new_matrix = np.zeros((n_new, matrix.shape[1]), dtype=matrix.dtype)
        surviving = delta_map.surviving_old_indices()
        new_rows = delta_map.old_to_new[surviving]
        new_matrix[new_rows] = matrix[surviving]
        new_state = None
        if index_state is not None:
            from repro.serving.nsw import NOT_INSERTED

            new_state = {}
            assignments = index_state.get("assignments")
            if assignments is not None:
                remapped = np.full(n_new, -1, dtype=np.int64)
                remapped[new_rows] = assignments[surviving]
                new_state["assignments"] = remapped
            codes = index_state.get("codes")
            if codes is not None:
                recoded = np.zeros((n_new, codes.shape[1]), dtype=np.uint8)
                recoded[new_rows] = codes[surviving]
                new_state["codes"] = recoded
            adjacency = index_state.get("adjacency")
            if adjacency is not None:
                width = max(1, adjacency.shape[1])
                relinked = np.full((n_new, width), -1, dtype=np.int64)
                kept = adjacency[surviving]
                # neighbour ids are old row numbers: remap them, dropping
                # links whose target the delta removed (old_to_new == -1);
                # negative entries pass through untouched so an earlier
                # delta's NOT_INSERTED markers survive stacked replays
                values = np.where(
                    kept >= 0,
                    delta_map.old_to_new[np.clip(kept, 0, None)],
                    kept,
                )
                relinked[new_rows, : adjacency.shape[1]] = values
                if delta_map.added_indices:
                    relinked[list(delta_map.added_indices), :] = -1
                    relinked[list(delta_map.added_indices), 0] = NOT_INSERTED
                new_state["adjacency"] = relinked
                entry = index_state.get("entry_point", -1)
                new_state["entry_point"] = (
                    int(delta_map.old_to_new[entry]) if entry >= 0 else -1
                )

        stored_added = [int(i) for i in header.get("added_indices", [])]
        if stored_added != list(delta_map.added_indices):
            raise StoreFormatError(
                f"delta record {delta_name!r} disagrees with the replayed "
                "extraction about the added row indices"
            )
        added_matrix = arrays.get("added_matrix")
        if delta_map.added_indices:
            if added_matrix is None or added_matrix.shape[0] != len(
                delta_map.added_indices
            ):
                raise StoreFormatError(
                    f"delta record {delta_name!r} lacks vectors for its "
                    "added rows"
                )
            new_matrix[delta_map.added_indices] = added_matrix
        changed_rows = [int(i) for i in header.get("changed_rows", [])]
        changed_matrix = arrays.get("changed_matrix")
        if changed_rows:
            if changed_matrix is None or changed_matrix.shape[0] != len(changed_rows):
                raise StoreFormatError(
                    f"delta record {delta_name!r} lacks vectors for its "
                    "changed rows"
                )
            if max(changed_rows) >= n_new or min(changed_rows) < 0:
                raise StoreFormatError(
                    f"delta record {delta_name!r} references rows outside "
                    "the replayed extraction"
                )
            new_matrix[changed_rows] = changed_matrix
            if new_state is not None:
                from repro.serving.nsw import NOT_INSERTED

                if "assignments" in new_state:
                    # changed vectors may belong to a different cell /
                    # code word now: force re-derivation at restore time
                    new_state["assignments"][changed_rows] = -1
                if "adjacency" in new_state:
                    new_state["adjacency"][changed_rows, :] = -1
                    new_state["adjacency"][changed_rows, 0] = NOT_INSERTED
        return new_matrix, extraction, new_state

    # ------------------------------------------------------------------ #
    # embedding-set delta records
    # ------------------------------------------------------------------ #
    def list_embedding_set_deltas(self, name: str) -> list[tuple[int, str]]:
        """``(version, artifact_name)`` of every delta record of ``name``."""
        if not self.root.is_dir():
            return []
        deltas: list[tuple[int, str]] = []
        for path in self.root.glob(f"{name}.delta*.json"):
            match = _DELTA_NAME_RE.match(path.stem)
            if match and match.group("base") == name:
                deltas.append((int(match.group("version")), path.stem))
        return sorted(deltas)

    def latest_version(self, name: str) -> int:
        """The version a load of ``name`` would produce (base + deltas)."""
        deltas = self.list_embedding_set_deltas(name)
        return max([self.base_version(name)] + [v for v, _ in deltas])

    def read_embedding_set_delta(self, name: str, version: int) -> "DeltaRecord":
        """Load one delta record of ``name`` as a :class:`DeltaRecord`.

        This is the shard workers' replay primitive: unlike the full
        :meth:`load_embedding_set_versioned` replay it hands out the raw
        record — value-level extraction delta plus added/changed vectors —
        so a worker can update only its own rows.
        """
        from repro.retrofit.extraction import ExtractionDelta

        delta_name = f"{name}.delta{int(version):06d}"
        header, arrays = self._read(delta_name, KIND_EMBEDDING_DELTA)
        try:
            delta = ExtractionDelta.from_dict(header.get("extraction_delta", {}))
        except (KeyError, TypeError, ValueError) as error:
            raise StoreFormatError(
                f"delta record {delta_name!r} has a malformed extraction "
                f"delta: {error}"
            ) from error
        return DeltaRecord(
            version=int(header.get("delta_version", version)),
            extraction_delta=delta,
            added_indices=[int(i) for i in header.get("added_indices", [])],
            changed_rows=[int(i) for i in header.get("changed_rows", [])],
            added_matrix=arrays.get("added_matrix"),
            changed_matrix=arrays.get("changed_matrix"),
        )

    def append_embedding_set_delta(self, name: str, update) -> Path:
        """Append one incremental update as a versioned delta record.

        ``update`` is an
        :class:`repro.retrofit.incremental.IncrementalUpdateResult` from the
        delta pipeline (it must carry ``delta_map``/``extraction_delta``).
        The record stores the value-level extraction delta plus only the
        vectors of added and changed rows — replaying base + chain on load
        reproduces the updated set bit-for-bit, and
        :meth:`compact_embedding_set` folds the chain back into the base.
        """
        if update.delta_map is None or update.extraction_delta is None:
            raise StoreFormatError(
                "only delta-pipeline updates can be appended as delta records"
            )
        faults.fire("store.delta_append", "before")
        previous = self.latest_version(name)
        delta_map = update.delta_map
        added = list(delta_map.added_indices)
        added_set = set(added)
        changed = (
            [int(i) for i in update.changed_rows if int(i) not in added_set]
            if update.changed_rows is not None
            else []
        )
        matrix = update.embeddings.matrix
        header: dict[str, Any] = {
            "base": name,
            "delta_version": previous + 1,
            "applies_to_version": previous,
            "extraction_delta": update.extraction_delta.to_dict(),
            "added_indices": added,
            "changed_rows": changed,
            "n_values_after": len(update.embeddings),
            "dimension": update.embeddings.dimension,
        }
        arrays: dict[str, np.ndarray] = {}
        if added:
            arrays["added_matrix"] = matrix[added]
        if changed:
            arrays["changed_matrix"] = matrix[changed]
        if not arrays:
            # npz archives need at least one member; an empty delta is legal
            arrays["added_matrix"] = np.zeros(
                (0, update.embeddings.dimension), dtype=np.float64
            )
        return self._write(
            f"{name}.delta{previous + 1:06d}", KIND_EMBEDDING_DELTA, header, arrays
        )

    def base_version(self, name: str) -> int:
        """The ``set_version`` of the base artifact alone (no delta replay).

        A follower whose tail position fell behind a compaction compares
        its replayed version against this to decide whether re-bootstrapping
        from the (newer) base snapshot can recover the lost records.

        Tailing workers poll this, and the header holds the whole
        extraction, so the version is re-parsed only when the header
        file's identity (inode, size, mtime) changed — a header is only
        ever replaced by an atomic rename, never edited in place.
        """
        try:
            stat = self._header_path(name).stat()
        except FileNotFoundError:
            raise StoreFormatError(
                f"no artifact {name!r} in store {self.root}"
            ) from None
        identity = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
        cached = self._base_versions.get(name)
        if cached is not None and cached[0] == identity:
            return cached[1]
        header = self._read_header(name)
        self._validate_header(name, header, KIND_EMBEDDING_SET)
        version = int(header.get("set_version", 0))
        self._base_versions[name] = (identity, version)
        return version

    def compact_embedding_set(self, name: str, keep_from: int | None = None) -> int:
        """Fold all delta records of ``name`` into its base artifact.

        Re-saves the base at the latest version (keeping an evolved copy
        of the persisted index, still without retraining) and prunes the
        replayed delta records — headers, matrix archives *and* any mmap
        sidecars.  ``keep_from`` is the retention floor: records with
        ``version >= keep_from`` survive the pruning, so a tailing
        follower that has announced it still needs them (its replayed
        version is ``keep_from - 1``) never loses a record mid-replay.
        Retained records are inert for loads (replay only considers
        versions past the base) and fall to a later compaction once every
        follower has passed them.  Returns the compacted-to version.
        """
        embeddings, index, version = self.load_embedding_set_versioned(name)
        self.save_embedding_set(name, embeddings, index=index, version=version)
        self.prune_embedding_set_deltas(name, keep_from=keep_from)
        return version

    def prune_embedding_set_deltas(
        self, name: str, keep_from: int | None = None
    ) -> int:
        """Delete delta records of ``name`` below the retention floor.

        Only records already folded into the base artifact (version at or
        below its ``set_version``) are candidates; ``keep_from`` further
        protects every record with ``version >= keep_from``.  Returns the
        number of records deleted.
        """
        folded = self.base_version(name)
        deleted = 0
        for delta_version, delta_name in self.list_embedding_set_deltas(name):
            if delta_version > folded:
                continue  # not folded into the base yet — never prunable
            if keep_from is not None and delta_version >= keep_from:
                continue  # a follower announced it still needs this record
            self.delete_artifact(delta_name)
            deleted += 1
        return deleted

    def delete_artifact(self, name: str) -> None:
        """Remove an artifact's header, matrix archive and mmap sidecars."""
        header_path = self._header_path(name)
        try:
            header = self._read_header(name)
        except StoreFormatError:
            header = {}
        matrix_file = header.get("matrix_file")
        paths = [header_path]
        if isinstance(matrix_file, str):
            paths.append(self.root / matrix_file)
            # content-addressed sidecars extracted by open_matrix_readonly
            # (<name>.<checksum12>.<array>.npy) die with their archive
            checksum12 = str(header.get("matrix_sha256", ""))[:12]
            if checksum12:
                paths.extend(self.root.glob(f"{name}.{checksum12}.*.npy"))
        for path in paths:
            try:
                path.unlink()
            except OSError:
                pass

    @staticmethod
    def _restore_index(
        name: str,
        header: dict[str, Any],
        arrays: dict[str, np.ndarray],
        matrix,
        partial: bool = False,
    ):
        """Rebuild the persisted index of an embedding-set artifact.

        ``partial=True`` tolerates ``-1`` (missing) cell assignments —
        rows appended or changed by a delta replay — assigning them to
        their nearest stored centroid; k-means never re-runs either way.
        """
        meta = header.get("index")
        if meta is None:
            return None
        if not isinstance(meta, dict):
            raise StoreFormatError(f"artifact {name!r} has malformed index metadata")
        from repro.errors import ServingError
        from repro.serving.index import FlatIndex, IVFIndex
        from repro.serving.nsw import NSWIndex
        from repro.serving.pq import PQIndex

        kind = meta.get("type")
        try:
            if kind == "flat":
                return FlatIndex(matrix, metric=str(meta.get("metric", "cosine")))
            if kind == "ivf":
                centroids = arrays.get("index_centroids")
                assignments = arrays.get("index_assignments")
                if centroids is None or assignments is None:
                    raise StoreFormatError(
                        f"artifact {name!r} declares an IVF index but lacks "
                        "its centroid/assignment arrays"
                    )
                restore = IVFIndex.from_partial_state if partial else IVFIndex.from_state
                return restore(
                    matrix,
                    centroids,
                    assignments,
                    metric=str(meta.get("metric", "cosine")),
                    nprobe=int(meta.get("nprobe", 8)),
                )
            if kind == "pq":
                required = (
                    "index_codebooks",
                    "index_centroids",
                    "index_assignments",
                    "index_codes",
                )
                if any(arrays.get(key) is None for key in required):
                    raise StoreFormatError(
                        f"artifact {name!r} declares a PQ index but lacks "
                        "its codebook/centroid/assignment/code arrays"
                    )
                restore = (
                    PQIndex.from_partial_state if partial else PQIndex.from_state
                )
                return restore(
                    matrix,
                    arrays["index_codebooks"],
                    arrays["index_centroids"],
                    arrays["index_assignments"],
                    arrays["index_codes"],
                    metric=str(meta.get("metric", "cosine")),
                    nprobe=int(meta.get("nprobe", 8)),
                    rerank=int(meta.get("rerank", 32)),
                )
            if kind == "nsw":
                adjacency = arrays.get("index_adjacency")
                if adjacency is None:
                    raise StoreFormatError(
                        f"artifact {name!r} declares an NSW index but lacks "
                        "its adjacency array"
                    )
                restore = (
                    NSWIndex.from_partial_state
                    if partial
                    else NSWIndex.from_state
                )
                return restore(
                    matrix,
                    adjacency,
                    int(meta.get("entry_point", -1)),
                    metric=str(meta.get("metric", "cosine")),
                    max_degree=int(meta.get("max_degree", 16)),
                    ef_construction=int(meta.get("ef_construction", 64)),
                    ef_search=int(meta.get("ef_search", 48)),
                )
        except ServingError as error:
            raise StoreFormatError(
                f"artifact {name!r} holds an inconsistent persisted index: {error}"
            ) from error
        except (TypeError, ValueError) as error:
            raise StoreFormatError(
                f"artifact {name!r} has malformed index metadata: {error}"
            ) from error
        raise StoreFormatError(
            f"artifact {name!r} declares an unknown index type {kind!r}"
        )

    # ------------------------------------------------------------------ #
    # full pipeline results
    # ------------------------------------------------------------------ #
    def save_result(self, name: str, result) -> Path:
        """Persist a full :class:`repro.retrofit.pipeline.RetroResult`."""
        params = result.hyperparams
        report = result.report
        header: dict[str, Any] = {
            "set_name": result.embeddings.name,
            "dimension": result.embeddings.dimension,
            "n_values": len(result.embeddings),
            "extraction": extraction_to_dict(result.extraction),
            "hyperparams": {
                "alpha": params.alpha,
                "beta": params.beta,
                "gamma": params.gamma,
                "delta": params.delta,
            },
            "report": {
                "method": report.method,
                "iterations": report.iterations,
                "runtime_seconds": report.runtime_seconds,
                "converged": report.converged,
                "convexity_margin": report.convexity_margin,
                "shift_history": list(report.shift_history),
                "loss_history": list(report.loss_history),
            },
            "base_coverage": result.base.coverage,
            "plain_name": result.plain.name,
        }
        arrays: dict[str, np.ndarray] = {
            "matrix": result.embeddings.matrix,
            "base_matrix": result.base.matrix,
            "oov_mask": result.base.oov_mask.astype(np.bool_),
            "plain_matrix": result.plain.matrix,
        }
        if result.node_embeddings is not None:
            node = result.node_embeddings
            arrays["node_matrix"] = node.matrix
            header["node_embeddings"] = {
                "node_ids": list(node.node_ids),
                "missing": [int(i) for i in node.missing],
            }
        if result.combined is not None:
            arrays["combined_matrix"] = result.combined.matrix
            header["combined_name"] = result.combined.name
        return self._write(name, KIND_RETRO_RESULT, header, arrays)

    def load_result(self, name: str, result_cls=None):
        """Reload a pipeline result saved by :meth:`save_result`.

        ``result_cls`` lets :class:`RetroResult` subclasses reconstruct
        themselves; defaults to ``RetroResult``.
        """
        if result_cls is None:
            from repro.retrofit.pipeline import RetroResult as result_cls

        header, arrays = self._read(name, KIND_RETRO_RESULT)
        extraction = extraction_from_dict(header.get("extraction", {}))
        required = ("matrix", "base_matrix", "oov_mask", "plain_matrix")
        missing = [key for key in required if key not in arrays]
        if missing:
            raise StoreFormatError(
                f"artifact {name!r} lacks matrix arrays: {missing}"
            )
        # every per-value array must agree with the extraction row count —
        # a wrong-rows array must fail here as StoreFormatError, never load
        # into inconsistent state or surface as a downstream RetrofitError
        expected_rows = len(extraction)
        row_checked = (
            "matrix", "base_matrix", "oov_mask", "plain_matrix",
            "node_matrix", "combined_matrix",
        )
        for key in row_checked:
            if key not in arrays:
                continue
            array = arrays[key]
            expected_ndim = 1 if key == "oov_mask" else 2
            if array.ndim != expected_ndim or array.shape[0] != expected_rows:
                raise StoreFormatError(
                    f"artifact {name!r}: array {key!r} has shape "
                    f"{array.shape}, expected {expected_rows} rows"
                )
        matrix = arrays["matrix"]
        try:
            params = RetroHyperparameters(**header["hyperparams"])
            report_payload = dict(header["report"])
            report = SolverReport(
                method=str(report_payload["method"]),
                iterations=int(report_payload["iterations"]),
                runtime_seconds=float(report_payload["runtime_seconds"]),
                converged=bool(report_payload["converged"]),
                convexity_margin=report_payload.get("convexity_margin"),
                shift_history=[float(v) for v in report_payload.get("shift_history", [])],
                loss_history=[float(v) for v in report_payload.get("loss_history", [])],
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StoreFormatError(
                f"artifact {name!r} has malformed hyperparameter/report "
                f"metadata: {error}"
            ) from error
        base = InitialisedMatrix(
            matrix=arrays["base_matrix"],
            oov_mask=arrays["oov_mask"].astype(bool),
            coverage=float(header.get("base_coverage", 0.0)),
        )
        embeddings = TextValueEmbeddingSet(
            extraction=extraction,
            matrix=matrix,
            name=str(header.get("set_name", report.method)),
        )
        plain = TextValueEmbeddingSet(
            extraction=extraction,
            matrix=arrays["plain_matrix"],
            name=str(header.get("plain_name", "PV")),
        )
        node_embeddings = None
        if "node_matrix" in arrays:
            node_meta = header.get("node_embeddings", {})
            node_embeddings = NodeEmbeddingResult(
                matrix=arrays["node_matrix"],
                node_ids=[str(v) for v in node_meta.get("node_ids", [])],
                missing=[int(v) for v in node_meta.get("missing", [])],
            )
        combined = None
        if "combined_matrix" in arrays:
            combined = TextValueEmbeddingSet(
                extraction=extraction,
                matrix=arrays["combined_matrix"],
                name=str(header.get("combined_name", f"{embeddings.name}+DW")),
            )
        return result_cls(
            extraction=extraction,
            base=base,
            embeddings=embeddings,
            report=report,
            plain=plain,
            node_embeddings=node_embeddings,
            combined=combined,
            hyperparams=params,
        )

    # ------------------------------------------------------------------ #
    # embedding suites (the experiment engine's artifact cache)
    # ------------------------------------------------------------------ #
    def save_suite(self, name: str, suite, config: dict[str, Any] | None = None) -> Path:
        """Persist a whole :class:`repro.experiments.EmbeddingSuite`.

        One artifact holds every trained set's matrix, the base
        initialisation, the recorded per-method runtimes and an arbitrary
        ``config`` payload (the experiment engine stores the build
        fingerprint source there, so a cache hit can verify what it loads).
        """
        header: dict[str, Any] = {
            "set_names": list(suite.sets),
            "runtimes": {key: float(value) for key, value in suite.runtimes.items()},
            "preprocessing_seconds": float(suite.preprocessing_seconds),
            "base_coverage": float(suite.base.coverage),
            "extraction": extraction_to_dict(suite.extraction),
            "config": config or {},
        }
        arrays: dict[str, np.ndarray] = {
            "base_matrix": suite.base.matrix,
            "oov_mask": suite.base.oov_mask.astype(np.bool_),
        }
        for set_name, embedding_set in suite.sets.items():
            arrays[f"{_SUITE_SET_PREFIX}{set_name}"] = embedding_set.matrix
        return self._write(name, KIND_EMBEDDING_SUITE, header, arrays)

    def load_suite(self, name: str):
        """Reload a suite saved by :meth:`save_suite` (no solver rerun)."""
        from repro.experiments.embedding_factory import EmbeddingSuite

        header, arrays = self._read(name, KIND_EMBEDDING_SUITE)
        extraction = extraction_from_dict(header.get("extraction", {}))
        expected_rows = len(extraction)
        for key in ("base_matrix", "oov_mask"):
            if key not in arrays:
                raise StoreFormatError(f"suite artifact {name!r} lacks {key!r}")
        for key, array in arrays.items():
            expected_ndim = 1 if key == "oov_mask" else 2
            if array.ndim != expected_ndim or array.shape[0] != expected_rows:
                raise StoreFormatError(
                    f"suite artifact {name!r}: array {key!r} has shape "
                    f"{array.shape}, expected {expected_rows} rows"
                )
        base = InitialisedMatrix(
            matrix=arrays["base_matrix"],
            oov_mask=arrays["oov_mask"].astype(bool),
            coverage=float(header.get("base_coverage", 0.0)),
        )
        suite = EmbeddingSuite(
            extraction=extraction,
            base=base,
            preprocessing_seconds=float(header.get("preprocessing_seconds", 0.0)),
        )
        set_names = header.get("set_names")
        if not isinstance(set_names, list):
            raise StoreFormatError(f"suite artifact {name!r} lacks its set names")
        for set_name in set_names:
            key = f"{_SUITE_SET_PREFIX}{set_name}"
            if key not in arrays:
                raise StoreFormatError(
                    f"suite artifact {name!r} lists set {set_name!r} but the "
                    "matrix archive does not contain it"
                )
            suite.sets[str(set_name)] = TextValueEmbeddingSet(
                extraction=extraction,
                matrix=arrays[key],
                name=str(set_name),
            )
        runtimes = header.get("runtimes", {})
        if not isinstance(runtimes, dict):
            raise StoreFormatError(f"suite artifact {name!r} has malformed runtimes")
        suite.runtimes = {str(key): float(value) for key, value in runtimes.items()}
        return suite

    def suite_config(self, name: str) -> dict[str, Any]:
        """The ``config`` payload stored with a suite artifact."""
        header = self._read_header(name)
        self._validate_header(name, header, KIND_EMBEDDING_SUITE)
        config = header.get("config", {})
        if not isinstance(config, dict):
            raise StoreFormatError(f"suite artifact {name!r} has malformed config")
        return config
