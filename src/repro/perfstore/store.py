"""Content-addressed, VCS-keyed store of performance/accuracy profiles.

Layout (everything JSON, everything written atomically)::

    <root>/
      index.json                      compact rebuildable index
      objects/<aa>/<sha256>.json      content-addressed RunManifest blobs
                                      (stored without their attribution)
      versions/<version>/<figure>/<fingerprint>/runs.jsonl
                                      append-only run log (one line per run)
      versions/<version>/attachments/<kind>/<name>.json
                                      non-manifest artifacts (fuzz findings,
                                      campaign checkpoints)

A *version* is normally a commit SHA (``git rev-parse HEAD``), but any
label works — the store never requires git. The run log is append-only
and multiple runs per ``(version, figure, fingerprint)`` are first-class:
that is what turns a CI gate from a point comparison into a statistical
one. Objects are deduplicated by content hash, so re-ingesting the same
manifest appends a log line but stores no new bytes. Per-kernel error
attributions are dropped on ingest: nothing here reads them, they make
up ~99% of a fig3 manifest, and benches write them to
``ATTRIBUTION_<figure>.json`` beside the manifest anyway.

``figure`` names what was measured (``fig3``, ``scale``, ``service``,
...); the ``fingerprint`` hashes the manifest's config so runs are only
ever compared against runs of the same experiment shape.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass, field, replace
from hashlib import sha256
from pathlib import Path
from typing import Mapping

from repro.observability import metrics
from repro.observability.manifest import RunManifest
from repro.robustness import diagnostics
from repro.utils.atomic import atomic_write
from repro.utils.errors import PerfStoreError
from repro.utils.hashing import source_fingerprint, stable_hash
from repro.utils.validation import require

INDEX_SCHEMA = 1

#: Environment knobs: where the store lives, and a version override for
#: environments where HEAD is not the thing being measured (CI merge
#: commits, detached worktrees).
STORE_DIR_ENV = "SIEVE_PERFSTORE_DIR"
VERSION_ENV = "SIEVE_PERFSTORE_VERSION"

#: Figures whose names are not ``fig<N>`` but are first-class manifests.
_KNOWN_FIGURES = frozenset({"scale", "streaming", "service", "fuzz"})


def default_store_dir() -> Path:
    """``$SIEVE_PERFSTORE_DIR`` or ``~/.cache/sieve-repro/perfstore``."""
    configured = os.environ.get(STORE_DIR_ENV)
    if configured:
        return Path(configured)
    return Path.home() / ".cache" / "sieve-repro" / "perfstore"


def _git(*args: str) -> str | None:
    """Best-effort git invocation; None when git or the repo is absent."""
    try:
        proc = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    out = proc.stdout.strip()
    return out or None


def current_version() -> str:
    """The version new profiles attach to: env override, then HEAD.

    Outside a git checkout the package source fingerprint stands in, so
    the store still works (keys just stop being commit SHAs).
    """
    override = os.environ.get(VERSION_ENV)
    if override:
        return override
    head = _git("rev-parse", "HEAD")
    if head:
        return head
    return f"nogit-{source_fingerprint()[:12]}"


def figure_from_command(command: str) -> str:
    """Derive the store's figure key from a manifest's command string.

    ``"bench fig3"`` and ``"sieve-repro fig3"`` both map to ``fig3``;
    ``"bench scale"`` to ``scale``. Anything unrecognized is sanitized
    wholesale so every manifest has *some* stable figure key.
    """
    tokens = [t for t in command.split() if t]
    if tokens:
        last = tokens[-1]
        if last in _KNOWN_FIGURES or (
            last.startswith("fig") and last[3:].isdigit()
        ):
            return last
    slug = "".join(c if c.isalnum() else "-" for c in command.lower()).strip("-")
    return slug or "unknown"


def config_fingerprint(figure: str, config: Mapping) -> str:
    """Identity of an experiment shape: figure + manifest config."""
    return stable_hash("perfstore-config", figure, dict(config))[:16]


def _append_line(path: Path, line: str) -> None:
    """Atomic append: one O_APPEND write per log line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    data = (line.rstrip("\n") + "\n").encode("utf-8")
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


@dataclass(frozen=True)
class IngestReceipt:
    """What :meth:`PerfStore.ingest` recorded."""

    version: str
    figure: str
    fingerprint: str
    object_id: str
    #: 1-based position in this key's append-only run log.
    seq: int
    #: Whether the object was new (False = content-dedup hit).
    stored_object: bool


@dataclass(frozen=True)
class StoredRun:
    """One line of a run log, with its manifest loaded."""

    version: str
    figure: str
    fingerprint: str
    seq: int
    object_id: str
    created: str
    manifest: RunManifest = field(compare=False)


class PerfStore:
    """See the module docstring. All paths live under ``root``."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    # ------------------------------------------------------------- index

    def _load_index(self) -> dict:
        if not self.index_path.exists():
            return {"schema": INDEX_SCHEMA, "next_order": 1, "versions": {}}
        try:
            payload = json.loads(self.index_path.read_text())
        except (OSError, ValueError) as exc:
            raise PerfStoreError(
                f"unreadable perfstore index: {exc}", store=str(self.root)
            ) from exc
        if payload.get("schema") != INDEX_SCHEMA:
            raise PerfStoreError(
                "perfstore index schema mismatch",
                store=str(self.root),
                found=payload.get("schema"),
                expected=INDEX_SCHEMA,
            )
        return payload

    def _save_index(self, index: dict) -> None:
        ordered = {
            "schema": INDEX_SCHEMA,
            "next_order": index.get("next_order", 1),
            "versions": {
                version: {
                    "order": entry["order"],
                    "figures": {
                        figure: {
                            fp: dict(stats)
                            for fp, stats in sorted(entry["figures"][figure].items())
                        }
                        for figure in sorted(entry["figures"])
                    },
                }
                for version, entry in sorted(
                    index["versions"].items(), key=lambda kv: kv[1]["order"]
                )
            },
        }
        with atomic_write(self.index_path) as handle:
            handle.write(json.dumps(ordered, indent=2, sort_keys=False) + "\n")

    # ------------------------------------------------------------ ingest

    def _object_path(self, object_id: str) -> Path:
        return self.root / "objects" / object_id[:2] / f"{object_id}.json"

    def _log_path(self, version: str, figure: str, fingerprint: str) -> Path:
        return self.root / "versions" / version / figure / fingerprint / "runs.jsonl"

    def ingest(
        self,
        manifest: RunManifest,
        *,
        figure: str | None = None,
        version: str | None = None,
    ) -> IngestReceipt:
        """Record one run under ``(version, figure, config_fingerprint)``.

        The manifest blob, minus its attribution, is content-addressed
        (identical re-ingests store nothing new); the run log always
        grows by one line, so repeated runs of one commit accumulate
        into a sample.
        """
        figure = figure or figure_from_command(manifest.command)
        version = version or current_version()
        require(bool(version), "perfstore version must be non-empty", PerfStoreError)
        require(
            "/" not in version and "/" not in figure,
            "version and figure must not contain '/'",
            PerfStoreError,
        )
        fingerprint = config_fingerprint(figure, manifest.config)
        blob = replace(manifest, attribution=()).to_json()
        object_id = sha256(blob.encode("utf-8")).hexdigest()
        object_path = self._object_path(object_id)
        stored_object = not object_path.exists()
        if stored_object:
            with atomic_write(object_path) as handle:
                handle.write(blob)
        log_path = self._log_path(version, figure, fingerprint)
        seq = self._log_length(log_path) + 1
        _append_line(
            log_path,
            json.dumps(
                {
                    "seq": seq,
                    "object": object_id,
                    "created": manifest.created,
                },
                sort_keys=True,
            ),
        )
        index = self._load_index()
        entry = index["versions"].setdefault(
            version, {"order": index["next_order"], "figures": {}}
        )
        if entry["order"] == index["next_order"]:
            index["next_order"] += 1
        stats = entry["figures"].setdefault(figure, {}).setdefault(
            fingerprint, {"runs": 0, "last_object": ""}
        )
        stats["runs"] = seq
        stats["last_object"] = object_id
        self._save_index(index)
        metrics.inc("perfstore.ingest", figure=figure)
        return IngestReceipt(
            version=version,
            figure=figure,
            fingerprint=fingerprint,
            object_id=object_id,
            seq=seq,
            stored_object=stored_object,
        )

    @staticmethod
    def _log_length(path: Path) -> int:
        if not path.exists():
            return 0
        with path.open() as handle:
            return sum(1 for line in handle if line.strip())

    # ------------------------------------------------------------ lookup

    def versions(self) -> list[str]:
        """Stored versions in first-ingest order (oldest first)."""
        index = self._load_index()
        return [
            version
            for version, _ in sorted(
                index["versions"].items(), key=lambda kv: kv[1]["order"]
            )
        ]

    def figures(self, version: str) -> list[str]:
        index = self._load_index()
        entry = index["versions"].get(version)
        return sorted(entry["figures"]) if entry else []

    def fingerprints(self, version: str, figure: str) -> list[str]:
        index = self._load_index()
        entry = index["versions"].get(version)
        if not entry:
            return []
        return sorted(entry["figures"].get(figure, {}))

    def summary(self) -> dict[str, dict[str, int]]:
        """``{version: {figure: total_runs}}`` in first-ingest order."""
        index = self._load_index()
        return {
            version: {
                figure: sum(stats["runs"] for stats in fps.values())
                for figure, fps in entry["figures"].items()
            }
            for version, entry in sorted(
                index["versions"].items(), key=lambda kv: kv[1]["order"]
            )
        }

    def load_object(self, object_id: str) -> RunManifest:
        path = self._object_path(object_id)
        try:
            return RunManifest.from_json(path.read_text())
        except (OSError, ValueError, KeyError) as exc:
            raise PerfStoreError(
                f"unreadable perfstore object {object_id[:12]}: {exc}",
                store=str(self.root),
            ) from exc

    def runs(
        self,
        version: str,
        figure: str,
        fingerprint: str | None = None,
    ) -> list[StoredRun]:
        """Every stored run for the key, log order (ingest order).

        With ``fingerprint=None`` and exactly one fingerprint stored for
        ``(version, figure)``, that one is used; with several, runs from
        all of them are concatenated in sorted-fingerprint order (the
        caller is asking for "everything this commit has for fig3").
        """
        fps = (
            [fingerprint]
            if fingerprint is not None
            else self.fingerprints(version, figure)
        )
        found: list[StoredRun] = []
        for fp in fps:
            log_path = self._log_path(version, figure, fp)
            if not log_path.exists():
                continue
            for line in log_path.read_text().splitlines():
                if not line.strip():
                    continue
                record = json.loads(line)
                found.append(
                    StoredRun(
                        version=version,
                        figure=figure,
                        fingerprint=fp,
                        seq=int(record["seq"]),
                        object_id=record["object"],
                        created=record.get("created", ""),
                        manifest=self.load_object(record["object"]),
                    )
                )
        metrics.inc("perfstore.lookup", result="hit" if found else "miss")
        return found

    def latest_version(self, figure: str | None = None) -> str | None:
        """Most recently first-ingested version (optionally having ``figure``)."""
        for version in reversed(self.versions()):
            if figure is None or figure in self.figures(version):
                return version
        return None

    # ----------------------------------------------------------- resolve

    def resolve(self, rev: str) -> str:
        """Map a revision (SHA, prefix, branch, ``HEAD~2``...) to a stored version.

        Exact stored labels win; then ``git rev-parse`` (so symbolic
        revs work in a checkout); then unique-prefix match against
        stored versions. Unknown revisions raise :class:`PerfStoreError`
        listing what *is* stored.
        """
        stored = self.versions()
        if rev in stored:
            return rev
        resolved = _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
        if resolved and resolved in stored:
            return resolved
        candidates = [
            v for v in stored if v.startswith(rev) or (resolved and v.startswith(resolved))
        ]
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            raise PerfStoreError(
                f"revision {rev!r} is ambiguous in the perfstore",
                store=str(self.root),
                candidates=",".join(c[:12] for c in candidates),
            )
        known = ", ".join(v[:12] for v in stored) or "(empty store)"
        raise PerfStoreError(
            f"revision {rev!r} has no stored profile; known versions: {known}",
            store=str(self.root),
        )

    # ------------------------------------------------------- attachments

    def attach(
        self,
        kind: str,
        name: str,
        payload: Mapping,
        *,
        version: str | None = None,
    ) -> Path:
        """Store a non-manifest JSON artifact (fuzz findings, checkpoints)
        under the version, atomically. Overwrites the same (kind, name)."""
        version = version or current_version()
        safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in name)
        path = (
            self.root / "versions" / version / "attachments" / kind / f"{safe}.json"
        )
        with atomic_write(path) as handle:
            handle.write(json.dumps(dict(payload), indent=2, sort_keys=True) + "\n")
        metrics.inc("perfstore.ingest", figure=f"attachment:{kind}")
        return path

    def attachments(self, version: str, kind: str) -> dict[str, dict]:
        """All attachments of ``kind`` for ``version``, keyed by name."""
        directory = self.root / "versions" / version / "attachments" / kind
        if not directory.is_dir():
            return {}
        return {
            path.stem: json.loads(path.read_text())
            for path in sorted(directory.glob("*.json"))
        }


def store_from_env(default: Path | str | None = None) -> PerfStore:
    """A store at ``$SIEVE_PERFSTORE_DIR`` (or ``default``/the cache dir)."""
    configured = os.environ.get(STORE_DIR_ENV)
    if configured:
        return PerfStore(configured)
    return PerfStore(default if default is not None else default_store_dir())


def maybe_record(
    manifest: RunManifest, *, figure: str | None = None
) -> IngestReceipt | None:
    """Auto-record hook: ingest when ``SIEVE_PERFSTORE_DIR`` is set.

    Benches and smoke scripts call this after writing ``BENCH_*.json``;
    failures degrade to a diagnostic — recording telemetry must never
    fail the measured run.
    """
    directory = os.environ.get(STORE_DIR_ENV)
    if not directory:
        return None
    try:
        receipt = PerfStore(directory).ingest(manifest, figure=figure)
    except Exception as exc:  # noqa: BLE001 — telemetry must not kill runs
        diagnostics.emit("perfstore", f"auto-record failed: {exc!r}")
        return None
    diagnostics.emit(
        "perfstore",
        f"recorded {receipt.figure} run {receipt.seq} for "
        f"{receipt.version[:12]} ({directory})",
        severity="info",
    )
    return receipt


def maybe_attach(kind: str, name: str, payload: Mapping) -> Path | None:
    """Auto-attach hook for non-manifest artifacts (same env gate)."""
    directory = os.environ.get(STORE_DIR_ENV)
    if not directory:
        return None
    try:
        return PerfStore(directory).attach(kind, name, payload)
    except Exception as exc:  # noqa: BLE001
        diagnostics.emit("perfstore", f"auto-attach failed: {exc!r}")
        return None
