"""Content-addressed on-disk artifact cache.

Artifacts are keyed by everything that determines their bytes: the
assembled driver image, the canonical :class:`RevNicConfig`, the artifact
schema version, the entry format (:data:`STORE_FORMAT`) and a
fingerprint of the pipeline's own source tree (any code change
invalidates every cached run -- the same discipline as a compiler
cache).  Repeated pytest or benchmark sessions and CI reruns load
artifacts in milliseconds instead of re-running symbolic execution.

The store holds one kind of document, each driver's reverse-engineering
run: :meth:`ArtifactStore.save` publishes it and :meth:`ArtifactStore.load`
reads it back.  It is plain files, hardened for concurrent and hostile
conditions:

* **per-fingerprint directory** -- entries live in
  ``<root>/<code fingerprint>/<key>.json``.  The first save under a new
  fingerprint removes the sibling directories named by other
  fingerprints, whose entries no code in this tree can reach, so a
  checkout keeps one generation of entries, not one per source edit;
* **two sections, two digests** -- an entry is three lines: the activity
  trace, the head (every other part of the artifact) and a footer
  holding the SHA-256 of each section plus the writing schema and code
  fingerprint.  The trace comes first, so its offset never moves;
* **verify everything, parse the head** -- a load hashes every byte of
  both sections, so truncation and bit rot are *detected* at load,
  never silently decoded or found later.  It parses only the head and
  drops the trace text: the trace is the synthesizer's input, and a
  warm process (porting, validation, the fabric) never walks it;
* **trace on demand** -- walking ``artifact.trace`` re-reads the trace
  section and checks it against the digest verified at load.  A section
  that changed or vanished since then raises an
  :class:`~repro.errors.ArtifactError` naming the key and quarantines
  the entry: a wrong trace is never served;
* **quarantine** -- corrupt files are moved to ``quarantine/`` beside
  the entries and counted (``corrupt``/``quarantined`` beside
  ``hits``/``misses``), so a bad entry costs one recompute and leaves
  evidence;
* **crash-consistent publish** -- temp file + atomic ``os.replace``;
  a writer that dies mid-publish leaves only an orphaned ``*.tmp``,
  which :meth:`ArtifactStore.recover` sweeps.
"""

import hashlib
import json
import os
import re
import shutil
import tempfile

from repro.errors import ArtifactError
from repro.pipeline.artifact import (SCHEMA_VERSION, artifact_from_dict,
                                     artifact_to_dict, canonical_dumps)

#: Environment variable overriding the cache directory; the value
#: ``off`` disables on-disk caching entirely.
CACHE_ENV = "REVNIC_ARTIFACT_CACHE"

_FINGERPRINT_SUFFIXES = (".py", ".s")

#: Last line of every store file: ``#revnic-store:{...meta json...}``.
FOOTER_PREFIX = b"#revnic-store:"

#: The entry format, part of every key: entries written in another
#: format (a single-section document, say) are never looked up.
STORE_FORMAT = 2

#: Names of per-fingerprint directories under a store root.
_FINGERPRINT_DIR = re.compile(r"[0-9a-f]{64}")


def _repo_root():
    # src/repro/pipeline/store.py -> repo root three levels up from repro/.
    here = os.path.abspath(os.path.dirname(__file__))
    return os.path.dirname(os.path.dirname(os.path.dirname(here)))


def default_cache_dir():
    """The configured cache directory, or ``None`` when disabled."""
    configured = os.environ.get(CACHE_ENV)
    if configured == "off":
        return None
    if configured:
        return configured
    return os.path.join(_repo_root(), ".revnic-cache")


_code_fingerprint = None


def code_fingerprint():
    """Digest of the pipeline's own source tree (``src/repro``).

    Part of every cache key: a stale artifact produced by different code
    must never be served.  Computed once per process.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        package_root = os.path.dirname(os.path.abspath(
            os.path.dirname(__file__)))
        digest = hashlib.sha256()
        entries = []
        for directory, _subdirs, files in os.walk(package_root):
            for filename in files:
                if not filename.endswith(_FINGERPRINT_SUFFIXES):
                    continue
                path = os.path.join(directory, filename)
                entries.append((os.path.relpath(path, package_root), path))
        for relpath, path in sorted(entries):
            digest.update(relpath.encode())
            with open(path, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def artifact_key(image, config):
    """Cache key for a run of ``config`` over driver ``image``."""
    from dataclasses import asdict

    from repro.pipeline.artifact import _encode_config

    config_json = json.dumps(_encode_config(asdict(config)), sort_keys=True)
    digest = hashlib.sha256()
    digest.update(b"schema:%d|store:%d|" % (SCHEMA_VERSION, STORE_FORMAT))
    digest.update(hashlib.sha256(image.to_bytes()).digest())
    digest.update(config_json.encode())
    digest.update(code_fingerprint().encode())
    return digest.hexdigest()


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _footer(meta):
    return FOOTER_PREFIX + json.dumps(
        meta, sort_keys=True, separators=(",", ":")).encode()


def frame_entry(head, trace="null"):
    """The on-disk bytes of an entry: the ``trace`` section, the ``head``
    section and the digest footer, one line each."""
    head = head.encode()
    trace = trace.encode()
    meta = {"head_sha256": _sha256(head),
            "trace_bytes": len(trace),
            "trace_sha256": _sha256(trace),
            "schema": SCHEMA_VERSION,
            "fingerprint": code_fingerprint()}
    return b"%s\n%s\n%s\n" % (trace, head, _footer(meta))


def unframe_entry(raw):
    """``(head, meta)`` for on-disk bytes ``raw``, every byte verified.

    ``head`` is the head section's text; the trace section is checked
    against ``meta["trace_sha256"]`` and left unparsed.  Raises
    ``ValueError`` on any corruption: a missing, malformed or foreign
    footer (one this code would not have written), separators out of
    place, or a section whose digest does not match the recorded one.
    """
    footer_start = raw.rfind(b"\n", 0, len(raw) - 1) + 1
    footer = raw[footer_start:-1]
    if not raw.endswith(b"\n") or not footer.startswith(FOOTER_PREFIX):
        raise ValueError("missing digest footer")
    try:
        meta = json.loads(footer[len(FOOTER_PREFIX):])
        trace_end = meta["trace_bytes"]
        recorded = (meta["trace_sha256"], meta["head_sha256"])
        ours = (_footer(meta) == footer
                and meta["schema"] == SCHEMA_VERSION
                and meta["fingerprint"] == code_fingerprint())
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError("malformed digest footer: %s" % (exc,)) from exc
    if not ours:
        raise ValueError("foreign digest footer")
    head_end = footer_start - 1
    if not (type(trace_end) is int and 0 <= trace_end < head_end
            and raw[trace_end] == ord("\n")):
        raise ValueError("sections do not match the footer")
    view = memoryview(raw)
    if (_sha256(view[:trace_end]),
            _sha256(view[trace_end + 1:head_end])) != recorded:
        raise ValueError("digest mismatch: entry is corrupt")
    return raw[trace_end + 1:head_end].decode("utf-8"), meta


class ArtifactStore:
    """File-per-artifact store under one root directory.

    Outcome counters partition every load: ``hits`` (verified and
    decoded), ``misses`` (absent, or present under a different schema),
    ``corrupt`` (failed verification or decoding -- quarantined).
    ``quarantined``/``recovered`` count the corresponding maintenance
    actions; ``quarantined`` also counts an entry whose trace section
    changed between its load and the first walk of its trace.
    """

    def __init__(self, root):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.quarantined = 0
        self.recovered = 0

    @property
    def directory(self):
        """Where this code's entries live: ``<root>/<code fingerprint>``."""
        return os.path.join(self.root, code_fingerprint())

    def path_for(self, key):
        return os.path.join(self.directory, "%s.json" % key)

    @property
    def quarantine_dir(self):
        return os.path.join(self.directory, "quarantine")

    # -- reads ---------------------------------------------------------

    def load(self, key):
        """The cached :class:`RunArtifact` for ``key``, or ``None``.

        Error contract: a missing entry or one written under a different
        artifact schema is a **miss**; a file that cannot be read or
        fails digest verification, UTF-8 decoding or artifact decoding
        is **corrupt** -- quarantined and counted, never raised and never
        silently served.  Every byte is verified here, but only the head
        is parsed: the artifact's trace is read again, and checked, when
        something walks it (see :meth:`_trace_reader`).
        """
        path = self.path_for(key)
        try:
            handle = open(path, "rb")
        except OSError:
            self.misses += 1
            return None
        try:
            # The entry's bytes are a temporary: only the head's text
            # stays alive while the artifact is decoded.
            with handle:
                head, meta = unframe_entry(handle.read())
            data = json.loads(head)
            if isinstance(data, dict) and data.get("schema") \
                    != SCHEMA_VERSION:
                # A well-formed entry from another schema era: a plain
                # miss, not corruption.
                self.misses += 1
                return None
            artifact = artifact_from_dict(
                data, source="disk-cache",
                read_trace=self._trace_reader(key, meta["trace_bytes"],
                                         meta["trace_sha256"]))
        except Exception:
            self.corrupt += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return artifact

    def _trace_reader(self, key, size, digest):
        """A callable returning the parsed trace section of ``key``'s
        entry, which load verified as ``size`` bytes hashing to
        ``digest``.

        The section is read again when called.  If it is gone, or no
        longer hashes to ``digest``, the entry is quarantined and the
        call raises :class:`ArtifactError` naming ``key``.
        """
        def read():
            path = self.path_for(key)
            try:
                with open(path, "rb") as handle:
                    section = handle.read(size)
            except OSError as exc:
                raise ArtifactError(
                    "store entry %s: trace section unreadable: %s"
                    % (key, exc)) from exc
            try:
                if _sha256(section) != digest:
                    raise ValueError("digest mismatch")
                return json.loads(section)
            except ValueError as exc:
                self._quarantine(path)
                raise ArtifactError(
                    "store entry %s: trace section changed since load "
                    "(%s); entry quarantined" % (key, exc)) from exc
        return read

    # -- writes --------------------------------------------------------

    def save(self, key, artifact):
        """Serialize and store ``artifact``; returns the file path."""
        document = artifact_to_dict(artifact)
        trace = document.pop("trace")
        return self.save_json(key, canonical_dumps(document),
                              canonical_dumps(trace))

    def save_json(self, key, head, trace="null"):
        """Atomically publish ``head`` and ``trace`` (plus digest footer)
        under ``key``.

        Crash-consistent: a writer that dies leaves only an orphaned
        ``*.tmp`` for :meth:`recover` to sweep, never a partial entry
        under the real name.  Concurrent writers of the same key are safe
        (deterministic pipelines write identical bytes; ``os.replace`` is
        atomic either way).  If a recovery sweep races this publish and
        steals the temp file, the write is retried once.
        """
        framed = frame_entry(head, trace)
        path = self.path_for(key)
        for attempt in (1, 2):
            self._make_directory()
            fd, tmp_path = tempfile.mkstemp(dir=self.directory,
                                            suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(framed)
                os.replace(tmp_path, path)
                return path
            except FileNotFoundError:
                # recover() swept our in-flight temp file; retry once.
                if attempt == 2:
                    raise
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        return path

    # -- maintenance ---------------------------------------------------

    def _make_directory(self):
        """Create this fingerprint's directory.  The call that creates it
        also removes the directories of other fingerprints, and nothing
        else under the root."""
        try:
            os.makedirs(self.directory)
        except FileExistsError:
            return
        current = os.path.basename(self.directory)
        for name in os.listdir(self.root):
            if name != current and _FINGERPRINT_DIR.fullmatch(name):
                shutil.rmtree(os.path.join(self.root, name),
                              ignore_errors=True)

    def _quarantine(self, path):
        """Move a corrupt file aside (best-effort) and count it."""
        try:
            os.makedirs(self.quarantine_dir, exist_ok=True)
            os.replace(path, os.path.join(self.quarantine_dir,
                                          os.path.basename(path)))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                return
        self.quarantined += 1

    def recover(self):
        """Sweep orphaned ``*.tmp`` files (writers that died mid-publish).

        Returns the swept file names.  Run this before fanning out
        writers, not concurrently with them: an in-flight writer whose
        temp file is stolen retries its publish, but the window is better
        avoided.
        """
        swept = []
        for name in self._names():
            if not name.endswith(".tmp"):
                continue
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:
                continue
            swept.append(name)
        self.recovered += len(swept)
        return swept

    # -- listing -------------------------------------------------------

    def _names(self):
        try:
            return sorted(os.listdir(self.directory))
        except FileNotFoundError:
            return []

    def keys(self):
        """Stored keys (this code fingerprint's) in sorted order."""
        return [name[:-5] for name in self._names()
                if name.endswith(".json")]

    def clear(self):
        for key in self.keys():
            try:
                os.unlink(self.path_for(key))
            except OSError:
                pass

    def counters(self):
        """The outcome/maintenance counters as a dict (for reports)."""
        return {"hits": self.hits, "misses": self.misses,
                "corrupt": self.corrupt, "quarantined": self.quarantined,
                "recovered": self.recovered}


def default_store():
    """The process-default store, or ``None`` when caching is disabled."""
    root = default_cache_dir()
    return ArtifactStore(root) if root else None
