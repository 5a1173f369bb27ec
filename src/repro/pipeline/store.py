"""Content-addressed on-disk artifact cache.

Artifacts are keyed by everything that determines their bytes: the
assembled driver image, the canonical :class:`RevNicConfig`, the artifact
schema version, and a fingerprint of the pipeline's own source tree (any
code change invalidates every cached run -- the same discipline as a
compiler cache).  Repeated pytest or benchmark sessions and CI reruns
load artifacts in milliseconds instead of re-running symbolic execution.

The store holds one kind of document, each driver's reverse-engineering
run: :meth:`ArtifactStore.save` publishes it and :meth:`ArtifactStore.load`
reads it back.  It is plain files under one root, hardened for concurrent
and hostile conditions:

* **checksummed entries** -- every file carries a digest footer
  (payload SHA-256 plus the writing schema/code fingerprint); loads
  verify it, so truncation and bit rot are *detected*, never silently
  decoded;
* **quarantine** -- corrupt files are moved to ``<root>/quarantine/``
  and counted (``corrupt``/``quarantined`` beside ``hits``/``misses``),
  so a bad entry costs one recompute and leaves evidence;
* **crash-consistent publish** -- temp file + atomic ``os.replace``;
  a writer that dies mid-publish leaves only an orphaned ``*.tmp``,
  which :meth:`ArtifactStore.recover` sweeps.
"""

import hashlib
import json
import os
import tempfile

from repro.pipeline.artifact import SCHEMA_VERSION, artifact_from_dict, to_json

#: Environment variable overriding the cache directory; the value
#: ``off`` disables on-disk caching entirely.
CACHE_ENV = "REVNIC_ARTIFACT_CACHE"

_FINGERPRINT_SUFFIXES = (".py", ".s")

#: Last line of every store file: ``#revnic-store:{...meta json...}``.
FOOTER_PREFIX = "#revnic-store:"


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
    digest.update(b"schema:%d|" % SCHEMA_VERSION)
    digest.update(hashlib.sha256(image.to_bytes()).digest())
    digest.update(config_json.encode())
    digest.update(code_fingerprint().encode())
    return digest.hexdigest()


def frame_entry(payload):
    """``payload`` plus the digest footer: the on-disk byte format."""
    meta = {"sha256": hashlib.sha256(payload.encode()).hexdigest(),
            "schema": SCHEMA_VERSION,
            "fingerprint": code_fingerprint()}
    return "%s\n%s%s\n" % (payload, FOOTER_PREFIX,
                           json.dumps(meta, sort_keys=True,
                                      separators=(",", ":")))


def unframe_entry(raw):
    """``(payload, meta)`` for on-disk bytes ``raw``.

    Raises ``ValueError`` on any corruption: missing or malformed footer,
    or a payload whose digest does not match the recorded one.
    """
    body, _newline, last = raw.rstrip("\n").rpartition("\n")
    if not last.startswith(FOOTER_PREFIX):
        raise ValueError("missing digest footer")
    try:
        meta = json.loads(last[len(FOOTER_PREFIX):])
        recorded = meta["sha256"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError("malformed digest footer: %s" % (exc,)) from exc
    actual = hashlib.sha256(body.encode()).hexdigest()
    if actual != recorded:
        raise ValueError("digest mismatch: entry is corrupt")
    return body, meta


class ArtifactStore:
    """File-per-artifact store under one root directory.

    Outcome counters partition every load: ``hits`` (verified and
    decoded), ``misses`` (absent, or present under a different schema),
    ``corrupt`` (failed verification or decoding -- quarantined).
    ``quarantined``/``recovered`` count the corresponding maintenance
    actions.
    """

    def __init__(self, root):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.quarantined = 0
        self.recovered = 0

    def path_for(self, key):
        return os.path.join(self.root, "%s.json" % key)

    @property
    def quarantine_dir(self):
        return os.path.join(self.root, "quarantine")

    # -- reads ---------------------------------------------------------

    def load(self, key):
        """The cached :class:`RunArtifact` for ``key``, or ``None``.

        Error contract: a missing entry or one written under a different
        artifact schema is a **miss**; a file that cannot be read or
        fails UTF-8 decoding, digest verification or artifact decoding
        is **corrupt** -- quarantined and counted, never raised and never
        silently served.
        """
        path = self.path_for(key)
        try:
            handle = open(path, "rb")
        except OSError:
            self.misses += 1
            return None
        try:
            # The entry's bytes and text are temporaries: only the payload
            # stays alive while the (much larger) artifact is decoded.
            with handle:
                payload, _meta = unframe_entry(handle.read().decode("utf-8"))
            data = json.loads(payload)
            if isinstance(data, dict) and data.get("schema") \
                    != SCHEMA_VERSION:
                # A well-formed entry from another schema era: a plain
                # miss, not corruption.
                self.misses += 1
                return None
            artifact = artifact_from_dict(data, source="disk-cache")
        except Exception:
            self.corrupt += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return artifact

    # -- writes --------------------------------------------------------

    def save(self, key, artifact):
        """Serialize and store ``artifact``; returns the file path."""
        return self.save_json(key, to_json(artifact))

    def save_json(self, key, text):
        """Atomically publish ``text`` (plus digest footer) under ``key``.

        Crash-consistent: a writer that dies leaves only an orphaned
        ``*.tmp`` for :meth:`recover` to sweep, never a partial entry
        under the real name.  Concurrent writers of the same key are safe
        (deterministic pipelines write identical bytes; ``os.replace`` is
        atomic either way).  If a recovery sweep races this publish and
        steals the temp file, the write is retried once.
        """
        framed = frame_entry(text)
        path = self.path_for(key)
        for attempt in (1, 2):
            os.makedirs(self.root, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
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
        if not os.path.isdir(self.root):
            return []
        swept = []
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".tmp"):
                continue
            try:
                os.unlink(os.path.join(self.root, name))
            except OSError:
                continue
            swept.append(name)
        self.recovered += len(swept)
        return swept

    # -- listing -------------------------------------------------------

    def keys(self):
        """Stored keys in sorted order."""
        if not os.path.isdir(self.root):
            return []
        return sorted(name[:-5] for name in os.listdir(self.root)
                      if name.endswith(".json"))

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
