"""Persisted result cache keyed by (tool version, ring spec, operation).

The cache is an optimization only: every value it serves was computed by the
same code that would recompute it, because a file written under another
version or source fingerprint is ignored whole, and so is a file whose
entries are not all JSON objects. Writes are atomic (write-temp-rename).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

ENV_VAR = "RINGLAB_CACHE"


def source_fingerprint():
    """SHA-256 over the names and bytes of the package's .py files."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def default_cache_path():
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ringlab" / "results.json"


class ResultCache:
    def __init__(self, path, version):
        self.path = Path(path)
        self.version = version
        self.fingerprint = source_fingerprint()
        self._entries = None
        self._dirty = False

    def _load(self):
        if self._entries is not None:
            return
        self._entries = {}
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return
        if not isinstance(data, dict):
            return
        entries = data.get("entries")
        if ((data.get("version"), data.get("fingerprint")) == (self.version, self.fingerprint)
                and isinstance(entries, dict)
                and all(isinstance(v, dict) for v in entries.values())):
            self._entries = entries

    @staticmethod
    def _key(spec, operation):
        return f"{spec}||{operation}"

    def get(self, spec, operation):
        self._load()
        return self._entries.get(self._key(spec, operation))

    def put(self, spec, operation, value):
        self._load()
        self._entries[self._key(spec, operation)] = value
        self._dirty = True

    def save(self):
        if not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"version": self.version, "fingerprint": self.fingerprint,
                   "entries": self._entries}
        fd, tmp = tempfile.mkstemp(dir=str(self.path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # json.dumps runs the C encoder; json.dump always runs the Python one
                fh.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._dirty = False


class NullCache:
    """Cache stand-in used by --no-cache and by worker processes."""

    def get(self, spec, operation):
        return None

    def put(self, spec, operation, value):
        pass

    def save(self):
        pass
