"""Canonical JSON and the SHA-256 text digest, defined once.

Wire tags, tenant-journal entries, session and oracle digests, and
result-store blobs and task digests all hash these two renderings.
"""

from __future__ import annotations

import hashlib
import json


def canonical_json(obj: object) -> str:
    """Canonical JSON: sorted keys, no whitespace -- digest and tag input."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_text(text: str) -> str:
    """SHA-256 hex of UTF-8 text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
