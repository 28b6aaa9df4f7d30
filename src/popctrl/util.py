"""Deterministic serialization helpers: canonical JSON, hashing, file output."""

import hashlib
import json


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True)


def sha256_hex(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_json(path, obj):
    with open(path, "w") as handle:
        handle.write(canonical_json(obj))
        handle.write("\n")
