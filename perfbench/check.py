"""Output digests: the benchmark's correctness check.

A result is reduced to its deterministic simulated statistics and
hashed. Provenance and host-time fields are dropped first, so a cold
answer, a warm (cached) answer and an HTTP answer of one request all
hash alike:

- ``RunResult`` -> ``core.artifact.run_summary``
- ``ServingOutcome`` -> ``dataclasses.asdict(outcome.metrics())``
- ``OptimizeResult`` -> ``to_dict()``

The dict then goes through a JSON round trip (what the HTTP tier does
to it), so tuples become lists and floats keep their exact ``repr``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

#: Fields that describe how an answer was produced, not what it is.
PROVENANCE = frozenset({
    "cached_fraction", "probes_cached", "duration_s", "cached",
    "deduped", "retry_after_s",
})

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items()
                if k not in PROVENANCE}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def digest_wire(payload) -> str:
    """Digest of a JSON-decoded answer (the HTTP ``result`` field)."""
    text = json.dumps(_strip(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(result) -> object:
    """The JSON form of a result, as the HTTP tier would send it."""
    from repro.core.artifact import run_summary
    from repro.core.results import RunResult

    if isinstance(result, RunResult):
        payload = run_summary(result)
    elif hasattr(result, "metrics"):
        payload = dataclasses.asdict(result.metrics())
    else:
        payload = result.to_dict()
    return json.loads(json.dumps(payload))


def digest(result) -> str:
    """Digest of an in-process result."""
    return digest_wire(summarize(result))


def load_goldens() -> dict:
    """The committed goldens: ``{"cells": {...}, "entries": {...}}``."""
    with open(GOLDENS) as handle:
        return json.load(handle)
