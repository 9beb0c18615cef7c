"""The cache-key ``freeze`` as it stood before its scalar fast path.

Kept verbatim as the oracle of ``tests/test_request_identity.py``:
:func:`repro.core.sweep.freeze` must give exactly this value for every
input, because cache keys and request digests are built from it.
"""

from __future__ import annotations

import dataclasses
import enum

_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(tp: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(tp)
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(tp))
        _FIELD_NAMES[tp] = names
    return names


def freeze(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (name, freeze(getattr(value, name)))
                for name in _field_names(type(value))
            ),
        )
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.name)
    if isinstance(value, dict):
        return (
            "dict",
            tuple(
                (freeze(k), freeze(v)) for k, v in sorted(value.items())
            ),
        )
    if isinstance(value, (list, tuple)):
        return tuple(freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(freeze(item) for item in value)))
    if isinstance(value, (str, int, float, bool, bytes)) or value is None:
        return value
    return ("repr", repr(value))
