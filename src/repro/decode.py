"""The spec codec: canonical JSON, the identities built on it, strict decoding.

Every content-addressed key (runs, sweep cells, fuzz shards, campaign
units, mc checks, specless results) is the SHA-256 of one canonical
JSON text, compact and key-sorted.  This module owns it and its uses:

* :func:`canonical_json` and :func:`canonical_hash` (with an optional
  domain prefix), and :func:`seed_from_key`, the 63-bit seed of a key.
* :class:`SpecCodec`, which gives every spec class ``to_json``,
  ``from_json``, ``load``, ``content_hash``, ``derive_seed`` and
  ``with_options`` from its own ``to_dict``/``from_dict``.
* :func:`read_document`, the decoder preamble: a dict, no unknown keys,
  every required key, dict sections.
* The strict readers.  JSON decodes ``true``/``false`` to ``bool``, an
  ``int`` subclass.  A decoder that coerced with ``int(...)`` or
  ``bool(...)`` would turn ``2.9`` into ``2``, ``"7"`` into ``7`` and
  ``"false"`` into ``True``, and then run (and hash) a spec the client
  never wrote.  :func:`read_int`, :func:`read_float` and
  :func:`read_bool` take a value only when it already has the right
  type and raise :class:`~repro.errors.ConfigurationError` otherwise
  (``POST /v1/jobs`` answers that with a 400).  An absent key takes the
  default of the spec dataclass field it fills.
* :func:`parse_key_values`, the ``key=value,...`` form of the CLI's
  ``--links`` and ``--chaos``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import (
    Callable, ClassVar, Collection, Dict, Iterable, List, Mapping, Optional, Union,
)

from repro.errors import ConfigurationError

__all__ = [
    "SpecCodec",
    "canonical_hash",
    "canonical_json",
    "field_default",
    "parse_key_values",
    "read_bool",
    "read_document",
    "read_float",
    "read_int",
    "read_list",
    "seed_from_key",
    "strict_int",
]


#: ``json.dumps`` with non-default options builds an encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: object) -> str:
    """The canonical JSON text of ``value``: compact, keys sorted."""
    return _CANONICAL.encode(value)


def canonical_hash(value: object, prefix: bytes = b"") -> str:
    """SHA-256 hex digest of ``prefix`` + the canonical JSON of ``value``."""
    return hashlib.sha256(prefix + canonical_json(value).encode("utf-8")).hexdigest()


def seed_from_key(key: str) -> int:
    """A stable 63-bit seed: the first 8 bytes of SHA-256(``key``)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


class SpecCodec:
    """JSON documents, identity and copies of a frozen spec dataclass,
    which declares ``to_dict``, ``from_dict`` and ``label``, the name its
    errors use (e.g. ``"fuzz spec"``)."""

    label: ClassVar[str]

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The spec as a JSON document (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        """Parse a JSON document produced by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            message = f"{cls.label} is not valid JSON: {error}"
            raise ConfigurationError(message) from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str):
        """Read a spec from a JSON file (the ``--spec file.json`` path)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            message = f"cannot read {cls.label} {path!r}: {error}"
            raise ConfigurationError(message) from None
        return cls.from_json(text)

    def content_hash(self) -> str:
        """SHA-256 hex digest of the canonical JSON form, equal in every
        process and on every platform.  Memoised per (frozen) instance:
        the fuzzer derives a seed per run from it."""
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            cached = canonical_hash(self.to_dict())
            object.__setattr__(self, "_content_hash", cached)
        return cached

    def derive_seed(self, salt: Union[int, str] = 0) -> int:
        """A stable 63-bit seed derived from the content hash and ``salt``."""
        return seed_from_key(f"{self.content_hash()}|{salt}")

    def with_options(self, **changes):
        """A copy with the given fields replaced (frozen-friendly)."""
        return replace(self, **changes)


def _require_dict(value: object, label: str) -> Dict[str, object]:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{label} must be a dict, got {type(value).__name__}")
    return value


def read_document(
    data: object,
    label: str,
    keys: Iterable[str],
    required: Iterable[str] = (),
    sections: Iterable[str] = (),
) -> List[Dict[str, object]]:
    """Check that ``data`` is a dict with only ``keys``, including every
    ``required`` one; return its ``sections``, each a dict (absent:
    ``{}``).  ``label`` names the document in errors."""
    _require_dict(data, label)
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigurationError(f"{label} has unknown keys {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise ConfigurationError(f"{label} is missing required key {key!r}")
    return [
        _require_dict(data.get(name, {}), f"{label} section {name!r}")
        for name in sections
    ]


def field_default(spec_class: type, name: str) -> object:
    """The declared default of dataclass field ``name``."""
    return spec_class.__dataclass_fields__[name].default


def strict_int(value: object, label: str) -> int:
    """``value`` when it is an ``int`` and not a ``bool``; else raise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{label} must be an integer, got {value!r}")
    return value


def read_int(
    data: Mapping[str, object],
    key: str,
    spec_class: type,
    name: Optional[str] = None,
    *,
    label: str,
) -> Optional[int]:
    """``data[key]`` as a strict integer.

    An absent key takes the default of ``spec_class``'s field ``name``
    (``key`` when not given); a field whose default is ``None`` also
    accepts ``null``.  ``label`` names the section in the error.
    """
    default = field_default(spec_class, name or key)
    value = data.get(key, default)
    if value is None and default is None:
        return None
    return strict_int(value, f"{label} {key!r}")


def read_float(
    data: Mapping[str, object],
    key: str,
    spec_class: type,
    name: Optional[str] = None,
    *,
    label: str,
) -> float:
    """``data[key]`` as a float: an ``int`` or ``float``, never a ``bool``
    or a string; defaults as in :func:`read_int`."""
    value = data.get(key, field_default(spec_class, name or key))
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(
            f"{label} {key!r} must be a number, got {value!r}"
        )
    return float(value)


def read_bool(
    data: Mapping[str, object], key: str, spec_class: type, *, label: str
) -> bool:
    """``data[key]`` as a JSON boolean, never a string or a number;
    defaults as in :func:`read_int`."""
    value = data.get(key, field_default(spec_class, key))
    if not isinstance(value, bool):
        raise ConfigurationError(f"{label} {key!r} must be a boolean, got {value!r}")
    return value


def read_list(
    data: Mapping[str, object], key: str, spec_class: type, *, label: str
) -> tuple:
    """``data[key]`` as a tuple of a JSON list, never a string (which
    ``tuple()`` would split into characters); defaults as in
    :func:`read_int`."""
    value = data.get(key, field_default(spec_class, key))
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{label} {key!r} must be a list, got {value!r}")
    return tuple(value)


def parse_key_values(
    text: str,
    name: str,
    readers: Mapping[str, Callable[[str], object]],
    repeated: Collection[str] = (),
) -> Dict[str, object]:
    """Parse a comma-separated ``key=value`` string (``delay=2,seed=7``).

    ``readers`` maps each key to the function reading its value text (a
    ``ValueError`` is a bad value); a key in ``repeated`` may recur and
    collects a tuple.  ``name`` names the CLI option in errors.
    """
    values: Dict[str, object] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigurationError(f"bad {name} entry {chunk!r}; expected key=value")
        key, _, raw = chunk.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in readers:
            raise ConfigurationError(
                f"unknown {name} key {key!r}; expected one of {', '.join(readers)}"
            )
        try:
            value = readers[key](raw)
        except ValueError:
            raise ConfigurationError(f"bad {name} value {raw!r} for {key!r}") from None
        values[key] = values.get(key, ()) + (value,) if key in repeated else value
    return values
