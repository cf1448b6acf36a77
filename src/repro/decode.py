"""Strict readers for the numeric fields of JSON spec documents.

JSON decodes numbers to ``int`` or ``float`` and ``true``/``false`` to
``bool``, an ``int`` subclass.  A spec decoder that coerced with
``int(...)`` would turn ``2.9`` into ``2``, ``"7"`` into ``7`` and
``true`` into ``1``, and then run (and hash) a spec the client never
wrote.  The ``from_dict`` decoders of the experiment, link, sweep, fuzz
and campaign specs read every number through :func:`read_int` or
:func:`read_float`, which take the value only when it already has the
right type and raise :class:`~repro.errors.ConfigurationError`
otherwise (``POST /v1/jobs`` answers that with a 400).  An absent key
takes the default of the spec dataclass field it fills.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import ConfigurationError

__all__ = ["field_default", "read_float", "read_int", "strict_int"]


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
