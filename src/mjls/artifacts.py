"""Streaming writers for the JSON artifacts.

:func:`write_json` writes exactly the bytes of
``json.dump(obj, fh, indent=2, sort_keys=True)`` followed by a newline, but
joins each list of floats in one C-level call instead of going through the
pure-Python encoder that ``json`` falls back to whenever ``indent`` is set.
It writes one container element at a time, so the document is never held
whole in memory.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

__all__ = ["write_json"]

_INDENT = "  "


def _float(value: float) -> str:
    """A float as ``json`` writes it: ``repr``, or NaN/Infinity/-Infinity."""
    text = float.__repr__(value)
    return _non_finite(text) if "n" in text else text


def _non_finite(text: str) -> str:
    # No finite repr contains an "n"; "-inf" becomes "-Infinity".
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _chunks(value, indent: str):
    """The indented encoding of ``value`` in pieces; ``indent`` is the
    newline and indentation of the line that holds it."""
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif isinstance(value, float):
        yield _float(value)
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = indent + _INDENT
        try:
            text = ("," + inner).join(map(float.__repr__, value))
        except TypeError:
            sep = "["
            for item in value:
                yield sep + inner
                yield from _chunks(item, inner)
                sep = ","
            yield indent + "]"
        else:
            if "n" in text:
                text = _non_finite(text)
            yield "[" + inner + text + indent + "]"
    elif isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = indent + _INDENT
        sep = "{"
        for key, item in sorted(value.items()):
            yield sep + inner + encode_basestring_ascii(key) + ": "
            yield from _chunks(item, inner)
            sep = ","
        yield indent + "}"
    else:
        # ints, bools and None; json's C encoder also raises its TypeError
        # for types it cannot encode.
        yield json.dumps(value)


def write_json(obj, path):
    """Write ``obj`` as indented JSON with sorted keys.

    The file holds the same bytes as ``json.dump(obj, fh, indent=2,
    sort_keys=True)`` followed by ``"\\n"``: floats are written with
    ``repr`` (NaN and infinities as ``json`` spells them), strings are
    ASCII-escaped, and tuples are lists.  Dictionary keys must be strings;
    any other key, like any value ``json`` cannot encode, raises TypeError.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_chunks(obj, "\n"))
        fh.write("\n")
