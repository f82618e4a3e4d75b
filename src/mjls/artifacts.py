"""Float formatting and streaming writers for the artifacts.

:func:`float_reprs` returns ``float.__repr__`` of every entry of a float64
array (``'nan'``, ``'inf'`` and ``'-inf'`` for the non-finite ones),
exactly, in a third to a seventh of the time of calling ``repr`` per value.
It takes the shortest round-trip digits from ``orjson`` (Ryu), which are
the digits ``repr`` prints, and mends the entries where the two spell them
differently, which a mask on the values finds: exponents (``orjson``
writes ``e16`` for ``e+16`` and ``e-7`` for ``e-07``) are respelled, and
values in [1e-5, 1e-4), which ``orjson`` writes positionally (``0.00001``
for ``1e-05``), and non-finite values, which it writes as ``null``, are
formatted by ``repr``.  orjson does not document how it spells a float,
so importing this module checks :func:`float_reprs` against ``repr`` on
one value of every decade, the decade bounds and the non-finite values,
and raises ImportError where an installed orjson spells them otherwise.
A call costs some microseconds whatever its size, so writers format
several stages or trials per call through :func:`blocked_reprs`.

:func:`write_json` writes exactly the bytes of
``json.dump(obj, fh, indent=2, sort_keys=True)`` followed by a newline, but
joins each list of floats in one C-level call instead of going through the
pure-Python encoder that ``json`` falls back to whenever ``indent`` is set.
A float64 ``ndarray`` anywhere in ``obj`` is written as ``json.dump`` would
write its ``.tolist()``, through :func:`float_reprs` and a ``str.format``
template cached per (shape, indentation); arrays of other dtypes raise
TypeError, as in ``json``.  It writes one container element at a time, so
the document is never held whole in memory.
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

__all__ = ["blocked_reprs", "float_reprs", "write_json"]

_INDENT = "  "
# Floats formatted per float_reprs call by blocked_reprs.
BLOCK_FLOATS = 2048


def float_reprs(values) -> list:
    """``float.__repr__`` of each entry of ``values`` (any shape, read as
    float64), in C order."""
    flat = np.ravel(np.asarray(values, dtype=np.float64))
    if not flat.size:
        return []
    text = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    reprs = text.decode("ascii").split(",")
    # Where ``same`` holds, orjson spells the entry as repr does; each
    # other entry is checked, which is all the margins around the decade
    # bounds cost.
    size = np.abs(flat)
    same = (size < 9.9e-10) | ((size >= 1.01e-4) & (size < 9.9e15))
    for i in np.flatnonzero(~same).tolist():
        text = reprs[i]
        if text[-2] == "-":
            # a one-digit negative exponent, e-6 to e-9
            reprs[i] = text[:-1] + "0" + text[-1]
        elif "e" not in text:
            # null, or positional where repr writes an exponent
            reprs[i] = float.__repr__(float(flat[i]))
        elif "e-" not in text:
            reprs[i] = text.replace("e", "e+")
    return reprs


def blocked_reprs(items):
    """For each ``(key, array)`` of ``items``, yield ``(key,
    float_reprs(array))``, formatting about ``BLOCK_FLOATS`` floats per
    call."""
    pending, size = [], 0
    for key, array in items:
        array = np.ravel(np.asarray(array, dtype=np.float64))
        pending.append((key, array))
        size += array.size
        if size >= BLOCK_FLOATS:
            yield from _split_reprs(pending)
            pending, size = [], 0
    yield from _split_reprs(pending)


def _split_reprs(pending):
    if not pending:
        return
    reprs = float_reprs(np.concatenate([array for _, array in pending]))
    start = 0
    for key, array in pending:
        yield key, reprs[start:start + array.size]
        start += array.size


def _check_orjson():
    """Raise ImportError unless :func:`float_reprs` gives ``repr`` of one
    value of every decade, of the decade bounds where it mends orjson's
    spelling and of the non-finite values."""
    decades = 10.0 ** np.arange(-323, 309)
    bounds = np.array([1e-10, 1e-9, 1e-5, 1e-4, 1e15, 1e16])
    probe = np.concatenate([decades, -4.25 * decades[:-1], bounds,
                            np.nextafter(bounds, 0.0), [np.nan, -np.inf,
                                                        -0.0]])
    want = list(map(float.__repr__, probe.tolist()))
    for got, text in zip(float_reprs(probe), want):
        if got != text:
            raise ImportError(
                f"orjson {orjson.__version__} spells floats in a way "
                f"float_reprs does not mend: {got!r} for {text!r}")


_check_orjson()


def _float(value: float) -> str:
    """A float as ``json`` writes it: ``repr``, or NaN/Infinity/-Infinity."""
    text = float.__repr__(value)
    return _non_finite(text) if "n" in text else text


def _non_finite(text: str) -> str:
    # No finite repr contains an "n"; "-inf" becomes "-Infinity".
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _is_float_array(value) -> bool:
    return isinstance(value, np.ndarray) and value.dtype == np.float64


@lru_cache(maxsize=64)
def _array_template(shape: tuple, indent: str) -> str:
    """``str.format`` template of ``json.dump`` of a float array's
    ``.tolist()`` at the line ``indent``, one ``{}`` per entry."""
    if not shape:
        return "{}"
    if not shape[0]:
        return "[]"
    inner = indent + _INDENT
    item = _array_template(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + indent + "]"


def _array_text(shape: tuple, reprs: list, indent: str) -> str:
    text = _array_template(shape, indent).format(*reprs)
    # Templates hold no letters, so an "n" comes from a non-finite float.
    return _non_finite(text) if "n" in text else text


def _chunks(value, indent: str):
    """The indented encoding of ``value`` in pieces; ``indent`` is the
    newline and indentation of the line that holds it."""
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif isinstance(value, float):
        yield _float(value)
    elif _is_float_array(value):
        yield _array_text(value.shape, float_reprs(value), indent)
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = indent + _INDENT
        sep = "["
        if all(map(_is_float_array, value)):
            for shape, reprs in blocked_reprs((a.shape, a) for a in value):
                yield sep + inner + _array_text(shape, reprs, inner)
                sep = ","
            yield indent + "]"
            return
        try:
            text = ("," + inner).join(map(float.__repr__, value))
        except TypeError:
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
    sort_keys=True)`` followed by ``"\\n"``, where every float64
    ``ndarray`` stands for its ``.tolist()``: floats are written with
    ``repr`` (NaN and infinities as ``json`` spells them), strings are
    ASCII-escaped, and tuples are lists.  Dictionary keys must be strings;
    any other key, like any value ``json`` cannot encode, raises TypeError.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_chunks(obj, "\n"))
        fh.write("\n")
