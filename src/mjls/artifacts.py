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
about ``BLOCK_FLOATS`` floats per call, several stages or trials at once
(:func:`blocked_reprs`).

A :class:`Template` holds the literal text of a row layout as pieces
around numbered fields; a writer caches one per layout and renders each
stage or trial by splicing the value strings between the pieces in one
``"".join``, the string ``str.format`` would build without parsing a
format string on every call.

:func:`write_json` writes exactly the bytes of
``json.dump(obj, fh, indent=2, sort_keys=True)`` followed by a newline, but
joins each list of floats in one C-level call instead of going through the
pure-Python encoder that ``json`` falls back to whenever ``indent`` is set.
A float64 ``ndarray`` anywhere in ``obj`` is written as ``json.dump`` would
write its ``.tolist()``; arrays of other dtypes raise TypeError, as in
``json``.  Its floats go a block of rows at a time through
:func:`float_reprs` and a template cached per (rows, shape, indentation).
It writes one container element or block at a time, so the document is
never held whole in memory.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from operator import itemgetter
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

__all__ = ["Template", "blocked_reprs", "float_reprs", "write_json"]

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


class Template:
    """Literal text around fields, rendered by splicing values in.

    ``items`` is the template in order: each ``str`` is literal text and
    each ``int`` a field that :meth:`render` fills with ``values[int]``.
    ``Template(["a", 1, "b", 0]).render(values)`` equals
    ``"a{1}b{0}".format(*values)`` for a list of strings ``values``, but
    joins the literal pieces and the gathered values in one ``"".join``
    instead of parsing a format string on every call.  Equal pieces and
    equal field numbers are kept once.
    """

    def __init__(self, items):
        shared, parts, fields, pending = {}, [], [], []
        for item in items:
            if isinstance(item, str):
                pending.append(item)
                continue
            text = "".join(pending)
            parts += (shared.setdefault(text, text), None)
            fields.append(shared.setdefault(item, item))
            pending = []
        text = "".join(pending)
        parts.append(shared.setdefault(text, text))
        self._parts = parts
        if all(field == j for j, field in enumerate(fields)):
            self._gather = None
        elif len(fields) == 1:
            self._gather = lambda values, field=fields[0]: (values[field],)
        else:
            self._gather = itemgetter(*fields)

    def render(self, values) -> str:
        """The template with its fields filled from the list ``values``
        (exactly one value per field when the fields run 0, 1, 2, ...)."""
        parts = self._parts.copy()
        parts[1::2] = values if self._gather is None else \
            self._gather(values)
        return "".join(parts)


def _float(value: float) -> str:
    """A float as ``json`` writes it: ``repr``, or NaN/Infinity/-Infinity."""
    text = float.__repr__(value)
    return _non_finite(text) if "n" in text else text


def _non_finite(text: str) -> str:
    # No finite repr contains an "n"; "-inf" becomes "-Infinity".
    return text.replace("nan", "NaN").replace("inf", "Infinity")


@lru_cache(maxsize=64)
def _rows_template(count: int, shape: tuple, indent: str,
                   first: bool) -> Template:
    """Template of ``count`` consecutive entries of a JSON list at the line
    ``indent``, each the ``json.dump`` text of the ``.tolist()`` of a float
    array of ``shape``: one field per float, in C order.  The first entry
    follows ``"["`` when ``first`` is set and ``","`` otherwise, as every
    later entry does."""
    fields = iter(range(count * math.prod(shape)))

    def rows(count, shape, indent, first):
        inner = indent + _INDENT
        for j in range(count):
            yield ("[" if first and not j else ",") + inner
            if not shape:
                yield next(fields)
            elif not shape[0]:
                yield "[]"
            else:
                yield from rows(shape[0], shape[1:], inner, True)
                yield inner + "]"

    return Template(rows(count, shape, indent, first))


def _float_list(array, indent: str):
    """The encoding, in pieces, of a nonempty float ``array`` of one or
    more dimensions at the line ``indent``.  A block of rows of about
    ``BLOCK_FLOATS`` floats goes through one :func:`float_reprs` call and
    one template."""
    shape = array.shape[1:]
    step = max(1, BLOCK_FLOATS // max(1, math.prod(shape)))
    for lo in range(0, len(array), step):
        block = array[lo:lo + step]
        text = _rows_template(len(block), shape, indent, not lo).render(
            float_reprs(block))
        # Templates hold no letters: an "n" comes from NaN or infinity.
        yield _non_finite(text) if "n" in text else text
    yield indent + "]"


def _chunks(value, indent: str):
    """The indented encoding of ``value`` in pieces; ``indent`` is the
    newline and indentation of the line that holds it."""
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif isinstance(value, float):
        yield _float(value)
    elif isinstance(value, np.ndarray) and value.dtype == np.float64:
        if not value.ndim:
            yield _float(float(value))
        elif not len(value):
            yield "[]"
        else:
            yield from _float_list(value, indent)
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = indent + _INDENT
        sep = "["
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
