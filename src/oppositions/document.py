"""The text of structured documents, written without ``json``.

``dumps`` writes exactly what ``json.dumps(value, indent=2)`` writes for
the values a document is built from.  Importing ``json`` compiles its
regular expressions, which costs a structured call more than building
its document does, so only ``--format structured`` loads this module.
``to_structured`` writes an object's document; ``reader`` reads a graph
back from one, so this module imports nothing of the package.
"""

# the escapes json writes by name; every other character outside
# U+0020..U+007E becomes \uXXXX, or a surrogate pair of them above U+FFFF
_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\b": "\\b", "\t": "\\t", "\n": "\\n", "\f": "\\f", "\r": "\\r",
}


def dumps(value: object) -> str:
    """``json.dumps(value, indent=2)``, which is ASCII only, for dicts with
    ``str`` keys, lists, tuples, ``str``, ``int``, ``bool`` and ``None``;
    any other value or key raises TypeError."""
    return _dumps(value, "\n")


def to_structured(obj: object) -> str:
    """Canonical JSON for graphs, segment assignments, and verification reports.

    Byte-stable: the text is byte for byte ``json.dumps(document, indent=2)``,
    written by ``dumps`` so that no command imports ``json``.
    """
    document = getattr(obj, "to_document", None)
    if document is None:
        raise TypeError(f"no structured form for {type(obj).__name__}")
    return dumps(document())


def _dumps(value: object, newline: str) -> str:
    """``value``'s text, with each nested line starting after ``newline``."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if isinstance(value, bool):  # before int, of which bool is a subclass
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)  # as json writes an int subclass, an IntEnum say
    inner = newline + "  "
    if isinstance(value, dict):
        start, end = "{}"
        items = [f"{_key(key)}: {_dumps(item, inner)}" for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        start, end = "[]"
        items = [_dumps(item, inner) for item in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return start + end
    return start + inner + ("," + inner).join(items) + newline + end


def _key(key: object) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _string(key)


def _string(text: str) -> str:
    """``text`` quoted as json's ``ensure_ascii`` writes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'  # U+0020..U+007E only, none of them escaped
    return '"' + "".join(map(_char, text)) + '"'


def _char(ch: str) -> str:
    if ch in _ESCAPES:
        return _ESCAPES[ch]
    code = ord(ch)
    if 0x20 <= code < 0x7F:
        return ch
    if code < 0x10000:
        return f"\\u{code:04x}"
    code -= 0x10000
    return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
