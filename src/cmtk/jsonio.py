"""Canonical JSON emission and the versioned output envelope.

Every CLI result is wrapped as {"schema": "cmtk-1", "command": ...,
"result": ...} and serialized canonically: sorted keys, compact
separators, ASCII-only, one trailing newline.  Identical inputs
therefore produce byte-identical output.  Exact integers and rationals
travel as strings; nothing is ever emitted as a float.
"""

from __future__ import annotations

import json
from importlib import resources

from . import SCHEMA_VERSION

_SCHEMA_RESOURCE = "schema_cmtk1.json"


def canonical_dumps(obj):
    """Deterministic JSON text: sorted keys, compact, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


def envelope(command, result):
    return {"schema": SCHEMA_VERSION, "command": command, "result": result}


def load_schema():
    """The JSON schema shipped with the package, as a parsed object."""
    text = resources.files(__package__).joinpath(_SCHEMA_RESOURCE).read_text()
    return json.loads(text)


def _cell(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def render_table(result):
    """Plain-text rendering of a handler's result dict, one key per line."""
    return "\n".join(f"{key}: {_cell(result[key])}" for key in sorted(result))
