"""Reading the package's JSON documents.

Every JSON loader reads its file through load_json, so a missing required
field is reported one way everywhere: a ValueError that names the document
and the field, such as "scenario is missing field 'workspace'".
"""

from __future__ import annotations

import json
from pathlib import Path


def load_json(path: str | Path, document: str):
    """Parse a JSON file whose objects raise ValueError when an absent field is looked up."""

    class Fields(dict):
        def __missing__(self, key):
            raise ValueError(f"{document} is missing field {key!r}")

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_hook=Fields)
