"""Result tables, run records and the cell cache behind the CLI.

Output files must be byte-identical across reruns and across thread counts,
so every float is written with its shortest round-trip repr, rows are always
emitted in cell-index order, and files are written atomically (temp file plus
rename).  ``write_run`` writes a run's outputs, then a manifest naming them
with the exact parameter map and its hash, which covers the parameters only.
``source_digest`` hashes the package's own source: the manifest records it
and the cell cache keys on it, so changed code never reads stale rows.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from . import __version__

__all__ = [
    "ResultTable",
    "write_run",
    "source_digest",
    "canonical_params",
    "manifest_hash",
    "atomic_write_text",
    "write_csv",
    "write_json",
    "CellCache",
]


_CELL_TYPES = frozenset((int, float, str))
_NUMBER_TYPES = frozenset((int, float))


@dataclass(frozen=True)
class ResultTable:
    """Named columns over rows of equal arity, plus footer rows of any arity
    (for fitted summaries), whose every cell is exactly an int, a float or a
    str (a bool is not), so a table that exists can be written."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    footer: tuple[tuple, ...] = ()

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row arity does not match the column count")
        for row in (*self.rows, *self.footer):
            for cell in row:
                if type(cell) not in _CELL_TYPES:
                    raise ValueError(
                        f"unsupported cell type {type(cell).__name__}")

    def __len__(self) -> int:
        return len(self.rows)


def atomic_write_text(path: Path, text: str) -> None:
    """Write file contents via a temp file and rename, never a partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_csv(path: Path, table: ResultTable) -> None:
    """Emit an RFC-4180-style CSV with full round-trip float precision.

    A row of ints and floats is written as the comma join of their reprs,
    which is what csv.writer writes for it, since csv never quotes a
    number; any other row goes through csv.writer.  The footer rows follow
    the data rows.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    for row in (table.columns, *table.rows, *table.footer):
        if _NUMBER_TYPES.issuperset(map(type, row)):
            buffer.write(",".join(map(repr, row)) + "\n")
        else:
            writer.writerow(row)
    atomic_write_text(Path(path), buffer.getvalue())


def write_json(path: Path, payload: dict[str, Any]) -> None:
    """Write a JSON object with sorted keys, two-space indent and a final
    newline, so equal payloads give equal bytes."""
    atomic_write_text(Path(path),
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")


def canonical_params(params: dict[str, Any]) -> str:
    """Canonical JSON of a parameter map: sorted keys, no whitespace."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def manifest_hash(params: dict[str, Any]) -> str:
    """Deterministic content hash of the canonicalised parameter map."""
    return hashlib.sha256(canonical_params(params).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 over this package's ``*.py`` files in name order, hashing each
    file's name, a NUL byte, then its bytes; computed once per process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def write_run(directory: Path, command: str, params: dict[str, Any],
              outputs: Mapping[str, ResultTable | dict[str, Any]]) -> None:
    """Write ``outputs`` (file name -> a table as CSV or a dict as JSON)
    into ``directory``, then ``manifest.json``, whose ``outputs`` are the
    names in order.  Its hash covers ``params`` only, whatever the timestamp
    and code; ``version`` and ``source_sha256`` name the code."""
    directory = Path(directory)
    for name, content in outputs.items():
        if isinstance(content, ResultTable):
            write_csv(directory / name, content)
        else:
            write_json(directory / name, content)
    write_json(directory / "manifest.json", {
        "command": command,
        "params": params,
        "hash": manifest_hash(params),
        "version": __version__,
        "source_sha256": source_digest(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": list(outputs),
    })


class CellCache:
    """Disk cache of computed sweep rows, keyed by the hash of the resolved
    parameters and ``source_digest``, so a change to either misses.

    An entry is reused only when its stored key matches byte for byte; one
    that cannot be read or parsed is a miss.  ``put`` removes every other
    entry, so the directory holds the last sweep only.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)

    def _key(self, params: dict[str, Any]) -> str:
        return manifest_hash({"params": params,
                              "source_sha256": source_digest()})

    def get(self, params: dict[str, Any]):
        key = self._key(params)
        try:
            with open(self.directory / f"{key}.json", "r") as handle:
                stored = json.load(handle)
        except (OSError, ValueError):  # missing, unreadable or truncated
            return None
        if not isinstance(stored, dict) or stored.get("key") != key:
            return None
        return stored.get("rows")

    def put(self, params: dict[str, Any], rows) -> None:
        key = self._key(params)
        payload = json.dumps({"key": key, "rows": rows}, sort_keys=True)
        path = self.directory / f"{key}.json"
        atomic_write_text(path, payload)
        for entry in self.directory.glob("*.json"):
            if entry != path:
                entry.unlink(missing_ok=True)
