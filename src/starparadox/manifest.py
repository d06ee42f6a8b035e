"""Run manifests and deterministic CSV/JSON emission.

Every CLI command records a manifest: the command name, its full parameter
set, the prior spec (when one is involved), the seed, the tool version,
start/end timestamps and a SHA-256 digest per output file.  Replaying a
manifest reruns the command with the stored parameters; because all
randomness flows through counter-derived substreams, the regenerated CSV
files are byte-identical (timestamps live only in the manifest itself).

CSV files are UTF-8 with a header row, '.' decimal separator, LF line
endings and floats rendered with repr-faithful '%.17g'; rows are flushed
as they are written.  The commands compute every row before the file is
opened, so a run stopped while it computes has written no rows.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

__all__ = ["RunManifest", "write_csv_rows", "format_value", "sha256_file"]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv_rows(path, header, rows) -> None:
    """Write rows (iterables) under a header; flush after every row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])
            fh.flush()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass
class RunManifest:
    command: str
    params: dict
    seed: int
    version: str
    prior: dict | None = None
    started: str = field(default_factory=_now)
    finished: str | None = None
    outputs: dict = field(default_factory=dict)

    def add_output(self, path) -> None:
        path = Path(path)
        self.outputs[path.name] = sha256_file(path)

    def finish(self) -> None:
        self.finished = _now()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def read(cls, path) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(f"manifest {path} is not a JSON object")
        missing = [k for k in ("command", "params", "seed", "version") if k not in obj]
        if missing:
            raise ValueError(f"manifest {path} lacks {', '.join(missing)}")
        for key in ("params", "outputs"):
            if not isinstance(obj.get(key, {}), dict):
                raise ValueError(f"manifest {path}: {key} must be an object")
        return cls(**{f.name: obj[f.name] for f in fields(cls) if f.name in obj})
