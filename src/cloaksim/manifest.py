"""Run manifests and deterministic CSV emission.

Every CLI run writes its full configuration next to its outputs so a rerun
from the manifest reproduces the numbers byte for byte: floats render with
17 significant digits, JSON keys are sorted, and nothing time- or
path-dependent enters the documents.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields

from . import __version__
from .errors import ConfigError


def fmt(x: float) -> str:
    """Round-trip decimal rendering of a double."""
    return f"{float(x):.17g}"


def write_csv(path, header, rows) -> None:
    """CSV with deterministic 17-significant-digit cells.

    Cells may be float, complex (expanded by the caller), int, or str.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [c if isinstance(c, str) else fmt(c) for c in row]
            fh.write(",".join(cells) + "\n")


def write_json(path, doc) -> None:
    """JSON with sorted keys, indent 2 and a final newline; NaN and
    infinities are not JSON and raise ValueError."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one run's outputs exactly."""

    scenario: str
    command: str
    params: dict
    source: list = field(default_factory=list)
    boundary: list = field(default_factory=list)
    phi: dict = field(default_factory=dict)
    quadrature: dict = field(default_factory=dict)
    n_max: int = 0
    seed: int = 0
    tool_version: str = __version__

    @staticmethod
    def from_json(text: str) -> "RunManifest":
        """The manifest of a JSON document.

        Raises:
            ConfigError: for text that is not a JSON object, or an object
                with unknown fields or without a required one, naming them.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"manifest is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("a manifest must be a JSON object")
        known = fields(RunManifest)
        unknown = set(data) - {f.name for f in known}
        if unknown:
            raise ConfigError(f"unknown manifest fields: {sorted(unknown)}")
        missing = [f.name for f in known if f.name not in data
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"manifest missing fields: {missing}")
        return RunManifest(**data)

    def write(self, path) -> None:
        write_json(path, asdict(self))

    @staticmethod
    def read(path) -> "RunManifest":
        with open(path, encoding="utf-8") as fh:
            return RunManifest.from_json(fh.read())
