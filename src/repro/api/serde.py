"""Shared serialisation layer of the experiment API.

Before this module existed the repo grew one private copy of every
serialisation concern per subsystem: the campaign evaluators carried
``technology_to_dict``/``geometry_to_dict``/``workload_to_dict``, the
CLI parsed ``name:weight`` mixes and policy tokens with its own
helpers, and the canonical-JSON machinery lived inside
:mod:`repro.campaign.spec`.  They are consolidated here — evaluators,
the CLI and the :mod:`repro.api.schema` dataclasses all import from
this module, and the historical homes re-export for compatibility.

Three layers:

* **canonicalisation** — :func:`canonicalise`/:func:`canonical_json`/
  :func:`content_hash`: the hashing substrate every campaign point,
  cache entry and experiment identity is keyed by.  Moving the
  implementation here changes no byte of its output, so existing
  result-store and calibration-cache keys stay valid.
* **model serde** — frozen model objects
  (:class:`~repro.energy.technology.Technology`,
  :class:`~repro.mem.layout.MemoryGeometry`,
  :class:`~repro.energy.accounting.Workload`) to and from JSON-safe
  dicts, plus mix (``name:weight``) and policy-token parsing.
* **file IO** — :func:`load_payload`/:func:`dump_payload` read and
  write experiment payloads as TOML or JSON, dispatching on the file
  suffix.  TOML is emitted by :func:`dumps_toml` (the standard library
  parses TOML but does not write it) and is round-trip exact: a dumped
  payload reparses to the same canonical form bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections.abc import Mapping
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from ..energy.accounting import Workload
from ..energy.technology import TECH_32NM_LP, Technology
from ..errors import CampaignError, ExperimentSpecError
from ..mem.layout import PAPER_GEOMETRY, MemoryGeometry

__all__ = [
    "canonicalise",
    "canonical_json",
    "content_hash",
    "technology_to_dict",
    "technology_from_dict",
    "geometry_to_dict",
    "geometry_from_dict",
    "workload_to_dict",
    "workload_from_dict",
    "parse_mix",
    "format_mix",
    "policy_payload",
    "policy_label",
    "load_payload",
    "dump_payload",
    "dumps_toml",
]


# --------------------------------------------------------------------------
# Canonicalisation (the historical repro.campaign.spec machinery)
# --------------------------------------------------------------------------


#: Types :func:`canonicalise` returns unchanged (exact types only).
_SCALARS = frozenset({str, int, float, bool, type(None)})


def canonicalise(value: Any) -> Any:
    """Normalise a parameter value for hashing (tuples become lists).

    Numpy scalars and arrays are unwrapped to their Python equivalents:
    axes built with ``np.linspace``/``np.arange`` must hash (and store)
    identically to hand-written value tuples.
    """
    if type(value) in _SCALARS:  # exact: numpy scalars subclass float
        return value
    if isinstance(value, np.generic):
        return canonicalise(value.item())
    if isinstance(value, np.ndarray):
        # tolist() of a 0-d array is a bare scalar, so recurse rather
        # than iterate.
        return canonicalise(value.tolist())
    if isinstance(value, tuple):
        return [canonicalise(v) for v in value]
    if isinstance(value, list):
        return [canonicalise(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): canonicalise(v) for k, v in value.items()}
    if isinstance(value, (str, bool, type(None))):
        return value
    if isinstance(value, (int, float)):
        return value
    raise CampaignError(
        f"campaign parameter of type {type(value).__name__} is not "
        f"JSON-serialisable: {value!r}"
    )


def canonical_json(payload: Any) -> str:
    """Render ``payload`` as canonical JSON (sorted keys, no whitespace).

    The canonical form is the hashing substrate: two payloads that differ
    only in key order or tuple-vs-list container produce identical text.
    """
    return json.dumps(
        canonicalise(payload), sort_keys=True, separators=(",", ":")
    )


def content_hash(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


# --------------------------------------------------------------------------
# Model objects <-> JSON-safe dicts
# --------------------------------------------------------------------------


def technology_to_dict(tech: Technology) -> dict[str, Any]:
    """Serialise a :class:`Technology` for a campaign's fixed parameters."""
    payload = asdict(tech)
    payload["ber_table"] = [list(row) for row in tech.ber_table]
    return payload


def technology_from_dict(payload: dict[str, Any] | None) -> Technology:
    """Rebuild a :class:`Technology` (default node when ``None``)."""
    if payload is None:
        return TECH_32NM_LP
    data = dict(payload)
    data["ber_table"] = tuple(tuple(row) for row in data["ber_table"])
    return Technology(**data)


def geometry_to_dict(geometry: MemoryGeometry) -> dict[str, Any]:
    """Serialise a :class:`MemoryGeometry` axis/parameter value."""
    return asdict(geometry)


def geometry_from_dict(payload: dict[str, Any] | None) -> MemoryGeometry:
    """Rebuild a :class:`MemoryGeometry` (paper geometry when ``None``)."""
    if payload is None:
        return PAPER_GEOMETRY
    return MemoryGeometry(**payload)


def workload_to_dict(workload: Workload) -> dict[str, Any]:
    """Serialise a :class:`Workload` for the ``energy`` evaluator."""
    return asdict(workload)


def workload_from_dict(payload: dict[str, Any]) -> Workload:
    """Rebuild a :class:`Workload` from its dict form."""
    return Workload(**payload)


# --------------------------------------------------------------------------
# Mixes and policy tokens (the historical CLI helpers)
# --------------------------------------------------------------------------


def parse_mix(raw: str, value_type=str) -> tuple:
    """Parse a ``name:weight,name:weight`` mix argument.

    Returns ``((value, weight), ...)`` pairs with ``value`` coerced by
    ``value_type`` and the weight parsed as a float — the shape the
    :class:`~repro.cohort.population.PatientModel` mixes take.
    """
    pairs = []
    for token in (item.strip() for item in raw.split(",") if item.strip()):
        name, sep, weight = token.partition(":")
        if not sep:
            raise ExperimentSpecError(
                f"mix entries are 'name:weight', got {token!r}"
            )
        try:
            pairs.append((value_type(name.strip()), float(weight)))
        except ValueError as exc:
            raise ExperimentSpecError(
                f"bad mix entry {token!r}: {exc}"
            ) from exc
    return tuple(pairs)


def format_mix(mix: tuple) -> str:
    """Render a ``((value, weight), ...)`` mix back to CLI token form."""
    return ",".join(f"{value}:{weight:g}" for value, weight in mix)


def policy_payload(token: str) -> str | dict:
    """The JSON-safe campaign form of a CLI policy token.

    ``"hysteresis"`` stays a bare registry name; ``"static:dream@0.65"``
    becomes the ``{"name", "params"}`` dict the ``mission``/``cohort``
    evaluators and :func:`repro.runtime.policy_from_dict` accept.
    """
    name, _, arg = token.partition(":")
    if not arg:
        return name.strip()
    emt_name, sep, voltage = arg.partition("@")
    if not sep:
        raise ExperimentSpecError(
            f"policy operating point must be 'emt@voltage', got {token!r}"
        )
    try:
        parsed = float(voltage)
    except ValueError as exc:
        raise ExperimentSpecError(
            f"bad voltage in policy token {token!r}: {exc}"
        ) from exc
    return {
        "name": name.strip(),
        "params": {"emt": emt_name.strip(), "voltage": parsed},
    }


def policy_label(policy: Any) -> str:
    """Stable report label of a JSON-safe policy payload."""
    if isinstance(policy, str):
        return policy
    name = policy.get("name", "?")
    params = policy.get("params") or {}
    if not params:
        return str(name)
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{name}({inner})"


# --------------------------------------------------------------------------
# Experiment-file IO (TOML and JSON)
# --------------------------------------------------------------------------

_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")


def _toml_key(key: str) -> str:
    return key if _BARE_KEY.match(key) else json.dumps(key)


def _toml_value(value: Any, where: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    if isinstance(value, str):
        # JSON string escaping is a subset of TOML basic-string escaping.
        return json.dumps(value)
    if isinstance(value, list):
        return "[" + ", ".join(_toml_value(v, where) for v in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(
            f"{_toml_key(k)} = {_toml_value(v, f'{where}.{k}')}"
            for k, v in value.items()
        )
        return "{" + inner + "}"
    raise ExperimentSpecError(
        f"TOML cannot encode {type(value).__name__} at {where}: {value!r}"
    )


def _emit_table(lines: list[str], table: dict, prefix: tuple[str, ...]) -> None:
    subtables = []
    for key, value in table.items():
        where = ".".join((*prefix, key))
        if isinstance(value, dict):
            subtables.append((key, value))
        elif value is None:
            raise ExperimentSpecError(
                f"TOML cannot encode null at {where}; omit the key instead"
            )
        else:
            lines.append(f"{_toml_key(key)} = {_toml_value(value, where)}")
    for key, value in subtables:
        lines.append("")
        lines.append("[" + ".".join(_toml_key(p) for p in (*prefix, key)) + "]")
        _emit_table(lines, value, (*prefix, key))


def dumps_toml(payload: Mapping[str, Any]) -> str:
    """Render a JSON-safe payload as TOML text.

    Nested mappings become ``[dotted.tables]``, mappings inside arrays
    become inline tables, and floats keep their distinction from ints —
    ``tomllib`` reparses the output to the exact canonical form of the
    input (round-trip pinned by the API test suite).
    """
    payload = canonicalise(payload)
    if not isinstance(payload, dict):
        raise ExperimentSpecError(
            f"a TOML document must be a mapping, got {type(payload).__name__}"
        )
    lines: list[str] = []
    _emit_table(lines, payload, ())
    if lines and not lines[0]:
        lines = lines[1:]  # payload opened with a table: drop the blank
    return "\n".join(lines) + "\n"


def load_payload(path: Path | str) -> dict[str, Any]:
    """Read an experiment payload from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in (".toml", ".json"):
        raise ExperimentSpecError(
            f"{path}: unsupported experiment file suffix {suffix!r} "
            "(use .toml or .json)"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ExperimentSpecError(f"cannot read {path}: {exc}") from exc
    if suffix == ".json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentSpecError(
                f"{path} is not valid JSON: {exc}"
            ) from exc
    else:
        import tomllib

        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ExperimentSpecError(
                f"{path} is not valid TOML: {exc}"
            ) from exc
    if not isinstance(payload, dict):
        raise ExperimentSpecError(
            f"{path} must contain a mapping at the top level, "
            f"got {type(payload).__name__}"
        )
    return payload


def dump_payload(payload: Mapping[str, Any], path: Path | str) -> None:
    """Write a payload to ``path`` as TOML or JSON (by suffix)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        text = json.dumps(canonicalise(payload), indent=2, sort_keys=True)
        text += "\n"
    elif suffix == ".toml":
        text = dumps_toml(payload)
    else:
        raise ExperimentSpecError(
            f"{path}: unsupported experiment file suffix {suffix!r} "
            "(use .toml or .json)"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
