"""Scenario files, run manifests, and deterministic result serialization.

A scenario is a single versioned JSON document::

    {
      "schema": 1,
      "shape": {"m": 4, "n": 2},
      "graph": {"edges": [[1, 2], [2, 3], [3, 4]], "weights": [0.25, 0.5, 0.25]},
      "gossip": {"alpha": 0.5, "strategy": "random", "steps": 300, "seed": 7},
      "initial_state": "1010",
      "sigma": "z",
      "outputs": {"directory": ".", "stem": "run"}
    }

``weights``, ``seed``, ``cycle_order``, ``stop_gap`` and ``outputs`` are
optional. ``sigma`` may also be a ``{real, imag}`` matrix or a nested list;
classify suites (:func:`load_suite`) take the same state and sigma forms.
Validation errors name the offending field. Every run writes a manifest
(scenario hash, tool version, seeds, wall time, termination reason) and every
output file references it: CSV files carry a leading ``# manifest:`` comment
line, JSON files a "manifest" key. Identical scenario + seed produce
byte-identical output; wall time lives only in the manifest. CSV floats are
printed with 17 significant digits. JSON (results and manifests) is written
by the standard library, ``json.dumps(doc, indent=2, sort_keys=True)``, floats
by their shortest round-trip ``repr``; only the spectrum's listing, a
top-level :class:`RepeatedRows`, is spliced in from its own text, each
distinct row formatted once. Neither writer accepts a NaN or an infinity.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, ScenarioError, ValidationError
from .gossip import GossipConfig, InteractionGraph
from .linalg import NetworkShape
from .states import (DensityOperator, Observable, StateSpec, as_observable,
                     check_observable, parse_state)

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"
OUT_DIR_ENV = "QGOSSIP_OUT_DIR"


def _require(mapping: dict, key: str, kind, path: str):
    if key not in mapping:
        raise ScenarioError(f"{path}.{key}: missing required field")
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, bool):
        raise ScenarioError(f"{path}.{key}: expected {kind.__name__}, got bool")
    if not isinstance(value, kind):
        raise ScenarioError(
            f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _optional(mapping: dict, key: str, kind, path: str, default=None):
    if key not in mapping or mapping[key] is None:
        return default
    return _require(mapping, key, kind, path)


def _read_document(path, what: str) -> tuple[bytes, dict]:
    """The bytes and the parsed root object of a versioned JSON file."""
    p = Path(path)
    try:
        blob = p.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read {what} file {p}: {exc}") from exc
    try:
        data = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}")
    if not isinstance(data, dict):
        raise ScenarioError(f"{what} root must be a JSON object")
    schema = _require(data, "schema", int, "$")
    if schema != SCHEMA_VERSION:
        raise ScenarioError(
            f"$.schema: unsupported version {schema}, this tool reads {SCHEMA_VERSION}")
    return blob, data


def _read_specs(block: dict, state_key: str, shape: NetworkShape | None,
                path: str) -> tuple[str, StateSpec, object, object]:
    """``(state spec, its StateSpec, sigma spec, checked sigma)`` from
    ``block[state_key]`` and ``block["sigma"]``, a name, a ``{real, imag}`` matrix
    or a nested list. Both are checked (:func:`parse_state`,
    :func:`check_observable`), neither is built."""
    if not isinstance(block, dict):
        raise ScenarioError(f"{path}: expected an object with {state_key} and sigma")
    state_spec = _require(block, state_key, str, path)
    sigma = _require(block, "sigma", object, path)
    try:
        state = parse_state(state_spec, shape)
    except ValidationError as exc:
        raise ScenarioError(f"{path}.{state_key}: {exc}") from exc
    if not isinstance(sigma, (str, list, dict)):
        raise ScenarioError(f"{path}.sigma: expected a name, {{real, imag}} or a nested list")
    try:
        matrix = sigma
        if isinstance(sigma, dict):
            matrix = (np.asarray(sigma["real"], dtype=float)
                      + 1j * np.asarray(sigma.get("imag", 0.0), dtype=float))
        return state_spec, state, sigma, check_observable(matrix, state.shape.n)
    except (ValueError, KeyError, TypeError) as exc:
        raise ScenarioError(f"{path}.sigma: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    """A parsed and validated scenario plus its provenance hash. The initial state
    (``state``) and sigma (``sigma``) are checked by :func:`load_scenario` and built
    at the first read of ``rho0`` and ``obs``, once each: a run that never reads
    them (``qgossip spectrum``) never builds them."""

    shape: NetworkShape
    graph: InteractionGraph
    config: GossipConfig
    out_directory: str
    stem: str
    sha256: str
    state: StateSpec = field(repr=False, compare=False)
    sigma: object = field(repr=False, compare=False)

    @cached_property
    def rho0(self) -> DensityOperator:
        return self.state.build()

    @cached_property
    def obs(self) -> Observable:
        return as_observable(self.sigma, self.shape.n)

    def seeds(self) -> list[int]:
        seeds = []
        if self.config.seed is not None:
            seeds.append(int(self.config.seed))
        if self.state.seed is not None:
            seeds.append(self.state.seed)
        return seeds


def load_scenario(path) -> Scenario:
    p = Path(path)
    blob, data = _read_document(p, "scenario")
    sha = hashlib.sha256(blob).hexdigest()

    shape_block = _require(data, "shape", dict, "$")
    try:
        shape = NetworkShape(_require(shape_block, "m", int, "shape"),
                             _require(shape_block, "n", int, "shape"))
    except ValidationError as exc:
        raise ScenarioError(f"shape: {exc}") from exc

    graph_block = _require(data, "graph", dict, "$")
    edges = _require(graph_block, "edges", list, "graph")
    weights = _optional(graph_block, "weights", list, "graph")
    try:
        graph = InteractionGraph(shape, edges, weights)
    except ValidationError as exc:
        raise ScenarioError(f"graph: {exc}") from exc

    gossip_block = _require(data, "gossip", dict, "$")
    alpha = _require(gossip_block, "alpha", float, "gossip")
    strategy = _require(gossip_block, "strategy", str, "gossip")
    steps = _require(gossip_block, "steps", int, "gossip")
    seed = _optional(gossip_block, "seed", int, "gossip")
    cycle_order = _optional(gossip_block, "cycle_order", list, "gossip")
    stop_gap = _optional(gossip_block, "stop_gap", float, "gossip")
    try:
        config = GossipConfig(alpha=alpha, strategy=strategy, steps=steps,
                              seed=seed,
                              cycle_order=tuple(cycle_order) if cycle_order is not None else None,
                              stop_gap=stop_gap)
        if strategy == "cyclic" and (graph.edges or cycle_order is not None):
            config.resolved_cycle_order(graph)
    except ValidationError as exc:
        raise ScenarioError(f"gossip: {exc}") from exc

    outputs = _optional(data, "outputs", dict, "$", default={})
    out_dir = _optional(outputs, "directory", str, "outputs", default=".")
    stem = _optional(outputs, "stem", str, "outputs", default=p.stem)

    _, state, _, sigma = _read_specs(data, "initial_state", shape, "$")
    return Scenario(shape=shape, graph=graph, config=config, out_directory=out_dir,
                    stem=stem, sha256=sha, state=state, sigma=sigma)


def load_suite(path) -> list[tuple[str, DensityOperator, object, Observable]]:
    """A classify suite's entries as ``(state spec, state, sigma spec,
    observable)``; each state takes the shape its specifier implies. Every entry
    is checked before any state or observable is built."""
    entries = _require(_read_document(path, "suite")[1], "suite", list, "$")
    if not entries:
        raise ScenarioError("$.suite: expected a non-empty list")
    specs = [_read_specs(entry, "state", None, f"$.suite[{i}]")
             for i, entry in enumerate(entries)]
    return [(text, state.build(), sigma, as_observable(checked, state.shape.n))
            for text, state, sigma, checked in specs]


@dataclass
class RunManifest:
    """Provenance record attached to every output file of a run."""

    scenario_hash: str
    tool_version: str
    command: str
    seeds: list
    wall_time_s: float
    termination: str


def resolve_out_dir(scenario_dir: str, cli_override: str | None) -> Path:
    """Output directory precedence: CLI flag, environment, scenario, cwd. The
    directory is created at the run's first write, after validation."""
    if cli_override:
        chosen = cli_override
    elif os.environ.get(OUT_DIR_ENV):
        chosen = os.environ[OUT_DIR_ENV]
    else:
        chosen = scenario_dir or "."
    return Path(chosen)


def _finite(text: str) -> str:
    """``text``, a run of printed floats, unless one of them is a NaN or an infinity:
    ``%.17g`` and ``repr`` spell finite doubles with ``[0-9.e+-]`` only."""
    if "n" in text:
        raise ConsistencyError("refusing to write a non-finite value")
    return text


def write_csv(path: Path, header: list[str], labels, values, manifest_name: str):
    """CSV with 17-significant-digit floats and a manifest reference line.

    Row r is the cells ``labels[r]`` (strings and integers, written as they
    are) followed by the numbers ``values[r]``: a row of a 2-D array, or a
    sequence (rows may differ in length). The numbers of all rows go through
    one ``%.17g`` format in one pass, as Python floats from one ``tolist()``
    for an array. A NaN or an infinity raises ConsistencyError.
    """
    rows = values.tolist() if isinstance(values, np.ndarray) else [list(v) for v in values]
    if len(rows) != len(labels):
        raise ValueError(f"{len(labels)} label rows for {len(rows)} value rows")
    numbers = _finite("\n".join([("%.17g," * len(row))[:-1] for row in rows])
                      % tuple(itertools.chain.from_iterable(rows)))
    lines = [f"# manifest: {manifest_name}", ",".join(header)]
    for cells, text in zip(labels, numbers.split("\n")):
        cells = [c if isinstance(c, str) else str(int(c)) for c in cells]
        lines.append(",".join(cells + [text] if text else cells))
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class RepeatedRows:
    """The JSON list of ``rows[k]`` repeated ``counts[k]`` times, for each k in
    turn, held unexpanded: the spectrum's ``[re, im]`` rows with their
    multiplicities. The counts are positive."""

    rows: list
    counts: list


def _repeated_rows(obj: RepeatedRows, indent: str) -> str:
    """The JSON text of ``obj``'s expanded list, as ``json.dumps`` indents it
    after ``indent``: each distinct row formatted once through one ``%r`` row
    template, and its text repeated. Rows that are not equal-length, non-empty
    lists or tuples of exact ``float`` values raise TypeError, a float subclass
    too, whose ``%r`` (``np.float64(...)``) is not ``float.__repr__``."""
    rows = obj.rows
    if not rows:
        return "[]"
    width = len(rows[0]) if type(rows[0]) in (list, tuple) else 0
    if (not width or not set(map(type, rows)) <= {list, tuple}
            or set(map(len, rows)) != {width}
            or set(map(type, itertools.chain.from_iterable(rows))) != {float}):
        raise TypeError("RepeatedRows lists equal-length rows of floats only")
    inner = indent + "  "
    number = inner + "  "
    row = "[" + number + ("%r," + number) * (width - 1) + "%r" + inner + "]"
    sep = "," + inner
    body = "".join([(row % tuple(r) + sep) * c for r, c in zip(rows, obj.counts)])
    return "[" + inner + _finite(body[:-len(sep)]) + indent + "]"


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
_PLACEHOLDER = "RepeatedRows"


def _write_document(path: Path, doc: dict):
    """``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)`` and a newline,
    each top-level :class:`RepeatedRows` encoded as a placeholder string, then
    spliced in as its expanded list: only a top-level item starts with a newline
    and exactly two spaces, and no JSON string holds a raw newline, so no other
    value matches. A NaN or an infinity raises ConsistencyError."""
    listings = {k: v for k, v in doc.items() if isinstance(v, RepeatedRows)}
    try:
        text = _ENCODER.encode({**doc, **dict.fromkeys(listings, _PLACEHOLDER)})
    except ValueError as exc:
        raise ConsistencyError("refusing to write a non-finite value") from exc
    for key, rows in listings.items():
        item = "\n  " + _ENCODER.encode(key) + ": "
        text = text.replace(item + f'"{_PLACEHOLDER}"', item + _repeated_rows(rows, "\n  "))
    path.write_text(text + "\n")


def write_json(path: Path, payload: dict, manifest_name: str | None = None):
    """The payload (plus a "manifest" key) with sorted keys and a 2-space indent."""
    doc = dict(payload)
    if manifest_name is not None:
        doc["manifest"] = manifest_name
    _write_document(path, doc)


def write_manifest(path: Path, manifest: RunManifest):
    _write_document(path, asdict(manifest))
