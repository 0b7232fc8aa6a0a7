"""Run configuration: JSON schema, validation, and shipped presets.

A configuration file fully determines a run: the system, the initial set,
horizon/step/direction, the decomposition method, an optional transform
plan, and the sampling setup for audits. ``load_config`` accepts either a
file path or the name of a shipped preset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import exprlang
from .embed import ReachSpec
from .errors import ConfigError, MmreachError
from .geometry import Box, Parallelotope, UnionInitialSet
from .multiorder import default_transform_family
from .oracle import SampleConfig
from .sysdef import SystemDef, preset_system

_DIRECTIONS = ("forward", "backward")
_METHODS = ("tight", "jacobian_sign", "monotone", "closed_form")
_INIT_TYPES = ("box", "parallelotope", "vertices", "union")


def preset_names():
    root = resources.files("mmreach") / "presets"
    return sorted(p.name[: -len(".json")] for p in root.iterdir()
                  if p.name.endswith(".json"))


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r}", where)
    return mapping[key]


def _number(value, where):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"expected a number, got {value!r}", where)
    return float(value)


def _integer(value, where):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"expected an integer, got {value!r}", where)
    return value


def _vector(value, where, length=None):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"expected a non-empty list of numbers", where)
    out = [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise ConfigError(f"expected {length} entries, got {len(out)}", where)
    return out


def _matrix(value, where, size=None):
    if not isinstance(value, list) or not value:
        raise ConfigError("expected a matrix (list of rows)", where)
    rows = [_vector(row, f"{where}[{i}]") for i, row in enumerate(value)]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError("matrix rows have unequal lengths", where)
    if size is not None and (len(rows) != size or width != size):
        raise ConfigError(f"expected a {size}x{size} matrix", where)
    return np.array(rows)


@dataclass
class ProblemConfig:
    """Validated run configuration with resolved domain objects."""

    system: SystemDef
    initial_set: object  # Box | Parallelotope | list of vertices | UnionInitialSet
    spec: ReachSpec
    method: str
    method_options: dict
    transforms: list | None
    sampling: SampleConfig
    search_box: Box | None
    output_dir: str

    @property
    def initial_kind(self):
        if isinstance(self.initial_set, Box):
            return "box"
        if isinstance(self.initial_set, Parallelotope):
            return "parallelotope"
        if isinstance(self.initial_set, UnionInitialSet):
            return "union"
        return "vertices"


def _parse_system(raw, where="system"):
    if isinstance(raw, str):
        try:
            return preset_system(raw)
        except MmreachError as exc:
            raise ConfigError(str(exc), where) from exc
    if not isinstance(raw, dict):
        raise ConfigError("expected a preset name or a system table", where)
    n = _integer(_require(raw, "n", where), f"{where}.n")
    m = _integer(_require(raw, "m", where), f"{where}.m")
    if n < 1 or m < 0:
        raise ConfigError(f"invalid dimensions n={n}, m={m}", where)
    sources = _require(raw, "field", where)
    if not isinstance(sources, list) or len(sources) != n:
        raise ConfigError(f"field must list exactly {n} expressions", f"{where}.field")
    exprs = []
    for i, src in enumerate(sources):
        if not isinstance(src, str):
            raise ConfigError("expected an expression string", f"{where}.field[{i}]")
        try:
            exprs.append(exprlang.parse(src, n, m))
        except MmreachError as exc:
            raise ConfigError(str(exc), f"{where}.field[{i}]") from exc
    w_lo = _vector(_require(raw, "w_lo", where), f"{where}.w_lo", m)
    w_hi = _vector(_require(raw, "w_hi", where), f"{where}.w_hi", m)
    try:
        dist = Box(w_lo, w_hi)
    except MmreachError as exc:
        raise ConfigError(str(exc), f"{where}.w_lo/w_hi") from exc
    name = raw.get("name", "")
    return SystemDef(n, m, exprs, dist, name=name)


def _parse_member(raw, n, where):
    shape = _matrix(_require(raw, "shape", where), f"{where}.shape", n)
    lo = _vector(_require(raw, "lo", where), f"{where}.lo", n)
    hi = _vector(_require(raw, "hi", where), f"{where}.hi", n)
    try:
        return Parallelotope(shape, Box(lo, hi))
    except MmreachError as exc:
        raise ConfigError(str(exc), where) from exc


def _parse_initial_set(raw, n, where="initial_set"):
    if not isinstance(raw, dict):
        raise ConfigError("expected a table with a 'type' key", where)
    kind = _require(raw, "type", where)
    if kind not in _INIT_TYPES:
        raise ConfigError(f"type must be one of {_INIT_TYPES}, got {kind!r}", where)
    try:
        if kind == "box":
            return Box(
                _vector(_require(raw, "lo", where), f"{where}.lo", n),
                _vector(_require(raw, "hi", where), f"{where}.hi", n),
            )
        if kind == "parallelotope":
            return _parse_member(raw, n, where)
        if kind == "vertices":
            points = _require(raw, "points", where)
            if not isinstance(points, list) or not points:
                raise ConfigError("expected a non-empty list of points",
                                  f"{where}.points")
            return [
                np.array(_vector(p, f"{where}.points[{i}]", n))
                for i, p in enumerate(points)
            ]
        members = _require(raw, "members", where)
        if not isinstance(members, list) or not members:
            raise ConfigError("expected a non-empty member list", f"{where}.members")
        return UnionInitialSet(tuple(
            _parse_member(mraw, n, f"{where}.members[{i}]")
            for i, mraw in enumerate(members)
        ))
    except ConfigError:
        raise
    except MmreachError as exc:
        raise ConfigError(str(exc), where) from exc


def _parse_decomposition(raw, system, where="decomposition"):
    raw = raw if raw is not None else {"method": "tight"}
    if not isinstance(raw, dict):
        raise ConfigError("expected a table", where)
    method = raw.get("method", "tight")
    if method not in _METHODS:
        raise ConfigError(f"method must be one of {_METHODS}, got {method!r}", where)
    options = {}
    if "domain_lo" in raw or "domain_hi" in raw:
        lo = _vector(_require(raw, "domain_lo", where), f"{where}.domain_lo", system.n)
        hi = _vector(_require(raw, "domain_hi", where), f"{where}.domain_hi", system.n)
        try:
            options["domain"] = Box(lo, hi)
        except MmreachError as exc:
            raise ConfigError(str(exc), f"{where}.domain_lo/domain_hi") from exc
    if "samples" in raw:
        options["samples"] = _integer(raw["samples"], f"{where}.samples")
        if options["samples"] < 1:
            raise ConfigError("samples must be >= 1", f"{where}.samples")
    if "seed" in raw:
        options["seed"] = _integer(raw["seed"], f"{where}.seed")
    if method == "closed_form":
        sources = _require(raw, "sources", where)
        if not isinstance(sources, list) or len(sources) != system.n:
            raise ConfigError(
                f"closed_form needs exactly {system.n} component sources",
                f"{where}.sources",
            )
        for i, src in enumerate(sources):
            if not isinstance(src, str):
                raise ConfigError("expected an expression string",
                                  f"{where}.sources[{i}]")
            try:
                exprlang.parse(src, 2 * system.n, 2 * system.m)
            except MmreachError as exc:
                raise ConfigError(str(exc), f"{where}.sources[{i}]") from exc
        options["sources"] = list(sources)
    return method, options


def _parse_transforms(raw, n, where="transforms"):
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("expected a table", where)
    if "matrices" in raw:
        mats = raw["matrices"]
        if not isinstance(mats, list) or not mats:
            raise ConfigError("expected a non-empty matrix list", f"{where}.matrices")
        out = []
        for i, mraw in enumerate(mats):
            mat = _matrix(mraw, f"{where}.matrices[{i}]", n)
            try:
                Parallelotope(mat, Box([0.0] * n, [1.0] * n))
            except MmreachError as exc:
                raise ConfigError(str(exc), f"{where}.matrices[{i}]") from exc
            out.append(mat)
        return out
    if raw.get("family") == "rotations":
        if n != 2:
            raise ConfigError("rotation family requires a planar system", where)
        count = _integer(_require(raw, "count", where), f"{where}.count")
        if count < 1:
            raise ConfigError("count must be >= 1", f"{where}.count")
        return default_transform_family(count)
    raise ConfigError("expected 'matrices' or family: 'rotations'", where)


def _parse_sampling(raw, n, where="sampling"):
    raw = raw if raw is not None else {}
    if not isinstance(raw, dict):
        raise ConfigError("expected a table", where)
    count = _integer(raw.get("count", 10000), f"{where}.count")
    seed = _integer(raw.get("seed", 0), f"{where}.seed")
    switch_count = _integer(raw.get("switch_count", 4), f"{where}.switch_count")
    init_mode = raw.get("init_mode", "uniform")
    try:
        cfg = SampleConfig(count=count, seed=seed, switch_count=switch_count,
                           init_mode=init_mode)
    except MmreachError as exc:
        raise ConfigError(str(exc), where) from exc
    search_box = None
    if "search_lo" in raw or "search_hi" in raw:
        lo = _vector(_require(raw, "search_lo", where), f"{where}.search_lo", n)
        hi = _vector(_require(raw, "search_hi", where), f"{where}.search_hi", n)
        try:
            search_box = Box(lo, hi)
        except MmreachError as exc:
            raise ConfigError(str(exc), f"{where}.search_lo/search_hi") from exc
    return cfg, search_box


def parse_config(raw: dict):
    """Validate a raw configuration table into a ProblemConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a table")
    system = _parse_system(_require(raw, "system", ""))
    initial = _parse_initial_set(_require(raw, "initial_set", ""), system.n)
    horizon = _number(_require(raw, "horizon", ""), "horizon")
    dt = _number(raw.get("dt", 1e-3), "dt")
    direction = raw.get("direction", "forward")
    if direction not in _DIRECTIONS:
        raise ConfigError(f"direction must be one of {_DIRECTIONS}", "direction")
    try:
        spec = ReachSpec(horizon=horizon, dt=dt, direction=direction)
    except MmreachError as exc:
        raise ConfigError(str(exc), "horizon/dt") from exc
    method, options = _parse_decomposition(raw.get("decomposition"), system)
    transforms = _parse_transforms(raw.get("transforms"), system.n)
    sampling, search_box = _parse_sampling(raw.get("sampling"), system.n)
    output = raw.get("output", {})
    if output and not isinstance(output, dict):
        raise ConfigError("expected a table", "output")
    output_dir = output.get("dir", "out") if isinstance(output, dict) else "out"
    if not isinstance(output_dir, str):
        raise ConfigError("expected a directory path string", "output.dir")
    if direction == "backward" and not isinstance(initial, Parallelotope):
        raise ConfigError(
            "backward runs need a parallelotope initial set", "initial_set"
        )
    if isinstance(initial, UnionInitialSet) and transforms is not None:
        raise ConfigError(
            "union initial sets run per-member shapes; drop 'transforms'",
            "transforms",
        )
    return ProblemConfig(
        system=system,
        initial_set=initial,
        spec=spec,
        method=method,
        method_options=options,
        transforms=transforms,
        sampling=sampling,
        search_box=search_box,
        output_dir=output_dir,
    )


def load_config(path_or_preset):
    """Load and validate a configuration file or a shipped preset name."""
    name = str(path_or_preset)
    if name in preset_names():
        text = (resources.files("mmreach") / "presets" / f"{name}.json").read_text()
    else:
        path = Path(name)
        if not path.exists():
            raise ConfigError(
                f"no such file or preset {name!r}; presets: {preset_names()}"
            )
        if not path.is_file():
            raise ConfigError("not a file", name)
        text = path.read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return parse_config(raw)
