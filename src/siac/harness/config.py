"""Declarative experiment configuration.

One JSON document describes a whole experiment: the advection problem, the
degree/resolution sweep, the filter variants to apply, time-step knobs, and
(optionally) reference error tables with comparison tolerances.  Bundled
presets reproduce the published convergence tables; CLI flags override
individual fields.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from fractions import Fraction
from importlib import resources
from typing import Optional

import numpy as np

from .. import basisfn, dgsolver, filtercore, postproc
from ..filtercore import DEGREES
from ..jsonvalues import integer, list_of, mapping, number, rational


class ConfigError(ValueError):
    """Configuration parse/validation problem, naming the offending field."""


INITIAL_CONDITIONS = {
    "sin_2pi_x": (1, lambda x: np.sin(2.0 * np.pi * np.asarray(x))),
    "sin_x_plus_y": (2, lambda x, y: np.sin(np.asarray(x) + np.asarray(y))),
}

# error values below this sit at the binary64 floor and are not compared
DEFAULT_FLOOR = 5e-15


def _field(name: str, convert, value):
    """convert(value) by a `jsonvalues` converter; a value it refuses raises ConfigError naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{name}: {e}") from None


def _known_keys(name: str, d: dict, cls) -> dict:
    """d itself, once each of its keys names a field of the dataclass `cls`; else ConfigError."""
    known = {f.name for f in fields(cls)}
    for key in d:
        if key not in known:
            raise ConfigError(f"{name}: unknown key {key!r}")
    return d


@dataclass(frozen=True)
class ProblemSpec:
    dim: int
    initial: str
    speed: tuple
    final_time: float
    domain: tuple

    def build(self) -> dgsolver.AdvectionProblem:
        if self.initial not in INITIAL_CONDITIONS:
            raise ConfigError(
                f"problem.initial: unknown initial condition {self.initial!r}; "
                f"expected one of {sorted(INITIAL_CONDITIONS)}"
            )
        dim, fn = INITIAL_CONDITIONS[self.initial]
        if dim != self.dim:
            raise ConfigError(f"problem.initial: {self.initial!r} is {dim}-dimensional, problem.dim is {self.dim}")
        return dgsolver.AdvectionProblem(tuple(self.speed), fn, self.final_time, self.initial)

    def mesh(self, n: int) -> dgsolver.Mesh:
        return dgsolver.Mesh(tuple(tuple(b) for b in self.domain), (n,) * self.dim)


@dataclass(frozen=True)
class FilterVariant:
    name: str
    basis: str = "box"
    nodes: str = "standard"
    # given as a fraction string like "1/4" and stored as its Fraction; None = 1/(2k) for compact
    epsilon: Optional[Fraction] = None

    def __post_init__(self):
        if self.basis not in basisfn.BASIS_KINDS:
            raise ConfigError(f"filters[{self.name}].basis: unknown basis {self.basis!r}")
        if self.nodes not in filtercore.NODE_KINDS:
            raise ConfigError(f"filters[{self.name}].nodes: unknown node kind {self.nodes!r}")
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", _field(f"filters[{self.name}].epsilon", rational, self.epsilon))
        fault = filtercore.epsilon_fault(self.nodes, self.epsilon)
        if fault:
            raise ConfigError(f"filters[{self.name}].epsilon: {fault}")


@dataclass(frozen=True)
class RunConfig:
    name: str
    problem: ProblemSpec
    degrees: tuple[int, ...]
    elements: tuple[int, ...]
    filters: tuple[FilterVariant, ...]
    policy: str = "periodic_wrap"
    cfl: dict = field(default_factory=dict)  # str(degree) -> cfl; default 0.05
    output_dir: str = "out"
    reference: dict = field(default_factory=dict)  # column -> {degree: {N: value}}
    tolerances: dict = field(default_factory=dict)
    floor: float = DEFAULT_FLOOR
    title: str = ""

    def __post_init__(self):
        # every constructor passes here, JSON documents and CLI overrides alike
        if self.name in ("", ".", "..") or any(sep and sep in self.name for sep in (os.sep, os.altsep)):
            raise ConfigError(f"name: must be a file name, not empty, '.', '..' or a path, got {self.name!r}")
        p = self.problem
        if p.final_time < 0:
            raise ConfigError(f"problem.final_time: must be >= 0, got {p.final_time}")
        if len(p.domain) != p.dim or not all(len(b) == 2 and b[0] < b[1] for b in p.domain):
            raise ConfigError(f"problem.domain: needs {p.dim} axis bounds [a, b] with a < b, got {p.domain}")
        if len(p.speed) != p.dim or not any(p.speed):
            raise ConfigError(f"problem.speed: needs {p.dim} components, not all zero, got {p.speed}")
        for key, v in _field("tolerances", mapping, self.tolerances).items():
            _field(f"tolerances.{key}", number, v)
        for key in self.cfl:
            if key not in map(str, DEGREES):
                raise ConfigError(f"cfl.{key}: not a supported degree; expected one of {', '.join(map(str, DEGREES))}")
        if any(v <= 0 for v in self.cfl.values()):
            raise ConfigError(f"cfl: each value must be positive, got {self.cfl}")
        for column, rows in _field("reference", mapping, self.reference).items():
            for degree, row in _field(f"reference.{column}", mapping, rows).items():
                for n, v in _field(f"reference.{column}.{degree}", mapping, row).items():
                    if v is not None:
                        _field(f"reference.{column}.{degree}.{n}", number, v)
        if not self.degrees:
            raise ConfigError("degrees: needs at least one degree, got none")
        if not self.elements:
            raise ConfigError("elements: needs at least one element count, got none")
        if any(k not in DEGREES for k in self.degrees):
            raise ConfigError(f"degrees: must lie in [{DEGREES[0]}, {DEGREES[-1]}], got {self.degrees}")
        if self.policy not in postproc.POLICIES:
            raise ConfigError(f"policy: expected one of {', '.join(postproc.POLICIES)}, got {self.policy!r}")
        for n in self.elements:
            try:
                p.mesh(n)
            except ValueError as e:
                raise ConfigError(f"elements: {e}") from None
        if any(n2 <= n1 for n1, n2 in zip(self.elements, self.elements[1:])):
            raise ConfigError(f"elements: must be strictly increasing, got {self.elements}")

    def cfl_for(self, degree: int) -> float:
        return float(self.cfl.get(str(degree), 0.05))

    def reference_value(self, column: str, degree: int, n: int) -> Optional[float]:
        v = self.reference.get(column, {}).get(str(degree), {}).get(str(n))
        return None if v is None else float(v)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Config from its JSON document; a malformed value or unknown key raises ConfigError naming its field."""
        _known_keys("document", _field("document", mapping, d), cls)
        try:
            p = _known_keys("problem", _field("problem", mapping, d["problem"]), ProblemSpec)
            problem = ProblemSpec(
                dim=_field("problem.dim", integer, p["dim"]),
                initial=str(p["initial"]),
                speed=_field("problem.speed", list_of(number), p["speed"]),
                final_time=_field("problem.final_time", number, p["final_time"]),
                domain=_field("problem.domain", list_of(list_of(number)), p["domain"]),
            )
        except KeyError as e:
            raise ConfigError(f"problem: missing field {e.args[0]!r}") from e
        filters = []
        for f in _field("filters", list_of(mapping), d.get("filters", [])):
            if "name" not in f:
                raise ConfigError("filters: each variant needs field 'name'")
            _known_keys(f"filters[{f['name']}]", f, FilterVariant)
            basis, nodes = str(f.get("basis", "box")), str(f.get("nodes", "standard"))
            filters.append(FilterVariant(str(f["name"]), basis, nodes, f.get("epsilon")))
        return cls(
            name=str(d.get("name", "run")),
            problem=problem,
            degrees=_field("degrees", list_of(integer), d.get("degrees", (1, 2, 3))),
            elements=_field("elements", list_of(integer), d.get("elements", (20, 40, 80))),
            filters=tuple(filters),
            policy=d.get("policy", "periodic_wrap"),
            cfl={str(k): _field(f"cfl.{k}", number, v) for k, v in _field("cfl", mapping, d.get("cfl", {})).items()},
            output_dir=str(d.get("output_dir", "out")),
            reference=d.get("reference", {}),
            tolerances=d.get("tolerances", {}),
            floor=_field("floor", number, d.get("floor", DEFAULT_FLOOR)),
            title=str(d.get("title", "")),
        )

    @classmethod
    def from_json(cls, s: str) -> "RunConfig":
        try:
            d = json.loads(s)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
        except ValueError as e:  # an integer beyond Python's digit limit for int(str)
            raise ConfigError(f"invalid JSON: {e}") from e
        return cls.from_dict(d)


def preset_names() -> list[str]:
    files = resources.files("siac.harness") / "presets"
    return sorted(p.name[: -len(".json")] for p in files.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> RunConfig:
    path = resources.files("siac.harness") / "presets" / f"{name}.json"
    if not path.is_file():
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return RunConfig.from_json(path.read_text())


def load_config(name_or_path: str) -> RunConfig:
    """Resolve a preset name or a JSON file path to a RunConfig."""
    if os.path.exists(name_or_path):
        with open(name_or_path) as f:
            return RunConfig.from_json(f.read())
    return load_preset(name_or_path)
