"""Matrix config schema: YAML parsing, validation, expansion into cells.

A config is one YAML mapping (``docs/experiments.md`` is the schema
document).  The serving kind declares a ``matrix:`` of axes; this module
expands it into the cartesian product of cells, derives one deterministic
seed per cell (a stable hash of the config seed and the cell's resolved
axis values — independent of declaration order and of which other cells
exist), applies the optional ``quick:`` slice, and guards the product size
with ``max_cells`` so a stray axis cannot silently explode CI.

Everything here is pure: no cell is executed, no file besides the config
is read.  The runner (:mod:`repro.experiments.matrix.runner`) consumes the
``Cell`` objects produced here.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union


class ConfigError(ValueError):
    """A matrix config failed validation; the message names the offending key."""


_DISTRIBUTIONS = ("zipf", "uniform", "planted")
_TRANSPORTS = ("tcp", "shm")

#: hard ceiling on ``max_cells`` itself (a config cannot lift the lid off)
MAX_CELLS_CEILING = 4096
#: default cartesian-product guard when the config does not set one
DEFAULT_MAX_CELLS = 512
#: schema version folded into every cell digest: bump to invalidate caches
SCHEMA_VERSION = 1


def _check_choice(axis: str, value, choices: Sequence[str]) -> str:
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"matrix.{axis}: {value!r} is not one of "
                          f"{', '.join(choices)}")
    return value


def _check_protocol(value) -> str:
    """A registered protocol's short name (the name the cell seed hashes)."""
    from repro.protocol.wire import protocol_names

    return _check_choice("protocol", value, protocol_names())


def _check_int(axis: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"matrix.{axis}: {value!r} is not an integer")
    if value < minimum:
        raise ConfigError(f"matrix.{axis}: {value} is below the minimum "
                          f"of {minimum}")
    return int(value)


def _check_float(axis: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"matrix.{axis}: {value!r} is not a number")
    if not value > 0:
        raise ConfigError(f"matrix.{axis}: {value} must be positive")
    return float(value)


#: axis name -> (validator, default values); declaration order here is the
#: canonical cell-expansion order (the rightmost axis varies fastest), so
#: reordering axes in a YAML file never reorders the committed tables.
AXES: Dict[str, Tuple[object, Tuple]] = {
    "protocol": (_check_protocol, ("hashtogram",)),
    "epsilon": (lambda v: _check_float("epsilon", v), (1.0,)),
    "domain_size": (lambda v: _check_int("domain_size", v, 2), (4096,)),
    "users": (lambda v: _check_int("users", v, 1), (4000,)),
    "distribution": (lambda v: _check_choice("distribution", v,
                                             _DISTRIBUTIONS), ("zipf",)),
    "workers": (lambda v: _check_int("workers", v, 1), (1,)),
    "shards": (lambda v: _check_int("shards", v, 0), (0,)),
    "transport": (lambda v: _check_choice("transport", v, _TRANSPORTS),
                  ("tcp",)),
}


@dataclass(frozen=True)
class Cell:
    """One fully resolved point of the matrix.

    ``shards == 0`` is the engine-only execution path (the offline
    reference is additionally checked against a serial 1-worker run);
    ``shards == 1`` spawns a live single server; ``shards >= 2`` a live
    K-shard cluster — either way the served estimates must equal the
    offline engine bit for bit.
    """

    protocol: str
    epsilon: float
    domain_size: int
    users: int
    distribution: str
    workers: int
    shards: int
    transport: str
    #: deterministic per-cell seed (derive_cell_seed)
    seed: int
    #: position in the expansion order (stable across runs)
    index: int

    def axes(self) -> Dict[str, object]:
        """The resolved axis values (no seed/index) in canonical order."""
        return {name: getattr(self, name) for name in AXES}

    def digest(self) -> str:
        """Stable cache key: axes + seed + schema version."""
        payload = {"axes": self.axes(), "seed": self.seed,
                   "schema": SCHEMA_VERSION}
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]

    def label(self) -> str:
        mode = ("engine" if self.shards == 0
                else "server" if self.shards == 1
                else f"cluster:{self.shards}")
        return (f"{self.protocol} eps={self.epsilon:g} n={self.users} "
                f"|X|={self.domain_size} {self.distribution} "
                f"w={self.workers} {mode} {self.transport}")


@dataclass(frozen=True)
class PaperSection:
    """One EXPERIMENTS.md section: a registered driver plus its commentary."""

    experiment: str
    title: str
    commentary: str


@dataclass(frozen=True)
class MatrixConfig:
    """A parsed, validated config file (serving or paper kind)."""

    name: str
    kind: str
    description: str
    seed: int
    source: Optional[Path]
    #: serving kind: axis name -> tuple of validated values
    matrix: Mapping[str, Tuple] = field(default_factory=dict)
    #: serving kind: axis name -> tuple of quick-slice values
    quick: Mapping[str, Tuple] = field(default_factory=dict)
    max_cells: int = DEFAULT_MAX_CELLS
    #: number of sampled probe queries per cell (top-5 truth always queried)
    queries: int = 32
    #: serving kind: committed outputs land under docs/experiments/;
    #: uncommitted configs render into the cache directory instead
    committed: bool = True
    #: paper kind: the ordered EXPERIMENTS.md sections
    sections: Tuple[PaperSection, ...] = ()
    #: paper kind: output document (relative paths resolve against the repo
    #: root, i.e. the config file's grandparent directory)
    output: str = "EXPERIMENTS.md"


def derive_cell_seed(config_seed: int, axes: Mapping[str, object]) -> int:
    """One deterministic seed per cell.

    A stable SHA-256 of the config seed and the cell's resolved axis
    values, canonicalized with sorted keys — so the seed depends on *what*
    the cell is, never on axis declaration order, expansion position, or
    which other cells the matrix contains.  Adding a value to one axis
    therefore leaves every existing cell's workload bit-identical.
    """
    canon = json.dumps({"seed": int(config_seed), "axes": dict(axes)},
                       sort_keys=True)
    digest = hashlib.sha256(canon.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def _load_yaml(path: Path) -> Mapping[str, object]:
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - container ships pyyaml
        raise ConfigError(
            f"{path}: reading matrix configs requires PyYAML "
            f"(`pip install pyyaml`); JSON configs load without it"
        ) from exc
    payload = yaml.safe_load(path.read_text())
    if not isinstance(payload, Mapping):
        raise ConfigError(f"{path}: top level must be a mapping, "
                          f"got {type(payload).__name__}")
    return payload


def _axis_values(axis: str, raw, validator) -> Tuple:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"matrix.{axis}: must be a non-empty list "
                          f"(got {raw!r})")
    values = tuple(validator(value) for value in raw)
    if len(set(values)) != len(values):
        raise ConfigError(f"matrix.{axis}: duplicate values in {list(raw)}")
    return values


def _parse_serving(payload: Mapping[str, object], name: str, seed: int,
                   description: str, source: Optional[Path]) -> MatrixConfig:
    raw_matrix = payload.get("matrix", {})
    if not isinstance(raw_matrix, Mapping):
        raise ConfigError("matrix: must be a mapping of axis -> values")
    unknown = sorted(set(raw_matrix) - set(AXES))
    if unknown:
        raise ConfigError(f"matrix: unknown axes {unknown}; valid axes are "
                          f"{', '.join(AXES)}")
    matrix: Dict[str, Tuple] = {}
    for axis, (validator, default) in AXES.items():
        if axis in raw_matrix:
            matrix[axis] = _axis_values(axis, raw_matrix[axis], validator)
        else:
            matrix[axis] = default

    raw_quick = payload.get("quick", {})
    if not isinstance(raw_quick, Mapping):
        raise ConfigError("quick: must be a mapping of axis -> values")
    unknown = sorted(set(raw_quick) - set(AXES))
    if unknown:
        raise ConfigError(f"quick: unknown axes {unknown}")
    quick: Dict[str, Tuple] = {}
    for axis, raw in raw_quick.items():
        validator, _ = AXES[axis]
        values = _axis_values(axis, raw, validator)
        missing = [v for v in values if v not in matrix[axis]]
        if missing:
            raise ConfigError(f"quick.{axis}: {missing} are not values of "
                              f"matrix.{axis} (a quick slice only narrows)")
        quick[axis] = values

    max_cells = payload.get("max_cells", DEFAULT_MAX_CELLS)
    max_cells = _check_int("max_cells", max_cells, 1)
    if max_cells > MAX_CELLS_CEILING:
        raise ConfigError(f"max_cells: {max_cells} exceeds the hard ceiling "
                          f"of {MAX_CELLS_CEILING}")
    queries = _check_int("queries", payload.get("queries", 32), 1)
    committed = payload.get("committed", True)
    if not isinstance(committed, bool):
        raise ConfigError(f"committed: expected a boolean, got {committed!r}")

    config = MatrixConfig(name=name, kind="serving", description=description,
                          seed=seed, source=source, matrix=matrix,
                          quick=quick, max_cells=max_cells, queries=queries,
                          committed=committed)
    # Expansion enforces the product guard; do it once at load so a
    # misconfigured file fails at parse time, not mid-run.
    expand_cells(config)
    return config


def _parse_paper(payload: Mapping[str, object], name: str, seed: int,
                 description: str, source: Optional[Path]) -> MatrixConfig:
    raw_sections = payload.get("sections")
    if not isinstance(raw_sections, list) or not raw_sections:
        raise ConfigError("sections: a paper config needs a non-empty list")
    sections: List[PaperSection] = []
    for i, raw in enumerate(raw_sections):
        if not isinstance(raw, Mapping):
            raise ConfigError(f"sections[{i}]: must be a mapping")
        for key in ("experiment", "title", "commentary"):
            if not isinstance(raw.get(key), str) or not raw[key].strip():
                raise ConfigError(f"sections[{i}].{key}: required string")
        extra = sorted(set(raw) - {"experiment", "title", "commentary"})
        if extra:
            raise ConfigError(f"sections[{i}]: unknown keys {extra}")
        sections.append(PaperSection(experiment=raw["experiment"],
                                     title=raw["title"],
                                     commentary=raw["commentary"].strip()))
    names = [s.experiment for s in sections]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise ConfigError(f"sections: duplicate experiments {dupes}")
    output = payload.get("output", "EXPERIMENTS.md")
    if not isinstance(output, str) or not output:
        raise ConfigError(f"output: expected a path string, got {output!r}")
    return MatrixConfig(name=name, kind="paper", description=description,
                        seed=seed, source=source, sections=tuple(sections),
                        output=output)


def load_config(path: Union[str, Path]) -> MatrixConfig:
    """Parse and validate one config file (YAML, or JSON — a YAML subset)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: no such config file")
    payload = _load_yaml(path)

    known = {"name", "kind", "description", "seed", "matrix", "quick",
             "max_cells", "queries", "committed", "sections", "output"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(f"{path}: unknown top-level keys {unknown}")

    name = payload.get("name", path.stem)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{path}: name must be a non-empty string")
    kind = payload.get("kind", "serving")
    if kind not in ("serving", "paper"):
        raise ConfigError(f"{path}: kind must be 'serving' or 'paper', "
                          f"got {kind!r}")
    description = payload.get("description", "")
    if not isinstance(description, str):
        raise ConfigError(f"{path}: description must be a string")
    seed = payload.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{path}: seed must be a non-negative integer")

    try:
        if kind == "serving":
            return _parse_serving(payload, name, seed, description.strip(),
                                  path)
        return _parse_paper(payload, name, seed, description.strip(), path)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def expand_cells(config: MatrixConfig, quick: bool = False) -> List[Cell]:
    """Expand the matrix into its ordered list of cells.

    The product iterates axes in canonical ``AXES`` order (rightmost axis
    varies fastest); with ``quick=True`` each axis is first narrowed to its
    ``quick:`` slice (axes without a slice keep all values).  The
    cartesian product is guarded by ``max_cells``.
    """
    if config.kind != "serving":
        raise ConfigError(f"{config.name}: only serving configs expand into "
                          f"cells (kind={config.kind!r})")
    axes_values: List[Tuple] = []
    for axis in AXES:
        values = config.matrix[axis]
        if quick and axis in config.quick:
            values = config.quick[axis]
        axes_values.append(values)
    total = 1
    for values in axes_values:
        total *= len(values)
    if total > config.max_cells:
        raise ConfigError(
            f"{config.name}: the matrix expands to {total} cells, above "
            f"max_cells={config.max_cells}; narrow an axis or raise the "
            f"guard explicitly")
    cells: List[Cell] = []
    for index, combo in enumerate(itertools.product(*axes_values)):
        axes = dict(zip(AXES, combo, strict=True))
        # The retired one-value wire_format axis stays in the hash, so no
        # committed cell's seed (and workload) moves.
        seed = derive_cell_seed(config.seed,
                                {**axes, "wire_format": "binary"})
        cells.append(Cell(**axes, seed=seed, index=index))
    return cells
