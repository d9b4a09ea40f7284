"""Declarative campaign specifications.

A campaign spec is a TOML (or JSON) document describing a *grid* of
experiment cells — the paper's parametric studies (GVQ depth, table size,
value delay, gating, SGVQ vs HGVQ, across the SPECint suite) expressed as
data instead of shell loops:

.. code-block:: toml

    [campaign]
    name = "fig10-delay"
    description = "gDiff accuracy vs value delay, two queue depths"

    [defaults]                  # merged into every cell
    kind = "experiment"
    length = 100000

    [matrix]                    # axes; the grid is their cross product
    experiment = ["fig10"]
    order = [8, 32]

    [[exclude]]                 # drop cells matching every listed key
    order = 32

    [[override]]                # patch cells matching ``where``
    where = { order = 8 }
    set = { length = 50000 }

    [[fidelity]]                # paper-fidelity gate (see fidelity.py)
    label = "fig10 T=0 average"
    where = { experiment = "fig10" }
    row = "average"
    column = "T=0"
    target = 0.674
    tol = 0.08

Two cell kinds exist:

* ``kind = "experiment"`` — one invocation of a registry experiment
  (:mod:`repro.harness.experiments`); remaining keys are its kwargs.
* ``kind = "predict"`` — one profile run of a single predictor over one
  benchmark (``predictor``, ``bench``, plus ``order`` / ``entries`` /
  ``delay`` / ``gated`` / ``length`` / ``seed`` / ``code_copies``), the
  shape of the paper's design-space sweeps that no registry figure
  covers directly.

Each resolved cell is canonicalised and content-hashed together with the
trace-format version; that hash is the cell's identity in the results
store, so "already computed?" is a pure function of the configuration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..trace.io import PACKED_FORMAT_VERSION

#: Schema version of the spec format and of store snapshots of it.
SPEC_SCHEMA_VERSION = 1

#: Recognised cell kinds.
CELL_KINDS = ("experiment", "predict")

#: Predictors available to ``predict`` cells and the constructor
#: parameters each accepts (beyond the common trace axes).
PREDICT_PREDICTORS = {
    "gdiff": ("order", "entries", "delay"),
    "hgvq": ("order", "entries"),
    "stride": ("entries",),
    "dfcm": ("order", "entries"),
    "last-value": ("entries",),
}

#: Axes every ``predict`` cell understands.
PREDICT_COMMON_KEYS = ("kind", "predictor", "bench", "length", "seed",
                       "code_copies", "gated")


class SpecError(ValueError):
    """A malformed or inconsistent campaign specification."""


def canonical_json(obj: Any) -> str:
    """Deterministic JSON used for hashing configs (sorted, no spaces)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Cell:
    """One resolved point of the campaign grid."""

    kind: str
    params: Dict[str, Any]
    cell_id: str = field(default="")
    label: str = field(default="")

    @staticmethod
    def make(kind: str, params: Dict[str, Any]) -> "Cell":
        config = {"kind": kind, "params": params,
                  "trace_format_version": PACKED_FORMAT_VERSION}
        cell_id = hashlib.sha256(
            canonical_json(config).encode("utf-8")).hexdigest()[:16]
        return Cell(kind=kind, params=dict(params), cell_id=cell_id,
                    label=_label(kind, params))

    def config(self) -> Dict[str, Any]:
        """The resolved configuration shipped to workers and stored."""
        return {"kind": self.kind, "params": dict(self.params),
                "trace_format_version": PACKED_FORMAT_VERSION}


def _label(kind: str, params: Dict[str, Any]) -> str:
    """Human-readable cell name: stable, short, derived from the config."""
    if kind == "experiment":
        head = str(params.get("experiment", "?"))
        rest = {k: v for k, v in params.items() if k != "experiment"}
    else:
        head = f"predict-{params.get('predictor', '?')}"
        rest = {k: v for k, v in params.items() if k != "predictor"}
    if not rest:
        return head
    parts = ",".join(f"{k}={_short(v)}" for k, v in sorted(rest.items()))
    return f"{head}[{parts}]"


def _short(value: Any) -> str:
    if isinstance(value, (list, tuple)):
        return "+".join(str(v) for v in value)
    return str(value)


def _matches(params: Dict[str, Any], where: Dict[str, Any]) -> bool:
    """Subset match: every key in *where* equals the cell's value."""
    return all(params.get(k) == v for k, v in where.items())


@dataclass
class CampaignSpec:
    """A parsed campaign: identity, grid, and fidelity targets."""

    name: str
    description: str = ""
    defaults: Dict[str, Any] = field(default_factory=dict)
    matrix: Dict[str, List[Any]] = field(default_factory=dict)
    excludes: List[Dict[str, Any]] = field(default_factory=list)
    overrides: List[Dict[str, Any]] = field(default_factory=list)
    fidelity: List[Dict[str, Any]] = field(default_factory=list)
    source: Optional[str] = None
    #: Set when rebuilt from a store snapshot: the exact resolved cell
    #: list, bypassing grid expansion so cell ids are preserved.
    explicit_cells: Optional[List[Dict[str, Any]]] = None

    # -- loading ----------------------------------------------------------
    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Parse a ``.toml`` or ``.json`` spec file."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise SpecError(f"cannot read campaign spec {path}: {exc}")
        if path.suffix.lower() == ".json":
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SpecError(f"{path}: invalid JSON: {exc}")
        else:
            import tomllib

            try:
                doc = tomllib.loads(text)
            except tomllib.TOMLDecodeError as exc:
                raise SpecError(f"{path}: invalid TOML: {exc}")
        return cls.from_dict(doc, source=str(path))

    @classmethod
    def from_dict(cls, doc: Dict[str, Any],
                  source: Optional[str] = None) -> "CampaignSpec":
        if not isinstance(doc, dict):
            raise SpecError("campaign spec must be a table/object")
        head = doc.get("campaign", {})
        name = head.get("name")
        if not name or not isinstance(name, str):
            raise SpecError("spec needs [campaign] name = \"...\"")
        matrix = doc.get("matrix", {})
        if not isinstance(matrix, dict) or not matrix:
            raise SpecError("spec needs a non-empty [matrix] table")
        for axis, values in matrix.items():
            if not isinstance(values, list) or not values:
                raise SpecError(
                    f"matrix axis {axis!r} must be a non-empty list")
        overrides = doc.get("override", [])
        for override in overrides:
            if ("where" not in override or "set" not in override
                    or not isinstance(override["where"], dict)
                    or not isinstance(override["set"], dict)):
                raise SpecError("each [[override]] needs 'where' and 'set' "
                                "tables")
        spec = cls(
            name=name,
            description=head.get("description", ""),
            defaults=dict(doc.get("defaults", {})),
            matrix={k: list(v) for k, v in matrix.items()},
            excludes=[dict(e) for e in doc.get("exclude", [])],
            overrides=[dict(o) for o in overrides],
            fidelity=[dict(f) for f in doc.get("fidelity", [])],
            source=source,
        )
        spec.cells()  # validate eagerly: a bad grid should fail at load
        return spec

    # -- expansion --------------------------------------------------------
    def cells(self) -> List[Cell]:
        """Expand the grid: defaults ∪ matrix point, overrides applied,
        excludes dropped, every cell validated."""
        if self.explicit_cells is not None:
            for c in self.explicit_cells:
                _validate_cell(c["kind"], c["params"])
            return [Cell.make(c["kind"], dict(c["params"]))
                    for c in self.explicit_cells]
        axes = sorted(self.matrix)
        cells: List[Cell] = []
        seen: Dict[str, str] = {}
        for point in product(*(self.matrix[a] for a in axes)):
            params = dict(self.defaults)
            params.update(dict(zip(axes, point)))
            if any(_matches(params, e) for e in self.excludes):
                continue
            for override in self.overrides:
                if _matches(params, override["where"]):
                    params.update(override["set"])
            kind = params.pop("kind", "experiment")
            _validate_cell(kind, params)
            cell = Cell.make(kind, params)
            if cell.cell_id in seen:
                raise SpecError(
                    f"duplicate cell {cell.label!r} (same resolved config "
                    f"as {seen[cell.cell_id]!r}); overrides collapsed two "
                    "grid points")
            seen[cell.cell_id] = cell.label
            cells.append(cell)
        if not cells:
            raise SpecError("grid expands to zero cells (everything "
                            "excluded?)")
        return cells

    # -- identity ---------------------------------------------------------
    def grid_sha(self) -> str:
        """Content hash of the resolved cell list: the campaign's identity.

        Anything that changes any cell's resolved config changes this —
        used to refuse resuming a store created from a different grid.
        """
        payload = canonical_json([c.config() for c in self.cells()])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready form stored in the campaign directory, sufficient to
        run status/report/resume without the original spec file."""
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "source": self.source,
            "grid_sha": self.grid_sha(),
            "trace_format_version": PACKED_FORMAT_VERSION,
            "fidelity": [dict(f) for f in self.fidelity],
            "cells": [
                {"cell_id": c.cell_id, "label": c.label,
                 "kind": c.kind, "params": dict(c.params)}
                for c in self.cells()
            ],
        }

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a runnable spec from a store snapshot.

        The grid comes back as one explicit axis (the stored cell list),
        so resolved configs — and therefore cell ids — are preserved
        exactly.
        """
        cells = snap.get("cells", [])
        if not cells:
            raise SpecError("store snapshot holds no cells")
        return cls(
            name=snap.get("name", "campaign"),
            description=snap.get("description", ""),
            fidelity=[dict(f) for f in snap.get("fidelity", [])],
            source=snap.get("source"),
            explicit_cells=[
                {"kind": c["kind"], "params": dict(c["params"])}
                for c in cells],
        )

    def apply_sets(self, sets: Dict[str, Any]) -> None:
        """Apply command-line ``--set key=value`` overrides to every cell
        (an override with an empty ``where``)."""
        if not sets:
            return
        if self.explicit_cells is not None:
            for cell in self.explicit_cells:
                cell["params"].update(sets)
        else:
            self.overrides.append({"where": {}, "set": dict(sets)})
        self.cells()  # re-validate


def _validate_cell(kind: str, params: Dict[str, Any]) -> None:
    if kind not in CELL_KINDS:
        raise SpecError(f"unknown cell kind {kind!r}; choose from "
                        f"{CELL_KINDS}")
    for key in ("length", "code_copies"):
        value = params.get(key, 1)
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 1:
            raise SpecError(f"{key} must be an integer of at least 1, "
                            f"got {value!r}")
    if kind == "experiment":
        from ..harness.experiments import EXPERIMENTS

        name = params.get("experiment")
        if name not in EXPERIMENTS:
            raise SpecError(f"unknown experiment {name!r}; choose from "
                            f"{sorted(EXPERIMENTS)}")
        if "benchmarks" in params:
            _validate_benchmarks(params["benchmarks"])
        return
    # predict cells
    predictor = params.get("predictor")
    if predictor not in PREDICT_PREDICTORS:
        raise SpecError(f"unknown predictor {predictor!r}; choose from "
                        f"{sorted(PREDICT_PREDICTORS)}")
    _validate_benchmarks([params.get("bench")])
    allowed = set(PREDICT_COMMON_KEYS) | set(PREDICT_PREDICTORS[predictor])
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise SpecError(f"predict[{predictor}] does not accept "
                        f"{unknown}; allowed: {sorted(allowed)}")


def _validate_benchmarks(names: Sequence[Any]) -> None:
    # Any resolvable workload is a valid campaign axis: the synthetic
    # suite, the adversarial bank, and imported traces.
    from ..trace.workloads import is_known, known_names

    bad = [n for n in names if not is_known(n)]
    if bad:
        raise SpecError(f"unknown workload(s) {bad}; choose from "
                        f"{known_names()}")
