"""Deterministic run serialization: snapshot CSVs, a metrics stream, and a
checksummed manifest.

Numbers are written with 17 significant decimal digits so parsing an
emitted file reproduces the in-memory doubles bitwise.  Identical
(config, version) pairs produce byte-identical data files; the manifest
additionally records the wall-clock duration when one is supplied.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import IoError
from .scenarios import RunResult, pathline_levels

SNAPSHOT_COLUMNS = ("x2", "v1", "v2", "Fe11", "Fe12", "Fe21", "Fe22", "p", "rho")
METRIC_FIELDS = ("t", "H", "mass_residual", "momentum_residual",
                 "traction_residual", "system_residual", "det_drift",
                 "max_F_e21", "max_p_dev")
# Rows of a CSV table formatted and written at a time.
BLOCK_ROWS = 1024


def fmt(x: float) -> str:
    """17-significant-digit decimal; round-trips 64-bit floats."""
    return format(float(x), ".17g")


@dataclass
class RunManifest:
    """Inventory of one run's outputs with SHA-256 checksums."""

    version: str
    config: dict
    grid: dict
    time: dict
    history_bytes: int
    duration_seconds: float | None
    snapshots: list
    files: list

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _snapshot_indices(n_records: int, n_snapshots: int) -> list[int]:
    if n_records == 0:
        return []
    k = min(n_snapshots, n_records)
    return sorted(set(np.linspace(0, n_records - 1, k).round().astype(int).tolist()))


def _write_table(path: Path, header: str, row_format: str, table: np.ndarray) -> None:
    """Write a CSV header and one ``row_format`` line per row of ``table``.

    Rows are formatted and written ``BLOCK_ROWS`` at a time through one open
    file, so no text of the whole table is ever held.  One %-format per row:
    ``"%.17g"`` writes the same bytes as ``fmt``.
    """
    line_format = row_format + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for start in range(0, len(table), BLOCK_ROWS):
            block = table[start:start + BLOCK_ROWS].tolist()
            f.write("".join(line_format % tuple(row) for row in block))


def _write_snapshot(path: Path, rec) -> None:
    v1 = 0.5 * (rec.v_nodes[:-1] + rec.v_nodes[1:])
    n = rec.grid.n_cells
    table = np.column_stack([rec.grid.centers, v1, np.zeros(n),
                             *rec.F_e_columns(), rec.p, rec.rho])
    _write_table(path, ",".join(SNAPSHOT_COLUMNS),
                 ",".join(["%.17g"] * len(SNAPSHOT_COLUMNS)), table)


def _write_metrics(path: Path, result: RunResult) -> None:
    """Write the header and one ``json.dumps(row, sort_keys=True)`` line per
    stored level, each step row made by one precompiled %-format.

    A step row holds ``"type": "step"``, the march step ``"step": k`` of the
    level (``t = k dt``) and every metric and
    oracle error as its ``fmt`` string, which ``"%.17g"`` writes; the
    template lists the keys in sorted order with json's separators, and the
    values need no escaping.
    """
    oracle_keys = sorted(k for k in result.oracle_errors if k != "t")
    fields = list(METRIC_FIELDS) + oracle_keys
    header = json.dumps({"type": "header", "fields": fields}, sort_keys=True)
    slots = {name: '"%.17g"' for name in fields}
    slots.update(step="%d", type='"step"')
    keys = sorted(slots)
    template = "{" + ", ".join(f'"{key}": {slots[key]}' for key in keys) + "}\n"
    history = result.history
    columns = {"step": [rec.step for rec in history]}
    columns.update((name, [rec.metrics[name] for rec in history])
                   for name in METRIC_FIELDS)
    columns.update((key, result.oracle_errors[key].tolist()) for key in oracle_keys)
    rows = zip(*(columns[key] for key in keys if key != "type"))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        f.write("".join(template % row for row in rows))


def _write_pathlines(path: Path, result: RunResult) -> None:
    pathlines = result.pathlines
    x2, groups = pathline_levels(result.history, pathlines)
    v1 = np.empty(len(x2))
    p = np.empty(len(x2))
    for j, idx in groups:
        rec = result.history[j]
        v1[idx] = np.interp(x2[idx], rec.grid.faces, rec.v_nodes)
        p[idx] = np.interp(x2[idx], rec.grid.centers, rec.p)
    index = np.concatenate([np.full(len(pl.t), i) for i, pl in enumerate(pathlines)])
    t = np.concatenate([pl.t for pl in pathlines])
    x = np.concatenate([pl.x for pl in pathlines])
    F = np.concatenate([pl.F_e for pl in pathlines]).reshape(-1, 4)
    table = np.column_stack([index, t, x, F, v1, np.zeros(len(t)), p])
    _write_table(path, "pathline,t,x1,x2,Fe11,Fe12,Fe21,Fe22,v1,v2,p",
                 "%d" + ",%.17g" * 10, table)


def _history_bytes(history) -> int:
    """Bytes of the arrays a stored run holds, from their sizes: each
    record's own ``F_e12`` and ``g``, plus every array the records share
    (``F_e0``, ``p``, ``rho``, held as views) once."""
    owned = sum(rec.F_e12.nbytes + rec.g.nbytes for rec in history)
    shared = {}
    for rec in history:
        for view in (rec.F_e0, rec.p, rec.rho):
            base = view if view.base is None else view.base
            shared[id(base)] = base.nbytes
    return owned + sum(shared.values())


def read_snapshot(path) -> dict:
    """Parse an emitted snapshot back into column arrays (bitwise faithful)."""
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = text[0].split(",")
    cols = {name: [] for name in header}
    for line in text[1:]:
        for name, tok in zip(header, line.split(",")):
            cols[name].append(float(tok))
    return {name: np.array(vals) for name, vals in cols.items()}


def write_fields(result: RunResult, out_dir,
                 duration_seconds: float | None = None) -> RunManifest:
    """Serialize a run: snapshot CSVs, metrics stream, pathlines, manifest.

    Snapshot count follows ``result.config.n_snapshots`` (evenly spaced over
    the stored history, first and last always included).
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        cfg = result.config
        snapshots = []
        for ordinal, idx in enumerate(_snapshot_indices(len(result.history),
                                                        cfg.n_snapshots)):
            rec = result.history[idx]
            name = f"snapshot_{ordinal:04d}.csv"
            _write_snapshot(out / name, rec)
            snapshots.append({"file": name, "step": rec.step, "t": fmt(rec.t),
                              "n_active": rec.grid.n_cells})
        _write_metrics(out / "metrics.jsonl", result)
        written = [s["file"] for s in snapshots] + ["metrics.jsonl"]
        if result.pathlines:
            _write_pathlines(out / "pathlines.csv", result)
            written.append("pathlines.csv")
        dt, n_steps = cfg.resolve_dt()
        config_echo = {"kind": cfg.kind, "G": cfg.params.G, "mu": cfg.params.mu,
                       "rho": cfg.params.rho, "alpha": cfg.alpha,
                       "H0": cfg.height0, "V_G": cfg.V_G, "h": cfg.h,
                       "v0": cfg.v0, "L": cfg.L, "n_cells": cfg.n_cells,
                       "dt": dt, "t_end": cfg.t_end,
                       "mu_sweep": list(cfg.sweep_values()),
                       "n_snapshots": cfg.n_snapshots}
        files = sorted(({"name": name, "sha256": _sha256(out / name),
                         "bytes": (out / name).stat().st_size}
                        for name in written), key=lambda f: f["name"])
        manifest = RunManifest(
            version=__version__,
            config=config_echo,
            # the fixed grid's spacing, the active cells of the last level
            # and the active cells summed over the solved levels
            grid={"n_cells": cfg.n_cells, "dx": cfg.eulerian_grid().dx,
                  "n_active": result.history[-1].grid.n_cells if result.history else 0,
                  "final_height": result.history[-1].grid.height if result.history else None,
                  "cell_steps": sum(rec.grid.n_cells for rec in result.history)},
            # dt over the explicit relaxation bound, G dt F_e22^2 / mu (<= 1)
            time={"dt": dt, "n_steps": n_steps, "t_end": cfg.t_end,
                  "stability_margin": dt / cfg.relaxation_bound},
            history_bytes=_history_bytes(result.history),
            duration_seconds=duration_seconds,
            snapshots=snapshots,
            files=files,
        )
        (out / "manifest.json").write_text(manifest.to_json(), encoding="utf-8",
                                           newline="\n")
        return manifest
    except OSError as exc:
        raise IoError(f"failed writing run outputs to {out}: {exc}") from exc
