"""Deterministic run serialization: snapshot CSVs, a metrics stream, and a
checksummed manifest.

Numbers are written with 17 significant decimal digits so parsing an
emitted file reproduces the in-memory doubles bitwise.  Identical
(config, version) pairs produce byte-identical data files; the manifest
additionally records the wall-clock duration and the march's phase
timings (``RunResult.timings``) when a duration is supplied.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import IoError
from .scenarios import (METRIC_FIELDS, RunResult, level_interp, level_v1,
                        pathline_levels)

SNAPSHOT_COLUMNS = ("x2", "v1", "v2", "Fe11", "Fe12", "Fe21", "Fe22", "p", "rho")
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
    stored_levels: int
    history_bytes: int
    duration_seconds: float | None
    timings: dict | None
    snapshots: list
    files: list

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _snapshot_indices(n_records: int, n_snapshots: int) -> list[int]:
    k = min(n_snapshots, n_records)
    return sorted(set(np.linspace(0, n_records - 1, k).round().astype(int).tolist()))


def _write_table(path: Path, header: str, row_format: str, tables) -> None:
    """Write a CSV header and one ``row_format`` line per row of each of
    ``tables``, in order.

    Rows are formatted and written ``BLOCK_ROWS`` at a time through one open
    file, so no text of a whole table is ever held, and ``tables`` may be
    made one at a time as they are written.  One %-format per row:
    ``"%.17g"`` writes the same bytes as ``fmt``.
    """
    line_format = row_format + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for table in tables:
            for start in range(0, len(table), BLOCK_ROWS):
                block = table[start:start + BLOCK_ROWS].tolist()
                f.write("".join(line_format % tuple(row) for row in block))


def _write_snapshot(path: Path, rec) -> None:
    v1 = 0.5 * (rec.v_nodes[:-1] + rec.v_nodes[1:])
    n = rec.grid.n_cells
    table = np.column_stack([rec.grid.centers, v1, np.zeros(n),
                             *rec.F_e_columns(), rec.p, rec.rho])
    _write_table(path, ",".join(SNAPSHOT_COLUMNS),
                 ",".join(["%.17g"] * len(SNAPSHOT_COLUMNS)), [table])


def _write_metrics(path: Path, result: RunResult) -> None:
    """Write the header and one ``json.dumps(row, sort_keys=True)`` line per
    stored level, each step row made by one precompiled %-format.

    A step row holds ``"type": "step"``, the march step ``"step": k`` of the
    level (``t = k dt``) and every metric and oracle error as its ``fmt``
    string, which ``"%.17g"`` writes, each read from its per-level column;
    the template lists the keys in sorted order with json's separators, and
    the values need no escaping.  Rows go through the buffered file one at
    a time, so no text of the whole stream is held.
    """
    fields = list(METRIC_FIELDS) + sorted(result.oracle_errors)
    header = json.dumps({"type": "header", "fields": fields}, sort_keys=True)
    slots = {name: '"%.17g"' for name in fields}
    slots.update(step="%d", type='"step"')
    keys = sorted(slots)
    template = "{" + ", ".join(f'"{key}": {slots[key]}' for key in keys) + "}\n"
    history = result.history
    columns = {"step": history.step, **history.metrics, **result.oracle_errors}
    rows = zip(*(columns[key].tolist() for key in keys if key != "type"))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        f.writelines(template % row for row in rows)


def _write_pathlines(path: Path, result: RunResult) -> None:
    """Write every pathline sample with ``v1`` and ``p`` interpolated at its
    stored level, one pathline's table at a time; both are gathered for all
    samples at once (``level_v1``, ``level_interp``)."""
    pathlines = result.pathlines
    history = result.history
    level, x2 = pathline_levels(history, pathlines)
    v1 = level_v1(history, level, x2)
    p = level_interp(history, level, x2, history.p)
    bounds = np.cumsum([0] + [len(pl.t) for pl in pathlines]).tolist()
    tables = (np.column_stack([np.full(b - a, i), pl.t, pl.x, pl.F_e.reshape(-1, 4),
                               v1[a:b], np.zeros(b - a), p[a:b]])
              for i, (pl, a, b) in enumerate(zip(pathlines, bounds, bounds[1:])))
    _write_table(path, "pathline,t,x1,x2,Fe11,Fe12,Fe21,Fe22,v1,v2,p",
                 "%d" + ",%.17g" * 10, tables)


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
        history = result.history
        snapshots = []
        for ordinal, idx in enumerate(_snapshot_indices(len(history),
                                                        cfg.n_snapshots)):
            rec = history[idx]
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
                  "n_active": int(history.m[-1]),
                  "final_height": float(history.H[-1]),
                  "cell_steps": int(history.m.sum())},
            # dt over the explicit relaxation bound, G dt F_e22^2 / mu (<= 1)
            time={"dt": dt, "n_steps": n_steps, "t_end": cfg.t_end,
                  "stability_margin": dt / cfg.relaxation_bound},
            stored_levels=len(history),
            history_bytes=history.nbytes,
            duration_seconds=duration_seconds,
            # wall-clock, so written only beside the duration
            timings=dict(result.timings) if duration_seconds is not None else None,
            snapshots=snapshots,
            files=files,
        )
        (out / "manifest.json").write_text(manifest.to_json(), encoding="utf-8",
                                           newline="\n")
        return manifest
    except OSError as exc:
        raise IoError(f"failed writing run outputs to {out}: {exc}") from exc
