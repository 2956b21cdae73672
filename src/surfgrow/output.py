"""Deterministic run serialization: snapshot CSVs, a metrics stream, and a
checksummed manifest.

Numbers are written with 17 significant decimal digits (``%.17g``, the
bytes of ``fmt``) so parsing an emitted file reproduces the in-memory
doubles bitwise.  Each distinct value is formatted as few times as the
layout allows: a column that holds one bit pattern over a table is written
once into the table's row format, and the snapshots' centers, per-cell
constants and ``F_e12`` values are formatted once per call, each distinct
bit pattern once, and their text gathered through the ``History`` map; only
the columns that vary go through ``%`` per row.  Pathlines are written a
window of whole pathlines at a time (``scenarios.pathline_windows``), and
each written file is hashed in 64 KiB blocks, so no pass holds every
sample or a whole file.  Identical (config,
version) pairs produce byte-identical data files; the manifest
additionally records the wall-clock duration and the march's phase
timings (``RunResult.timings``) when a duration is supplied.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .errors import IoError
from .scenarios import (METRIC_FIELDS, RunResult, level_interp, level_v1,
                        pathline_windows)

SNAPSHOT_COLUMNS = ("x2", "v1", "v2", "Fe11", "Fe12", "Fe21", "Fe22", "p", "rho")
# Rows of a table formatted and written at a time.  A block holds about
# 1 KB a row of ``metrics.jsonl`` (its row strings, their joined text and
# its Python floats): at 1024 rows writing a run of n = 400 peaked at
# 1.37 MB, above its march's 0.85 MB; at 256 it peaks at 0.55 MB, and the
# writers run no slower.
BLOCK_ROWS = 256


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
        return json.dumps(vars(self), indent=2, sort_keys=True) + "\n"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _snapshot_indices(n_records: int, n_snapshots: int) -> list[int]:
    k = min(n_snapshots, n_records)
    return sorted(set(np.linspace(0, n_records - 1, k).round().astype(int).tolist()))


class _Text:
    """A column of text: row ``i`` reads ``texts[index[i]]``, and a slice
    gathers its rows' text."""

    def __init__(self, texts: np.ndarray, index: np.ndarray):
        self.texts, self.index = texts, index

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, rows) -> np.ndarray:
        return self.texts[self.index[rows]]


def _format_once(values: np.ndarray) -> _Text:
    """``values`` as text, each distinct bit pattern formatted once (found by
    sorting the bits, as ``np.unique`` would without importing ``numpy.ma``)."""
    bits = values.view(np.uint64)
    order = np.argsort(bits)
    first = np.empty(len(bits), bool)  # where a new bit pattern starts, in order
    first[:1] = True
    np.not_equal(bits[order[1:]], bits[order[:-1]], out=first[1:])
    index = np.empty(len(bits), np.intp)
    index[order] = np.cumsum(first) - 1
    texts = np.array(list(map("%.17g".__mod__, values[order[first]].tolist())),
                     dtype=object)
    return _Text(texts, index)


def _constant(column) -> bool:
    """Whether every row of a nonempty ``column`` holds its first row's bits
    (a ``_Text``: its first row's text index), so ``-0.0`` and ``0.0``, or
    two NaN payloads, never count as one value."""
    bits = (column.index if isinstance(column, _Text) else column).view(np.uint64)
    return len(bits) > 0 and bool((bits == bits[0]).all())


def _row_format(slots: list[str], columns: list) -> tuple[list[str], list]:
    """The parts of a row's %-format and the columns it reads per row.

    ``slots[i]`` is column ``i``'s text with one %-conversion for its value,
    or fixed text where the column is ``None``.  A constant column's slot
    is formatted once, with its first value, into its part."""
    parts, varying = [], []
    for slot, column in zip(slots, columns):
        if column is not None and _constant(column):
            slot = slot % column[:1].tolist()[0]
        elif column is not None:
            varying.append(column)
        parts.append(slot)
    return parts, varying


def _write_rows(f, line: str, columns: list, n: int) -> None:
    """Write ``n`` rows ``line % row`` to the open file ``f``, ``row`` the next
    value of each of ``columns``, ``BLOCK_ROWS`` rows at a time, so no text
    of more rows is ever held."""
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        rows = (zip(*(column[start:stop].tolist() for column in columns)) if columns
                else repeat((), stop - start))
        f.write("".join(map(line.__mod__, rows)))


def _write_table(path: Path, header: str, slots: list[str], tables) -> None:
    """Write a CSV header and the rows of each of ``tables``, in order, through
    one open file; ``tables`` may be made one at a time as they are written.

    A table is a list of columns, each an array of numbers or a ``_Text``,
    written with its slot of ``slots`` (``"%.17g"`` writes the bytes of
    ``fmt``; ``"%s"`` for text; fixed text for a ``None`` column); the
    longest sets the table's rows, and a column of one row holds its value
    on every row.  A column that holds one value over the table is written
    once into the table's row format, so only the columns that vary go
    through ``%`` per row (``_row_format``, ``_write_rows``).
    """
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for columns in tables:
            parts, varying = _row_format(slots, columns)
            _write_rows(f, ",".join(parts) + "\n", varying,
                        max(len(column) for column in columns if column is not None))


def _write_snapshots(out: Path, history, levels: list[int]) -> list[dict]:
    """Write level ``levels[i]``'s cells to ``snapshot_{i:04d}.csv`` and return
    the manifest's snapshot entries, reading each level through the
    history's map without building its record.

    ``x2`` is a prefix of the run's centers; ``Fe11``, ``Fe21``, ``Fe22``,
    ``p`` and ``rho`` are prefixes of its per-cell constants; ``Fe12`` is
    ``source[0, History.index(k)]``; ``v2`` is 0.  The centers and
    constants of the cells that the snapshots hold and the ``F_e12`` values
    that they read are formatted once per call, each distinct bit pattern
    once (``_format_once``), and their text gathered by index; only ``v1``
    is formatted per row.
    """
    m = history.m[levels].tolist()
    cells = max(m)
    F_e0 = history.F_e0[:cells]
    per_cell = [_format_once(values) for values in (
        history.centers[:cells], F_e0[:, 0, 0], F_e0[:, 1, 0], F_e0[:, 1, 1],
        history.p[:cells], history.rho[:cells])]
    F12 = _format_once(history.source[0, np.concatenate([history.index(k) for k in levels])])
    slots = ["%s", "%.17g", "0"] + ["%s"] * 6
    snapshots = []
    for ordinal, (k, mk, row) in enumerate(zip(levels, m, np.cumsum([0] + m).tolist())):
        x2, F11, F21, F22, p, rho = (_Text(c.texts, c.index[:mk]) for c in per_cell)
        v_nodes = history.v_nodes(k)
        name = f"snapshot_{ordinal:04d}.csv"
        _write_table(out / name, ",".join(SNAPSHOT_COLUMNS), slots,
                     [[x2, 0.5 * (v_nodes[:-1] + v_nodes[1:]), None, F11,
                       _Text(F12.texts, F12.index[row:row + mk]),
                       F21, F22, p, rho]])
        snapshots.append({"file": name, "step": int(history.step[k]),
                          "t": fmt(history.t[k]), "n_active": mk})
    return snapshots


def _write_metrics(path: Path, result: RunResult) -> None:
    """Write the header and one ``json.dumps(row, sort_keys=True)`` line per
    stored level, each step row made by one %-format.

    A step row holds ``"type": "step"``, the march step ``"step": k`` of the
    level (``t = k dt``) and every metric and oracle error as its ``fmt``
    string, which ``"%.17g"`` writes, each read from its per-level column;
    the format lists the keys in sorted order with json's separators, and
    the values need no escaping.  A column that holds one value over the
    run is written once into the format (``_row_format``), and the rows go
    through the file ``BLOCK_ROWS`` at a time.
    """
    fields = list(METRIC_FIELDS) + sorted(result.oracle_errors)
    header = json.dumps({"type": "header", "fields": fields}, sort_keys=True)
    slots = {name: '"%.17g"' for name in fields}
    slots.update(step="%d", type='"step"')
    keys = sorted(slots)
    history = result.history
    columns = {"step": history.step, **history.metrics, **result.oracle_errors,
               "type": None}
    parts, varying = _row_format([f'"{key}": {slots[key]}' for key in keys],
                                 [columns[key] for key in keys])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        _write_rows(f, "{" + ", ".join(parts) + "}\n", varying, len(history))


def _write_pathlines(path: Path, result: RunResult) -> None:
    """Write every pathline sample with ``v1`` and ``p`` interpolated at its
    stored level, one pathline's table at a time.  Both are gathered for a
    window of whole pathlines at a time (``pathline_windows``, ``level_v1``,
    ``level_interp``), so the writer holds one window's samples.  A
    pathline's index, height, ``Fe11``, ``Fe21`` and ``Fe22`` are written
    once into its table's row format, and so is, on a uniform ``p``, its
    pressure."""
    history = result.history

    def tables():
        index = 0
        for window, level, x2 in pathline_windows(history, result.pathlines):
            v1 = level_v1(history, level, x2, result.classes)
            p = level_interp(history, level, x2, history.p)
            a = 0
            for pl in window:
                b = a + len(pl.t)
                F11, _, F21, F22 = pl.F_e0.reshape(4, 1)
                yield [np.array([index]), pl.t, pl.x1, np.array([pl.x2]), F11, pl.F_e12,
                       F21, F22, v1[a:b], None, p[a:b]]
                index, a = index + 1, b

    _write_table(path, "pathline,t,x1,x2,Fe11,Fe12,Fe21,Fe22,v1,v2,p",
                 ["%d"] + ["%.17g"] * 8 + ["0", "%.17g"], tables())


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
        snapshots = _write_snapshots(
            out, history, _snapshot_indices(len(history), cfg.n_snapshots))
        _write_metrics(out / "metrics.jsonl", result)
        written = [s["file"] for s in snapshots] + ["metrics.jsonl"]
        if result.pathlines:
            _write_pathlines(out / "pathlines.csv", result)
            written.append("pathlines.csv")
        dt, n_steps = cfg.resolve_dt()
        # every field, the material's among them, with H0 and dt as resolved
        echo = asdict(cfg)
        config_echo = {**echo.pop("params"), **echo, "H0": cfg.height0, "dt": dt}
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
