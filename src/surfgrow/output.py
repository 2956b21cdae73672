"""Deterministic run serialization: snapshot CSVs, a metrics stream, and a
checksummed manifest.

Every number is written as the bytes of ``b"%.17g" % x``, ``fmt``'s text,
so parsing an emitted file reproduces the in-memory doubles bitwise; the
integer columns (steps, pathline indices) go through the same path, which
prints an integer below 2**53 as ``%d`` does.  The text comes from the
kernel ``g17.g17``, exact by construction: a value goes through Python's
``%`` one at a time only where the kernel cannot certify its digits, an
infinity or a NaN, a value whose 17-digit rounding lies within 2**-40 of a
tie (exact ties among them) or one whose decimal exponent is not settled
in its passes.  A table's rows are made a block at a time
(``format_rows``): the fixed text between the values and one field per
value are laid out in one byte matrix, NUL where a byte is not shown,
and the block's bytes are that matrix with its NULs deleted.  A block
holds as many rows as ``BLOCK_BYTES`` allows, so the writer's peak does
not grow with the run.  A column that holds one bit pattern over a table
is formatted once, by ``fmt``, into the row's fixed text.  Pathlines,
with the ``v1`` of their trace (``HistoryPathline.v1``), are written a
window of whole pathlines at a time (``scenarios.pathline_windows``), and
each data file is hashed and counted as its blocks are written, so no
pass holds every sample or a whole file, and no file is read back.
Identical (config, version) pairs produce byte-identical data files; the
manifest additionally records the wall-clock duration and the march's
phase timings (``RunResult.timings``) when a duration is supplied.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import IoError, ValidationError
from .g17 import WIDTH, g17
from .scenarios import METRIC_FIELDS, RunResult, level_interp, pathline_windows

SNAPSHOT_COLUMNS = ("x2", "v1", "v2", "Fe11", "Fe12", "Fe21", "Fe22", "p", "rho")
# Bytes a block of rows may hold.  The kernel's layout holds per value its
# slot of the byte matrix and _VALUE_BYTES (its float64, its digits and the
# layout's temporaries, measured at about 90); the compaction holds the
# slots and the text twice, at most _LONGEST bytes a value and the rows'
# fixed text.  The kernel's arithmetic, about 100 bytes a value, comes first.
BLOCK_BYTES = 1 << 18
_VALUE_BYTES = 90
_LONGEST = len("-2.2250738585072014e-308")  # the longest %.17g text


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


def _snapshot_indices(n_records: int, n_snapshots: int) -> list[int]:
    """Up to ``n_snapshots`` levels evenly spaced over ``n_records``, the
    first and the last among them; one snapshot is the last level."""
    k = min(n_snapshots, n_records)
    if k == 1:
        return [n_records - 1]
    return sorted(set(np.linspace(0, n_records - 1, k).round().astype(int).tolist()))


def _slots(fixed: list[bytes]) -> tuple[list[bytes], int]:
    """The text before each value of a row (``format_rows``) and the bytes
    that the longest takes."""
    texts = [fixed[-1] + fixed[0]] + fixed[1:-1]
    return texts, max(map(len, texts))


def format_rows(fixed: list[bytes], columns: list[np.ndarray]) -> np.ndarray:
    """The bytes, as uint8, of the rows ``fixed[0] + %.17g(columns[0][i]) +
    fixed[1] + ... + fixed[-1]``, one a row ``i`` of the equally long
    ``columns``; integers below 2**53 print as ``%d`` does.

    The rows' values are laid out by one call of the kernel, each in a slot
    of ``pad + WIDTH`` bytes after the text before it, right-aligned on NULs
    (a row's first value: the last text of the row before and its first
    text), and the slots are compacted by deleting their NULs, so ``fixed``
    may hold none.
    """
    if any(b"\0" in text for text in fixed):
        raise ValidationError("a row's fixed text may not hold a NUL byte")
    texts, pad = _slots(fixed)
    text = np.frombuffer(b"".join(text.rjust(pad, b"\0") for text in texts), np.uint8)
    chars = g17(np.stack(columns, axis=1).reshape(-1),
                text.reshape(len(texts), pad)).translate(None, b"\0")
    del chars[:len(fixed[-1])]  # the first row's text is fixed[0] alone
    if chars:
        chars += fixed[-1]
    return np.frombuffer(chars, np.uint8)


def _constant(column: np.ndarray) -> bool:
    """Whether every row of a nonempty ``column`` holds its first row's bits,
    so ``-0.0`` and ``0.0``, or two NaN payloads, never count as one value."""
    bits = column.view(np.uint64)
    return len(bits) > 0 and bool((bits == bits[0]).all())


def _table_blocks(parts: list) -> Iterator[bytes | np.ndarray]:
    """The bytes of a table's rows, a block at a time.

    ``parts`` is the row in order: fixed text (``str``) and columns of
    numbers, the longest of which sets the rows; a column of one row holds
    its value on every row.  A column that holds one value over the table
    is written once into the row's fixed text, by ``fmt``, so only the
    columns that vary are formatted per row (``format_rows``), as many rows
    at a time as ``BLOCK_BYTES`` allows.
    """
    fixed, columns, text = [], [], ""
    n = max(len(part) for part in parts if not isinstance(part, str))
    for part in parts:
        if isinstance(part, str):
            text += part
        elif _constant(part):
            text += fmt(part[0])
        else:
            fixed.append(text.encode())
            columns.append(part)
            text = ""
    fixed.append(text.encode())
    c, slot, text = len(columns), _slots(fixed)[1] + WIDTH, 2 * sum(map(len, fixed))
    rows = max(1, BLOCK_BYTES // max(c * (slot + _VALUE_BYTES),
                                     c * (slot + 2 * _LONGEST) + text))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        yield (format_rows(fixed, [column[start:stop] for column in columns]) if columns
               else fixed[0] * (stop - start))


def _csv_blocks(header: tuple[str, ...], tables) -> Iterator[bytes | np.ndarray]:
    """A CSV file's header and the rows of each of ``tables``, in order; a
    table lists its columns (``_table_blocks``), a ``str`` for fixed text,
    and may be made as it is written."""
    yield (",".join(header) + "\n").encode()
    for columns in tables:
        parts = [part for column in columns for part in (column, ",")]
        yield from _table_blocks(parts[:-1] + ["\n"])


def _write(path: Path, blocks) -> dict:
    """Write ``blocks`` of bytes to ``path`` in order; return its manifest
    entry, hashed and counted from the blocks as they are written."""
    digest, size = hashlib.sha256(), 0
    with open(path, "wb") as f:
        for block in blocks:
            f.write(block)
            digest.update(block)
            size += len(block)
    return {"name": path.name, "sha256": digest.hexdigest(), "bytes": size}


def _write_snapshots(out: Path, history, levels: list[int]) -> tuple[list[dict], list[dict]]:
    """Write level ``levels[i]``'s cells to ``snapshot_{i:04d}.csv``; return
    the manifest's snapshot entries and file entries.  Each level is read
    through the history's map without building its record: ``x2`` is a
    prefix of the run's centers; ``Fe11``, ``Fe21``, ``Fe22``, ``p`` and
    ``rho`` are prefixes of its per-cell constants; ``Fe12`` is
    ``source[0, History.index(k)]``; ``v2`` is 0."""
    centers, F_e0 = history.centers, history.F_e0
    snapshots, files = [], []
    for ordinal, k in enumerate(levels):
        mk = int(history.m[k])
        v_nodes = history.v_nodes(k)
        name = f"snapshot_{ordinal:04d}.csv"
        files.append(_write(out / name, _csv_blocks(SNAPSHOT_COLUMNS, [[
            centers[:mk], 0.5 * (v_nodes[:-1] + v_nodes[1:]), "0", F_e0[:mk, 0, 0],
            history.source[0, history.index(k)], F_e0[:mk, 1, 0], F_e0[:mk, 1, 1],
            history.p[:mk], history.rho[:mk]]])))
        snapshots.append({"file": name, "step": int(history.step[k]),
                          "t": fmt(history.t[k]), "n_active": mk})
    return snapshots, files


def _metrics_blocks(result: RunResult) -> Iterator[bytes | np.ndarray]:
    """The header and one ``json.dumps(row, sort_keys=True)`` line per stored
    level.

    A step row holds ``"type": "step"``, the march step ``"step": k`` of the
    level (``t = k dt``) and every metric and oracle error as its ``fmt``
    string, each read from its per-level column; the row lists the keys in
    sorted order with json's separators, and the values need no escaping.
    """
    fields = list(METRIC_FIELDS) + sorted(result.oracle_errors)
    yield (json.dumps({"type": "header", "fields": fields}, sort_keys=True) + "\n").encode()
    history = result.history
    columns = {"step": history.step, **history.metrics, **result.oracle_errors}
    parts = []
    for key in sorted([*columns, "type"]):
        parts += [", " if parts else "{", f'"{key}": ']
        if key == "type":
            parts.append('"step"')
        elif key == "step":
            parts.append(columns[key])
        else:
            parts += ['"', columns[key], '"']
    yield from _table_blocks(parts + ["}\n"])


def _pathline_blocks(result: RunResult) -> Iterator[bytes | np.ndarray]:
    """Every pathline sample with its ``v1`` column and ``p`` interpolated at
    its stored level, one pathline's table at a time.  ``p`` is gathered
    for a window of whole pathlines at a time (``pathline_windows``,
    ``level_interp``), so the writer holds one window's samples.  A
    pathline's index, height, ``Fe11``, ``Fe21`` and ``Fe22`` are written
    once into its table's row text, and so is, on a uniform ``p``, its
    pressure."""
    history = result.history

    def tables():
        index = 0
        for window, level, x2 in pathline_windows(history, result.pathlines):
            p = level_interp(history, level, x2, history.p)
            a = 0
            for pl in window:
                b = a + len(pl.t)
                F11, _, F21, F22 = pl.F_e0.reshape(4, 1)
                yield [np.array([index]), pl.t, pl.x1, np.array([pl.x2]), F11, pl.F_e12,
                       F21, F22, pl.v1, "0", p[a:b]]
                index, a = index + 1, b

    return _csv_blocks(("pathline", "t", "x1", "x2", "Fe11", "Fe12", "Fe21", "Fe22",
                        "v1", "v2", "p"), tables())


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
    the stored history, first and last always included; a single snapshot
    is the last level).
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        cfg = result.config
        history = result.history
        # the pathlines first: gathering a window of their samples is the
        # writer's largest transient, which then comes before the text
        # kernel's tables are made
        files = [_write(out / "pathlines.csv", _pathline_blocks(result))] \
            if result.pathlines else []
        snapshots, written = _write_snapshots(
            out, history, _snapshot_indices(len(history), cfg.n_snapshots))
        files += written + [_write(out / "metrics.jsonl", _metrics_blocks(result))]
        dt, n_steps = cfg.resolve_dt()
        # every field, the material's among them, with H0 and dt as resolved
        echo = asdict(cfg)
        config_echo = {**echo.pop("params"), **echo, "H0": cfg.height0, "dt": dt}
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
            files=sorted(files, key=lambda f: f["name"]),
        )
        (out / "manifest.json").write_text(manifest.to_json(), encoding="utf-8",
                                           newline="\n")
        return manifest
    except OSError as exc:
        raise IoError(f"failed writing run outputs to {out}: {exc}") from exc
