import json
from dataclasses import replace

import numpy as np
import pytest

import surfgrow.output
from surfgrow import (History, MaterialParams, ParseError, PathlineRecord, RunResult,
                      ScenarioConfig, ValidationError, parse_config, read_snapshot,
                      run_fdm_shear, run_non_normal, run_scenario,
                      trace_history_pathlines, write_fields)
from surfgrow.config import read_pairs
from surfgrow.output import METRIC_FIELDS, SNAPSHOT_COLUMNS, fmt
from surfgrow.scenarios import BLOCK_CELLS, block_bounds
from surfgrow.tensors import identity
from surfgrow.verify import default_config


def write_cfg(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


MINIMAL = """\
# minimal sheared-attachment setup
kind = non_normal
alpha = 0.5
G = 1.0
mu = 0.1
V_G = 1.0
t_end = 1.0
"""


def test_parse_minimal_config_applies_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.kind == "non_normal"
    assert cfg.n_cells == 200
    assert cfg.height0 == 0.0
    dt, n_steps = cfg.resolve_dt()
    assert dt == pytest.approx(1.0 / 800)
    assert n_steps * dt == pytest.approx(cfg.t_end)


def test_parse_rejects_negative_modulus(tmp_path):
    with pytest.raises(ValidationError, match="G"):
        parse_config(write_cfg(tmp_path, "kind = non_normal\nG = -2.0\n"))


def test_parse_rejects_unknown_key(tmp_path):
    with pytest.raises(ParseError, match="wobble"):
        parse_config(write_cfg(tmp_path, "kind = thermal\nwobble = 3\n"))


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        read_pairs("kind = thermal\nnot a pair\n")
    with pytest.raises(ParseError, match="line 3"):
        read_pairs("kind = thermal\n\nalpha = oops\n")
    with pytest.raises(ParseError, match="duplicate"):
        read_pairs("kind = thermal\nkind = thermal\n")


def test_parse_missing_file():
    with pytest.raises(ParseError, match="not found"):
        parse_config("/nonexistent/path.cfg")


def test_parse_unreadable_file_names_it(tmp_path, monkeypatch):
    # a file that is not UTF-8 used to raise UnicodeDecodeError
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"kind = non_normal\n\xff\n")
    with pytest.raises(ParseError, match=f"^cannot read config file {path}: "):
        parse_config(path)

    def refuse(*args, **kwargs):
        raise PermissionError("refused")

    path = write_cfg(tmp_path, MINIMAL)
    monkeypatch.setattr(type(path), "read_text", refuse)
    with pytest.raises(ParseError, match=f"^cannot read config file {path}: refused"):
        parse_config(path)


def _tiny_config(n_cells=16):
    return ScenarioConfig(kind="fdm_shear", params=MaterialParams(mu=1.0),
                          H0=1.0, n_cells=n_cells, t_end=0.5, n_snapshots=3)


def test_write_fields_single_snapshot_row_count(tmp_path):
    # one level of 4 cells
    history = History(t=np.zeros(1), step=np.zeros(1, dtype=int), H=np.ones(1),
                      m=np.array([4]), start=np.zeros(1, dtype=int), v_surf=np.zeros(1),
                      metrics={k: np.zeros(1) for k in METRIC_FIELDS},
                      source=np.zeros((2, 4)), col=np.arange(4), F_e0=identity((4,)),
                      p=np.ones(4), rho=np.ones(4), dx=0.25, dt=0.5)
    result = RunResult(config=_tiny_config(), history=history)
    manifest = write_fields(result, tmp_path / "out")
    lines = (tmp_path / "out" / "snapshot_0000.csv").read_text().splitlines()
    assert lines[0] == ",".join(SNAPSHOT_COLUMNS)
    assert len(lines) == 5
    assert len(manifest.snapshots) == 1


def test_snapshot_roundtrip_is_bitwise(tmp_path):
    res = run_fdm_shear(_tiny_config())
    write_fields(res, tmp_path / "out")
    data = read_snapshot(tmp_path / "out" / "snapshot_0000.csv")
    rec = res.history[0]
    np.testing.assert_array_equal(data["x2"], rec.grid.centers)
    np.testing.assert_array_equal(data["Fe12"], rec.F_e12)
    np.testing.assert_array_equal(data["p"], rec.p)
    v1 = 0.5 * (rec.v_nodes[:-1] + rec.v_nodes[1:])
    np.testing.assert_array_equal(data["v1"], v1)


def test_reruns_are_byte_identical(tmp_path):
    for sub in ("a", "b"):
        write_fields(run_fdm_shear(_tiny_config()), tmp_path / sub)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_manifest_matches_directory(tmp_path):
    res = run_fdm_shear(_tiny_config())
    manifest = write_fields(res, tmp_path / "out", duration_seconds=1.25)
    on_disk = {p.name for p in (tmp_path / "out").iterdir()}
    assert on_disk == {f["name"] for f in manifest.files} | {"manifest.json"}
    parsed = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert parsed["duration_seconds"] == 1.25
    assert parsed["version"] and parsed["config"]["kind"] == "fdm_shear"
    assert all(len(f["sha256"]) == 64 for f in parsed["files"])


def test_manifest_timings_only_beside_a_duration(tmp_path):
    res = run_fdm_shear(_tiny_config())
    # the march's and the block pass's wall time, the block pass's phases,
    # which sum to it, and the run's counts
    assert sorted(res.timings) == ["blocks", "cell_levels", "check_s", "levels", "march_s",
                                   "metrics_s", "oracle_s", "solve_s"]
    assert res.timings["march_s"] > 0 and res.timings["check_s"] > 0
    assert res.timings["check_s"] == (res.timings["solve_s"] + res.timings["metrics_s"]
                                      + res.timings["oracle_s"])
    history = res.history
    assert (res.timings["levels"], res.timings["cell_levels"]) == (len(history),
                                                                  int(history.m.sum()))
    assert res.timings["blocks"] == len(block_bounds(history.m, BLOCK_CELLS))
    timed = write_fields(res, tmp_path / "timed", duration_seconds=1.25)
    parsed = json.loads((tmp_path / "timed" / "manifest.json").read_text())
    assert parsed["timings"] == res.timings
    assert parsed["stored_levels"] == timed.stored_levels == len(res.history)
    untimed = write_fields(res, tmp_path / "untimed")
    parsed = json.loads((tmp_path / "untimed" / "manifest.json").read_text())
    assert parsed["timings"] is None and parsed["duration_seconds"] is None
    assert parsed["stored_levels"] == len(res.history)
    # the checksummed files do not depend on the timings, and a rerun,
    # timed afresh, writes the same manifest bytes without a duration
    assert timed.files == untimed.files
    rerun = run_fdm_shear(_tiny_config())
    assert rerun.timings != res.timings
    write_fields(rerun, tmp_path / "again")
    assert (tmp_path / "again" / "manifest.json").read_bytes() == \
        (tmp_path / "untimed" / "manifest.json").read_bytes()


@pytest.mark.parametrize("kind", ["non_normal", "fdm_shear", "thermal"])
def test_manifest_records_stability_margin(tmp_path, kind):
    cfg = replace(default_config(kind), n_cells=16)
    write_fields(run_scenario(cfg), tmp_path / "out")
    time = json.loads((tmp_path / "out" / "manifest.json").read_text())["time"]
    # G dt / mu for every kind: thermal's F_e22 = 1/alpha only ever
    # multiplies F_e12 = 0
    expected = cfg.params.G * time["dt"] / cfg.params.mu
    assert time["stability_margin"] == pytest.approx(expected, rel=1e-14)
    assert 0 < time["stability_margin"] <= 1


def _reference_snapshot(rec) -> str:
    # one fmt call per value
    v1 = 0.5 * (rec.v_nodes[:-1] + rec.v_nodes[1:])
    rows = [",".join(SNAPSHOT_COLUMNS)]
    for j, x2 in enumerate(rec.grid.centers):
        F = rec.F_e[j]
        rows.append(",".join(fmt(v) for v in
                             (x2, v1[j], 0.0, F[0, 0], F[0, 1], F[1, 0], F[1, 1],
                              rec.p[j], rec.rho[j])))
    return "\n".join(rows) + "\n"


def _reference_pathlines(result) -> str:
    # sample by sample: clamped stored level, clamped height, fmt per value
    history = result.history
    t0, dt, last = history[0].t, history[1].t - history[0].t, len(history) - 1
    lines = ["pathline,t,x1,x2,Fe11,Fe12,Fe21,Fe22,v1,v2,p"]
    for i, pl in enumerate(result.pathlines):
        for m, t in enumerate(pl.t):
            rec = history[min(max(int(round((t - t0) / dt)), 0), last)]
            x2 = min(max(pl.x[m, 1], 0.0), rec.grid.height)
            v1 = float(np.interp(x2, rec.grid.faces, rec.v_nodes))
            p = float(np.interp(x2, rec.grid.centers, rec.p))
            F = pl.F_e[m]
            lines.append(",".join([str(i)] + [fmt(v) for v in
                                              (t, pl.x[m, 0], pl.x[m, 1],
                                               F[0, 0], F[0, 1], F[1, 0], F[1, 1],
                                               v1, 0.0, p)]))
    return "\n".join(lines) + "\n"


def _odd_values_result(metrics=None):
    # values whose text is easy to get wrong: signed zero, the smallest
    # subnormal, a repeating fraction, nan (two payloads) and infinities;
    # three levels of 1, 3 and 4 cells on one spacing (a one-row snapshot),
    # holding prefixes of one F_e0, p and rho (rho: zeros but for one -0.0);
    # pathlines with a column constant but for a zero's sign and one of two
    # NaN payloads, and one of a single sample, whose every column is
    # constant (``metrics``: each level's row, zeros by default)
    nan2 = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)
    odd = np.array([-0.0, 5e-324, 1.0 / 3.0, np.nan, np.inf, -np.inf, -5e-324, 1e300])
    dx, m = 0.25, np.array([1, 3, 4])
    # v_nodes is the running sum of dx g
    g = [np.roll(odd, k)[:mk] / dx for k, mk in enumerate(m)]
    F_e12 = [np.roll(odd, 2 * k)[:mk] for k, mk in enumerate(m)]
    F_e12[2][:2] = np.nan, nan2[0]
    rows = metrics or [{name: 0.0 for name in METRIC_FIELDS}] * 3
    history = History(
        t=0.5 * np.arange(3), step=np.arange(3), H=np.array([0.5, 0.75, 1.0]), m=m,
        start=np.cumsum(m) - m, v_surf=np.array([np.sum(dx * gk) for gk in g]),
        metrics={name: np.array([row[name] for row in rows]) for name in rows[0]},
        source=np.stack([np.concatenate(F_e12), np.concatenate(g)]),
        col=np.arange(4), F_e0=odd.reshape(2, 2, 2).repeat(2, 0), p=odd[3:7].copy(),
        rho=np.array([0.0, 0.0, -0.0, 0.0]), dx=dx, dt=0.5)
    sign_and_payload = np.resize([1.0, 0.0, 0.0, 1.0], (3, 2, 2))
    sign_and_payload[:, 1, 0] = [np.nan, nan2[0], np.nan]
    pathlines = [
        PathlineRecord(t=[-0.0, 1.0 / 3.0, 0.9, 1.4],
                       x=[[-0.0, 5e-324], [1.0 / 3.0, -0.0], [5e-324, 0.9], [0.0, 2.0]],
                       F_e=np.resize(odd, (4, 2, 2))),
        PathlineRecord(t=[0.5, 1.0], x=[[0.0, 1.0 / 3.0], [1e300, -1.0]],
                       F_e=np.resize(odd[::-1], (2, 2, 2))),
        PathlineRecord(t=[0.7], x=[[-0.0, 0.6]], F_e=np.resize(odd[2:6], (1, 2, 2))),
        PathlineRecord(t=[0.1, 0.6, 1.1], x=[[0.0, 0.3], [-0.0, 0.3], [0.0, 0.3]],
                       F_e=sign_and_payload),
    ]
    return RunResult(config=_tiny_config(), history=history, pathlines=pathlines)


def test_csv_rows_match_per_value_fmt(tmp_path):
    res = run_non_normal(ScenarioConfig(kind="non_normal", n_cells=32, t_end=0.5,
                                        n_snapshots=4))
    res.pathlines = trace_history_pathlines(res, count=5)
    for name, result in (("run", res), ("odd", _odd_values_result())):
        out = tmp_path / name
        result.final  # a kept record, which the writers must leave as it is
        found = dict(result.history._records)
        manifest = write_fields(result, out)
        kept = result.history._records
        assert kept.keys() == found.keys() and all(kept[k] is found[k] for k in found)
        assert manifest.snapshots
        by_step = {rec.step: rec for rec in result.history}
        for snap in manifest.snapshots:
            expected = _reference_snapshot(by_step[snap["step"]])
            assert (out / snap["file"]).read_bytes() == expected.encode(), snap["file"]
        assert (out / "pathlines.csv").read_bytes() == \
            _reference_pathlines(result).encode()
    text = (tmp_path / "odd" / "pathlines.csv").read_text()
    for token in ("-0", "4.9406564584124654e-324", "0.33333333333333331", "nan", "-inf"):
        assert token in text.replace("\n", ",").split(","), token
    snapshots = [(tmp_path / "odd" / f"snapshot_{i:04d}.csv").read_text().splitlines()
                 for i in range(3)]
    assert [len(lines) - 1 for lines in snapshots] == [1, 3, 4]
    assert [line.split(",")[-1] for line in snapshots[2][1:]] == ["0", "0", "-0", "0"]
    assert [line.split(",")[4] for line in snapshots[2][1:3]] == ["nan", "nan"]


def test_csv_blocks_write_the_same_bytes(tmp_path, monkeypatch):
    # rows are written a block at a time; block edges must not show
    res = run_non_normal(ScenarioConfig(kind="non_normal", n_cells=32, t_end=0.5,
                                        n_snapshots=3))
    res.pathlines = trace_history_pathlines(res, count=4)
    write_fields(res, tmp_path / "whole")
    monkeypatch.setattr(surfgrow.output, "BLOCK_ROWS", 5)
    write_fields(res, tmp_path / "blocks")
    names = sorted(f.name for f in (tmp_path / "whole").iterdir())
    assert "pathlines.csv" in names and "snapshot_0002.csv" in names
    for name in names:
        assert (tmp_path / "blocks" / name).read_bytes() == \
            (tmp_path / "whole" / name).read_bytes(), name


def test_no_pathlines_writes_no_pathline_file(tmp_path):
    res = run_fdm_shear(_tiny_config())
    assert res.pathlines == []
    manifest = write_fields(res, tmp_path / "out")
    assert not (tmp_path / "out" / "pathlines.csv").exists()
    assert "pathlines.csv" not in {f["name"] for f in manifest.files}


def _reference_metrics(result) -> str:
    # one json.dumps per row
    oracle_keys = sorted(result.oracle_errors)
    lines = [json.dumps({"type": "header", "fields": list(METRIC_FIELDS) + oracle_keys},
                        sort_keys=True)]
    for k, rec in enumerate(result.history):
        row = {"type": "step", "step": rec.step}
        row.update({name: fmt(rec.metrics[name]) for name in METRIC_FIELDS})
        for key in oracle_keys:
            row[key] = fmt(result.oracle_errors[key][k])
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["non_normal", "fdm_shear", "thermal", "odd"])
def test_metrics_rows_match_json_dumps(tmp_path, kind):
    if kind == "odd":
        odd = [-0.0, 5e-324, 1.0 / 3.0, np.nan, np.inf, -np.inf, -5e-324, 1e300, 2.0]
        result = _odd_values_result(metrics=[
            {name: odd[(k + i) % len(odd)] for i, name in enumerate(METRIC_FIELDS)}
            for k in range(3)])
        result.oracle_errors = {"linf_F_e12": np.array(odd[3:6]),
                                "linf_v1": np.array(odd[:3])}
    else:
        result = run_scenario(replace(default_config(kind), n_cells=32))
    write_fields(result, tmp_path / "out")
    assert (tmp_path / "out" / "metrics.jsonl").read_bytes() == \
        _reference_metrics(result).encode()


@pytest.mark.parametrize("kind", ["non_normal", "fdm_shear", "thermal"])
def test_manifest_counts_active_cells_like_the_csv_rows(tmp_path, kind):
    cfg = replace(default_config(kind), n_cells=32, n_snapshots=4)
    res = run_scenario(cfg)
    write_fields(res, tmp_path / "out")
    parsed = json.loads((tmp_path / "out" / "manifest.json").read_text())
    grid = parsed["grid"]
    assert grid["dx"] == cfg.eulerian_grid().dx == res.final.grid.dx
    assert grid["final_height"] == cfg.eulerian_grid().height
    rows = []
    by_step = {rec.step: rec for rec in res.history}
    for snap in parsed["snapshots"]:
        lines = (tmp_path / "out" / snap["file"]).read_text().splitlines()
        rows.append(len(lines) - 1)
        assert snap["n_active"] == rows[-1] == by_step[snap["step"]].grid.n_cells
    # the body grows through the fixed grid and fills it at t_end
    assert rows[0] < rows[-1] == grid["n_active"] == cfg.n_cells
    assert rows == sorted(rows)


@pytest.mark.parametrize("kind", ["non_normal", "fdm_shear", "thermal"])
def test_step_is_the_march_step(tmp_path, kind):
    # "step" in metrics.jsonl rows and in the manifest's snapshot entries
    # is the march step k of the level, so t = k dt exactly; non_normal
    # stores no level before the first cell center is reached
    cfg = replace(default_config(kind), n_cells=32, n_snapshots=5)
    dt, n_steps = cfg.resolve_dt()
    res = run_scenario(cfg)
    write_fields(res, tmp_path / "out")
    lines = (tmp_path / "out" / "metrics.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines[1:]]
    assert len(rows) == len(res.history) and rows[-1]["step"] == n_steps
    assert [row["step"] for row in rows] == list(range(rows[0]["step"], n_steps + 1))
    assert (rows[0]["step"] > 0) == (kind == "non_normal")
    for row in rows:
        assert float(row["t"]) == row["step"] * dt
    snapshots = json.loads((tmp_path / "out" / "manifest.json").read_text())["snapshots"]
    assert len(snapshots) == 5
    for snap in snapshots:
        assert float(snap["t"]) == snap["step"] * dt


@pytest.mark.parametrize("kind", ["non_normal", "fdm_shear", "thermal"])
def test_manifest_size_counters(tmp_path, kind):
    cfg = replace(default_config(kind), n_cells=32)
    res = run_scenario(cfg)
    write_fields(res, tmp_path / "out")
    parsed = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert parsed["grid"]["cell_steps"] == sum(len(rec.g) for rec in res.history)
    # the sources of F_e12 and g, the age tables: `levels` zeros then
    # `levels` ages for each entry state (the initial body and the deposit
    # of fdm_shear and thermal, non_normal's deposit); the map, one start
    # per level and one col per cell; and one (n, 2, 2) F_e0, one p and one
    # rho over the fixed grid, 8 bytes a float
    n, levels = cfg.n_cells, len(res.history)
    states = 1 if kind == "non_normal" else 2
    entries = states * 2 * levels
    assert parsed["history_bytes"] == 8 * (2 * entries + levels + n + 4 * n + n + n)
    assert all("F_e" not in vars(rec) for rec in res.history)
