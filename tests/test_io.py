import json
from dataclasses import fields, replace

import numpy as np
import pytest

import surfgrow.output
from surfgrow import (History, MaterialParams, ParseError, RunResult,
                      ScenarioConfig, ValidationError, parse_config,
                      pathline_grid_discrepancy, read_snapshot, run_fdm_shear,
                      run_non_normal, run_scenario, trace_history_pathlines,
                      write_fields)
from surfgrow.config import read_pairs
from surfgrow.output import METRIC_FIELDS, SNAPSHOT_COLUMNS, fmt
from surfgrow.scenarios import level_v1, pathline_levels, pathline_windows
from surfgrow.tensors import identity
from surfgrow.verify import default_config

from references import hand_pathline, level_speed, pathline_arrays, velocity_tolerance


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


# every key off its default (CI's every_key.cfg)
EVERY_KEY = """\
kind = fdm_shear
G = 2.0
mu = 1.5
rho = 0.7
alpha = 0.3
H0 = 0.8
V_G = 1.1
h = 0.2
v0 = 0.9
L = 1.3
n_cells = 40
dt = 0.01
t_end = 0.6
n_snapshots = 3
"""


def test_every_field_parses_and_is_echoed(tmp_path):
    # a field the parser or the manifest skips keeps its default or is missing
    cfg = parse_config(write_cfg(tmp_path, EVERY_KEY))
    pairs = read_pairs(EVERY_KEY)
    types = {"str": str, "float": float, "float | None": float, "int": int}
    owners = [(cfg.params, f) for f in fields(MaterialParams)]
    owners += [(cfg, f) for f in fields(ScenarioConfig) if f.name != "params"]
    assert sorted(pairs) == sorted(f.name for _, f in owners)
    for owner, f in owners:
        value = getattr(owner, f.name)
        assert value == pairs[f.name] != f.default
        assert type(value) is types[f.type]
    manifest = write_fields(run_scenario(cfg), tmp_path / "out")
    echo = {**pairs, "H0": cfg.height0, "dt": cfg.resolve_dt()[0]}
    assert manifest.config == echo
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["config"] == echo


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
    # one level of 4 cells in one entry state, whose age table holds age 0
    history = History(step=np.zeros(1, dtype=int), H=np.ones(1), m=np.array([4]),
                      metrics={k: np.zeros(1) for k in METRIC_FIELDS},
                      tables=np.zeros((1, 2, 1)), F_e0=identity((4,)), p=np.ones(4),
                      rho=np.ones(4), dx=0.25, dt=0.5, advance=0.05)
    result = RunResult(config=_tiny_config(), history=history)
    manifest = write_fields(result, tmp_path / "out")
    lines = (tmp_path / "out" / "snapshot_0000.csv").read_text().splitlines()
    assert lines[0] == ",".join(SNAPSHOT_COLUMNS)
    assert len(lines) == 5
    assert len(manifest.snapshots) == 1


def test_one_snapshot_is_the_last_level(tmp_path):
    # a 16-cell non_normal run stores steps 2 .. 64; asked for one snapshot,
    # the writer writes the final state, not the first stored level
    res = run_scenario(ScenarioConfig(kind="non_normal", n_cells=16, n_snapshots=1))
    history = res.history
    assert history.step[0] == 2 and len(history) > 1
    manifest = write_fields(res, tmp_path / "out")
    assert manifest.snapshots == [{"file": "snapshot_0000.csv", "step": int(history.step[-1]),
                                   "t": fmt(history.t[-1]), "n_active": 16}]
    data = read_snapshot(tmp_path / "out" / "snapshot_0000.csv")
    np.testing.assert_array_equal(data["Fe12"], history[-1].F_e12)
    assert not (tmp_path / "out" / "snapshot_0001.csv").exists()


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
    # the march's and the checks' wall time, the checks' phases, which sum
    # to it, and the run's counts
    assert sorted(res.timings) == ["cell_levels", "check_s", "classes", "levels", "march_s",
                                   "metrics_s", "oracle_s", "period", "solve_s"]
    assert res.timings["march_s"] > 0 and res.timings["check_s"] > 0
    assert res.timings["check_s"] == (res.timings["solve_s"] + res.timings["metrics_s"]
                                      + res.timings["oracle_s"])
    history = res.history
    assert (res.timings["levels"], res.timings["cell_levels"]) == (len(history),
                                                                  int(history.m.sum()))
    # the accreted cells' entry levels repeat every `classes` cells and
    # `period` levels, read from dx / (V_b dt): here one cell enters, a
    # class of its own, and dx spans 84 front advances; 64 cells over 1,000
    # steps enter 8 every 125 levels
    advance = res.config.boundary_rate * history.dt
    assert history.dx / advance == 84 and history.m[-1] - history.m[0] == 1
    assert (res.timings["classes"], res.timings["period"]) == (1, 84)
    grown = run_non_normal(ScenarioConfig(kind="non_normal", n_cells=64, dt=1e-3))
    assert (grown.timings["classes"], grown.timings["period"]) == (8, 125)
    entry = np.searchsorted(grown.history.m, np.arange(64), side="right")
    np.testing.assert_array_equal(entry[8:] - entry[:-8], 125)
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
        x, F_e = pathline_arrays(pl)
        for m, t in enumerate(pl.t):
            rec = history[min(max(int(round((t - t0) / dt)), 0), last)]
            x2 = min(max(x[m, 1], 0.0), rec.grid.height)
            v1 = float(np.interp(x2, rec.grid.faces, rec.v_nodes))
            p = float(np.interp(x2, rec.grid.centers, rec.p))
            F = F_e[m]
            lines.append(",".join([str(i)] + [fmt(v) for v in
                                              (t, x[m, 0], x[m, 1],
                                               F[0, 0], F[0, 1], F[1, 0], F[1, 1],
                                               v1, 0.0, p)]))
    return "\n".join(lines) + "\n"


def _assert_pathlines_agree(result, written, expected):
    # every column's text is the reference's but v1's, whose values are
    # np.interp's within the face velocities' round-off, and not finite
    # where np.interp's is not (a face velocity summed by entry class reads
    # NaN where the cells' running sum reads an infinity)
    written, expected = ([line.split(",") for line in text.splitlines()]
                         for text in (written, expected))
    v1 = written[0].index("v1")
    assert [row[:v1] + row[v1 + 1:] for row in written] == \
        [row[:v1] + row[v1 + 1:] for row in expected]
    ours, theirs = (np.array([float(row[v1]) for row in rows[1:]])
                    for rows in (written, expected))
    level, _ = pathline_levels(result.history, result.pathlines)
    with np.errstate(invalid="ignore"):
        close = np.abs(ours - theirs) <= velocity_tolerance(level_speed(result.history)[level])
    assert np.all(np.where(np.isfinite(theirs), close | (ours == theirs), ~np.isfinite(ours)))


def _odd_values_result(metrics=None, body_rate=None):
    # values whose text is easy to get wrong: signed zero, the smallest
    # subnormal, a repeating fraction, nan (two payloads) and infinities;
    # three levels of 1, 3 and 4 cells on one spacing (a one-row snapshot),
    # holding prefixes of one F_e0, p and rho (rho: zeros but for one -0.0);
    # pathlines next to the base, below it, above the body and inside it,
    # one with columns constant but for a zero's sign (x1) and for one of two
    # NaN payloads (F_e12), and one of a single sample, whose every column is
    # constant; and one with an exact tie and 1e-300 (``metrics``: each
    # level's row, zeros by default;
    # ``body_rate``: the initial body's g by age times dx, in place of its
    # -inf, 5e-324 and 1/3)
    nan2 = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)
    tie = 123456789012345.625  # 17 digits and a half: %.17g rounds it to even
    odd = np.array([-0.0, 5e-324, 1.0 / 3.0, np.nan, np.inf, -np.inf, -5e-324, 1e300])
    dx, m = 0.25, np.array([1, 3, 4])
    # the run's age tables (``History``): per entry state, the ages 0 .. 2.
    # Cell 0 is the initial body, cells 1 to 3 enter at the levels 1, 1 and
    # 2; the front rises 0.05 a level (``_tiny_config``'s V_b dt)
    by_age = np.zeros((2, 2, 3))  # (state, F_e12 or g, age)
    by_age[:, 0] = [[-0.0, 1.0 / 3.0, np.nan], [1e300, nan2[0], -5e-324]]
    by_age[:, 1] = np.reshape([-np.inf, 5e-324, 1.0 / 3.0, 1e300, np.nan, np.inf], (2, 3)) / dx
    if body_rate is not None:
        by_age[0, 1] = np.asarray(body_rate) / dx
    rows = metrics or [{name: 0.0 for name in METRIC_FIELDS}] * 3
    history = History(
        step=np.arange(3), H=np.array([0.5, 0.75, 1.0]), m=m,
        metrics={name: np.array([row[name] for row in rows]) for name in rows[0]},
        tables=by_age, F_e0=odd.reshape(2, 2, 2).repeat(2, 0),
        p=odd[3:7].copy(), rho=np.array([0.0, 0.0, -0.0, 0.0]), dx=dx, dt=0.5, advance=0.05)
    result = RunResult(config=_tiny_config(), history=history)
    result.pathlines = [hand_pathline(result, **columns) for columns in (
        dict(t=[-0.0, 1.0 / 3.0, 0.9, 1.4], x1=[-0.0, 1.0 / 3.0, 5e-324, 0.0],
             F_e12=[5e-324, -np.inf, 5e-324, -np.inf], x2=5e-324,
             F_e0=odd[:4].reshape(2, 2)),
        dict(t=[0.5, 1.0], x1=[0.0, 1e300], F_e12=[-5e-324, 1.0 / 3.0], x2=-1.0,
             F_e0=odd[::-1][:4].reshape(2, 2)),
        dict(t=[0.7], x1=[-0.0], F_e12=[np.nan], x2=1e300, F_e0=odd[2:6].reshape(2, 2)),
        dict(t=[0.1, 0.6, 1.1], x1=[0.0, -0.0, 0.0], F_e12=[np.nan, nan2[0], np.nan],
             x2=0.3, F_e0=[[1.0, np.nan], [1.0 / 3.0, 1.0]]),
        dict(t=[0.2, 0.4], x1=[1e-300, tie], F_e12=[tie, -1e-300], x2=0.6,
             F_e0=[[1e-300, tie], [0.0, 1.0]]),
    )]
    return result


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
        _assert_pathlines_agree(result, (out / "pathlines.csv").read_text(),
                                _reference_pathlines(result))
    text = (tmp_path / "odd" / "pathlines.csv").read_text()
    for token in ("-0", "4.9406564584124654e-324", "0.33333333333333331", "nan", "-inf",
                  "1e-300", "-1e-300", "123456789012345.62"):
        assert token in text.replace("\n", ",").split(","), token
    snapshots = [(tmp_path / "odd" / f"snapshot_{i:04d}.csv").read_text().splitlines()
                 for i in range(3)]
    assert [len(lines) - 1 for lines in snapshots] == [1, 3, 4]
    assert [line.split(",")[-1] for line in snapshots[2][1:]] == ["0", "0", "-0", "0"]
    assert [line.split(",")[4] for line in snapshots[2][1:3]] == ["nan", "nan"]


def test_face_velocities_read_only_the_runs_layout():
    # v1 is read by the run's entry classes from the run's age tables; a
    # slice of the run's history keeps its map and classes, so it reads the same
    res = run_non_normal(ScenarioConfig(kind="non_normal", n_cells=32, t_end=0.5))
    h = res.history
    later = np.arange(3, len(h))
    x2 = np.linspace(0.0, 1.0, len(later)) * h.H[later]
    assert (level_v1(h[3:], later - 3, x2).tobytes()
            == level_v1(h, later, x2).tobytes())


@pytest.mark.parametrize("body_rate", [None, [-2.0, -0.5, -1.0]], ids=["infinite", "negative"])
def test_face_velocities_read_the_clamped_base_as_zero(body_rate):
    # the base face moves at 0.0 whatever the initial body's rate: at and
    # next to the base every level reads bitwise np.interp over its
    # History.v_nodes, on the odd values' body (g = -inf / dx at level 0,
    # where the base face times the rate was NaN) and on one of finite
    # negative rates (where it was -0.0)
    result = _odd_values_result(body_rate=body_rate)
    history = result.history
    x2 = np.array([-0.0, 0.0, 5e-324])
    for k in range(len(history)):
        expected = np.interp(x2, history.faces[:history.m[k] + 1], history.v_nodes(k))
        ours = level_v1(history, np.full(len(x2), k), x2)
        assert np.array_equal(_bits(ours), _bits(expected)), k


def test_csv_blocks_write_the_same_bytes(tmp_path, monkeypatch):
    # rows are written a block at a time; block edges must not show
    res = run_non_normal(ScenarioConfig(kind="non_normal", n_cells=32, t_end=0.5,
                                        n_snapshots=3))
    res.pathlines = trace_history_pathlines(res, count=4)
    write_fields(res, tmp_path / "whole")
    # a budget of a few rows a block (a row of k varying values takes k
    # (WIDTH + _VALUE_BYTES) bytes and more)
    monkeypatch.setattr(surfgrow.output, "BLOCK_BYTES", 4000)
    rows = []
    format_rows = surfgrow.output.format_rows

    def counted(fixed, columns):
        rows.append(len(columns[0]))
        return format_rows(fixed, columns)

    monkeypatch.setattr(surfgrow.output, "format_rows", counted)
    write_fields(res, tmp_path / "blocks")
    assert 1 < max(rows) <= 10
    names = sorted(f.name for f in (tmp_path / "whole").iterdir())
    assert "pathlines.csv" in names and "snapshot_0002.csv" in names
    for name in names:
        assert (tmp_path / "blocks" / name).read_bytes() == \
            (tmp_path / "whole" / name).read_bytes(), name


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def test_pathline_windows_trace_score_and_write_the_same(tmp_path, monkeypatch):
    # pathlines are traced, scored and written a window of whole pathlines
    # at a time; with every window one pathline (as long as the shortest
    # one, or shorter) the columns, the gap and the file must not change
    res = run_non_normal(ScenarioConfig(kind="non_normal", n_cells=32, t_end=0.5,
                                        n_snapshots=3))
    res.pathlines = trace_history_pathlines(res, count=4)
    gap = pathline_grid_discrepancy(res, res.pathlines)
    write_fields(res, tmp_path / "whole")
    assert len(list(pathline_windows(res.history, res.pathlines))) == 1
    shortest = min(len(pl.t) for pl in res.pathlines)
    for cells in (shortest, shortest - 1):
        monkeypatch.setattr(History, "CLASS_CELLS", cells)
        traced = trace_history_pathlines(res, count=4)
        assert [len(window) for window, *_ in pathline_windows(res.history, traced)] == [1] * 4
        for ours, theirs in zip(traced, res.pathlines, strict=True):
            for name in ("t", "x1", "F_e12", "v1", "x2", "F_e0"):
                assert np.array_equal(_bits(getattr(ours, name)),
                                      _bits(getattr(theirs, name))), name
        assert repr(pathline_grid_discrepancy(res, traced)) == repr(gap)
        res.pathlines = traced
        write_fields(res, tmp_path / f"windows-{cells}")
        assert (tmp_path / f"windows-{cells}" / "pathlines.csv").read_bytes() == \
            (tmp_path / "whole" / "pathlines.csv").read_bytes()


def test_a_nan_in_a_pathline_makes_the_gap_nan():
    # in one pathline's F_e12 column or in another's start F_e22, in a
    # window of its own or with the others
    res = run_non_normal(ScenarioConfig(kind="non_normal", n_cells=32, t_end=0.5))
    pathlines = trace_history_pathlines(res, count=4)
    assert np.isfinite(pathline_grid_discrepancy(res, pathlines))
    F_e12 = pathlines[1].F_e12.copy()
    F_e12[len(F_e12) // 2] = np.nan
    F_e0 = pathlines[2].F_e0.copy()
    F_e0[1, 1] = np.nan
    for changed in ({1: replace(pathlines[1], F_e12=F_e12)},
                    {2: replace(pathlines[2], F_e0=F_e0)}):
        odd = [changed.get(i, pl) for i, pl in enumerate(pathlines)]
        assert np.isnan(pathline_grid_discrepancy(res, odd))
        for i, one in enumerate(odd):
            assert np.isnan(pathline_grid_discrepancy(res, [one])) == (i in changed)


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
        odd = [-0.0, 5e-324, 1.0 / 3.0, np.nan, np.inf, -np.inf, -5e-324, 1e300, 2.0,
               1e-300, 123456789012345.625]
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
    # the sources of F_e12 and g, the age tables: one zero for every
    # negative age then `levels` ages for each entry state (the initial body
    # and the deposit of fdm_shear and thermal, non_normal's deposit); the
    # map, one col per cell; one (n, 2, 2) F_e0 and one p over the fixed
    # grid; rho, one value (v2 = 0); and 11 columns a level: P, step, t, H,
    # m and the six metrics of their own (t and H are the history's), 8
    # bytes an entry
    n, levels = cfg.n_cells, len(res.history)
    states = 1 if kind == "non_normal" else 2
    entries = states * (levels + 1)
    assert parsed["history_bytes"] == 8 * (2 * entries + n + 4 * n + n + 1 + 11 * levels)
    assert all("F_e" not in vars(rec) for rec in res.history)
