"""The stored-run pathline passes against per-level reference loops.

``trace_history_pathlines``, ``pathline_grid_discrepancy`` and the
``pathlines.csv`` writer gather every sample's values through the run's
map (``History.interp``, ``level_v1``).  The references below are
the per-level loops they replace (one ``np.interp`` call per level and
component, one array RK2 step per level), and every comparison is bitwise.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surfgrow.scenarios
from surfgrow import (HistoryPathline, MaterialParams, OutOfDomain, ScenarioConfig,
                      ValidationError, pathline_grid_discrepancy, run_scenario,
                      trace_history_pathlines, write_fields)
from surfgrow.grids import interp_prefix
from surfgrow.output import fmt
from surfgrow.scenarios import CLASS_CELLS, level_v1, pathline_levels

from references import (ROUNDOFF, hand_pathline, level_speed, pathline_arrays,
                        velocity_tolerance)


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def _level_F_e(history, j, xq):
    """Level ``j``'s F_e at the heights ``xq``, one ``np.interp`` per component."""
    centers = history.grid(j).centers
    F_e0 = history.F_e0[:int(history.m[j])]
    cols = [np.interp(xq, centers, c) for c in (F_e0[:, 0, 0], history.columns(j, 0),
                                                F_e0[:, 1, 0], F_e0[:, 1, 1])]
    return np.stack(cols, axis=1).reshape(len(xq), 2, 2)


def reference_trace(result, count=20):
    """The per-level array march: one RK2 step of all active seeds per level."""
    history = result.history
    last = len(history) - 1
    times, heights = history.t, history.H
    x2 = (np.arange(count) + 0.5) * heights[-1] / count
    j0 = np.searchsorted(heights, x2)
    x2, j0 = x2[j0 < last], j0[j0 < last]
    h = (times[-1] - times[j0]) / (last - j0)
    x1s = np.zeros((last + 1, len(x2)))
    Fs = np.zeros((last + 1, len(x2), 2, 2))
    for i, j in enumerate(j0):
        Fs[j, i] = _level_F_e(history, j, x2[i:i + 1])[0]
    for j in range(j0.min(initial=last), last):
        on = slice(0, int(np.searchsorted(j0, j, side="right")))
        z = x2[on]
        grid = history.grid(j)
        g_j = history.columns(j, 1)
        g = np.interp(z, np.concatenate([[0.0], grid.centers, [grid.height]]),
                      np.concatenate([g_j[:1], g_j, g_j[-1:]]))
        L = np.zeros((len(z), 2, 2))
        L[:, 0, 1] = g
        hj = h[on, None, None]
        F = Fs[j, on]
        F_mid = F + 0.5 * hj * (L @ F)
        Fs[j + 1, on] = F + hj * (L @ F_mid)
        x1s[j + 1, on] = x1s[j, on] + h[on] * np.interp(z, grid.faces, history.v_nodes(j))
        if np.any(z > heights[j + 1] + 1e-9):
            raise OutOfDomain(f"characteristic left the body at t = {times[j + 1]:g}")
    return [(times[j] + np.arange(last + 1 - j) * h[i],
             np.column_stack([x1s[j:, i], np.full(last + 1 - j, x2[i])]), Fs[j:, i])
            for i, j in enumerate(j0)]


def _reference_levels(history, pathlines):
    """Each sample's stored level and clamped height, and the levels'
    samples grouped, in ascending level order."""
    t = np.concatenate([pl.t for pl in pathlines])
    x2 = np.concatenate([np.full(len(pl.t), pl.x2) for pl in pathlines])
    times = history.t
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    level = np.clip(np.rint((t - times[0]) / dt), 0, len(times) - 1).astype(int)
    x2 = np.minimum(np.maximum(x2, 0.0), history.H[level])
    order = np.argsort(level, kind="stable")
    levels, starts = np.unique(level[order], return_index=True)
    return x2, list(zip(levels.tolist(), np.split(order, starts[1:])))


def reference_gap(result, pathlines):
    """The gap, one interpolation call per stored level that holds samples."""
    history = result.history
    x2, groups = _reference_levels(history, pathlines)
    F_grid = np.empty((len(x2), 2, 2))
    for j, idx in groups:
        F_grid[idx] = _level_F_e(history, j, x2[idx])
    F_char = np.concatenate([pathline_arrays(pl)[1] for pl in pathlines])
    return float(np.max(np.abs(F_grid - F_char), initial=0.0))


def reference_v1_p(result):
    """``v1`` and ``p`` of every pathline sample, one ``np.interp`` call per
    level for each."""
    history = result.history
    x2, groups = _reference_levels(history, result.pathlines)
    v1, p = np.empty(len(x2)), np.empty(len(x2))
    for j, idx in groups:
        grid = history.grid(j)
        v1[idx] = np.interp(x2[idx], grid.faces, history.v_nodes(j))
        p[idx] = np.interp(x2[idx], grid.centers, history.p[:grid.n_cells])
    return v1, p


def reference_pathlines_csv(result, path):
    """``pathlines.csv`` from the reference values, one ``fmt`` call per
    value, independent of the writer's formatter."""
    v1, p = reference_v1_p(result)
    lines = ["pathline,t,x1,x2,Fe11,Fe12,Fe21,Fe22,v1,v2,p"]
    k = 0
    for i, pl in enumerate(result.pathlines):
        x, F_e = pathline_arrays(pl)
        for t, x, F in zip(pl.t, x, F_e.reshape(-1, 4)):
            lines.append(",".join([str(i)] + [fmt(v) for v in
                                              (t, *x, *F, v1[k], 0.0, p[k])]))
            k += 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _config(kind, **kw):
    base = {"non_normal": dict(params=MaterialParams(G=1.0, mu=0.1), alpha=0.5),
            "fdm_shear": dict(params=MaterialParams(G=1.0, mu=1.0), H0=1.0, t_end=0.5),
            "thermal": dict(params=MaterialParams(G=1.0, mu=1.0), alpha=0.8,
                            H0=0.202)}[kind]
    base.update(kw)
    return ScenarioConfig(kind=kind, **base)


# (kind, config keys, seed count): non_normal with its seeds on cell centers
# (n / count odd) and on faces (even); thermal with an initial body (two
# entry states, a seed between the initial body's top center and H0);
# fdm_shear (an initial body in the attachment state)
CASES = {
    "non_normal-centers": ("non_normal", dict(n_cells=60, t_end=0.5), 20),
    "non_normal-faces": ("non_normal", dict(n_cells=40, t_end=0.5), 20),
    "non_normal-one-cell-levels": ("non_normal", dict(n_cells=48, t_end=0.5,
                                                      dt=1.0 / 300), 7),
    "thermal-below-H0": ("thermal", dict(n_cells=50, t_end=0.5), 3),
    "thermal": ("thermal", dict(n_cells=32, H0=0.5, t_end=0.5), 9),
    "fdm_shear": ("fdm_shear", dict(n_cells=32), 5),
}


@pytest.fixture(scope="module", params=list(CASES.values()), ids=list(CASES))
def traced(request):
    kind, keys, count = request.param
    result = run_scenario(_config(kind, **keys))
    result.pathlines = trace_history_pathlines(result, count=count)
    return result, count


def test_a_body_grown_from_nothing_stores_one_active_cell_first():
    history = run_scenario(_config("non_normal", n_cells=40, t_end=0.5)).history
    assert history.m[0] == 1
    history = run_scenario(_config("non_normal", n_cells=48, t_end=0.5,
                                   dt=1.0 / 300)).history
    assert history.m[0] == 1 and history.m[1] == 1


def test_pathlines_are_bitwise_the_per_level_march(traced):
    # t, x2 and F_e bitwise; x1, a running sum of h v1, within the round-off
    # of the face velocities read by entry class, ROUNDOFF ((t - t0)
    # max(1, max |v|) + |x1|)
    result, count = traced
    reference = reference_trace(result, count)
    speed = max(1.0, level_speed(result.history).max())
    assert len(result.pathlines) == len(reference) > 0
    for pl, (t, x, F_e) in zip(result.pathlines, reference):
        pl_x, pl_F_e = pathline_arrays(pl)
        assert np.array_equal(_bits(pl.t), _bits(t))
        assert np.array_equal(_bits(pl_x[:, 1]), _bits(x[:, 1]))
        assert np.all(np.abs(pl_x[:, 0] - x[:, 0])
                      <= ROUNDOFF * ((t - t[0]) * speed + np.abs(x[:, 0])))
        assert np.array_equal(_bits(pl_F_e), _bits(F_e))


def test_gap_is_bitwise_the_per_level_loop(traced):
    result, _ = traced
    gap = pathline_grid_discrepancy(result, result.pathlines)
    assert repr(gap) == repr(reference_gap(result, result.pathlines))


def test_traced_v1_is_the_face_velocity_at_each_sample(traced):
    # the trace keeps the v1 it stepped with, and the writer reads it: it is
    # level_v1's at each sample's stored level and clamped height, bitwise
    result, _ = traced
    level, x2 = pathline_levels(result.history, result.pathlines)
    expected = level_v1(result.history, level, x2, result.classes)
    ours = np.concatenate([pl.v1 for pl in result.pathlines])
    assert np.array_equal(_bits(ours), _bits(expected))


def test_a_pathline_refuses_a_v1_of_another_length():
    columns = dict(t=[0.0, 0.5], x1=[0.0, 0.1], F_e12=[0.0, 0.2], x2=0.3, F_e0=np.eye(2))
    assert len(HistoryPathline(v1=[1.0, 2.0], **columns).v1) == 2
    for v1 in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValidationError, match="equal-length"):
            HistoryPathline(v1=v1, **columns)


def test_pathlines_csv_is_bitwise_the_per_level_loop(traced, tmp_path):
    # every column's text is the reference's but v1's, whose values lie
    # within the face velocities' round-off of np.interp's
    result, _ = traced
    write_fields(result, tmp_path / "out")
    reference_pathlines_csv(result, tmp_path / "reference.csv")
    written, expected = ([line.split(",") for line in
                          (tmp_path / name).read_text().splitlines()]
                         for name in ("out/pathlines.csv", "reference.csv"))
    v1 = written[0].index("v1")
    assert len(written) == len(expected) and written[0] == expected[0]
    assert [row[:v1] + row[v1 + 1:] for row in written] == \
        [row[:v1] + row[v1 + 1:] for row in expected]
    level, _ = pathline_levels(result.history, result.pathlines)
    ours, theirs = (np.array([float(row[v1]) for row in rows[1:]])
                    for rows in (written, expected))
    assert np.all(np.abs(ours - theirs)
                  <= velocity_tolerance(level_speed(result.history)[level]))


def test_face_velocities_do_not_depend_on_the_block_size(traced, monkeypatch):
    # chunks of classes of any size give the same face velocities: a class
    # a chunk, a few classes a chunk, and every class in one chunk
    result, _ = traced
    history = result.history
    level = np.repeat(np.arange(len(history)), 3)
    x2 = np.tile([0.0, 0.5, 1.0], len(history)) * history.H[level]
    classes = result.classes
    expected = level_v1(history, level, x2, classes)
    # every seventh level alone, in reverse
    some = np.arange(len(level))[::-1][level[::-1] % 7 == 3]
    for cells in (1, 97, int(history.m.sum())):
        monkeypatch.setattr(surfgrow.scenarios, "CLASS_CELLS", cells)
        assert np.array_equal(_bits(level_v1(history, level, x2, classes)), _bits(expected))
        assert np.array_equal(_bits(level_v1(history, level[some], x2[some], classes)),
                              _bits(expected[some]))
    speed = level_speed(history)
    for j in (0, len(history) // 2, len(history) - 1):
        ref = np.interp(x2[3 * j:3 * j + 3], history.grid(j).faces, history.v_nodes(j))
        assert np.all(np.abs(expected[3 * j:3 * j + 3] - ref)
                      <= velocity_tolerance(speed[j]))


def test_gap_of_samples_off_the_levels_is_the_per_level_loop():
    result = run_scenario(_config("non_normal", n_cells=32, t_end=0.5))
    history = result.history
    # times before t0 and past t_end, heights below the base and above the
    # body at every level, with F_e = I: a one-sample pathline per height
    t = np.linspace(-0.1, history.t[-1] + 0.3, 40) + 1e-4
    heights = np.linspace(-0.2, history.H[-1] + 0.4, 40)
    pathlines = [hand_pathline(result, t=[tm], x1=[0.0], F_e12=[0.0], x2=x2, F_e0=np.eye(2))
                 for tm, x2 in zip(t, heights)]
    result.pathlines = pathlines + trace_history_pathlines(result, count=3)
    gap = pathline_grid_discrepancy(result, result.pathlines)
    assert repr(gap) == repr(reference_gap(result, result.pathlines))
    v1, p = reference_v1_p(result)
    level = np.clip(np.rint((np.concatenate([pl.t for pl in result.pathlines])
                             - history.t[0]) / (history.t[1] - history.t[0])),
                    0, len(history) - 1).astype(int)
    x2 = np.minimum(np.maximum(np.concatenate([np.full(len(pl.t), pl.x2)
                                               for pl in result.pathlines]),
                               0.0), history.H[level])
    assert np.all(np.abs(level_v1(history, level, x2, result.classes) - v1)
                  <= velocity_tolerance(level_speed(history)[level]))


def test_leaving_the_body_raises_at_the_earliest_level():
    result = run_scenario(_config("non_normal", n_cells=40, t_end=0.5))
    heights = result.history.H
    # two levels whose body lies below most seeds: the earlier one names
    # the time
    heights[70] = heights[90] = 0.05
    with pytest.raises(OutOfDomain) as expected:
        reference_trace(result, count=20)
    with pytest.raises(OutOfDomain) as raised:
        trace_history_pathlines(result, count=20)
    assert str(raised.value) == str(expected.value)
    assert f"t = {result.history.t[70]:g}" in str(raised.value)


def test_trace_refuses_a_count_that_is_not_a_nonnegative_integer():
    # as ScenarioConfig refuses such an n_cells: 2.5 once traced 2 pathlines
    # seeded at 0.2 H and 0.6 H, and True traced 1
    result = run_scenario(_config("non_normal", n_cells=40, t_end=0.5))
    for count in (2.5, 2.0, True, False, -1, "3", None):
        with pytest.raises(ValidationError, match="count"):
            trace_history_pathlines(result, count=count)
    assert trace_history_pathlines(result, count=0) == []
    assert len(trace_history_pathlines(result, count=np.int64(3))) == 3


def _scratch_peak(result, count):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pathlines = trace_history_pathlines(result, count=count)
        pathline_grid_discrepancy(result, pathlines)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, pathlines


def test_trace_and_gap_scratch_is_sized_by_blocks():
    result = run_scenario(_config("non_normal", n_cells=768, t_end=1.0))
    history = result.history
    peak, pathlines = _scratch_peak(result, count=4)
    # a dense running-sum matrix holds one float for every cell of every
    # level; a chunk of class rows' scratch and the pathlines' own samples
    # (a few hundred bytes each) stay far below it
    dense = 8 * int(history.m.sum())
    samples = sum(len(pl.t) for pl in pathlines)
    assert 8 * 8 * CLASS_CELLS + 256 * samples < dense / 3
    assert peak < dense / 4


@st.composite
def _prefix_problem(draw):
    """Increasing nodes, each point's prefix of them and its own values,
    node ``k``'s at ``fp[start + col[k]]`` through the identity map (each
    point's values one block of ``fp``) or another (repeats allowed), and
    points below the first node, on nodes, between nodes, on its last node
    and beyond it."""
    size = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=size, max_size=size))
    xp = draw(st.floats(-10.0, 10.0)) + np.cumsum(gaps)
    points = draw(st.integers(1, 12))
    values = st.floats(-1e6, 1e6, allow_subnormal=True)
    n = np.array(draw(st.lists(st.integers(1, size), min_size=points, max_size=points)))
    if draw(st.booleans()):
        start, col, length = np.cumsum(n) - n, np.arange(size), int(n.sum())
    else:
        col = np.array(draw(st.lists(st.integers(0, 2 * size), min_size=size,
                                     max_size=size)))
        start = np.array(draw(st.lists(st.integers(0, 8), min_size=points,
                                       max_size=points)))
        length = 9 + 2 * size
    fp = np.array(draw(st.lists(values, min_size=length, max_size=length)))
    x = []
    for ni in n.tolist():
        k = draw(st.integers(0, ni - 1))
        frac = draw(st.floats(0.0, 1.0, exclude_max=True))
        upper = xp[k + 1] if k + 1 < size else xp[k] + 1.0
        x.append(draw(st.sampled_from([
            xp[0] - draw(st.floats(1e-6, 5.0)),       # below the first node
            xp[k],                                    # on a node
            xp[k] + frac * (upper - xp[k]),           # between nodes
            xp[ni - 1],                               # on its last node
            xp[ni - 1] + draw(st.floats(1e-6, 5.0)),  # beyond it
        ])))
    return np.array(x), xp, n, fp, start, col


@settings(max_examples=300, deadline=None)
@given(_prefix_problem())
@example((np.array([0.3]), np.array([0.5]), np.array([1]), np.array([-2.0]),
          np.array([0]), np.array([0])))
@example((np.array([0.25, 1.5, 2.0]), np.array([0.0, 1.0, 2.0]), np.array([3, 2, 3]),
          np.arange(10.0) ** 2, np.array([0, 4, 1]), np.array([5, 0, 3])))
def test_interp_prefix_is_np_interp(problem):
    x, xp, n, fp, start, col = problem
    got = interp_prefix(x, xp, n, fp, start, col)
    expected = [np.interp(xi, xp[:ni], fp[si + col[:ni]])
                for xi, ni, si in zip(x, n.tolist(), start.tolist())]
    assert np.array_equal(_bits(got), _bits(expected))


def test_interp_prefix_passes_nan_heights_through():
    xp = np.array([0.0, 1.0, 2.0])
    got = interp_prefix(np.array([np.nan, 0.5]), xp, np.array([3, 2]),
                        np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([0, 3]), np.arange(3))
    assert np.isnan(got[0]) and got[1] == np.interp(0.5, xp[:2], [4.0, 5.0])


def test_probe_is_the_final_level_interpolated():
    result = run_scenario(_config("non_normal", n_cells=40, t_end=0.5))
    history = result.history
    grid = history.grid(len(history) - 1)
    for x2 in (-1.0, 0.0, 0.013, grid.centers[7], grid.faces[9], grid.height, 2.0):
        probe = result.probe(x2)
        xq = np.array([min(max(x2, 0.0), grid.height)])
        ref = _level_F_e(history, len(history) - 1, xq)[0]
        assert np.array_equal(_bits(probe["F_e"]), _bits(ref))
        assert abs(probe["v1"] - np.interp(xq, grid.faces, history.v_nodes(-1))[0]) <= \
            velocity_tolerance(level_speed(history, [-1])[0])
        assert probe["p"] == np.interp(xq, grid.centers, history.p[:grid.n_cells])[0]


def test_thermal_cases_trace_through_two_entry_states():
    for kind, keys, _ in CASES.values():
        if kind == "thermal":
            history = run_scenario(_config(kind, **keys)).history
            assert history.m[0] > 1
            assert len(set(history.F_e0[:, 1, 1].tolist())) == 2
