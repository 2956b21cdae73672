import pytest

from surfgrow.cli import main

NN_CFG = """\
kind = non_normal
alpha = 0.5
G = 1.0
mu = 0.1
V_G = 1.0
t_end = 0.5
n_cells = 32
"""


def test_verify_fdm_shear_passes(capsys):
    assert main(["verify", "fdm_shear"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    # every steady-state error row is at the 1e-10 gate
    assert out.count("steady_state_error") == 3 and "1.000000e-10" in out


def test_run_missing_config_reports_parse_error(capsys):
    assert main(["run", "/nope/missing.cfg"]) == 1
    assert "ParseError" in capsys.readouterr().err


def test_run_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "nn.cfg"
    cfg.write_text(NN_CFG)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.json").is_file()
    assert (tmp_path / "out" / "metrics.jsonl").is_file()


@pytest.mark.parametrize("text, steps, levels", [
    # dx = 4 dt: the first center dx / 2 is reached at step 2
    (NN_CFG, 128, 127),
    # a body present at t = 0 stores that level too
    ("kind = fdm_shear\nmu = 1.0\nH0 = 1.0\nt_end = 0.5\nn_cells = 32\n", 128, 129),
])
def test_run_prints_steps_and_stored_levels(tmp_path, capsys, text, steps, levels):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert f": {steps} steps, {levels} stored levels, " in out
    metrics = (tmp_path / "out" / "metrics.jsonl").read_text().splitlines()
    assert len(metrics) == 1 + levels


def test_run_rejects_zero_viscosity(tmp_path, capsys):
    cfg = tmp_path / "inviscid.cfg"
    cfg.write_text(NN_CFG.replace("mu = 0.1", "mu = 0.0"))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "error: ValidationError: mu" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_zero_fdm_shear_length(tmp_path, capsys):
    cfg = tmp_path / "fdm.cfg"
    cfg.write_text("kind = fdm_shear\nmu = 1.0\nh = 0.1\nv0 = 1.0\nL = 0\n"
                   "H0 = 1.0\nt_end = 0.5\nn_cells = 32\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "error: ValidationError: L" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_nonpositive_sweep_viscosity(tmp_path, capsys):
    # no command sweeps, so a configuration cannot name a sweep
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(NN_CFG + "mu_sweep = 0.1, 0.0\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: ParseError: " in err and "unknown key 'mu_sweep'" in err
    assert not (tmp_path / "out").exists()


def test_run_rejects_infinite_end_time(tmp_path, capsys):
    # used to die with an OverflowError traceback from resolve_dt
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(NN_CFG.replace("t_end = 0.5", "t_end = inf"))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "error: ValidationError: t_end" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha, field", [("1e-200", "alpha"), ("1e-154", "alpha")])
def test_run_rejects_thermal_alpha_without_a_finite_step(tmp_path, capsys, alpha, field):
    # at G = 2 the deposit's pressure G alpha^-2 overflows for both:
    # alpha ** -2 died with an OverflowError traceback (1e-200), and 1e-154
    # reaches an overflow RuntimeWarning in normal_pressure once its step
    # is not capped by alpha
    cfg = tmp_path / "thermal.cfg"
    cfg.write_text(f"kind = thermal\nalpha = {alpha}\nG = 2\nn_cells = 32\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert f"error: ValidationError: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    # mu sets about 2e300 steps: np.empty(n_steps + 1) died with a
    # ValueError traceback after validation
    "kind = non_normal\nmu = 1e-300\nn_cells = 16\n",
    # a finite step count whose arrays could not be allocated
    "kind = non_normal\ndt = 1e-9\nn_cells = 16\n",
    "kind = thermal\nn_cells = 100000000\n",
])
def test_run_refuses_a_run_beyond_the_cell_step_budget(tmp_path, capsys, text):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError: n_steps = ") and "budget" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    # used to die with a UnicodeDecodeError traceback
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"kind = non_normal\n\xff\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: ") and str(cfg) in err
    assert not (tmp_path / "out").exists()


def test_converge_prints_orders(tmp_path, capsys):
    cfg = tmp_path / "nn.cfg"
    cfg.write_text(NN_CFG)
    assert main(["converge", str(cfg), "--levels", "3"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert len(lines) == 4  # header + one row per level
    assert "order" in lines[0] and lines[1].strip().startswith("32")


def test_converge_thermal_scores_its_rest_state(tmp_path, capsys):
    cfg = tmp_path / "th.cfg"
    cfg.write_text("kind = thermal\nalpha = 0.8\nmu = 1.0\nH0 = 0.5\n"
                   "t_end = 0.5\nn_cells = 32\n")
    assert main(["converge", str(cfg), "--levels", "2"]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()[1:]]
    # exact at both resolutions: zero errors and no order
    assert [(r[0], r[2], r[3], r[4]) for r in rows] == \
        [(n, "0.000000e+00", "0.000000e+00", "-") for n in ("32", "64")]


def test_unknown_scenario_is_usage_error(capsys):
    assert main(["verify", "bogus"]) == 2
    assert "UsageError" in capsys.readouterr().err


def test_env_var_sets_default_output_dir(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "nn.cfg"
    cfg.write_text(NN_CFG)
    monkeypatch.setenv("SURFGROW_OUT", str(tmp_path / "envout"))
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "envout" / "manifest.json").is_file()


def test_bad_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
