"""Workloads of the surfgrow benchmark: seeded inputs, one operation each,
and the checks every operation's outputs must pass.

Every size is pinned here rather than borrowed from ``surfgrow.verify``, so
a change to the verification defaults cannot move the benchmark.  The seed
perturbs only the attachment shear ``alpha`` (within 10 % of 0.5); it never
changes a cell count, a step size or a step count.  ``trace_history_pathlines``
takes no seed offsets, so the pathline seeds are the program's own.

The operation calls surfgrow through its module attributes (``sg_scenarios.
run_scenario`` rather than a name bound at import) so that the wrappers the
traced run installs on those attributes see the calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from surfgrow import config as sg_config
from surfgrow import output as sg_output
from surfgrow import scenarios as sg_scenarios
from surfgrow.constitutive import MaterialParams

WORKLOADS = ("accrete", "inviscid_sweep", "fine_post")

NOMINAL_ALPHA = 0.5
ALPHA_JITTER = 0.1
G, MU, RHO, V_G, T_END = 1.0, 0.1, 1.0, 1.0, 1.0
N_CELLS = {"accrete": 400, "inviscid_sweep": 200, "fine_post": 2048}
FINE_DT = 1.0 / 1024.0
SWEEP_MUS = (1.0, 0.1, 0.01, 0.001)
PROBE_X2 = 0.25
PATHLINES = 20

# Thresholds taken from surfgrow.verify and the acceptance criteria.
ORACLE_LIMIT = 1e-2        # linf_F_e12 at n_cells >= 200
RESIDUAL_LIMIT = 1e-8      # jump mass/momentum and traction residuals
ROUNDTRIP_LIMIT = 1e-8     # criterion 08: F_e F_relax against replayed F
ENVELOPE_MU = 0.01         # the sweep member held to the analytic envelope
ENVELOPE_SLACK = 1.1
# Relative slack when comparing the program's own oracle score with the
# benchmark's recomputation of it.
ORACLE_AGREEMENT = 1e-9

DATA_EXTENSIONS = (".csv", ".jsonl")


@dataclass(frozen=True)
class Inputs:
    """Everything one workload needs, generated from the seed."""

    workload: str
    alpha: float
    config: sg_scenarios.ScenarioConfig
    config_text: str


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    alpha = NOMINAL_ALPHA * (1.0 + ALPHA_JITTER * (2.0 * rng.random() - 1.0))
    dt = FINE_DT if workload == "fine_post" else None
    cfg = sg_scenarios.ScenarioConfig(
        kind="non_normal", params=MaterialParams(G=G, mu=MU, rho=RHO),
        alpha=alpha, V_G=V_G, n_cells=N_CELLS[workload], dt=dt, t_end=T_END)
    lines = ["kind = non_normal", f"G = {G!r}", f"mu = {MU!r}", f"rho = {RHO!r}",
             f"alpha = {alpha!r}", f"V_G = {V_G!r}", f"t_end = {T_END!r}",
             f"n_cells = {cfg.n_cells}"]
    if dt is not None:
        lines.append(f"dt = {dt!r}")
    return Inputs(workload=workload, alpha=alpha, config=cfg,
                  config_text="\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Operations (timed)
# ---------------------------------------------------------------------------

def _op_accrete(inp: Inputs, work: Path) -> dict:
    # What `surfgrow run <config>` does.
    path = work / "run.cfg"
    path.write_text(inp.config_text, encoding="utf-8")
    cfg = sg_config.parse_config(path)
    start = time.perf_counter()
    result = sg_scenarios.run_scenario(cfg)
    elapsed = time.perf_counter() - start
    sg_output.write_fields(result, work / "out", duration_seconds=elapsed)
    return {"config": cfg, "result": result}


def _op_inviscid_sweep(inp: Inputs, work: Path) -> dict:
    sweep = sg_scenarios.run_mu_sweep(inp.config, probe_x2=PROBE_X2,
                                      mu_values=SWEEP_MUS)
    return {"sweep": sweep}


def _op_fine_post(inp: Inputs, work: Path) -> dict:
    result = sg_scenarios.run_non_normal(inp.config)
    result.pathlines = sg_scenarios.trace_history_pathlines(result, count=PATHLINES)
    gap = sg_scenarios.pathline_grid_discrepancy(result, result.pathlines)
    roundtrip = sg_scenarios.reconstruction_roundtrip_error(result)
    sg_output.write_fields(result, work / "out")
    return {"config": inp.config, "result": result, "gap": gap,
            "roundtrip": roundtrip}


OPERATIONS = {"accrete": _op_accrete, "inviscid_sweep": _op_inviscid_sweep,
              "fine_post": _op_fine_post}


def run_op(inp: Inputs, work: Path) -> dict:
    return OPERATIONS[inp.workload](inp, work)


# ---------------------------------------------------------------------------
# Observation and checks (untimed)
# ---------------------------------------------------------------------------

def _analytic_F_e12(x2, t: float, alpha: float, mu: float):
    """Closed-form sheared-attachment solution, written out independently."""
    return -alpha * np.exp(-(G / mu) * (t - np.asarray(x2) / V_G))


def _envelope_log10(alpha: float, mu: float) -> float:
    """log10 of |F_e12| at the probe height and t_end, kept in log space
    because the value underflows for mu below about 1.4e-3."""
    return math.log10(alpha) - (G / mu) * (T_END - PROBE_X2 / V_G) / math.log(10.0)


def _written_files(out: Path) -> dict:
    """Checksummed files against the manifest: {name: sha256}, or a problem.

    Every data file on disk must be listed.  A listed file without a
    checksum (such as timing output) is not compared.
    """
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return {"problem": f"manifest unreadable: {exc}"}
    listed = {f["name"]: f for f in manifest.get("files", [])}
    unlisted = sorted(p.name for p in out.iterdir()
                      if p.suffix in DATA_EXTENSIONS and p.name not in listed)
    if unlisted or not listed:
        return {"problem": f"data files missing from the manifest: {unlisted}"}
    hashes = {}
    for name, entry in listed.items():
        if entry.get("sha256") is None:
            continue
        try:
            data = (out / name).read_bytes()
        except OSError as exc:
            return {"problem": f"listed file unreadable: {exc}"}
        sha = hashlib.sha256(data).hexdigest()
        if sha != entry.get("sha256") or len(data) != entry.get("bytes"):
            return {"problem": f"{name} does not match its manifest entry"}
        hashes[name] = sha
    return {"sha256": hashes}


def observe(inp: Inputs, produced: dict, work: Path) -> dict:
    """Numbers the checks and the accuracy metrics need, read from the outputs."""
    if inp.workload == "inviscid_sweep":
        sweep = produced["sweep"]
        mus = [mu for mu, _ in sweep]
        vals = [float(v) for _, v in sweep]
        err = max(abs(v - abs(float(_analytic_F_e12(PROBE_X2, T_END, inp.alpha, mu))))
                  for mu, v in sweep)
        return {"mus": mus, "values": vals, "err": err}
    result = produced["result"]
    cfg = produced["config"]
    recomputed = 0.0
    for rec in result.history:
        ref = _analytic_F_e12(rec.grid.centers, rec.t, inp.alpha, cfg.params.mu)
        recomputed = max(recomputed, float(np.max(np.abs(rec.F_e[:, 0, 1] - ref))))
    obs = {
        "config_matches": cfg == inp.config,
        "t_final": result.history[-1].t,
        "times_increasing": all(a.t < b.t for a, b in zip(result.history, result.history[1:])),
        "err": float(np.max(result.oracle_errors["linf_F_e12"])),
        "err_recomputed": recomputed,
        "residual": max(result.max_metric(k) for k in
                        ("mass_residual", "momentum_residual", "traction_residual")),
        "files": _written_files(work / "out"),
    }
    if inp.workload == "fine_post":
        obs.update(gap=float(produced["gap"]), roundtrip=float(produced["roundtrip"]),
                   pathlines=len(result.pathlines))
    return obs


def check(inp: Inputs, obs: dict, reference_files: dict | None) -> list[str]:
    """Problems with one operation's outputs; empty when it is correct.

    ``reference_files`` holds the checksums of the first operation of the
    run, which every later operation must reproduce byte for byte.
    """
    bad = []
    if inp.workload == "inviscid_sweep":
        vals = obs["values"]
        if obs["mus"] != list(SWEEP_MUS):
            bad.append(f"sweep returned mu values {obs['mus']}")
        if not all(math.isfinite(v) for v in vals):
            bad.append("non-finite sweep value")
        if any(b > a for a, b in zip(vals, vals[1:])):
            bad.append(f"sweep not non-increasing as mu decreases: {vals}")
        v = dict(zip(obs["mus"], vals)).get(ENVELOPE_MU, math.inf)
        limit = ENVELOPE_SLACK * 10.0 ** _envelope_log10(inp.alpha, ENVELOPE_MU)
        if not v <= limit:
            bad.append(f"sweep value {v:.3e} at mu={ENVELOPE_MU} above envelope {limit:.3e}")
        return bad
    if not obs["config_matches"]:
        bad.append("parsed configuration differs from the generated one")
    if not (obs["times_increasing"] and abs(obs["t_final"] - T_END) <= 1e-12):
        bad.append(f"stored history does not march to t_end (last t = {obs['t_final']!r})")
    if not obs["err"] <= ORACLE_LIMIT:
        bad.append(f"oracle linf_F_e12 {obs['err']:.3e} > {ORACLE_LIMIT}")
    if not obs["err_recomputed"] <= obs["err"] * (1 + ORACLE_AGREEMENT) + 1e-15:
        bad.append(f"stored fields err {obs['err_recomputed']:.3e} against the "
                   f"oracle, program reports {obs['err']:.3e}")
    if not obs["residual"] <= RESIDUAL_LIMIT:
        bad.append(f"jump/traction residual {obs['residual']:.3e} > {RESIDUAL_LIMIT}")
    files = obs["files"]
    if "problem" in files:
        bad.append(files["problem"])
    elif reference_files is not None and files["sha256"] != reference_files:
        bad.append("written files differ from the first operation of this run")
    if inp.workload == "fine_post":
        if not obs["roundtrip"] <= ROUNDTRIP_LIMIT:
            bad.append(f"reconstruction round-trip {obs['roundtrip']:.3e} > {ROUNDTRIP_LIMIT}")
        if obs["pathlines"] != PATHLINES:
            bad.append(f"{obs['pathlines']} pathlines traced, expected {PATHLINES}")
        if not math.isfinite(obs["gap"]):
            bad.append("non-finite pathline gap")
    return bad


def reference_files(obs: dict) -> dict | None:
    return obs.get("files", {}).get("sha256")


def corruptions(inp: Inputs, produced: dict, work: Path):
    """Yield corrupted observations of one correct operation, one fault each.

    The benchmark's self-test feeds each to ``check`` and requires a problem
    to be reported; faults are undone after use except the last, which
    damages a written file.
    """
    if inp.workload == "inviscid_sweep":
        sweep = produced["sweep"]
        mus = [mu for mu, _ in sweep]
        vals = [v for _, v in sweep]
        for bad_vals in (vals[::-1],                           # not monotone
                         vals[:-1] + [math.nan],               # not finite
                         vals[:2] + [vals[1]] + vals[3:]):     # above the envelope
            produced["sweep"] = list(zip(mus, bad_vals))
            yield observe(inp, produced, work)
        produced["sweep"] = sweep
        return
    F_e = produced["result"].history[-1].F_e
    F_e[0, 0, 1] += 0.1
    yield observe(inp, produced, work)
    F_e[0, 0, 1] -= 0.1
    data = sorted(p for p in (work / "out").iterdir() if p.suffix in DATA_EXTENSIONS)
    raw = bytearray(data[0].read_bytes())
    raw[-2] = ord("0") if raw[-2] != ord("0") else ord("1")
    data[0].write_bytes(bytes(raw))
    yield observe(inp, produced, work)


def accuracy(inp: Inputs, obs: dict) -> dict:
    """Accuracy numbers reported beside speed.

    The reduced problem is linear in ``alpha``, so errors are rescaled to the
    nominal ``alpha`` and do not spread with the seed.
    """
    scale = NOMINAL_ALPHA / inp.alpha
    acc = {"err_linf": obs["err"] * scale, "err_linf_raw": obs["err"],
           "pathline_gap": 0.0, "sweep_excess_dex": 0.0}
    if inp.workload == "fine_post":
        acc["pathline_gap"] = obs["gap"] * scale
    if inp.workload == "inviscid_sweep":
        mu_min, probe = obs["mus"][-1], obs["values"][-1]
        # A probe that underflows to 0 counts as the smallest subnormal.
        log_probe = math.log10(probe) if probe > 0 else math.log10(5e-324)
        acc["sweep_excess_dex"] = log_probe - _envelope_log10(inp.alpha, mu_min)
    return acc
