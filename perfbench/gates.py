"""Correctness gates: each op's output files against independent references.

``check`` returns the accuracy numbers of one op's outputs, reported as
ungated ``check.*`` diagnostics, plus an ``ok`` flag that is False when an
output lies outside its tolerance. Missing or malformed outputs raise.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from layerfield import cli, oracle, transmute
from layerfield.transmute import ConventionMode, RobinProblem

import workloads

FROZEN_PATH = Path(__file__).with_name("frozen_sampled.json")

# Tolerances, relative to the largest boundary amplitude.
MODE_MATCH_TOL = 1e-9      # two-layer mode traces vs mode matching
ROBIN_TOL = 1e-7           # Robin mode traces vs the exact mode solution
FROZEN_TOL = 1e-9          # sampled trace vs values frozen at the seed commit
GAP_TOL = 1e-8             # sampled trace report: Dirichlet and interface gaps
FD_RATIO_RANGE = (3.5, 4.5)  # fd error ratio per halving of h


def read_field_csv(path: Path, xs, ys, dim: int) -> np.ndarray:
    """Values (nx, ny, dim) of a field CSV whose nodes must be xs x ys."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    nx, ny = len(xs), len(ys)
    if data.shape != (nx * ny, 2 + dim):
        raise ValueError(f"{path.name}: shape {data.shape}, "
                         f"expected {(nx * ny, 2 + dim)}")
    nodes = data[:, :2].reshape(ny, nx, 2)
    if (np.abs(nodes[:, :, 0] - xs[None, :]).max() > 1e-12
            or np.abs(nodes[:, :, 1] - ys[:, None]).max() > 1e-12):
        raise ValueError(f"{path.name}: nodes differ from the grid")
    return data[:, 2:].reshape(ny, nx, dim).transpose(1, 0, 2)


def _trace_scale(trace) -> float:
    amps = [np.abs(m.cos_amp).max() for m in trace.modes]
    amps += [np.abs(m.sin_amp).max() for m in trace.modes]
    return float(max(amps))


def _layer_grids(cfg):
    return transmute.split_grid_at_interface(cfg.grid, cfg.problem.l)


def _two_layer_modes(cfg, out: Path) -> dict:
    p = cfg.problem
    worst = 0.0
    for layer, spec in zip((1, 2), _layer_grids(cfg)):
        xs, ys = spec.x_nodes, spec.y_nodes
        vals = read_field_csv(out / f"layer{layer}.csv", xs, ys, p.dim)
        ref = oracle.mode_match_reference(p, xs, ys, layer)
        worst = max(worst, float(np.abs(vals - ref).max()))
    rel = worst / _trace_scale(p.trace)
    return {"ok": rel <= MODE_MATCH_TOL, "mode_match_err": rel}


def _robin_modes(cfg, out: Path) -> dict:
    p = cfg.problem
    xs, ys = cfg.grid.x_nodes, cfg.grid.y_nodes
    vals = read_field_csv(out / "field.csv", xs, ys, p.dim)
    ref = np.zeros_like(vals)
    for m in p.trace.modes:
        for amp, trig in ((m.cos_amp, "cos"), (m.sin_amp, "sin")):
            if np.any(amp != 0.0):
                sol = oracle.robin_mode_solution(p, m.omega, amp, trig)
                ref += sol.values(xs, ys)
    # Literal mode solves h u + u_x = -f, calibrated mode h u + u_x = +f.
    if cfg.mode is ConventionMode.LITERAL:
        ref = -ref
    rel = float(np.abs(vals - ref).max()) / _trace_scale(p.trace)
    return {"ok": rel <= ROBIN_TOL, "robin_err": rel}


def frozen_probes(field: np.ndarray) -> list:
    """The probe values frozen for the sampled trace: every 7th node."""
    return field[::7, ::7].ravel().tolist()


def _sampled(cfg, out: Path, params: dict) -> dict:
    frozen = json.loads(FROZEN_PATH.read_text())
    ref = frozen["centres"][params["centre_index"]]
    amplitude = params["amplitude"]
    worst = 0.0
    for layer, spec in zip((1, 2), _layer_grids(cfg)):
        vals = read_field_csv(out / f"layer{layer}.csv", spec.x_nodes,
                              spec.y_nodes, cfg.problem.dim)
        got = np.array(frozen_probes(vals))
        want = amplitude * np.array(ref[f"layer{layer}"])
        if got.shape != want.shape:
            raise ValueError("probe count differs from the frozen values")
        worst = max(worst, float(np.abs(got - want).max()))
    report = json.loads((out / "report.json").read_text())
    gaps = {key: report[key] / amplitude for key in
            ("boundary_residual_linf", "interface_value_gap",
             "interface_flux_gap")}
    ok = (worst / amplitude <= FROZEN_TOL
          and max(gaps.values()) <= GAP_TOL)
    return {"ok": ok, "frozen_err": worst / amplitude,
            "dirichlet_gap": gaps["boundary_residual_linf"],
            "value_gap": gaps["interface_value_gap"],
            "flux_gap": gaps["interface_flux_gap"]}


def _convergence(out: Path) -> dict:
    lines = (out / "convergence.csv").read_text().splitlines()
    if lines[0] != "kind,param,h,error,ratio":
        raise ValueError("convergence.csv header changed")
    rows = [line.split(",") for line in lines[1:]]
    fd = [(int(r[1]), float(r[3]), float(r[4])) for r in rows if r[0] == "fd"]
    if [str(r[0]) for r in fd] != list(workloads.FD_RESOLUTIONS):
        raise ValueError("fd rows do not match the requested resolutions")
    ratios = [ratio for _, _, ratio in fd if not math.isnan(ratio)]
    lo, hi = FD_RATIO_RANGE
    return {"ok": all(lo <= r <= hi for r in ratios),
            "fd_ratio_min": min(ratios), "fd_ratio_max": max(ratios),
            "fd_err_finest": fd[-1][1]}


def _verify_json(out: Path) -> dict:
    """Accuracy numbers the CLI itself reports in verify.json (ungated)."""
    payload = json.loads((out / "verify.json").read_text())
    diag = {}
    for section in ("mode_match_comparison", "fd_comparison"):
        metrics = payload.get(section)
        if metrics is None:
            continue
        if "linf" in metrics:
            diag[f"{section}_linf"] = metrics["linf"]
        else:
            diag[f"{section}_linf"] = max(m["linf"] for m in metrics.values())
    return diag


def check(op, config_path: Path, out: Path, params: dict) -> dict:
    """Gate one op's outputs; returns diagnostics with an ``ok`` flag."""
    cfg = cli.parse_config(config_path.read_text())
    if op.verb == "convergence":
        result = _convergence(out)
    elif cfg.problem.trace.samples is not None:
        result = _sampled(cfg, out, params)
    elif isinstance(cfg.problem, RobinProblem):
        result = _robin_modes(cfg, out)
    else:
        result = _two_layer_modes(cfg, out)
    if op.verb == "verify":
        result.update(_verify_json(out))
    return result
