"""Configuration ingestion, pipeline orchestration and file export.

Configs are strict JSON (unknown keys rejected); the full schema is
documented in the README. Outputs are deterministic for a fixed config:
field CSVs with 17 significant digits, a report JSON carrying exactly the
solve-report fields plus the config echo, and an optional verify JSON with
oracle comparisons. Timing is printed to stdout only, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oracle, transmute
from .basefield import BoundaryTrace, FieldGrid, GridSpec, TraceMode
from .errors import LayerFieldError, ParseError, ValidationError
from .report import SolveReport
from .spectral import eigendecompose
from .transmute import ConventionMode, RobinProblem, TwoLayerProblem

_SOLVER_DEFAULTS = {
    "mode": "calibrated",
    "series_tol": 1e-10,
    "j_max": 64,
    "quad_tol": 1e-9,
    "eps_max": 50.0,
}

_VERIFY_DEFAULTS = {
    "fd_oracle": False,
    "mode_match_oracle": False,
    "residual_report": True,
    "fd_x": 8.0,
    "fd_nx": 65,
    "fd_ny": 64,
    "far_tol": 0.05,
}


@dataclass
class RunConfig:
    """Validated run configuration; ``raw`` is the canonical echo dict."""

    problem: object
    grid: GridSpec
    solver: dict
    verify: dict
    output_dir: Path
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def mode(self) -> ConventionMode:
        return ConventionMode(self.solver["mode"])

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.raw == other.raw


def _require_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(
            f"{where}: unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")


def _number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError(f"{where} must be a number")
    return float(obj)


def _integer(obj, where: str, minimum: int = 0) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValidationError(f"{where} must be an integer")
    if obj < minimum:
        raise ValidationError(f"{where} must be >= {minimum}")
    return obj


def _matrix(obj, where: str) -> np.ndarray:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return np.array([[float(obj)]])
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{where} must be a number or a nested array")
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != len(obj):
            raise ValidationError(f"{where} must be square (row {r})")
        rows.append([_number(v, f"{where}[{r}]") for v in row])
    return np.array(rows)


def _vector(obj, where: str, dim: int | None) -> np.ndarray:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        obj = [obj]
    if not isinstance(obj, list):
        raise ValidationError(f"{where} must be a number or array")
    v = np.array([_number(x, where) for x in obj])
    if dim is not None and v.size != dim:
        raise ValidationError(f"{where} must have length {dim}")
    return v


def _validated(where: str, make, *args):
    """make(*args), with a rejection by the value type or the spectral
    decomposition reported as a config error at ``where``."""
    try:
        return make(*args)
    except (LayerFieldError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _parse_trace(obj, where: str, dim: int) -> BoundaryTrace:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    _require_keys(obj, {"modes", "samples"}, where)
    modes = []
    for k, mobj in enumerate(obj.get("modes", []) or []):
        mwhere = f"{where}.modes[{k}]"
        if not isinstance(mobj, dict):
            raise ValidationError(f"{mwhere} must be an object")
        _require_keys(mobj, {"omega", "cos_amp", "sin_amp"}, mwhere)
        if "omega" not in mobj:
            raise ValidationError(f"{mwhere}.omega is required")
        omega = _number(mobj["omega"], f"{mwhere}.omega")
        if omega < 0:
            raise ValidationError(f"{mwhere}.omega must be nonnegative")
        ca = _vector(mobj.get("cos_amp", [0.0] * dim), f"{mwhere}.cos_amp", dim)
        sa = _vector(mobj.get("sin_amp", [0.0] * dim), f"{mwhere}.sin_amp", dim)
        modes.append(TraceMode(omega, ca, sa))
    samples = None
    if obj.get("samples") is not None:
        sobj = obj["samples"]
        swhere = f"{where}.samples"
        if not isinstance(sobj, dict):
            raise ValidationError(f"{swhere} must be an object")
        _require_keys(sobj, {"y", "values"}, swhere)
        if "y" not in sobj or "values" not in sobj:
            raise ValidationError(f"{swhere} needs 'y' and 'values'")
        y = np.array([_number(v, f"{swhere}.y") for v in sobj["y"]])
        vals = np.array(sobj["values"], dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        samples = (y, vals)
    return _validated(where, BoundaryTrace, dim, tuple(modes), samples)


def _spectral_matrix(obj, where: str):
    return _validated(where, eigendecompose, _matrix(obj, where))


def _parse_problem(obj, where: str = "problem"):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    kind = obj.get("kind")
    if kind == "robin":
        _require_keys(obj, {"kind", "a", "h", "trace"}, where)
        for key in ("a", "h", "trace"):
            if key not in obj:
                raise ValidationError(f"{where}.{key} is required")
        a = _spectral_matrix(obj["a"], f"{where}.a")
        h = _spectral_matrix(obj["h"], f"{where}.h")
        trace = _parse_trace(obj["trace"], f"{where}.trace", a.dim)
        return _validated(where, RobinProblem, a, h, trace)
    if kind == "two_layer":
        _require_keys(obj, {"kind", "a1", "a2", "lambda1", "lambda2", "l",
                            "trace"}, where)
        for key in ("a1", "a2", "lambda1", "lambda2", "l", "trace"):
            if key not in obj:
                raise ValidationError(f"{where}.{key} is required")
        a1 = _spectral_matrix(obj["a1"], f"{where}.a1")
        a2 = _spectral_matrix(obj["a2"], f"{where}.a2")
        lambda1 = _number(obj["lambda1"], f"{where}.lambda1")
        lambda2 = _number(obj["lambda2"], f"{where}.lambda2")
        l = _number(obj["l"], f"{where}.l")
        trace = _parse_trace(obj["trace"], f"{where}.trace", a1.dim)
        return _validated(where, TwoLayerProblem, a1, a2, lambda1, lambda2,
                          l, trace)
    raise ValidationError(f"{where}.kind must be 'robin' or 'two_layer'")


def _parse_grid(obj, where: str = "grid") -> GridSpec:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    _require_keys(obj, {"x_range", "y_range", "nx", "ny"}, where)
    for key in ("x_range", "y_range", "nx", "ny"):
        if key not in obj:
            raise ValidationError(f"{where}.{key} is required")
    ranges = {}
    for key in ("x_range", "y_range"):
        r = obj[key]
        if not (isinstance(r, list) and len(r) == 2):
            raise ValidationError(f"{where}.{key} must be [lo, hi]")
        ranges[key] = (_number(r[0], f"{where}.{key}[0]"),
                       _number(r[1], f"{where}.{key}[1]"))
    nx = _integer(obj["nx"], f"{where}.nx", minimum=2)
    ny = _integer(obj["ny"], f"{where}.ny", minimum=2)
    return _validated(where, GridSpec, ranges["x_range"], ranges["y_range"],
                      nx, ny)


def _parse_section(obj, defaults: dict, where: str) -> dict:
    out = dict(defaults)
    if obj is None:
        return out
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    _require_keys(obj, set(defaults), where)
    for key, val in obj.items():
        ref = defaults[key]
        if isinstance(ref, bool):
            if not isinstance(val, bool):
                raise ValidationError(f"{where}.{key} must be a boolean")
            out[key] = val
        elif isinstance(ref, int):
            out[key] = _integer(val, f"{where}.{key}", minimum=0)
        elif isinstance(ref, float):
            out[key] = _number(val, f"{where}.{key}")
        else:
            out[key] = val
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; fills documented defaults."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ValidationError("config must be a single JSON object")
    _require_keys(obj, {"problem", "grid", "solver", "verify", "output"},
                  "config")
    if "problem" not in obj or "grid" not in obj:
        raise ValidationError("config needs 'problem' and 'grid'")
    problem = _parse_problem(obj["problem"])
    grid = _parse_grid(obj["grid"])
    solver = _parse_section(obj.get("solver"), _SOLVER_DEFAULTS, "solver")
    if solver["mode"] not in ("literal", "calibrated"):
        raise ValidationError("solver.mode must be 'literal' or 'calibrated'")
    for key in ("series_tol", "quad_tol"):
        if solver[key] <= 0:
            raise ValidationError(f"solver.{key} must be positive")
    if solver["eps_max"] <= 0:
        raise ValidationError("solver.eps_max must be positive")
    verify = _parse_section(obj.get("verify"), _VERIFY_DEFAULTS, "verify")
    for key in ("fd_x", "far_tol"):
        if verify[key] <= 0:
            raise ValidationError(f"verify.{key} must be positive")
    out_obj = obj.get("output") or {}
    if not isinstance(out_obj, dict):
        raise ValidationError("output must be an object")
    _require_keys(out_obj, {"dir"}, "output")
    output_dir = Path(out_obj.get("dir", "."))
    cfg = RunConfig(problem=problem, grid=grid, solver=solver, verify=verify,
                    output_dir=output_dir)
    cfg.raw = serialize_config(cfg)
    return cfg


def _jsonable_matrix(m: np.ndarray):
    if m.shape == (1, 1):
        return m[0, 0]
    return [[float(v) for v in row] for row in m]


def _jsonable_vector(v: np.ndarray):
    return [float(x) for x in v]


def serialize_config(cfg: RunConfig) -> dict:
    """Canonical dict form; parse(json(serialize(cfg))) == cfg."""
    p = cfg.problem
    trace = {"modes": [{"omega": m.omega,
                        "cos_amp": _jsonable_vector(m.cos_amp),
                        "sin_amp": _jsonable_vector(m.sin_amp)}
                       for m in p.trace.modes]}
    if p.trace.samples is not None:
        y, vals = p.trace.samples
        trace["samples"] = {"y": _jsonable_vector(y),
                            "values": [list(map(float, row)) for row in vals]}
    if isinstance(p, RobinProblem):
        problem = {"kind": "robin", "a": _jsonable_matrix(p.a.entries),
                   "h": _jsonable_matrix(p.h.entries), "trace": trace}
    else:
        problem = {"kind": "two_layer", "a1": _jsonable_matrix(p.a1.entries),
                   "a2": _jsonable_matrix(p.a2.entries),
                   "lambda1": p.lambda1, "lambda2": p.lambda2, "l": p.l,
                   "trace": trace}
    return {
        "problem": problem,
        "grid": {"x_range": list(cfg.grid.x_range),
                 "y_range": list(cfg.grid.y_range),
                 "nx": cfg.grid.nx, "ny": cfg.grid.ny},
        "solver": dict(cfg.solver),
        "verify": dict(cfg.verify),
        "output": {"dir": str(cfg.output_dir)},
    }


# ---------------------------------------------------------------------------
# Output writers


def write_field_csv(path: Path, grid: FieldGrid):
    """CSV with header x,y,u1..un; rows ordered by y then x, 17 significant
    digits."""
    n = grid.dim
    header = "x,y," + ",".join(f"u{k + 1}" for k in range(n))
    xs, ys = grid.x_nodes, grid.y_nodes
    lines = [header]
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            vals = ",".join(f"{v:.17g}" for v in grid.values[i, j])
            lines.append(f"{x:.17g},{y:.17g},{vals}")
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj: dict):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _report_json(report: SolveReport, cfg: RunConfig) -> dict:
    out = report.as_dict()
    out["config"] = cfg.raw
    return out


# ---------------------------------------------------------------------------
# Pipelines


def _solve(cfg: RunConfig):
    p = cfg.problem
    s = cfg.solver
    if isinstance(p, RobinProblem):
        fld, report = transmute.solve_robin(
            p, cfg.grid, cfg.mode, eps_max=s["eps_max"],
            quad_tol=s["quad_tol"])
        return {"field": fld}, report
    f1, f2, report = transmute.solve_two_layer(
        p, cfg.grid, cfg.mode, series_tol=s["series_tol"],
        j_max=s["j_max"])
    return {"layer1": f1, "layer2": f2}, report


def _identity_statement(cfg: RunConfig) -> str:
    if isinstance(cfg.problem, RobinProblem):
        sign = "-f" if cfg.mode is ConventionMode.LITERAL else "+f"
        return f"boundary identity checked: h u(0,y) + u_x(0,y) = {sign}(y)"
    if cfg.mode is ConventionMode.LITERAL:
        return ("interface: value continuity checked; flux mismatch is "
                "reported, not enforced (literal contraction)")
    return "interface: value and flux continuity checked (calibrated)"


def run_solve(cfg: RunConfig) -> int:
    """Solve, export field CSVs and report JSON, print a summary."""
    t0 = time.perf_counter()
    fields, report = _solve(cfg)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    for name, fld in fields.items():
        write_field_csv(cfg.output_dir / f"{name}.csv", fld)
    _write_json(cfg.output_dir / "report.json", _report_json(report, cfg))
    elapsed = time.perf_counter() - t0
    print(f"solved {cfg.raw['problem']['kind']} problem "
          f"({cfg.solver['mode']} mode) in {elapsed:.3f}s")
    print(_identity_statement(cfg))
    for key, val in report.as_dict().items():
        print(f"  {key}: {val:.6g}" if isinstance(val, float)
              else f"  {key}: {val}")
    print(f"outputs in {cfg.output_dir}")
    return 0


def _oracle(call, *args, **kwargs):
    """Run an oracle call. The oracles raise ValueError for settings they
    cannot honour (grid sizes, interface placement, y periodicity, trace
    kind, omega = 0); those are config errors. LinAlgError, a ValueError
    subclass, stays a numerical failure."""
    try:
        return call(*args, **kwargs)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise ValidationError(f"oracle: {exc}") from exc


def _verify_payload(cfg: RunConfig, fields: dict) -> dict:
    p = cfg.problem
    v = cfg.verify
    payload: dict = {}
    if v["residual_report"]:
        arg = fields["field"] if isinstance(p, RobinProblem) \
            else (fields["layer1"], fields["layer2"])
        payload["residual_report"] = oracle.residual_report(
            arg, p, cfg.mode).as_dict()
    if v["mode_match_oracle"]:
        if isinstance(p, RobinProblem):
            raise ValidationError(
                "mode_match_oracle applies to two-layer problems")
        metrics = {}
        for layer, key in ((1, "layer1"), (2, "layer2")):
            fld = fields[key]
            ref = _oracle(oracle.mode_match_reference, p, fld.x_nodes,
                          fld.y_nodes, layer)
            m = oracle.compare(fld, FieldGrid(fld.x_range, fld.y_range, ref,
                                              fld.layer_boundary))
            metrics[key] = {"linf": m.linf, "l2": m.l2}
        payload["mode_match_comparison"] = metrics
    if v["fd_oracle"]:
        fd = _oracle(oracle.fd_solve, p, v["fd_x"], v["fd_nx"], v["fd_ny"],
                     far_tol=v["far_tol"])
        series_on_fd = _solution_on_nodes(cfg, fd.x_nodes, fd.y_nodes)
        m = oracle.compare(fd, FieldGrid(fd.x_range, fd.y_range, series_on_fd,
                                         fd.layer_boundary))
        payload["fd_comparison"] = {"linf": m.linf, "l2": m.l2,
                                    "fd_nx": v["fd_nx"], "fd_ny": v["fd_ny"]}
    return payload


def _solution_on_nodes(cfg: RunConfig, xs, ys) -> np.ndarray:
    """Evaluate the configured solver's solution on arbitrary nodes."""
    p = cfg.problem
    s = cfg.solver
    if isinstance(p, RobinProblem):
        vals, _ = transmute.robin_values(p, xs, ys, cfg.mode,
                                         eps_max=s["eps_max"],
                                         quad_tol=s["quad_tol"])
        return vals
    series = transmute.build_layer_operators(
        p, cfg.mode, series_tol=s["series_tol"], j_max=s["j_max"])
    xs = np.asarray(xs, dtype=float)
    out = np.empty((xs.size, np.asarray(ys).size, p.dim))
    mask1 = xs <= p.l
    for op, mask in ((series.layer1, mask1), (series.layer2, ~mask1)):
        if np.any(mask):
            out[mask] = transmute.apply_operator(op, p.trace, xs[mask], ys)
    return out


def run_verify(cfg: RunConfig) -> int:
    """Solve plus enabled oracle checks; writes verify.json as well."""
    t0 = time.perf_counter()
    fields, report = _solve(cfg)
    payload = _verify_payload(cfg, fields)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    for name, fld in fields.items():
        write_field_csv(cfg.output_dir / f"{name}.csv", fld)
    _write_json(cfg.output_dir / "report.json", _report_json(report, cfg))
    _write_json(cfg.output_dir / "verify.json", payload)
    elapsed = time.perf_counter() - t0
    print(f"verified in {elapsed:.3f}s")
    print(_identity_statement(cfg))
    for section, metrics in payload.items():
        print(f"  {section}: {json.dumps(metrics, sort_keys=True)}")
    return 0


def run_convergence(cfg: RunConfig, resolutions) -> int:
    """Error-vs-resolution table for the fd oracle plus an image-series
    order sweep (two-layer only); writes convergence.csv."""
    if not resolutions:
        raise ValidationError("resolutions list must not be empty")
    resolutions = [_integer(r, "resolutions", minimum=5) for r in resolutions]
    p = cfg.problem
    v = cfg.verify
    rows = []

    truncation_x = v["fd_x"]
    if p.trace.min_positive_omega is None:
        raise ValidationError("convergence study needs a decaying mode trace")
    y_span = _oracle(oracle.fd_y_span, p.trace)
    prev_err = None
    for nx in resolutions:
        ny = max(8, int(round((nx - 1) * y_span / truncation_x)))
        fd = _oracle(oracle.fd_solve, p, truncation_x, nx, ny,
                     far_tol=v["far_tol"])
        ref = _truncated_reference(p, fd)
        err = oracle.compare(fd, ref).linf
        h = truncation_x / (nx - 1)
        ratio = prev_err / err if prev_err is not None else float("nan")
        rows.append(("fd", nx, h, err, ratio))
        prev_err = err

    if isinstance(p, TwoLayerProblem):
        grid = cfg.grid
        prev_err = None
        for j in range(0, 7):
            f1, f2, _ = transmute.solve_two_layer(
                p, grid, cfg.mode, series_tol=0.0, j_max=j)
            err = 0.0
            for layer, fld in ((1, f1), (2, f2)):
                ref = _oracle(oracle.mode_match_reference, p, fld.x_nodes,
                              fld.y_nodes, layer)
                err = max(err, float(np.abs(fld.values - ref).max()))
            ratio = prev_err / err if prev_err is not None else float("nan")
            rows.append(("series", j, float("nan"), err, ratio))
            prev_err = err

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    lines = ["kind,param,h,error,ratio"]
    for kind, param, h, err, ratio in rows:
        lines.append(f"{kind},{param},{h:.17g},{err:.17g},{ratio:.17g}")
    (cfg.output_dir / "convergence.csv").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


def _truncated_reference(problem, fd: FieldGrid) -> FieldGrid:
    """Exact solution of the truncated-domain problem on the fd grid."""
    xs, ys = fd.x_nodes, fd.y_nodes
    truncation_x = fd.x_range[1]
    if isinstance(problem, TwoLayerProblem):
        vals = np.zeros_like(fd.values)
        mask1 = xs <= problem.l
        for layer, mask in ((1, mask1), (2, ~mask1)):
            if np.any(mask):
                vals[mask] = _oracle(oracle.mode_match_reference, problem,
                                     xs[mask], ys, layer,
                                     truncation_x=truncation_x)
    else:
        vals = np.zeros_like(fd.values)
        for m in problem.trace.modes:
            for amp, trig in ((m.cos_amp, "cos"), (m.sin_amp, "sin")):
                if not np.any(amp != 0.0):
                    continue
                sol = _oracle(oracle.robin_mode_solution, problem, m.omega,
                              amp, trig, truncation_x=truncation_x)
                vals += sol.values(xs, ys)
    return FieldGrid(fd.x_range, fd.y_range, vals, fd.layer_boundary)


# ---------------------------------------------------------------------------
# Entry point


def _load_config(path: str, out_override, mode_override) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    cfg = parse_config(text)
    if out_override:
        cfg.output_dir = Path(out_override)
        cfg.raw = serialize_config(cfg)
    if mode_override:
        cfg.solver["mode"] = mode_override
        cfg.raw = serialize_config(cfg)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="layerfield",
        description="Half-plane layered-medium and Robin field solver")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("solve", "verify", "convergence"):
        sp = sub.add_parser(verb)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--mode", default=None,
                        choices=("literal", "calibrated"),
                        help="convention mode override")
        if verb == "solve":
            sp.add_argument("--verify", action="store_true",
                            help="also run the enabled oracle checks")
        if verb == "convergence":
            sp.add_argument("--resolutions", type=int, nargs="+",
                            default=(65, 129),
                            help="fd x-node counts, coarse to fine")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config, args.out, args.mode)
        if args.verb == "solve" and not getattr(args, "verify", False):
            return run_solve(cfg)
        if args.verb == "solve" or args.verb == "verify":
            return run_verify(cfg)
        return run_convergence(cfg, list(args.resolutions))
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (LayerFieldError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
