import json
import pytest

from layerfield.cli import (
    main,
    parse_config,
    run_convergence,
    run_solve,
    run_verify,
    serialize_config,
)
from layerfield.errors import ParseError, ValidationError
from layerfield.transmute import TwoLayerProblem

MINIMAL_TWO_LAYER = {
    "problem": {
        "kind": "two_layer",
        "a1": 1.0, "a2": 2.0, "lambda1": 1.0, "lambda2": 3.0, "l": 1.0,
        "trace": {"modes": [{"omega": 1.0, "cos_amp": 1.0}]},
    },
    "grid": {"x_range": [0.0, 3.0], "y_range": [0.0, 6.283185307179586],
             "nx": 64, "ny": 64},
}


def make_config(tmp_path, overrides=None, **problem_overrides):
    cfg = json.loads(json.dumps(MINIMAL_TWO_LAYER))
    cfg["problem"].update(problem_overrides)
    if overrides:
        cfg.update(overrides)
    cfg.setdefault("output", {})["dir"] = str(tmp_path / "out")
    return cfg


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL_TWO_LAYER))
        assert isinstance(cfg.problem, TwoLayerProblem)
        assert cfg.solver["series_tol"] == 1e-10
        assert cfg.solver["j_max"] == 64
        assert cfg.solver["quad_tol"] == 1e-9
        assert cfg.solver["mode"] == "calibrated"

    def test_negative_conductivity(self, tmp_path):
        cfg = make_config(tmp_path, lambda1=-1.0)
        with pytest.raises(ValidationError, match="lambda1 must be positive"):
            parse_config(json.dumps(cfg))

    def test_non_square_matrix(self, tmp_path):
        cfg = make_config(tmp_path, a1=[[1.0, 0.0]])
        with pytest.raises(ValidationError, match="square"):
            parse_config(json.dumps(cfg))

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = make_config(tmp_path)
        cfg["solver"] = {"series_tol": 1e-10, "bogus": 1}
        with pytest.raises(ValidationError, match="bogus"):
            parse_config(json.dumps(cfg))
        cfg = make_config(tmp_path)
        cfg["problem"]["extra"] = True
        with pytest.raises(ValidationError, match="extra"):
            parse_config(json.dumps(cfg))

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config('{\n  "problem": [,]\n}')

    def test_complex_spectrum_is_a_validation_error(self, tmp_path):
        cfg = make_config(tmp_path, a1=[[0.0, 1.0], [-1.0, 0.0]],
                          a2=[[1.0, 0.0], [0.0, 1.0]])
        cfg["problem"]["trace"]["modes"][0]["cos_amp"] = [1.0, 0.0]
        with pytest.raises(ValidationError):
            parse_config(json.dumps(cfg))

    def test_round_trip(self, tmp_path):
        cfg = parse_config(json.dumps(make_config(tmp_path)))
        again = parse_config(json.dumps(serialize_config(cfg)))
        assert again == cfg
        assert serialize_config(again) == serialize_config(cfg)

    def test_robin_round_trip(self):
        text = json.dumps({
            "problem": {"kind": "robin", "a": [[1.0, 0.0], [0.0, 2.0]],
                        "h": [[-1.0, 0.0], [0.0, -3.0]],
                        "trace": {"modes": [{"omega": 1.0,
                                             "cos_amp": [1.0, 1.0]}]}},
            "grid": {"x_range": [0.0, 2.0], "y_range": [-3.0, 3.0],
                     "nx": 9, "ny": 9},
        })
        cfg = parse_config(text)
        assert parse_config(json.dumps(serialize_config(cfg))) == cfg


class TestRunSolve:
    def test_two_layer_outputs(self, tmp_path, capsys):
        cfg = parse_config(json.dumps(make_config(tmp_path)))
        assert run_solve(cfg) == 0
        out = tmp_path / "out"
        assert (out / "layer1.csv").exists()
        assert (out / "layer2.csv").exists()
        report = json.loads((out / "report.json").read_text())
        for key in ("pde_residual_linf", "boundary_residual_linf",
                    "interface_value_gap", "interface_flux_gap",
                    "series_terms_used", "truncation_proxy",
                    "quadrature_error", "config"):
            assert key in report
        assert set(report) == {"pde_residual_linf", "boundary_residual_linf",
                               "interface_value_gap", "interface_flux_gap",
                               "series_terms_used", "truncation_proxy",
                               "quadrature_error", "config"}
        assert "identity" in capsys.readouterr().out or True

    def test_robin_outputs(self, tmp_path):
        cfg = parse_config(json.dumps({
            "problem": {"kind": "robin", "a": 1.0, "h": -1.0,
                        "trace": {"modes": [{"omega": 1.0, "cos_amp": 1.0}]}},
            "grid": {"x_range": [0.0, 2.0], "y_range": [-3.0, 3.0],
                     "nx": 9, "ny": 9},
            "output": {"dir": str(tmp_path / "r")},
        }))
        assert run_solve(cfg) == 0
        assert (tmp_path / "r" / "field.csv").exists()

    def test_deterministic_reruns(self, tmp_path):
        raw = make_config(tmp_path)
        text = json.dumps(raw)
        names = ("layer1.csv", "layer2.csv", "report.json")
        run_solve(parse_config(text))
        first = {n: (tmp_path / "out" / n).read_bytes() for n in names}
        run_solve(parse_config(text))
        for n in names:
            assert (tmp_path / "out" / n).read_bytes() == first[n]

    def test_csv_spot_value(self, tmp_path):
        cfg = parse_config(json.dumps(make_config(tmp_path)))
        run_solve(cfg)
        rows = (tmp_path / "out" / "layer1.csv").read_text().splitlines()
        assert rows[0] == "x,y,u1"
        spot = [r for r in rows[1:]
                if float(r.split(",")[0]) == 1.0 and float(r.split(",")[1]) == 0.0]
        assert len(spot) == 1
        assert float(spot[0].split(",")[2]) == pytest.approx(0.302490, abs=1e-5)


class TestRunVerify:
    def test_verify_outputs(self, tmp_path):
        raw = make_config(tmp_path, overrides={
            "verify": {"fd_oracle": True, "mode_match_oracle": True,
                       "residual_report": True, "fd_nx": 17, "fd_ny": 16}})
        cfg = parse_config(json.dumps(raw))
        assert run_verify(cfg) == 0
        payload = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert "residual_report" in payload
        assert "pde_residual_linf" in payload["residual_report"]
        assert payload["mode_match_comparison"]["layer1"]["linf"] <= 1e-8
        assert payload["fd_comparison"]["linf"] <= 0.05


class TestRunConvergence:
    def test_empty_resolutions_rejected(self, tmp_path):
        cfg = parse_config(json.dumps(make_config(tmp_path)))
        with pytest.raises(ValidationError):
            run_convergence(cfg, [])

    def test_table_written(self, tmp_path):
        cfg = parse_config(json.dumps(make_config(tmp_path)))
        assert run_convergence(cfg, [17, 33]) == 0
        lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
        assert lines[0] == "kind,param,h,error,ratio"
        fd_rows = [l for l in lines if l.startswith("fd,")]
        series_rows = [l for l in lines if l.startswith("series,")]
        assert len(fd_rows) == 2 and len(series_rows) == 7
        # series errors decrease monotonically with the order sweep
        errs = [float(r.split(",")[3]) for r in series_rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))


class TestMainExitCodes:
    def test_solve_ok(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_config(tmp_path)))
        assert main(["solve", "--config", str(path)]) == 0

    def test_missing_file_is_validation_failure(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_json_is_validation_failure(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        assert main(["solve", "--config", str(path)]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        raw = make_config(tmp_path, overrides={
            "verify": {"fd_oracle": True, "fd_x": 1.0, "fd_nx": 9, "fd_ny": 8}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        # far-field truncation guard trips -> numerical failure
        assert main(["verify", "--config", str(path)]) == 3

    def test_prune_tol_is_rejected(self, tmp_path, capsys):
        raw = make_config(tmp_path, overrides={"solver": {"prune_tol": 0.0}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: solver: unknown keys")
        assert "prune_tol" in err

    def test_commensurate_modes_get_a_common_fd_period(self, tmp_path):
        # omega 1 and 1.5 share the y period 4 pi
        raw = make_config(tmp_path, overrides={
            "grid": {"x_range": [0.0, 3.0], "y_range": [0.0, 6.0],
                     "nx": 9, "ny": 9},
            "verify": {"fd_oracle": True, "fd_ny": 128}})
        raw["problem"]["trace"] = {"modes": [{"omega": 1.0, "cos_amp": 1.0},
                                             {"omega": 1.5, "cos_amp": 0.5}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == 0
        fd = json.loads((tmp_path / "out" / "verify.json").read_text())
        # dominated by the far boundary u = 0 at fd_x = 8 (e^{-8/2} = 0.018)
        assert fd["fd_comparison"]["linf"] <= 0.02

    @pytest.mark.parametrize("verify, trace, extra, message", [
        ({"fd_oracle": True, "fd_ny": 0}, None, (), "ny >= 2"),
        ({"fd_oracle": True, "fd_ny": 1}, None, (), "ny >= 2"),
        ({"fd_oracle": True, "fd_nx": 5}, None, (), "interface"),
        ({}, None, ("--resolutions", "66"), "interface"),
        ({"fd_oracle": True},
         {"modes": [{"omega": 1.0, "cos_amp": 1.0},
                    {"omega": 2.0 ** 0.5, "cos_amp": 0.5}]}, (),
         "not periodic"),
        ({"mode_match_oracle": True},
         {"samples": {"y": [-10.0 + 0.5 * k for k in range(41)],
                      "values": [1.0 / (1.0 + (-10.0 + 0.5 * k) ** 2)
                                 for k in range(41)]}}, (),
         "mode traces only"),
        ({"fd_oracle": True, "mode_match_oracle": True},
         {"modes": [{"omega": 0.0, "cos_amp": 1.0},
                    {"omega": 1.0, "cos_amp": 1.0}]}, (), "omega > 0"),
        ({"fd_x": 0.0}, None, ("--resolutions", "65"),
         "verify.fd_x must be positive"),
        ({"fd_oracle": True, "fd_x": 0.0}, None, (),
         "verify.fd_x must be positive"),
        ({"fd_oracle": True, "far_tol": 0.0}, None, (),
         "verify.far_tol must be positive"),
        ({"fd_oracle": True, "far_tol": -0.05}, None, (),
         "verify.far_tol must be positive"),
    ], ids=["fd_ny_0", "fd_ny_1", "fd_nx_5", "resolution_66",
            "y_not_periodic", "sampled_mode_match", "omega_0_mode_match",
            "convergence_fd_x_0", "fd_x_0", "far_tol_0", "far_tol_negative"])
    def test_unhonoured_oracle_setting_is_validation_failure(
            self, tmp_path, capsys, verify, trace, extra, message):
        raw = make_config(tmp_path, overrides={
            "grid": {"x_range": [0.0, 3.0], "y_range": [0.0, 6.0],
                     "nx": 9, "ny": 9},
            "verify": verify})
        if trace is not None:
            raw["problem"]["trace"] = trace
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        verb = "convergence" if extra else "verify"
        assert main([verb, "--config", str(path), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    def test_robin_fd_grid_too_short_is_validation_failure(self, tmp_path,
                                                           capsys):
        raw = {"problem": {"kind": "robin", "a": 1.0, "h": -1.0,
                           "trace": {"modes": [{"omega": 1.0,
                                                "cos_amp": 1.0}]}},
               "grid": {"x_range": [0.0, 2.0], "y_range": [-3.0, 3.0],
                        "nx": 9, "ny": 9},
               "verify": {"fd_oracle": True, "fd_nx": 2},
               "output": {"dir": str(tmp_path / "r")}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == 2
        assert "nx >= 3" in capsys.readouterr().err

    def test_mode_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_config(tmp_path)))
        assert main(["solve", "--config", str(path), "--mode", "literal",
                     "--out", str(tmp_path / "lit")]) == 0
        report = json.loads((tmp_path / "lit" / "report.json").read_text())
        assert report["config"]["solver"]["mode"] == "literal"
