"""Seeded workload generator for the layerfield benchmark.

Each workload is a fixed sequence of CLI calls (ops) on configs generated
from a seed. The seed varies amplitudes, phases and the sampled-profile
centre only; grid sizes, the field dimension n, frequencies and term
counts are fixed, so every seed does the same amount of work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Centres of the sampled Gaussian. The seed picks one of these; the frozen
# reference values in frozen_sampled.json are stored per centre for unit
# amplitude, and the solution is linear in the amplitude.
SAMPLED_CENTRES = tuple(round(-1.5 + 0.2 * k, 10) for k in range(16))
SAMPLED_NODES = 401
SAMPLED_SPAN = (-20.0, 20.0)

FD_RESOLUTIONS = ("65", "129", "257")


@dataclass(frozen=True)
class Op:
    """One CLI call: ``layerfield <verb> --config <config> [extra...]``."""

    name: str
    verb: str
    config: str
    extra: tuple = ()


@dataclass(frozen=True)
class Workload:
    configs: dict        # config name -> JSON-able config dict
    ops: tuple           # fixed op sequence of one pass
    params: dict         # seeded values the correctness gates need


def _amp_phase(rng: random.Random, lo: float = 0.5, hi: float = 2.0):
    amp = rng.uniform(lo, hi)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return amp * math.cos(phase), amp * math.sin(phase)


def _shipped(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / name).read_text())


def _reseed_single_mode(cfg: dict, rng: random.Random) -> dict:
    """Replace the amplitudes of a shipped one-mode scalar trace."""
    (mode,) = cfg["problem"]["trace"]["modes"]
    c, s = _amp_phase(rng)
    mode["cos_amp"], mode["sin_amp"] = c, s
    return cfg


def grid_io(root: Path, rng: random.Random) -> Workload:
    two = _reseed_single_mode(_shipped(root, "two_layer_benchmark.json"), rng)
    rob = _reseed_single_mode(_shipped(root, "robin_scalar.json"), rng)
    for cfg in (two, rob):
        cfg["grid"]["nx"] = cfg["grid"]["ny"] = 512
    ops = (Op("solve_two_layer", "solve", "two_layer"),
           Op("verify_two_layer", "verify", "two_layer"),
           Op("solve_robin", "solve", "robin"),
           Op("verify_robin", "verify", "robin"))
    return Workload({"two_layer": two, "robin": rob}, ops, {})


def vector_transforms(root: Path, rng: random.Random) -> Workload:
    del root
    cos3, sin3 = zip(*(_amp_phase(rng) for _ in range(3)))
    two = {
        "problem": {
            "kind": "two_layer",
            "a1": [[1.0, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 2.0]],
            "a2": [[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 0.7]],
            "lambda1": 1.0, "lambda2": 3.0, "l": 1.0,
            "trace": {"modes": [{"omega": 1.0, "cos_amp": list(cos3),
                                 "sin_amp": list(sin3)}]},
        },
        "grid": {"x_range": [0.0, 3.0], "y_range": [0.0, 2.0 * math.pi],
                 "nx": 128, "ny": 128},
        "solver": {"mode": "calibrated", "series_tol": 1e-12},
        "verify": {"fd_oracle": True, "mode_match_oracle": True,
                   "residual_report": True,
                   "fd_x": 12.0, "fd_nx": 97, "fd_ny": 64},
    }
    modes = []
    for k in range(1, 17):
        pairs = [_amp_phase(rng, 0.5 / k, 1.5 / k) for _ in range(2)]
        modes.append({"omega": float(k),
                      "cos_amp": [p[0] for p in pairs],
                      "sin_amp": [p[1] for p in pairs]})
    rob = {
        "problem": {"kind": "robin", "a": [[1.0, 0.0], [0.0, 2.0]],
                    "h": [[-1.0, 0.0], [0.0, -0.5]],
                    "trace": {"modes": modes}},
        "grid": {"x_range": [0.0, 4.0], "y_range": [-math.pi, math.pi],
                 "nx": 128, "ny": 128},
        "solver": {"mode": "calibrated"},
    }
    ops = (Op("verify_vector_two_layer", "verify", "vector_two_layer"),
           Op("solve_robin_16_modes", "solve", "robin_16_modes"))
    return Workload({"vector_two_layer": two, "robin_16_modes": rob}, ops, {})


def sampled_config(centre: float, amplitude: float) -> dict:
    """Two-layer config whose trace is a unit-width Gaussian, sampled."""
    lo, hi = SAMPLED_SPAN
    step = (hi - lo) / (SAMPLED_NODES - 1)
    ys = [lo + step * k for k in range(SAMPLED_NODES)]
    vals = [amplitude * math.exp(-0.5 * (y - centre) ** 2) for y in ys]
    return {
        "problem": {
            "kind": "two_layer", "a1": 1.0, "a2": 2.0,
            "lambda1": 1.0, "lambda2": 3.0, "l": 1.0,
            "trace": {"samples": {"y": ys, "values": vals}},
        },
        "grid": {"x_range": [0.0, 3.0], "y_range": [-5.0, 5.0],
                 "nx": 64, "ny": 64},
        "solver": {"mode": "calibrated"},
        "verify": {"residual_report": True},
    }


def sampled_trace(root: Path, rng: random.Random) -> Workload:
    del root
    centre_index = rng.randrange(len(SAMPLED_CENTRES))
    amplitude = rng.uniform(0.5, 2.0)
    cfg = sampled_config(SAMPLED_CENTRES[centre_index], amplitude)
    ops = (Op("solve_sampled", "solve", "sampled"),
           Op("verify_sampled", "verify", "sampled"))
    return Workload({"sampled": cfg}, ops,
                    {"centre_index": centre_index, "amplitude": amplitude})


def fd_convergence(root: Path, rng: random.Random) -> Workload:
    two = _reseed_single_mode(_shipped(root, "two_layer_benchmark.json"), rng)
    rob = _reseed_single_mode(_shipped(root, "robin_scalar.json"), rng)
    extra = ("--resolutions",) + FD_RESOLUTIONS
    ops = (Op("convergence_two_layer", "convergence", "two_layer", extra),
           Op("convergence_robin", "convergence", "robin", extra))
    return Workload({"two_layer": two, "robin": rob}, ops, {})


GENERATORS = {
    "grid_io": grid_io,
    "vector_transforms": vector_transforms,
    "sampled_trace": sampled_trace,
    "fd_convergence": fd_convergence,
}


def generate(name: str, seed: int, root: Path) -> Workload:
    """The named workload for a seed; ``root`` is the repository checkout."""
    return GENERATORS[name](root, random.Random(f"{name}:{seed}"))


def write_configs(workload: Workload, directory: Path) -> dict:
    """Write each config to ``directory``; returns config name -> path.

    Configs carry no output directory: every op passes its own ``--out``.
    """
    paths = {}
    for cname, cfg in workload.configs.items():
        path = directory / f"{cname}.json"
        path.write_text(json.dumps(cfg, indent=1))
        paths[cname] = path
    return paths
