"""Freeze the sampled_trace reference values at the current commit.

Runs ``layerfield solve`` for every Gaussian centre the workload generator
can pick, at unit amplitude, and writes the probe values of both layer
CSVs to frozen_sampled.json. The file was written at the commit that
introduced the benchmark; regenerate it only when a change to the sampled
base field is meant to change its values, and say so in that change.

Run from the repository root: ``python3 perfbench/freeze.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layerfield import cli, transmute  # noqa: E402

import gates  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="freeze-", dir=ROOT))
    try:
        centres = []
        for centre in workloads.SAMPLED_CENTRES:
            cfg_path = scratch / "sampled.json"
            raw = workloads.sampled_config(centre, 1.0)
            cfg_path.write_text(json.dumps(raw))
            out = scratch / "out"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["solve", "--config", str(cfg_path),
                               "--out", str(out)])
            if rc != 0:
                raise SystemExit(f"solve failed for centre {centre}: {rc}")
            cfg = cli.parse_config(cfg_path.read_text())
            grids = transmute.split_grid_at_interface(cfg.grid, cfg.problem.l)
            entry = {"centre": centre}
            for layer, spec in zip((1, 2), grids):
                vals = gates.read_field_csv(out / f"layer{layer}.csv",
                                            spec.x_nodes, spec.y_nodes, 1)
                entry[f"layer{layer}"] = gates.frozen_probes(vals)
            centres.append(entry)
    finally:
        shutil.rmtree(scratch)
    gates.FROZEN_PATH.write_text(json.dumps(
        {"amplitude": 1.0, "probes": "every 7th x and y node of each layer",
         "centres": centres}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
