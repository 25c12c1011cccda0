"""layerfield benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid_io --seed 1 --seconds 15 --trace 0

One closed-loop client drives ``layerfield.cli.main`` in this process: each
op starts when the previous one has finished. A run

1. generates the workload's configs from the seed into a scratch directory,
2. times set-up (import ``layerfield.cli`` and parse the configs) in fresh
   processes,
3. runs the first op once as a warm-up and the workload's fixed op
   sequence (a pass) once, and reads the peak memory before any gate runs,
4. repeats the pass until the ops have taken ``--seconds`` seconds, gating
   every op's outputs outside the timed region (gates.py), and
5. with ``--trace 1``, repeats step 4 for another ``--seconds`` with every
   public layerfield function wrapped (spans.py), for the per-layer split.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
metric names and units are those of BENCHMARK.json: the end-to-end list
with ``--trace 0``, the per-layer list with ``--trace 1``. Full results
(per-op samples, check diagnostics) go to ``.perfbench/results/`` and the
spans of a traced run to ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_PROBES = 5
# Nominal reference-kernel time: setup_s is set-up time in units of the
# kernel, times this, so that it reads in seconds.
REF_SECONDS = 0.1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


class ReferenceKernel:
    """Fixed work that does not touch layerfield, timed around every op.

    Wall time on a shared host drifts by a quarter or more between runs
    as other tenants load the CPU. Dividing each op's wall time by the mean
    of the kernel times measured just before and after it cancels most of
    that drift. The mix (Python loop, float formatting, small NumPy array
    ops) follows what the ops themselves spend time on.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20180514)
        self.np = np
        self.field = rng.standard_normal((128, 128, 3))
        self.weight = rng.standard_normal((3, 3))
        self.values = rng.standard_normal(40000).tolist()

    def __call__(self) -> float:
        np = self.np
        start = perf_counter()
        total = 0
        for i in range(600_000):
            total += i * i
        ",".join(f"{v:.17g}" for v in self.values)
        for _ in range(40):
            np.einsum("ij,xyj->xyi", self.weight, self.field)
            np.exp(-self.field)
            np.cos(self.field)
        return perf_counter() - start


class Bench:
    """State of one benchmark run."""

    def __init__(self, workload, config_paths, scratch: Path, kernel):
        from layerfield import cli

        self.cli = cli
        self.workload = workload
        self.config_paths = config_paths
        self.scratch = scratch
        self.records = []        # one dict per executed op
        self.verified = {}       # op name -> digests of outputs that passed
        self.checks = {}         # op name -> diagnostics of its first gate
        self.failures = []
        self.tracer = None
        self.kernel = kernel
        self.last_ref = None     # kernel seconds measured after the last op
        self.hold = False        # keep outputs ungated until gate_held()
        self.held = []           # (record, op, phase, output directory)

    def execute(self, op, phase: str, pass_index: int) -> dict:
        """Run one op (timed), then gate its outputs (untimed), or keep
        them for gate_held() while ``hold`` is set."""
        out = self.scratch / op.name
        shutil.rmtree(out, ignore_errors=True)
        argv = [op.verb, "--config", str(self.config_paths[op.config]),
                "--out", str(out), *op.extra]
        op_id = len(self.records)
        ref_before = self.last_ref if self.last_ref is not None \
            else self.kernel()
        if self.tracer is not None:
            self.tracer.op_id = op_id
        error = None
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # an uncaught exception fails the op
                code, error = None, f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
        if self.tracer is not None:
            self.tracer.op_id = -1
        self.last_ref = self.kernel()
        if error is None and code != 0:
            error = f"exit code {code}: {sink.getvalue().strip()[-300:]}"
        rec = {"op_id": op_id, "op": op.name, "verb": op.verb,
               "phase": phase, "pass": pass_index, "seconds": seconds,
               "ref_s": self.last_ref,
               "rel": 2.0 * seconds / (ref_before + self.last_ref),
               "ok": error is None, "output_bytes": 0,
               "series_warnings": sum(
                   type(w.message).__name__ == "SeriesDivergingWarning"
                   for w in caught)}
        self.records.append(rec)
        if error is not None:
            self._fail(rec, phase, error)
        elif self.hold:
            held = self.scratch / "held" / str(op_id)
            held.parent.mkdir(exist_ok=True)
            if out.exists():  # a missing output fails in gate_held()
                out.rename(held)
            self.held.append((rec, op, phase, held))
        else:
            self._finish(rec, op, phase, out)
        return rec

    def _fail(self, rec, phase: str, error: str):
        rec["ok"] = False
        self.failures.append(f"{rec['op']} ({phase}): {error}")

    def _finish(self, rec, op, phase: str, out: Path):
        try:
            rec["output_bytes"] = self._gate(op, out)
        except Exception as exc:  # malformed output fails the op
            self._fail(rec, phase, f"gate: {type(exc).__name__}: {exc}")

    def gate_held(self):
        """Gate the outputs kept while ``hold`` was set."""
        self.hold = False
        for rec, op, phase, out in self.held:
            self._finish(rec, op, phase, out)
            shutil.rmtree(out, ignore_errors=True)
        self.held.clear()

    def _gate(self, op, out: Path) -> int:
        """Check the op's outputs; returns their size in bytes.

        Outputs byte-identical to ones that already passed the full check
        pass without repeating it.
        """
        digest = hashlib.blake2b()
        size = 0
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            size += len(data)
        known = self.verified.setdefault(op.name, set())
        if digest.digest() in known:
            return size
        import gates

        diag = gates.check(op, self.config_paths[op.config], out,
                           self.workload.params)
        ok = diag.pop("ok")
        self.checks.setdefault(op.name, diag)
        if not ok:
            raise ValueError(f"outside tolerance: {diag}")
        known.add(digest.digest())
        return size

    def run_pass(self, phase: str, pass_index: int) -> list:
        return [self.execute(op, phase, pass_index)
                for op in self.workload.ops]

    def measure(self, phase: str, seconds: float, passes=()) -> list:
        """Repeat the op sequence until the ops, those of ``passes``
        included, have taken ``seconds``."""
        passes = list(passes)
        spent = sum(r["seconds"] for recs in passes for r in recs)
        while not passes or spent < seconds:
            recs = self.run_pass(phase, len(passes))
            spent += sum(r["seconds"] for r in recs)
            passes.append(recs)
        return passes


def _setup_seconds(config_paths, env, kernel) -> tuple:
    """Set-up time of fresh processes: in reference seconds, and raw.

    Like an op, each process's time is divided by the mean of the kernel
    times just before and after it; the median ratio times REF_SECONDS is
    the first value, the median raw time the second. The first process,
    which may write bytecode caches, is discarded.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           *map(str, config_paths.values())]
    rel, raw = [], []
    ref_before = kernel()
    for probe in range(SETUP_PROBES + 1):
        res = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=120, check=True)
        seconds = float(res.stdout.split()[-1])
        ref_after = kernel()
        if probe:
            rel.append(2.0 * seconds / (ref_before + ref_after))
            raw.append(seconds)
        ref_before = ref_after
    return REF_SECONDS * statistics.median(rel), statistics.median(raw)


def _per_op(passes, key: str) -> dict:
    by_op = {}
    for recs in passes:
        for r in recs:
            by_op.setdefault(r["op"], []).append(r[key])
    return {op: statistics.median(v) for op, v in by_op.items()}


def _pass_median(passes, key: str) -> float:
    return statistics.median([sum(r[key] for r in recs) for recs in passes])


def end_to_end(bench: Bench, passes, setup_s: float, rss_mb: float):
    """The gated end-to-end metrics, and the wall times (seconds, sample
    count) printed beside them."""
    attempted = len(bench.records)
    failed = sum(not r["ok"] for r in bench.records)
    rel_ops = _per_op(passes, "rel")
    metrics = {
        "setup_s": setup_s,
        "run_rel": _pass_median(passes, "rel"),
        "call_rel": _geomean(rel_ops.values()),
        "peak_rss_mb": rss_mb,
        "ok_ratio": (attempted - failed) / attempted,
    }
    sec_ops = _per_op(passes, "seconds")
    verbs = {}
    for op in bench.workload.ops:
        verbs.setdefault(op.verb, []).append(op.name)
    wall = {"run_s": (_pass_median(passes, "seconds"), len(passes))}
    for verb, names in verbs.items():
        wall[f"{verb}_s"] = (_geomean([sec_ops[n] for n in names]),
                             len(passes) * len(names))
    wall["call_s"] = (_geomean(sec_ops.values()),
                      len(passes) * len(bench.workload.ops))
    return metrics, wall, {op: (sec_ops[op], rel_ops[op]) for op in sec_ops}


def per_layer(bench: Bench, untraced, traced) -> dict:
    import spans

    tracer = bench.tracer
    groups = [[r["op_id"] for r in recs] for recs in traced]
    aggs = tracer.aggregate(groups)
    untraced_rel = _pass_median(untraced, "rel")
    rows = []
    for recs, agg in zip(traced, aggs):
        calls, total, self_s, counters = (agg["calls"], agg["total"],
                                          agg["self"], agg["counters"])
        module_self = dict.fromkeys(spans.MODULES, 0.0)
        for name, value in self_s.items():
            module_self[name.split(".", 1)[0]] += value
        op_seconds = sum(r["seconds"] for r in recs)
        building = sum("opalgebra.orders_used" in tracer.counters.get(
            r["op_id"], {}) for r in recs)
        row = {
            "cli.write_field_csv.self_s": self_s["cli.write_field_csv"],
            "cli.output_bytes": sum(r["output_bytes"] for r in recs),
            "cli.orchestration_self_s":
                module_self["cli"] - self_s["cli.write_field_csv"],
            "cli.parse_config_s": total["cli.parse_config"],
            "opalgebra.image_series.calls": calls["opalgebra.image_series"],
            "opalgebra.builds_per_op":
                calls["opalgebra.image_series"] / building if building else 0,
            "opalgebra.image_series.self_s": self_s["opalgebra.image_series"],
            "opalgebra.orders_used": counters.get("opalgebra.orders_used", 0),
            "opalgebra.terms": counters.get("opalgebra.terms", 0),
            "opalgebra.j_max_hits": counters.get("opalgebra.j_max_hits", 0),
            "opalgebra.compose.calls":
                calls["opalgebra.TermSumOperator.compose"],
            "opalgebra.merged.calls":
                calls["opalgebra.TermSumOperator.merged"],
            "transmute.apply_operator.calls":
                calls["transmute.apply_operator"],
            "transmute.apply_operator.self_s":
                self_s["transmute.apply_operator"],
            "transmute.apply_operator.term_evals":
                counters.get("transmute.apply_operator.term_evals", 0),
            "transmute.robin_values.self_s": self_s["transmute.robin_values"],
            "transmute.quadrature_error":
                counters.get("transmute.quadrature_error", 0.0),
            "transmute.solve_two_layer.self_s":
                self_s["transmute.solve_two_layer"],
            "transmute.series_warnings":
                sum(r["series_warnings"] for r in recs),
            "basefield.extension_values.calls":
                calls["basefield.extension_values"],
            "basefield.points": counters.get("basefield.points", 0),
            "basefield.extension_values.modes_s":
                total["basefield._mode_values"],
            "basefield.extension_values.sampled_s":
                total["basefield._sample_values"],
            "basefield.laplace_residual_linf.self_s":
                self_s["basefield.laplace_residual_linf"],
            "oracle.fd_solve.calls": calls["oracle.fd_solve"],
            "oracle.fd_solve.self_s": self_s["oracle.fd_solve"],
            "oracle.spsolve_s": total["oracle.spsolve"],
            "oracle.fd_unknowns": counters.get("oracle.fd_unknowns", 0),
            "oracle.mode_match_reference.self_s":
                self_s["oracle.mode_match_reference"],
            "oracle.compare.self_s": self_s["oracle.compare"],
            "oracle.residual_report.self_s": self_s["oracle.residual_report"],
            "spectral.eigendecompose.calls": calls["spectral.eigendecompose"],
            "spectral.eigendecompose.self_s":
                self_s["spectral.eigendecompose"],
            "trace.overhead": sum(r["rel"] for r in recs) / untraced_rel,
            "trace.coverage":
                (total["cli.main"] - self_s["cli.main"]) / op_seconds,
        }
        for module in spans.MODULES:
            row[f"{module}.self_s"] = module_self[module]
            row[f"{module}.errors"] = counters.get(f"{module}.errors", 0)
        rows.append(row)
    return {key: statistics.median([row[key] for row in rows])
            for key in rows[0]}


def _emit(declared: list, values: dict) -> dict:
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(names) - set(values))}, extra "
            f"{sorted(set(values) - set(names))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not ((SRC / "layerfield" / "cli.py").is_file()
            and (ROOT / "configs").is_dir()
            and (ROOT / "BENCHMARK.json").is_file()):
        print(f"perfbench: no layerfield checkout at {ROOT} "
              "(need src/layerfield, configs and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Cap BLAS threads before anything imports numpy: the modules below
    # (workloads, gates, spans, layerfield) are imported only after this.
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.GENERATORS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.GENERATORS)}", file=sys.stderr)
        return 2
    workload = workloads.generate(args.workload, args.seed, ROOT)
    STATE.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        config_paths = workloads.write_configs(workload, scratch)
        kernel = ReferenceKernel()
        setup_s, setup_raw_s = _setup_seconds(config_paths, dict(os.environ),
                                              kernel)
        bench = Bench(workload, config_paths, scratch, kernel)
        # The gates load whole output files and rebuild reference fields,
        # so the peak memory is read before the first of them runs.
        bench.hold = True
        bench.execute(workload.ops[0], "warmup", -1)
        first = bench.run_pass("untraced", 0)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bench.gate_held()
        untraced = bench.measure("untraced", args.seconds, [first])
        e2e, wall, op_medians = end_to_end(bench, untraced, setup_s, rss_mb)
        ref_s = statistics.median([r["ref_s"] for r in bench.records])
        result = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "end_to_end": e2e, "wall": wall, "ref_s": ref_s,
                  "setup_raw_s": setup_raw_s,
                  "ops": {k: {"median_s": sec, "median_rel": rel}
                          for k, (sec, rel) in op_medians.items()},
                  "records": bench.records,
                  "checks": bench.checks, "failures": bench.failures}
        if args.trace:
            import spans

            bench.tracer = spans.Tracer()
            bench.tracer.install()
            try:
                traced = bench.measure("traced", args.seconds)
            finally:
                bench.tracer.uninstall()
            layers = per_layer(bench, untraced, traced)
            result["per_layer"] = layers
            (STATE / "spans").mkdir(exist_ok=True)
            bench.tracer.write(STATE / "spans" /
                               f"{args.workload}-seed{args.seed}.jsonl.gz")
        attempted = len(bench.records)
        failed = sum(not r["ok"] for r in bench.records)
        result.update(attempted=attempted, failed=failed)
        (STATE / "results").mkdir(exist_ok=True)
        (STATE / "results" /
         f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = len(untraced)
    print(f"workload {args.workload} seed {args.seed}: {passes} passes of "
          f"{len(workload.ops)} ops after 1 warm-up op; "
          f"{attempted} ops attempted, {failed} failed")
    print(f"  setup_s      {setup_s:10.4f} s     median of {SETUP_PROBES} "
          f"fresh processes, in units of the kernel times {REF_SECONDS} s")
    print(f"  setup_raw_s  {setup_raw_s:10.4f} s     the same, wall time")
    print(f"  run_rel      {e2e['run_rel']:10.4f} ref   median of {passes} "
          f"passes; 1 ref = the reference kernel, median {ref_s:.4f} s")
    print(f"  call_rel     {e2e['call_rel']:10.4f} ref   geometric mean of "
          "per-op medians")
    for name, (value, n) in wall.items():
        print(f"  {name:<12} {value:10.4f} s     wall time, n={n}")
    print(f"  peak_rss_mb  {rss_mb:10.1f} MB    after the warm-up and the "
          "first pass, before any gate")
    print(f"  fail_ratio   {failed / attempted:10.4f}       "
          f"{failed} of {attempted} ops")
    for op, (sec, rel) in op_medians.items():
        print(f"  op {op:<26} {sec:.4f} s  {rel:.4f} ref  (medians)")
    for op, diag in bench.checks.items():
        for key, value in diag.items():
            print(f"  check.{op}.{key} = {value:.3g}")
    for failure in bench.failures[:5]:
        print(f"  FAILED {failure}")
    if args.trace:
        for key, value in layers.items():
            print(f"  {key:<40} {value:.6g}")
        metrics = _emit(declared["per_layer"], layers)
    else:
        metrics = _emit(declared["end_to_end"], e2e)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
