"""dispersia benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed or built. Every pass runs in a fresh
interpreter (``perfbench/child.py``), one at a time.

``--trace 0`` times set-up in fresh interpreters (median of SETUP_SAMPLES),
then runs untraced passes for about ``--seconds`` (at least one) and prints
the end-to-end metrics; both times are scaled to a nominal host speed
measured by ``perfbench/speed.py``. ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics; the traced passes must give
the same checks and margins as the untraced ones. The last line of stdout is the
JSON result; the full record (versions, every pass, the transform table) is
written to ``.bench_out/``. Workloads, metrics and the layer map are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("linear-dense", "nls-trajectory", "dense-mixed")
REQUIRED = ("src/dispersia/__init__.py", "scripts/configs")
SETUP_SAMPLES = 5
# probes taken just before and just after each set-up sample
SETUP_PROBES = 25
CHILD_TIMEOUT_S = 170

# Fixed rows of the per-size transform table; any other shape goes to "other".
TRANSFORM_ROWS = (
    "200x200x200.ax0", "200x200x200.ax1", "200x200x200.ax2",
    "512x512", "1024x1024", "1024x1120", "243x243", "256x256", "1120x1120", "other",
)
# per-layer metric -> (span name, field of the span summary)
SPAN_METRICS = {
    "propagators.product_propagate.n": ("propagators.product_propagate", "n"),
    "propagators.product_propagate.self_s": ("propagators.product_propagate", "self_s"),
    "propagators.boundary_mass_fraction.n": ("propagators.boundary_mass_fraction", "n"),
    "propagators.boundary_mass_fraction.s": ("propagators.boundary_mass_fraction", "s"),
    "propagators.two_particle_propagate.s": ("propagators.two_particle_propagate", "s"),
    "hyperbolic.h3_axis_propagate.n": ("hyperbolic.h3_axis_propagate", "n"),
    "hyperbolic.h3_axis_propagate.s": ("hyperbolic.h3_axis_propagate", "s"),
    "fields.Field.n": ("fields.Field", "n"),
    "fields.Field.s": ("fields.Field", "s"),
    "fields.lp_norm.n": ("fields.lp_norm", "n"),
    "fields.lp_norm.s": ("fields.lp_norm", "s"),
    "decay.norm_series.self_s": ("decay.norm_series", "self_s"),
    "decay.strichartz_norm.n": ("decay.strichartz_norm", "n"),
    "decay.strichartz_norm.s": ("decay.strichartz_norm", "s"),
    "decay.fit_decay_exponent.s": ("decay.fit_decay_exponent", "s"),
    "nls.picard_iterate.s": ("nls.picard_iterate", "s"),
    "nls.splitstep_nls.s": ("nls.splitstep_nls", "s"),
    "nls.scattering_diagnostic.s": ("nls.scattering_diagnostic", "s"),
    "nls.apply_nonlinearity.n": ("nls.apply_nonlinearity", "n"),
    "nls.apply_nonlinearity.s": ("nls.apply_nonlinearity", "s"),
    "experiments.parse_config.s": ("experiments.parse_config", "s"),
    "experiments.run.self_s": ("experiments.run", "self_s"),
}
COUNTER_METRICS = ("nls.picard.iterations", "nls.splitstep_nls.steps")


def unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "s_per_call") or last.endswith("_s"):
        return "s"
    return {"bytes_computed": "B", "artifact_bytes": "B", "flops_computed": "flop",
            "peak_rss_mb": "MB", "pass_frac": "frac", "verdict_margin": "frac"}.get(last, "count")


def transform_row(t: dict) -> str:
    label = "x".join(map(str, t["shape"]))
    if len(t["shape"]) == 3:
        label += ".ax" + "".join(map(str, t["axes"]))
    return label if label in TRANSFORM_ROWS else "other"


def layer_metrics(p: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    tr = p["trace"]
    spans = tr["spans"]
    m = {name: float(spans.get(span, {}).get(field, 0)) for name, (span, field) in SPAN_METRICS.items()}
    for name in COUNTER_METRICS:
        m[name] = float(tr["counters"].get(name, 0))
    ts = tr["transforms"]
    m["propagators.transform.n"] = float(sum(t["n"] for t in ts))
    m["propagators.transform.s"] = sum(t["s"] for t in ts)
    m["propagators.transform.bytes_computed"] = float(sum(t["bytes_computed"] for t in ts))
    m["propagators.transform.flops_computed"] = float(sum(t["flops_computed"] for t in ts))
    for row in TRANSFORM_ROWS:
        sel = [t for t in ts if transform_row(t) == row]
        n = sum(t["n"] for t in sel)
        m[f"transform.{row}.n"] = float(n)
        m[f"transform.{row}.s_per_call"] = sum(t["s"] for t in sel) / n if n else 0.0
        m[f"transform.{row}.bytes_computed"] = float(sum(t["bytes_computed"] for t in sel))
    m["experiments.artifact_bytes"] = float(p["artifact_bytes"])
    m["trace.run_s"] = p["wall_s"]
    m["trace.self_sum_s"] = tr["self_sum_s"]
    m["trace.unspanned_s"] = p["wall_s"] - tr["self_sum_s"]
    return m


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def spawn(args: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, CHILD, *args], env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {' '.join(args)} exited with code {proc.returncode}")
    return wall, proc


def run_pass(workload: str, seed: int, trace: bool, env: dict) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--mode", "pass"]
    _, proc = spawn(args + (["--trace"] if trace else []), env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def signature(p: dict) -> list:
    return [(c["name"], c["ok"], c["margin"]) for c in p["checks"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"not a dispersia source checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    start = time.perf_counter()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": nproc}

    # set-up samples at the nominal host speed, and their wall seconds
    setup, setup_wall = [], []
    if not args.trace:
        # probes and set-up children share one CPU, so the probes see the
        # speed of the CPU the set-up runs on
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        probe = speed.Probe()
        for _ in range(SETUP_SAMPLES):
            before = [probe() for _ in range(SETUP_PROBES)]
            wall, _ = spawn(["--workload", args.workload, "--seed", str(args.seed), "--mode", "setup"], env)
            after = [probe() for _ in range(SETUP_PROBES)]
            setup.append(wall * speed.speed_ratio(before + after, speed.PROBE_BACK_TO_BACK_NOMINAL_S))
            setup_wall.append(wall)
        os.sched_setaffinity(0, allowed)
    # each round is one untraced pass, plus one traced pass in trace mode;
    # rounds fill --seconds, estimated from the first round's wall time
    untraced, traced, rounds = [], [], 0
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(args.workload, args.seed, False, env))
        if args.trace:
            traced.append(run_pass(args.workload, args.seed, True, env))
        rounds += 1
        if rounds == 1:
            planned = max(1, round(args.seconds / (time.perf_counter() - t0)))
        if rounds >= planned:
            break

    checks = [c for p in untraced + traced for c in p["checks"]]
    attempted, failed = len(checks), sum(not c["ok"] for c in checks)
    for u, t in zip(untraced, traced):
        attempted += 1
        failed += signature(u) != signature(t)
    margins = [c["margin"] for c in checks if c["margin"] is not None]
    run_s = statistics.median(p["run_s"] for p in untraced)
    if args.trace:
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["run.wall_s"] = statistics.median(p["wall_s"] for p in untraced)
        metrics["run.probe_s"] = statistics.median(s for p in untraced for s in p["probe_s"])
        metrics["trace_overhead_s"] = metrics["trace.run_s"] - metrics["run.wall_s"]
    else:
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in untraced),
            "pass_frac": 1.0 - failed / attempted,
            # -1 when no margin could be read at all (the run is then incorrect)
            "verdict_margin": min(margins) if margins else -1.0,
        }
    result = {"correct": failed == 0 and bool(margins), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit(k)} for k, v in sorted(metrics.items())}}

    versions = untraced[0]["versions"]
    print(f"env: nproc={nproc} " + " ".join(f"{k}={v}" for k, v in versions.items()))
    print(f"{args.workload} seed={args.seed}: order={untraced[0]['order']} rounds={rounds} "
          f"run_s={[round(p['run_s'], 3) for p in untraced]} wall_s={[round(p['wall_s'], 3) for p in untraced]} "
          f"setup_s={[round(s, 3) for s in setup]} setup_wall_s={[round(s, 3) for s in setup_wall]}")
    for c in untraced[0]["checks"]:
        print(f"  [{'ok' if c['ok'] else 'FAILED'}] {c['name']}"
              + (f" margin={c['margin']:.6g}" if c["margin"] is not None else "")
              + (f"  {c['detail']}" if c["detail"] and not c["ok"] else ""))
    if traced:
        print("transforms (traced pass): func shape axes n s_per_call bytes_computed")
        for t in traced[-1]["trace"]["transforms"]:
            print(f"  {t['func']:6s} {'x'.join(map(str, t['shape'])):14s} {t['axes']} {t['n']:6d} "
                  f"{t['s'] / t['n']:.3e} {t['bytes_computed']:.3e}")
        if traced[-1]["trace"]["missing_targets"]:
            print(f"untraced (absent from the package): {traced[-1]['trace']['missing_targets']}")
    record.update(versions=versions, setup_s=setup, setup_wall_s=setup_wall, untraced=untraced, traced=traced,
                  wall_s=time.perf_counter() - start, result=result)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
