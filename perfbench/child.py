"""One step of the benchmark in a fresh interpreter: set-up alone, or one pass.

    python3 perfbench/child.py --workload W --seed N --mode setup
    python3 perfbench/child.py --workload W --seed N --mode pass [--trace]

``setup`` imports the package and prepares the workload's inputs (parses its
configs, or builds the seeded datum) and exits; the parent times the whole
process. ``pass`` does the same set-up untimed, then times one pass of the
workload, checks every output, and prints one JSON line with the pass time
(untraced: also scaled to the nominal host speed from the speed samples
taken during the pass), the process's own peak RSS, the checks and (with
``--trace``) the trace summary. Artifacts go to a temporary directory under ``.bench_out/`` that is
removed before exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import re
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dispersia  # noqa: E402
import dispersia.cli  # noqa: E402,F401  (set-up covers the CLI import too)
import speed  # noqa: E402
from dispersia import decay, experiments, fields, propagators  # noqa: E402

# Committed configs and the number of verdict lines each must print.
CONFIG_WORKLOADS = {
    "linear-dense": {
        "free-product-decay-3factor": 1,
        "potential-product-decay-2factor": 1,
        "hyperbolic-product-decay": 1,
        "two-particle": 2,
    },
    "nls-trajectory": {"nls-smalldata": 3, "nls-scattering": 1},
}
DENSE_MIXED = "dense-mixed"
WORKLOADS = (*CONFIG_WORKLOADS, DENSE_MIXED)

# dense-mixed: grids, times and gates (the slope depends on the seed and is
# not gated)
TORUS = (1024, 512.0)
H3 = (1120, 280.0)
MIXED_TIMES = (2.0, 20.0, 12)
BUMPS = 3
DRIFT_TOL = 1e-10
REFERENCE_TOL = 1e-10


@dataclass
class Check:
    """One pass/fail outcome with its margin (tol - |error|)/tol when known."""

    name: str
    ok: bool
    margin: float | None = None
    detail: str = ""

    def __post_init__(self):
        self.ok = bool(self.ok)


def _margin_check(name: str, error: float, tol: float, detail: str = "") -> Check:
    margin = (tol - abs(error)) / tol
    return Check(name, margin >= 0, margin, detail or f"error={error:.6g} tol={tol:.6g}")


# ---------------------------------------------------------------- config workloads


def prepare_configs(workload: str, seed: int):
    names = list(CONFIG_WORKLOADS[workload])
    random.Random(seed).shuffle(names)
    out = []
    for name in names:
        path = os.path.join(ROOT, "scripts", "configs", f"{name}.cfg")
        out.append((name, path, experiments.parse_config(path)))
    return out


def run_configs(prepared):
    results = []
    for name, path, _ in prepared:
        t0 = time.perf_counter()
        try:
            code, report = experiments.run(path)
            results.append((name, code, report.lines, None, time.perf_counter() - t0))
        except Exception as exc:  # a failing experiment is a failed check, not an abort
            results.append((name, None, [], f"{type(exc).__name__}: {exc}", time.perf_counter() - t0))
    return results


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _tol_in(line: str) -> float:
    m = re.search(r"\btol=([-+0-9.eE]+)", line)
    if m is None:
        raise ValueError(f"no tolerance in verdict line {line!r}")
    return float(m.group(1))


def _line(lines, label: str) -> str:
    for line in lines:
        if label in line:
            return line
    raise ValueError(f"no verdict line containing {label!r}")


def _check_fit(name: str, out_dir: str, fingerprint: str) -> list[Check]:
    """Margin of fit.json, and the benchmark's own refit of series.csv."""
    fit = _read_json(os.path.join(out_dir, "fit.json"))
    slope, predicted, tol = fit["slope"], fit["predicted"], fit["tol"]
    margin = _margin_check(f"{name}: slope margin", slope + predicted, tol,
                           f"slope={slope:.6f} predicted=-{predicted:g} tol={tol}")
    t_min, t_max = fit["window"]
    rows = np.loadtxt(os.path.join(out_dir, "series.csv"), delimiter=",", comments="#",
                      skiprows=2, ndmin=2)
    keep = (rows[:, 2] == 0) & (rows[:, 0] >= t_min) & (rows[:, 0] <= t_max)
    refit = float(np.polyfit(np.log(rows[keep, 0]), np.log(rows[keep, 1]), 1)[0])
    agrees = (abs(refit - slope) <= 1e-9 * max(1.0, abs(slope))
              and fit["fingerprint"] == fingerprint
              and fit["verdict"] == ("pass" if margin.ok else "fail"))
    return [margin, Check(f"{name}: refit of series.csv", agrees, None,
                          f"refit={refit:.12f} fit.json={slope:.12f}")]


def check_config(name: str, code, lines, error, cfg, expected: int) -> list[Check]:
    verdicts = [ln for ln in lines if ln.startswith(("[PASS]", "[FAIL]"))]
    if error is None and code != 0:
        error = f"exit code {code}"
    checks = [Check(f"{name}: {ln[7:].split(':')[0]}", error is None and ln.startswith("[PASS]"),
                    None, error or ln)
              for ln in verdicts]
    checks += [Check(f"{name}: verdict {i + 1}", False, None, error or "missing verdict line")
               for i in range(len(verdicts), expected)]
    out_dir = cfg.output_dir
    try:
        if cfg.name in ("free-product-decay", "potential-product-decay", "hyperbolic-product-decay"):
            checks += _check_fit(name, out_dir, cfg.fingerprint)
        elif cfg.name == "two-particle":
            checks += _check_fit(name, out_dir, cfg.fingerprint)
            diff = _read_json(os.path.join(out_dir, "fit.json"))["equivalence_l2_difference"]
            checks.append(_margin_check(f"{name}: route equivalence margin", diff,
                                        _tol_in(_line(verdicts, "route equivalence"))))
        elif cfg.name == "nls-smalldata":
            picard = _read_json(os.path.join(out_dir, "picard.json"))
            hist = picard["history"]
            ratios = [h["ratio"] for h in hist if h["ratio"] is not None]
            recomputed = [b["distance"] / a["distance"] for a, b in zip(hist[1:], hist[2:])]
            consistent = (picard["converged"] and picard["contractive"] and len(ratios) > 0
                          and np.allclose(ratios, recomputed, rtol=1e-12, atol=0))
            checks.append(Check(f"{name}: picard history", consistent, None,
                                f"ratios={ratios} recomputed={recomputed}"))
            checks.append(_margin_check(f"{name}: contraction margin", max(ratios), 1.0))
            sc = picard["scaling"]
            rel_tol = _tol_in(_line(verdicts, "data-size scaling"))
            checks.append(_margin_check(f"{name}: scaling margin",
                                        sc["ratio_half"] / sc["ratio_full"] - sc["expected_factor"],
                                        rel_tol * sc["expected_factor"]))
            checks.append(_margin_check(f"{name}: cross-method margin", picard["cross_method_difference"],
                                        _tol_in(_line(verdicts, "split-step agreement"))))
        elif cfg.name == "nls-scattering":
            sc = _read_json(os.path.join(out_dir, "scattering.json"))
            tails = np.loadtxt(os.path.join(out_dir, "tails.csv"), delimiter=",", comments="#",
                               skiprows=2, ndmin=2)
            at = lambda t: tails[np.argmin(np.abs(tails[:, 0] - t)), 1]
            consistent = at(sc["t1"]) == sc["tail_t1"] and at(sc["t2"]) == sc["tail_t2"]
            checks.append(Check(f"{name}: tails.csv matches scattering.json", consistent))
            bound = sc["tail_t1"] / sc["required_factor"]
            checks.append(_margin_check(f"{name}: tail decrease margin", sc["tail_t2"], bound))
        else:
            checks.append(Check(f"{name}: known experiment", False, None, cfg.name))
    except (OSError, KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
        checks.append(Check(f"{name}: artifacts", False, None, f"{type(exc).__name__}: {exc}"))
    return checks


# ---------------------------------------------------------------- dense-mixed


def _periodic(x: np.ndarray, center: float, length: float) -> np.ndarray:
    return np.mod(x - center + length / 2, length) - length / 2


def prepare_mixed(seed: int):
    """Sums of displaced, sheared Gaussians with random phases on
    free x free and torus x H^3: no rank-1 structure, mixed factor kinds."""
    rng = np.random.default_rng(seed)
    cases = []
    for label, second in (("free-free", fields.make_grid(*TORUS)),
                          ("torus-h3", fields.make_grid(*H3, fields.HYPERBOLIC))):
        first = fields.make_grid(*TORUS)
        x, y = first.nodes, second.nodes
        values = np.zeros((first.n_points, second.n_points), dtype=complex)
        for _ in range(BUMPS):
            dx = _periodic(x, rng.uniform(0.4, 0.6) * first.length, first.length)
            if second.kind == fields.HYPERBOLIC:
                dy = y - rng.uniform(1.0, 4.0)
            else:
                dy = _periodic(y, rng.uniform(0.4, 0.6) * second.length, second.length)
            width, shear = rng.uniform(1.5, 2.5), rng.uniform(-0.5, 0.5)
            amp = rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
            values += amp * np.exp(-(dx[:, None] ** 2 + (dy[None, :] + shear * dx[:, None]) ** 2)
                                   / (2 * width**2))
        kind = "hyperbolic-radial" if second.kind == fields.HYPERBOLIC else "free"
        specs = [propagators.PropagatorSpec("free", first), propagators.PropagatorSpec(kind, second)]
        cases.append((label, specs, fields.Field((first, second), values)))
    return cases


def run_mixed(cases):
    times = list(np.geomspace(*MIXED_TIMES))
    results = []
    for label, specs, u0 in cases:
        last = {}

        def evolve(u, t, specs=specs, last=last):
            last["u"], last["t"] = propagators.product_propagate(specs, u, t), t
            return last["u"]

        t0 = time.perf_counter()
        try:
            series = decay.norm_series(evolve, u0, times, math.inf)
            fit = decay.fit_decay_exponent(series, (times[0], times[-1]))
            results.append((label, series, fit, last, None, time.perf_counter() - t0))
        except Exception as exc:  # a failing run is a failed check, not an abort
            results.append((label, None, None, last, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0))
    return results


def _l2(u) -> float:
    w = np.multiply.outer(u.grids[0].weights, u.grids[1].weights)
    return math.sqrt(float(np.sum(w * np.abs(u.values) ** 2)))


def check_mixed(cases, results) -> list[Check]:
    checks = []
    for (label, specs, u0), (_, series, fit, last, error, _) in zip(cases, results):
        if error is not None:
            checks.append(Check(f"{label}: run", False, None, error))
            continue
        finite = all(math.isfinite(s.value) and s.value > 0 for s in series)
        checks.append(Check(f"{label}: finite positive series", finite, None,
                            f"slope={fit.slope:.6f} (not gated)"))
        drift = _l2(last["u"]) / _l2(u0) - 1.0
        checks.append(_margin_check(f"{label}: L2 drift margin", drift, DRIFT_TOL))
        if label == "free-free":
            xi = [2 * np.pi * np.fft.fftfreq(g.n_points, d=g.spacing) for g in u0.grids]
            mult = np.exp(-1j * last["t"] * (xi[0][:, None] ** 2 + xi[1][None, :] ** 2))
            ref = np.fft.ifft2(np.fft.fft2(u0.values) * mult)
            err = float(np.abs(ref - last["u"].values).max() / np.abs(ref).max())
            checks.append(_margin_check(f"{label}: direct fft2 reference margin", err, REFERENCE_TOL))
    return checks


# ---------------------------------------------------------------- entry point


def _artifact_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="artifacts-", dir=OUT)
    os.environ["DISPERSIA_OUTPUT_ROOT"] = tmp
    try:
        prepared = prepare_mixed(seed) if workload == DENSE_MIXED else prepare_configs(workload, seed)
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        run = run_mixed if workload == DENSE_MIXED else run_configs
        # a traced pass gives per-layer times, so no probe runs inside its spans
        sampler = None if trace else speed.Sampler(speed.Probe())
        ru0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        with sampler or contextlib.nullcontext():
            results = run(prepared)
        wall_s = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        own_s, run_s = sampler.scaled(wall_s) if sampler else (wall_s, None)
        if workload == DENSE_MIXED:
            checks = check_mixed(prepared, results)
        else:
            expected = CONFIG_WORKLOADS[workload]
            checks = []
            for (name, _, cfg), (_, code, lines, error, _) in zip(prepared, results):
                checks += check_config(name, code, lines, error, cfg, expected[name])
        out = {
            # wall seconds of the pass at the nominal host speed (None when
            # traced), its own wall seconds, and the probe samples
            "run_s": run_s,
            "wall_s": own_s,
            "probe_s": sampler.samples if sampler else [],
            "peak_rss_mb": ru1.ru_maxrss / 1024.0,
            # CPU seconds of the pass, probes included
            "user_s": ru1.ru_utime - ru0.ru_utime,
            "sys_s": ru1.ru_stime - ru0.ru_stime,
            "checks": [asdict(c) for c in checks],
            "artifact_bytes": _artifact_bytes(tmp),
            "order": [p[0] for p in prepared],
            # seconds of each config or case, in order
            "parts_s": [r[-1] for r in results],
            "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                         "scipy": scipy.__version__, "dispersia": dispersia.__version__},
        }
        if tracer is not None:
            out["trace"] = tracer.summary()
            tracer.write(os.path.join(OUT, f"spans-{workload}-seed{seed}.json"))
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass"))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(dispersia.__file__).startswith(src + os.sep):
        print(f"dispersia imported from {dispersia.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        if args.workload == DENSE_MIXED:
            prepare_mixed(args.seed)
        else:
            prepare_configs(args.workload, args.seed)
        return 0
    print(json.dumps(run_pass(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
