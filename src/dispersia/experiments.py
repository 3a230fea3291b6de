"""Registered experiments: reproducible decay / admissibility / NLS runs.

Each experiment reads a sectioned key=value config, runs deterministically
(no RNG anywhere in the pipeline), and writes series CSVs, fit JSONs and a
human-readable summary. Every output embeds the config fingerprint so a
verdict can be traced back to the exact settings that produced it.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import itertools
import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

import numpy as np

from . import __version__
from .decay import MIN_FIT_SAMPLES, fit_decay_exponent, compare_prediction, norm_series
from .exponents import (
    INF,
    Admissibility,
    ExponentPair,
    dual_exponent,
    select_nls_exponents,
    strichartz_class,
)
from .fields import (
    DIMENSION,
    EUCLIDEAN,
    HYPERBOLIC,
    Field,
    SeparableField,
    _frozen,
    gaussian_field,
    lp_norm,
    make_grid,
    values_lp_norm,
)
from .nls import CauchyTails, Nonlinearity, picard_iterate, saved_steps, splitstep_nls, splitstep_states
from .propagators import (
    _KINDS,
    PotentialSpec,
    PropagatorSpec,
    original_coordinates_reference,
    product_propagate,
    two_particle_propagate,
)


class ConfigError(ValueError):
    """Malformed or incomplete experiment configuration."""


class UnknownExperiment(KeyError):
    """The config names no registered experiment."""


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    settings: dict  # section -> {key: value str}
    fingerprint: str
    output_dir: str
    read: set  # the (section, key) pairs asked for so far


def parse_config(path: str) -> ExperimentConfig:
    # no default section: [DEFAULT] keys stay in [DEFAULT], not copied into every section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not parser.has_section("experiment") or not parser.has_option("experiment", "name"):
        raise ConfigError("config must have an [experiment] section with a name key")
    name = parser.get("experiment", "name").strip()
    settings = {s: dict(parser.items(s)) for s in parser.sections()}
    canon = json.dumps(settings, sort_keys=True)
    fingerprint = hashlib.sha256(canon.encode()).hexdigest()[:16]
    out_dir = settings.get("output", {}).get("dir", name)
    root = os.environ.get("DISPERSIA_OUTPUT_ROOT", ".")
    return ExperimentConfig(
        name=name,
        settings=settings,
        fingerprint=fingerprint,
        output_dir=os.path.join(root, out_dir),
        read={("experiment", "name"), ("output", "dir")},
    )


def _get(cfg: ExperimentConfig, section: str, key: str, default, cast=str):
    cfg.read.add((section, key))
    raw = cfg.settings.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        value = cast(raw)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    # every float setting (a length, a time, an amplitude, a tolerance) is
    # finite; the exponent q, which may be inf, has its own cast
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite (got {value})")
    return value


def _positive(cfg: ExperimentConfig, section: str, key: str, default: float, why: str = "") -> float:
    """A finite float setting that must exceed 0; `why`, if given, is the
    reason that the refusal states."""
    value = _get(cfg, section, key, default, float)
    if not value > 0:
        raise ConfigError(f"[{section}] {key} must be > 0 (got {value})" + (why and f": {why}"))
    return value


def _at_least(cfg: ExperimentConfig, section: str, key: str, default: int, least: int, why: str = "") -> int:
    """An integer setting that must be >= least; `why` as in _positive."""
    value = _get(cfg, section, key, default, int)
    if value < least:
        raise ConfigError(f"[{section}] {key} must be >= {least} (got {value})" + (why and f": {why}"))
    return value


def _check_all_read(cfg: ExperimentConfig):
    """Refuse every key that the runner has not read, rather than ignore
    it. A runner calls this once it has read its settings, before any
    solve, worker thread or artifact."""
    unread = [f"[{s}] {k}" for s, keys in cfg.settings.items() for k in keys if (s, k) not in cfg.read]
    if unread:
        raise ConfigError(f"not a setting of {cfg.name}: {', '.join(unread)}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(cfg: ExperimentConfig, name: str, header: list, rows):
    """The CSV artifact `name`: fingerprint comment, header, rows (lists of strings)."""
    lines = [f"# fingerprint={cfg.fingerprint} version={__version__}", ",".join(header)]
    lines += [",".join(row) for row in rows]
    _atomic_write(os.path.join(cfg.output_dir, name), "\n".join(lines) + "\n")


def _write_json(cfg: ExperimentConfig, name: str, obj: dict):
    obj = {**obj, "fingerprint": cfg.fingerprint, "version": __version__}
    _atomic_write(os.path.join(cfg.output_dir, name), json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _exponent_from_str(s: str):
    s = s.strip().lower()
    if s in ("inf", "infinity", "oo"):
        return INF
    return Fraction(s)


def _fractions_from_str(s: str) -> list[Fraction]:
    """A comma-separated list of exact rationals; empty entries are skipped."""
    return [Fraction(x) for x in s.split(",") if x.strip()]


@dataclass
class RunReport:
    lines: list
    verdicts: list  # list of bool

    def add(self, label: str, ok: bool, detail: str):
        self.lines.append(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
        self.verdicts.append(ok)

    def note(self, text: str):
        self.lines.append(text)


def _separable_datum(grid, profile: np.ndarray, k: int) -> Field:
    """The k-factor datum profile (x) ... (x) profile on grid^k."""
    return Field((grid,) * k, _frozen(functools.reduce(np.multiply.outer, [profile] * k)))


def _decay_window(cfg, t_min, t_max, n_times):
    """The n_times log-spaced sample times of the [time] window (t_min,
    t_max), checked before any solve: the fit reads at least
    MIN_FIT_SAMPLES samples of a window of positive times. np.geomspace
    sets both ends exactly, so the first and last sample times are the
    window."""
    t_min = _positive(cfg, "time", "t_min", t_min)
    t_max = _get(cfg, "time", "t_max", t_max, float)
    n_times = _at_least(
        cfg, "time", "n_times", n_times, MIN_FIT_SAMPLES, f"the fit reads at least {MIN_FIT_SAMPLES} samples"
    )
    if not t_min < t_max < math.inf:
        raise ConfigError(f"[time] t_max must be finite and > t_min = {t_min} (got {t_max})")
    return np.geomspace(t_min, t_max, n_times)


def _decay_verdict(cfg, report, label, series, u0, q, specs, tol, **extra):
    """Shared tail of every decay experiment: the norms ||u(t)||_q of
    `series` divided by ||u0||_q', their power-law fit over the span of
    the series, the verdict against slope -predicted, where predicted is
    the sum of the decay rates at q of the factors `specs`, and the
    series.csv and fit.json artifacts (fit.json also carries the `extra`
    entries)."""
    predicted = sum(s.decay_rate(q) for s in specs)
    base = lp_norm(u0, dual_exponent(q))
    series = [replace(s, value=s.value / base) for s in series]
    fit = fit_decay_exponent(series, (series[0].t, series[-1].t))
    rep = compare_prediction(fit, predicted, tol)
    _write_csv(cfg, "series.csv", ["t", "value", "flagged"],
               ([_fmt(s.t), _fmt(s.value), str(int(s.flagged))] for s in series))
    _write_json(cfg, "fit.json", {**rep, **extra})
    report.add(label, rep["verdict"] == "pass", f"slope={fit.slope:.4f} predicted=-{predicted} tol={tol}")


def _in_section(section: str, build, *args, **kwargs):
    """build(*args, **kwargs), a library constructor of the [section]
    settings, called before any eigenbasis, solve or worker thread; its
    ValueError re-raises as a ConfigError that names the section."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _saved_steps(T: float, dt: float, stride: int = 1) -> list[int]:
    """saved_steps of the [time] settings t_final, dt (checked > 0) and
    save_stride (checked >= 1), checked before any solve or worker thread."""
    try:
        return saved_steps(T, dt, stride)
    except ValueError as exc:
        raise ConfigError(f"[time] t_final = {T} must be an integer multiple of [time] dt = {dt}") from exc


def _beside(main, side):
    """(main(), side()), `side` run on a one-worker pool while `main` runs on
    the calling thread. Both only read what they share and write arrays of
    their own, and transforms and ufuncs release the GIL: the results are
    bit-identical to a sequential run, and a worker exception re-raises."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(side)
        return main(), worker.result()


# ---------------------------------------------------------------- experiments

# preset -> (factor kind, default factor count, default [exponents] q (None:
# fixed q = inf, the L^1 -> L^inf estimate), label)
_DECAY_PRESETS = {
    "free-product-decay": ("free", 2, None, "{k}-factor free decay slope"),
    "potential-product-decay": ("free-plus-potential", 1, None, "{k}-factor potential decay slope"),
    "hyperbolic-decay": ("hyperbolic-radial", 1, None, "hyperbolic large-time decay slope"),
    "hyperbolic-product-decay": ("hyperbolic-radial", 2, None, "hyperbolic product large-time decay slope"),
    "interpolated-decay": ("free", 2, Fraction(4), "interpolated decay slope (q={q})"),
}

# (preset, factor count) -> defaults of n_points, length (r_max on H^3),
# data width, t_min, t_max, n_times, tolerance. A preset with more than one
# factor count here reads [grid] factors, and the others refuse it. The runs
# evolve factored data, so cost no longer grows with the factor count; the
# smaller 3-factor grid and shorter window are kept so that the committed
# configs keep their verdicts and artifacts.
_DECAY_DEFAULTS = {
    ("free-product-decay", 1): (2048, 600.0, 1.0, 2.0, 50.0, 15, 0.05),
    ("free-product-decay", 2): (1024, 512.0, 1.0, 2.0, 50.0, 15, 0.05),
    ("free-product-decay", 3): (200, 140.0, 1.0, 2.0, 12.0, 8, 0.05),
    ("potential-product-decay", 1): (512, 260.0, 1.0, 3.0, 30.0, 12, 0.10),
    ("potential-product-decay", 2): (512, 260.0, 1.0, 4.0, 30.0, 10, 0.12),
    ("potential-product-decay", 3): (2048, 1040.0, 1.0, 10.0, 80.0, 10, 0.12),
    ("hyperbolic-decay", 1): (1120, 280.0, 0.8, 2.0, 40.0, 14, 0.10),
    ("hyperbolic-product-decay", 2): (1120, 280.0, 0.8, 2.0, 40.0, 10, 0.15),
    ("interpolated-decay", 2): (1024, 512.0, 1.0, 2.0, 50.0, 15, 0.08),
}


def run_product_decay(cfg: ExperimentConfig, report: RunReport):
    """Every product decay preset: k copies of one factor flow, a separable
    datum evolved factor by factor, the L^q' -> L^q ratio series, and
    predicted slope minus the sum of the factors' decay rates at q."""
    kind, k, q, label = _DECAY_PRESETS[cfg.name]
    if sum(preset == cfg.name for preset, _ in _DECAY_DEFAULTS) > 1:
        k = _get(cfg, "grid", "factors", k, int)
    if (cfg.name, k) not in _DECAY_DEFAULTS:
        raise ConfigError(f"[grid] factors = {k} is not supported by {cfg.name}")
    n, length, width, t_min, t_max, n_times, tol = _DECAY_DEFAULTS[cfg.name, k]
    grid_kind, takes_potential = _KINDS[kind]
    hyperbolic = grid_kind == HYPERBOLIC
    n = _get(cfg, "grid", "n_points", n, int)
    length = _get(cfg, "grid", "r_max" if hyperbolic else "length", length, float)
    width = _positive(cfg, "data", "width", width)
    times = _decay_window(cfg, t_min, t_max, n_times)
    tol = _positive(cfg, "fit", "tolerance", tol)
    q = INF if q is None else _get(cfg, "exponents", "q", q, _exponent_from_str)
    if not q >= 2:
        raise ConfigError(f"[exponents] q must be >= 2 (got {q}): a decay rate is an L^q' -> L^q estimate")
    center = _get(cfg, "data", "center", 1.5, float) if hyperbolic else None
    pot = None
    if takes_potential:
        pot = _in_section(
            "potential",
            PotentialSpec,
            _get(cfg, "potential", "family", "sech-squared"),
            amplitude=_get(cfg, "potential", "amplitude", 0.3, float),
            width=_get(cfg, "potential", "width", 1.0, float),
            center=length / 2,
        )
    _check_all_read(cfg)
    grid = _in_section("grid", make_grid, n, length, grid_kind)
    u0 = SeparableField((_in_section("data", gaussian_field, grid, width, center),) * k)
    # one spec for every factor, so its eigenbasis is built once per run
    specs = [PropagatorSpec(kind, grid, pot)] * k
    series = norm_series(lambda u, t: product_propagate(specs, u, t), u0, times, float(q))
    _decay_verdict(cfg, report, label.format(k=k, q=q), series, u0, q, specs, tol)


def run_two_particle(cfg: ExperimentConfig, report: RunReport):
    n = _get(cfg, "grid", "n_points", 243, int)
    length = _get(cfg, "grid", "length", 160.0, float)
    width = _positive(cfg, "data", "width", 1.0)
    amplitude = _get(cfg, "potential", "amplitude", 0.5, float)
    v_width = _get(cfg, "potential", "width", 1.0, float)
    t_eq = _positive(cfg, "time", "t_equivalence", 1.0, "at t = 0 both routes return the datum")
    steps_eq = _at_least(cfg, "time", "equivalence_steps", 64, 1)
    spp = _at_least(cfg, "time", "split_steps_per_unit_time", 32, 1)
    times = _decay_window(cfg, 2.0, 10.0, 10)
    eq_tol = _positive(cfg, "fit", "equivalence_tolerance", 1e-6)
    tol = _positive(cfg, "fit", "tolerance", 0.12)
    if n % 2 == 0:
        raise ConfigError(
            f"[grid] n_points must be odd (got {n}): the lattice rotation (j, k) -> (j + k, j - k) "
            "is a bijection only for an odd point count"
        )
    pot = _in_section("potential", PotentialSpec, "sech-squared", amplitude=amplitude, width=v_width, center=0.0)
    _check_all_read(cfg)
    grid = _in_section("grid", make_grid, n, length)
    v = pot.sample(grid)
    u0 = _separable_datum(grid, _in_section("data", gaussian_field, grid, width).values, 2)

    def route_difference():
        # route equivalence at matched step counts
        rotated = two_particle_propagate(v, u0, t_eq, steps_eq)
        reference = original_coordinates_reference(v, u0, t_eq, steps_eq)
        return lp_norm(rotated.with_values(_frozen(rotated.values - reference.values)), 2)

    state, t_prev = u0, 0.0

    def continue_to(u, t):
        # the Strang series goes on from its own last state and time
        nonlocal state, t_prev
        state, t_prev = two_particle_propagate(v, state, t - t_prev, math.ceil((t - t_prev) * spp)), t
        return state

    # the Strang loops of both split further over the row pool, see two_particle_propagate
    series, diff = _beside(lambda: norm_series(continue_to, u0, times, math.inf), route_difference)
    report.add(
        "two-particle route equivalence (L2)",
        diff <= eq_tol,
        f"difference={diff:.3e} tol={eq_tol}",
    )
    # product decay in the interacting system: the rates of the sum
    # variable's free factor and the difference variable's potential factor
    factors = (PropagatorSpec("free", grid), PropagatorSpec("free-plus-potential", grid, pot))
    _decay_verdict(cfg, report, "two-particle decay slope", series, u0, INF, factors, tol,
                   equivalence_l2_difference=diff)


def run_admissible_region(cfg: ExperimentConfig, report: RunReport):
    """The (1/p, 1/q) lattice in lattice.csv, classified exactly by
    strichartz_class: in the region of H^m x H^n (m, n >= 2) or not, and
    for each decay index a+b >= 0, the Euclidean factor of dimension 2(a+b)."""
    m = _at_least(cfg, "exponents", "m", 2, 2)
    n = _at_least(cfg, "exponents", "n", 2, 2)
    denominator = _at_least(cfg, "exponents", "denominator", 12, 1)
    indices = _get(cfg, "exponents", "indices", _fractions_from_str("1/2,1,3/2,2,3"), _fractions_from_str)
    if any(ab < 0 for ab in indices):
        raise ConfigError(f"[exponents] indices must be nonnegative (got a+b = {min(indices)})")
    _check_all_read(cfg)
    pairs = [ExponentPair(Fraction(i, denominator), Fraction(j, denominator))
             for i, j in itertools.product(range(denominator // 2 + 1), repeat=2)]
    triangle = [(HYPERBOLIC, m), (HYPERBOLIC, n)]
    header = ["inv_p", "inv_q", "in_triangle"] + [f"admissible_ab_{ab}" for ab in indices]
    rows = [[str(p.inv_p), str(p.inv_q), str(strichartz_class(p, triangle) != Admissibility.NOT_ADMISSIBLE)]
            + [strichartz_class(p, [(EUCLIDEAN, 2 * ab)]).value for ab in indices] for p in pairs]
    _write_csv(cfg, "lattice.csv", header, rows)
    # a count and no verdict: the classification is exact, and no run
    # measures the region it states
    columns = zip(header[2:], list(zip(*rows))[2:])
    counts = ", ".join(f"{h} {sum(v not in ('False', 'not-admissible') for v in column)}" for h, column in columns)
    report.note(f"admitted of {len(rows)} points, T({m},{n}) lattice denominator {denominator}: {counts}")


def _nls_setup(cfg: ExperimentConfig):
    """Datum, factors and nonlinearity of the NLS runs; gamma is checked before
    any solve against the Picard pair's bound on the dimensions of their grids.
    The datum g (x) g, g centred at L/2, is even about x = 0 on the torus in
    each axis, and the free flow and the gauge-invariant power keep that
    parity, so both runs go on the even grid, which stores the nodes
    0..N//2 of each axis (see _grid_note)."""
    n = _get(cfg, "grid", "n_points", 256, int)
    length = _get(cfg, "grid", "length", 64.0, float)
    width = _positive(cfg, "data", "width", 2.0)
    amp = _get(cfg, "data", "amplitude", 0.05, float)
    gamma = _get(cfg, "nls", "gamma", Fraction(3), Fraction)
    mu = _get(cfg, "nls", "mu", 1.0, float)
    grid = _in_section("grid", make_grid, n, length, even=True)
    specs = [PropagatorSpec("free", grid)] * 2
    u0 = _separable_datum(grid, _in_section("data", gaussian_field, grid, width).values, 2)
    u0 = u0.with_values(_frozen(amp * u0.values))
    nl = _in_section("nls", Nonlinearity, gamma=gamma, mu=mu)
    select_nls_exponents(*(DIMENSION[s.grid.kind] for s in specs), nl.gamma)
    return u0, specs, nl


def _grid_note(grid) -> str:
    """The report line that states the grid an NLS run stores."""
    return f"grid: even half of the {grid.n_points}-point torus, {grid.size} x {grid.size} nodes stored"


def _k2_ratio(result, run: str) -> float:
    """The k = 2 contraction ratio of a Picard run, which the scaling check
    compares; a run that converged at sweep 1 has none."""
    if len(result.history) < 3 or result.history[2].ratio is None:
        raise ConfigError(
            f"the {run} Picard run converged at sweep 1, so it has no k = 2 contraction ratio for the "
            "scaling check; raise [data] amplitude or lower [nls] tol"
        )
    return result.history[2].ratio


def run_nls_smalldata(cfg: ExperimentConfig, report: RunReport):
    T = _positive(cfg, "time", "t_final", 10.0)
    dt = _positive(cfg, "time", "dt", 0.1)
    max_iter = _at_least(cfg, "nls", "max_iter", 8, 2, "the scaling check compares the k=2 contraction ratios")
    tol = _positive(cfg, "nls", "tol", 1e-10)
    agree_tol = _positive(cfg, "fit", "cross_method_tolerance", 1e-4)
    scaling_tol = _positive(cfg, "fit", "scaling_tolerance", 0.2)
    _saved_steps(T, dt)
    u0, specs, nl = _nls_setup(cfg)
    report.note(_grid_note(specs[0].grid))
    _check_all_read(cfg)

    def half_data_then_splitstep():
        # the k = 2 ratio is the only thing read of the half-data run, and it
        # depends on sweeps 1 and 2 alone; the run's trajectory is freed
        # before the split-step run
        half = u0.with_values(_frozen(0.5 * u0.values))
        r_half = _k2_ratio(picard_iterate(half, nl, specs, T, dt, max_iter=2, tol=tol), "half-data")
        return r_half, splitstep_nls(u0, nl, specs, T, dt / 2, save_stride=2)

    result, (r_half, states) = _beside(
        lambda: picard_iterate(u0, nl, specs, T, dt, max_iter=max_iter, tol=tol), half_data_then_splitstep
    )
    r_full = _k2_ratio(result, "full-data")
    ratios = [s.ratio for s in result.history if s.ratio is not None]
    contracting = bool(ratios) and all(r < 1 for r in ratios)
    report.add(
        "Picard contraction ratios < 1",
        result.converged and contracting,
        f"ratios={['%.3e' % r for r in ratios]}",
    )
    expected = 2.0 ** -float(nl.gamma - 1)  # from the exact gamma, not the power the code computes with
    scale_ok = abs(r_half / r_full - expected) <= scaling_tol * expected
    report.add(
        "contraction ratio data-size scaling",
        scale_ok,
        f"ratio_half/ratio_full={r_half / r_full:.4f} expected={expected:.4f} rel tol={scaling_tol}",
    )
    diff = max(values_lp_norm(v - u.values, u0.grids, 2) for v, (_, u) in zip(result.values, states, strict=True))
    report.add(
        "Picard vs split-step agreement (Linf_t L2)",
        diff <= agree_tol,
        f"difference={diff:.3e} tol={agree_tol}",
    )
    _write_json(
        cfg,
        "picard.json",
        {
            "history": [asdict(s) for s in result.history],
            "converged": result.converged,
            "contractive": result.contractive,
            "cross_method_difference": diff,
            "scaling": {"ratio_full": r_full, "ratio_half": r_half, "expected_factor": expected},
        },
    )


def run_nls_scattering(cfg: ExperimentConfig, report: RunReport):
    T = _positive(cfg, "time", "t_final", 40.0)
    dt = _positive(cfg, "time", "dt", 0.1)
    stride = _at_least(cfg, "time", "save_stride", 10, 1)
    decrease = _positive(cfg, "fit", "tail_decrease_factor", 10.0)
    saved = [s * dt for s in _saved_steps(T, dt, stride)]
    u0, specs, nl = _nls_setup(cfg)
    report.note(_grid_note(specs[0].grid))
    _check_all_read(cfg)
    t1, t2 = 1.0, 20.0

    def saved_index(t_query):
        for i, t in enumerate(saved[:-1]):
            if math.isclose(t, t_query, rel_tol=1e-9):
                return i
        raise ConfigError(
            f"the verdict reads tail({t_query}), the largest distance from z({t_query}) to a later profile, so "
            f"t = {t_query} must be a saved time before the last one, which [time] t_final = {T} sets; "
            f"with dt = {dt} and [time] save_stride = {stride} it is not"
        )

    i1, i2 = saved_index(t1), saved_index(t2)
    # The split-step stays on the calling thread, and each saved state goes
    # to one worker thread, which adds its profile and its distances to the
    # earlier profiles while the next states are stepped. One worker takes
    # the states in the order they are submitted, and every distance is the
    # same norm of the same difference, so the tails are bit-identical to
    # running in sequence. A worker exception re-raises from result().
    acc = CauchyTails(specs)
    with ThreadPoolExecutor(max_workers=1) as pool:
        added = [pool.submit(acc.add, t, state) for t, state in splitstep_states(u0, nl, specs, T, dt, stride)]
        for future in added:
            future.result()
    tails = acc.tails
    early, late = tails[i1][1], tails[i2][1]
    ok = late <= early / decrease
    _write_csv(cfg, "tails.csv", ["t", "tail"], ([_fmt(t), _fmt(tail)] for t, tail in tails))
    _write_json(
        cfg,
        "scattering.json",
        {"tail_t1": early, "tail_t2": late, "t1": t1, "t2": t2, "required_factor": decrease},
    )
    report.add(
        "Cauchy tail decrease",
        ok,
        f"tail({t1})={early:.3e} tail({t2})={late:.3e} required factor {decrease}",
    )


REGISTRY = [
    ("free-product-decay", run_product_decay,
     "L1->Linf decay of 1-3 free torus factors; slope vs. sum of per-factor rates",
     "propagator factorization, per-factor rate additivity"),
    ("potential-product-decay", run_product_decay,
     "decay with nonnegative 1-D potentials on each factor (exact eigenbasis flow)",
     "1-D weighted potential class, split potentials"),
    ("two-particle", run_two_particle,
     "interaction potential of the difference variable via the lattice coordinate rotation",
     "two-particle coordinate reduction"),
    ("hyperbolic-decay", run_product_decay,
     "radial flow on H^3: large-time sup-norm decay rate -3/2",
     "hyperbolic radial dispersive estimate"),
    ("hyperbolic-product-decay", run_product_decay,
     "bi-radial flow on H^3 x H^3: large-time decay rate -3",
     "hyperbolic product decay, faster than the dimension alone suggests"),
    ("interpolated-decay", run_product_decay,
     "L^q' -> L^q decay interpolated against L2 conservation",
     "interpolated dispersive estimates"),
    ("admissible-region", run_admissible_region,
     "exact rational classification of Strichartz exponent pairs",
     "admissible couples and the widened triangle region"),
    ("nls-smalldata", run_nls_smalldata,
     "small-data NLS fixed point: contraction ratios and cross-method check",
     "Duhamel fixed-point contraction"),
    ("nls-scattering", run_nls_scattering,
     "Cauchy tails of the undone-flow profiles z(t) on a small-data run",
     "L2 scattering criterion"),
]


def list_experiments():
    """Stable-ordered registry: (name, description, anchor)."""
    return [(name, desc, anchor) for name, _, desc, anchor in REGISTRY]


def run(config_path: str) -> tuple[int, RunReport]:
    cfg = parse_config(config_path)
    runners = {name: fn for name, fn, _, _ in REGISTRY}
    if cfg.name not in runners:
        raise UnknownExperiment(f"unknown experiment {cfg.name!r}")
    report = RunReport(lines=[], verdicts=[])
    report.note(f"experiment: {cfg.name}")
    report.note(f"fingerprint: {cfg.fingerprint}")
    report.note(f"version: {__version__}")
    runners[cfg.name](cfg, report)
    summary = "\n".join(report.lines) + "\n"
    _atomic_write(os.path.join(cfg.output_dir, "summary.txt"), summary)
    return 0, report
