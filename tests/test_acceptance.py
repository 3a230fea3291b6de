"""Acceptance gate: every top-level claim of the package, one test per
criterion, each printing a single [PASS]/[FAIL] line at its stated
tolerance. The runs are full-pipeline (config -> experiment -> artifacts)
wherever a measured exponent is involved.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft as sfft

_SUITE_START = time.monotonic()


def report(label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture
def run_experiment(tmp_path, monkeypatch):
    from dispersia.experiments import run

    monkeypatch.setenv("DISPERSIA_OUTPUT_ROOT", str(tmp_path / "out"))

    def runner(config_text):
        path = tmp_path / "exp.cfg"
        path.write_text(config_text)
        code, rep = run(str(path))
        assert code == 0
        return rep

    return runner


class TestAcceptance:
    def test_criterion_01_factorization_identity(self):
        from dispersia.fields import gaussian_field, lp_norm, make_grid
        from dispersia.propagators import PropagatorSpec, product_propagate, torus_frequencies
        from oracles import product_field

        grid = make_grid(512, 200.0)
        u = product_field(gaussian_field(grid, 1.0), gaussian_field(grid, 2.0))
        start = time.monotonic()
        swept = product_propagate([PropagatorSpec("free", grid)] * 2, u, 3.0)
        xi = torus_frequencies(grid)
        mult = np.exp(-1j * 3.0 * (xi[:, None] ** 2 + xi[None, :] ** 2))
        direct = u.with_values(sfft.ifft2(sfft.fft2(u.values) * mult))
        elapsed = time.monotonic() - start
        diff = lp_norm(swept.with_values(swept.values - direct.values), 2)
        report(
            "criterion 1 factorization identity",
            diff <= 1e-10 and elapsed < 5.0,
            f"L2 difference {diff:.3e} (<=1e-10), {elapsed:.2f}s at 512^2 (<5s)",
        )

    def test_criterion_02_free_exponent_additivity(self, run_experiment):
        details = []
        ok = True
        for k, tol in ((1, 0.05), (2, 0.05), (3, 0.08)):
            rep = run_experiment(
                f"[experiment]\nname = free-product-decay\n[grid]\nfactors = {k}\n"
                f"[fit]\ntolerance = {tol}\n"
            )
            ok = ok and all(rep.verdicts)
            details.append(rep.lines[-1].split(": ", 1)[1])
        report("criterion 2 free exponent additivity", ok, "; ".join(details))

    def test_criterion_03_potential_decay(self, run_experiment):
        details = []
        ok = True
        for k, tol in ((1, 0.10), (2, 0.12)):
            rep = run_experiment(
                f"[experiment]\nname = potential-product-decay\n[grid]\nfactors = {k}\n"
                f"[fit]\ntolerance = {tol}\n"
            )
            ok = ok and all(rep.verdicts)
            details.append(rep.lines[-1].split(": ", 1)[1])
        report("criterion 3 potential decay", ok, "; ".join(details))

    def test_criterion_04_interpolated_estimate(self, run_experiment):
        rep = run_experiment(
            "[experiment]\nname = interpolated-decay\n[exponents]\nq = 4\n[fit]\ntolerance = 0.08\n"
        )
        report(
            "criterion 4 interpolated estimate",
            all(rep.verdicts),
            rep.lines[-1].split(": ", 1)[1],
        )

    def test_criterion_05_two_particle(self, run_experiment):
        rep = run_experiment(
            "[experiment]\nname = two-particle\n"
            "[fit]\nequivalence_tolerance = 1e-6\ntolerance = 0.12\n"
        )
        details = [line.split(": ", 1)[1] for line in rep.lines if line.startswith("[")]
        report("criterion 5 two-particle reduction", all(rep.verdicts), "; ".join(details))

    def test_criterion_06_hyperbolic_decay(self, run_experiment):
        details = []
        ok = True
        for name, tol in (("hyperbolic-decay", 0.10), ("hyperbolic-product-decay", 0.15)):
            rep = run_experiment(f"[experiment]\nname = {name}\n[fit]\ntolerance = {tol}\n")
            ok = ok and all(rep.verdicts)
            details.append(rep.lines[-1].split(": ", 1)[1])
        report("criterion 6 hyperbolic large-time decay", ok, "; ".join(details))

    def test_criterion_07_h3_sine_transform(self):
        from dispersia.fields import HYPERBOLIC, make_grid
        from dispersia.hyperbolic import h3_factor
        from oracles import h3_plancherel_weights

        grid = make_grid(512, 40.0, HYPERBOLIC)
        factor = h3_factor(grid)
        rng = np.random.default_rng(7)
        vals = (rng.standard_normal(512) + 1j * rng.standard_normal(512)) * np.exp(-grid.nodes / 4)
        w = grid.weights

        def wl2(v):
            return math.sqrt(float(np.sum(w * np.abs(v) ** 2)))

        coeffs = factor.forward(vals, 0)
        back = factor.inverse(coeffs, 0)
        round_trip = wl2(back - vals) / wl2(vals)
        plancherel = abs(
            math.sqrt(float(np.sum(h3_plancherel_weights(grid) * np.abs(coeffs) ** 2))) - wl2(vals)
        ) / wl2(vals)
        r = grid.nodes
        bump = np.exp(-(((r - 0.3) / 0.05) ** 2))
        hyperbolic = factor.forward(bump, 0)
        euclidean = sfft.dst(r * bump, type=2)
        limit = float(np.linalg.norm(hyperbolic - euclidean) / np.linalg.norm(euclidean))
        report(
            "criterion 7 spherical transform",
            round_trip <= 1e-10 and plancherel <= 1e-8 and limit <= 0.02,
            f"round trip {round_trip:.2e} (<=1e-10), Plancherel {plancherel:.2e} (<=1e-8), "
            f"euclidean limit {limit:.4f} (<=0.02)",
        )

    def test_criterion_08_admissibility_oracle(self):
        from dispersia.exponents import (
            Admissibility,
            DispersionIndex,
            ExponentPair,
            in_triangle_T,
            is_admissible,
        )
        from oracles import admissible_oracle, triangle_oracle

        mismatches = 0
        checks = 0
        for ab in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)):
            idx = DispersionIndex(ab / 2, ab / 2)
            for i in range(7):
                for j in range(7):
                    pair = ExponentPair(Fraction(i, 12), Fraction(j, 12))
                    checks += 1
                    if is_admissible(pair, idx).value != admissible_oracle(pair.inv_p, pair.inv_q, ab):
                        mismatches += 1
        for m, n in ((2, 2), (2, 3), (3, 3)):
            for i in range(7):
                for j in range(7):
                    pair = ExponentPair(Fraction(i, 12), Fraction(j, 12))
                    checks += 1
                    if in_triangle_T(pair, m, n) != triangle_oracle(pair.inv_p, pair.inv_q, m, n):
                        mismatches += 1
        endpoint = is_admissible(
            ExponentPair(Fraction(1, 2), Fraction(1, 4)), DispersionIndex(Fraction(1), Fraction(1))
        )
        endpoint_ok = endpoint == Admissibility.ENDPOINT
        report(
            "criterion 8 admissibility oracle",
            mismatches == 0 and endpoint_ok,
            f"{checks} lattice points, {mismatches} disagreements; (2,4) at ab=2 -> {endpoint.value}",
        )

    def test_criterion_09_nls_exponent_selection(self):
        from dispersia.exponents import HypothesisViolation, select_nls_exponents

        sel = select_nls_exponents(2, 2, 2)
        selection_ok = sel.beta == 2 and sel.p == sel.q == 3
        rejected = False
        message = ""
        try:
            select_nls_exponents(2, 2, Fraction(201, 100))
        except HypothesisViolation as exc:
            rejected = True
            message = str(exc)
        report(
            "criterion 9 NLS exponent selection",
            selection_ok and rejected and "4/(m+n)" in message,
            f"(2,2,2) -> beta={sel.beta}, p=q={sel.p}; gamma=2.01 rejected citing the bound",
        )

    def test_criterion_10_picard_contraction(self, run_experiment):
        rep = run_experiment(
            "[experiment]\nname = nls-smalldata\n"
            "[fit]\ncross_method_tolerance = 1e-4\nscaling_tolerance = 0.2\n"
        )
        details = [line.split(": ", 1)[1] for line in rep.lines if line.startswith("[")]
        report("criterion 10 Picard contraction", all(rep.verdicts), "; ".join(details))

    def test_criterion_11_scattering_diagnostic(self, run_experiment):
        rep = run_experiment(
            "[experiment]\nname = nls-scattering\n[fit]\ntail_decrease_factor = 10\n"
        )
        report(
            "criterion 11 scattering diagnostic",
            all(rep.verdicts),
            rep.lines[-1].split(": ", 1)[1],
        )

    def test_criterion_12_determinism_and_runtime(self, tmp_path, monkeypatch):
        from dispersia.experiments import run

        monkeypatch.setenv("DISPERSIA_OUTPUT_ROOT", str(tmp_path / "out"))
        path = tmp_path / "det.cfg"
        path.write_text(
            "[experiment]\nname = free-product-decay\n"
            "[grid]\nfactors = 1\nn_points = 512\nlength = 200\n"
            "[time]\nt_min = 2\nt_max = 10\nn_times = 8\n"
        )
        run(str(path))
        series = (tmp_path / "out" / "free-product-decay" / "series.csv").read_bytes()
        fit = (tmp_path / "out" / "free-product-decay" / "fit.json").read_bytes()
        run(str(path))
        identical = (
            (tmp_path / "out" / "free-product-decay" / "series.csv").read_bytes() == series
            and (tmp_path / "out" / "free-product-decay" / "fit.json").read_bytes() == fit
        )
        elapsed = time.monotonic() - _SUITE_START
        report(
            "criterion 12 determinism and runtime",
            identical and elapsed < 600.0,
            f"repeat run byte-identical: {identical}; acceptance module at {elapsed:.0f}s (<600s)",
        )
