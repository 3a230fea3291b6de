"""Command-line driver: registry, exit codes, artifacts, determinism."""

import collections
import functools
import json
import os
import threading
import warnings
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest

from dispersia import experiments, nls
from dispersia.cli import (
    EXIT_CONFIG,
    EXIT_HYPOTHESIS,
    EXIT_INVALID_ARGUMENT,
    EXIT_OK,
    EXIT_UNEXPECTED,
    EXIT_UNKNOWN_EXPERIMENT,
    main,
)
from dispersia.experiments import list_experiments, parse_config
from dispersia.nls import CauchyTails

EXPECTED_NAMES = [
    "free-product-decay",
    "potential-product-decay",
    "two-particle",
    "hyperbolic-decay",
    "hyperbolic-product-decay",
    "interpolated-decay",
    "admissible-region",
    "nls-smalldata",
    "nls-scattering",
]
DECAY_RUNNERS = [
    "free-product-decay",
    "potential-product-decay",
    "two-particle",
    "hyperbolic-decay",
    "hyperbolic-product-decay",
    "interpolated-decay",
]


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def output_root(tmp_path, monkeypatch):
    root = tmp_path / "out"
    monkeypatch.setenv("DISPERSIA_OUTPUT_ROOT", str(root))
    return root


class TestRegistry:
    def test_count_is_nine(self):
        assert len(list_experiments()) == 9

    def test_names_and_order(self):
        assert [name for name, _, _ in list_experiments()] == EXPECTED_NAMES

    def test_list_subcommand_prints_all(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in EXPECTED_NAMES:
            assert name in out


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        assert main(["run", "/nonexistent/path.cfg"]) == EXIT_CONFIG

    def test_malformed_config(self, tmp_path, capsys):
        path = write_config(tmp_path, "not a config at all\n")
        assert main(["run", path]) == EXIT_CONFIG

    def test_config_without_experiment_section(self, tmp_path, capsys):
        path = write_config(tmp_path, "[grid]\nn_points = 64\n")
        assert main(["run", path]) == EXIT_CONFIG

    def test_unknown_experiment(self, tmp_path, capsys, output_root):
        path = write_config(tmp_path, "[experiment]\nname = no-such-thing\n")
        assert main(["run", path]) == EXIT_UNKNOWN_EXPERIMENT

    def test_hypothesis_violation_surfaces(self, tmp_path, capsys, output_root):
        path = write_config(
            tmp_path,
            "[experiment]\nname = nls-smalldata\n[nls]\ngamma = 5\n[time]\nt_final = 1\ndt = 0.5\n",
        )
        assert main(["run", path]) == EXIT_HYPOTHESIS

    def test_internal_key_error_is_unexpected(self, tmp_path, capsys, output_root, monkeypatch):
        def broken(cfg, report):
            raise KeyError("internal bug")

        registry = [(name, broken, *rest) if name == "admissible-region" else (name, fn, *rest)
                    for name, fn, *rest in experiments.REGISTRY]
        monkeypatch.setattr(experiments, "REGISTRY", registry)
        path = write_config(tmp_path, "[experiment]\nname = admissible-region\n")
        assert main(["run", path]) == EXIT_UNEXPECTED

    def test_single_picard_iteration_rejected(self, tmp_path, capsys, output_root):
        path = write_config(
            tmp_path,
            "[experiment]\nname = nls-smalldata\n[nls]\nmax_iter = 1\n[time]\nt_final = 1\ndt = 0.5\n",
        )
        assert main(["run", path]) == EXIT_CONFIG
        assert "max_iter" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["nls-smalldata", "nls-scattering"])
    def test_gamma_just_above_bound_refused(self, tmp_path, capsys, output_root, name):
        # the runs build two 1-D torus factors: 1 + 4/(1+1) = 3, and
        # gamma = 3.0004 lies above it
        path = write_config(
            tmp_path,
            f"[experiment]\nname = {name}\n[nls]\ngamma = 3.0004\n[time]\nt_final = 1\ndt = 0.5\n",
        )
        assert main(["run", path]) == EXIT_HYPOTHESIS

    @pytest.mark.parametrize("gamma", ["3.0000001", "3.0000004"])
    def test_gamma_near_bound_checked_exactly(self, tmp_path, capsys, output_root, gamma):
        # the bound is checked on the rational the config states: a gamma
        # that rounds to 3 at denominator 10^6 is still above it
        path = write_config(
            tmp_path,
            f"[experiment]\nname = nls-smalldata\n[nls]\ngamma = {gamma}\n[time]\nt_final = 1\ndt = 0.5\n",
        )
        assert main(["run", path]) == EXIT_HYPOTHESIS
        assert f"gamma={Fraction(gamma)} outside" in capsys.readouterr().err
        assert not output_root.exists()

    def test_gamma_just_above_one_runs(self, tmp_path, capsys, output_root):
        # 1.0000004 lies inside (1, 3] and runs, though it rounds to 1 at
        # denominator 10^6
        path = write_config(tmp_path, SMALL_SCATTERING.replace("[time]", "[nls]\ngamma = 1.0000004\n[time]"))
        assert main(["run", path]) == EXIT_OK
        assert (output_root / "nls-scattering" / "tails.csv").exists()

    @pytest.mark.parametrize("gamma", ["1", "0.5"])
    @pytest.mark.parametrize("name", ["nls-smalldata", "nls-scattering"])
    def test_gamma_at_most_one_refused(self, tmp_path, capsys, output_root, name, gamma):
        # the power nonlinearity needs gamma > 1: a refusal that names its
        # key, before any solve, worker thread or output directory
        path = write_config(tmp_path, f"[experiment]\nname = {name}\n[nls]\ngamma = {gamma}\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert "[nls] gamma must exceed 1" in capsys.readouterr().err
        assert not output_root.exists()

    @pytest.mark.parametrize("key", ["m_eff", "n_eff"])
    def test_nls_dimension_keys_refused(self, tmp_path, capsys, output_root, key):
        # the exponent dimensions come from the factors the run builds; a
        # key that sets them, even to the built value, is refused
        path = write_config(
            tmp_path,
            f"[experiment]\nname = nls-smalldata\n[nls]\n{key} = 1\n[time]\nt_final = 1\ndt = 0.5\n",
        )
        assert main(["run", path]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_split_step_key_refused(self, tmp_path, capsys, output_root):
        # the potential factor flow is exact: a step count is not a setting
        path = write_config(
            tmp_path,
            "[experiment]\nname = potential-product-decay\n[grid]\nfactors = 2\n"
            "[time]\nsplit_steps_per_unit_time = 32\n",
        )
        assert main(["run", path]) == EXIT_CONFIG
        assert "split_steps_per_unit_time" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [("[grid]\nn_point = 64\n", "[grid] n_point"), ("[grdi]\nn_points = 64\n", "[grdi] n_points")],
        ids=["misspelt-key", "unknown-section"],
    )
    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_unread_key_refused(self, tmp_path, capsys, output_root, name, text, key):
        # a key the runner does not read is refused before any solve, not
        # ignored while the run goes on with the default
        path = write_config(tmp_path, f"[experiment]\nname = {name}\n{text}")
        assert main(["run", path]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not output_root.exists()

    def test_default_section_key_refused_as_written(self, tmp_path, capsys, output_root):
        # [DEFAULT] is an ordinary section: its key is refused under the
        # section it was written in, not copied into every other section
        path = write_config(tmp_path, "[DEFAULT]\nm = 2\n[experiment]\nname = admissible-region\n")
        assert main(["run", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[DEFAULT] m" in err
        assert "[experiment] m" not in err
        assert not output_root.exists()

    @pytest.mark.parametrize("q", ["3/2", "1"])
    def test_q_below_2_refused(self, tmp_path, capsys, output_root, q):
        # a decay rate is an L^q' -> L^q estimate with q >= 2: the key is
        # refused where it is read, before the grid or the datum is built
        path = write_config(tmp_path, f"[experiment]\nname = interpolated-decay\n[exponents]\nq = {q}\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert "[exponents] q" in capsys.readouterr().err
        assert not output_root.exists()

    @pytest.mark.parametrize("name", ["hyperbolic-decay", "hyperbolic-product-decay", "interpolated-decay"])
    def test_fixed_factor_count_refused(self, tmp_path, capsys, output_root, name):
        # these presets have a fixed factor count: [grid] factors = 2 ran
        # hyperbolic-decay with one factor
        path = write_config(tmp_path, f"[experiment]\nname = {name}\n[grid]\nfactors = 2\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert "[grid] factors" in capsys.readouterr().err
        assert not output_root.exists()

    @pytest.mark.parametrize("k", [0, 4])
    def test_unsupported_factor_count_refused(self, tmp_path, capsys, output_root, k):
        # free-product-decay has defaults for 1 to 3 factors only
        path = write_config(tmp_path, f"[experiment]\nname = free-product-decay\n[grid]\nfactors = {k}\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert f"[grid] factors = {k} is not supported" in capsys.readouterr().err
        assert not output_root.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("split_steps_per_unit_time", 0),
            ("split_steps_per_unit_time", -5),
            ("t_equivalence", 0),
            ("t_equivalence", -1),
            ("equivalence_steps", 0),
        ],
    )
    def test_two_particle_time_keys_refused(self, tmp_path, capsys, output_root, key, value):
        # a step count below one or a zero-time route comparison is refused,
        # not replaced by one step or passed vacuously
        path = write_config(tmp_path, f"[experiment]\nname = two-particle\n[time]\n{key} = {value}\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not output_root.exists()

    @pytest.mark.parametrize(
        "name, key, value",
        [(name, key, value)
         for name in ("potential-product-decay", "two-particle")
         for key, value in [("amplitude", "nan"), ("amplitude", "inf"), ("amplitude", "-0.5"),
                            ("width", "0"), ("width", "inf")]]
        + [("potential-product-decay", "family", "square")],
    )
    def test_bad_potential_refused(self, tmp_path, capsys, output_root, monkeypatch, name, key, value):
        # a non-finite or negative amplitude, a zero or infinite width (an
        # infinite one is a constant V, outside the decaying class) and an
        # unknown family are refused as the key they were given in, before
        # any eigenbasis, worker thread or artifact
        def never(*args, **kwargs):
            raise AssertionError("ran past the potential check")

        monkeypatch.setattr(np.linalg, "eigh", never)
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", never)
        path = write_config(tmp_path, f"[experiment]\nname = {name}\n[potential]\n{key} = {value}\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert f"[potential] {key}" in capsys.readouterr().err
        assert not output_root.exists()

    @pytest.mark.parametrize(
        "name, section, key, value",
        [(name, "time", "t_final", "inf") for name in ("nls-smalldata", "nls-scattering")]
        + [(name, "nls", "gamma", "inf") for name in ("nls-smalldata", "nls-scattering")]
        + [
            ("two-particle", "time", "t_equivalence", "inf"),
            ("nls-smalldata", "data", "amplitude", "inf"),
            ("nls-smalldata", "data", "amplitude", "-inf"),
            ("nls-smalldata", "nls", "mu", "inf"),
            ("hyperbolic-decay", "data", "center", "inf"),
        ],
    )
    def test_nonfinite_float_refused(self, tmp_path, capsys, output_root, monkeypatch, name, section, key, value):
        # every float key is finite: an infinite one is refused as the key
        # it was given in, before any solve, worker thread or artifact
        def never(*args, **kwargs):
            raise AssertionError("ran past the config check")

        monkeypatch.setattr(np.linalg, "eigh", never)
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", never)
        path = write_config(tmp_path, f"[experiment]\nname = {name}\n[{section}]\n{key} = {value}\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert f"[{section}] {key}" in capsys.readouterr().err
        assert not output_root.exists()

    @pytest.mark.parametrize(
        "name, time_section, keys",
        [("nls-scattering", f"save_stride = {stride}\n", ["[time] save_stride"]) for stride in (0, -3)]
        + [(name, "t_final = 40\ndt = 0.3\n", ["[time] t_final", "[time] dt"])
           for name in ("nls-smalldata", "nls-scattering")],
        ids=["save_stride-0", "save_stride-minus-3", "nls-smalldata-dt", "nls-scattering-dt"],
    )
    def test_bad_nls_time_grid_refused(self, tmp_path, capsys, output_root, monkeypatch, name, time_section, keys):
        # a save stride below 1 and a t_final that is not a whole number of
        # steps were invalid arguments from the library, one of them raised
        # inside the Picard solves; each is refused as its [time] keys
        # before any solve, worker thread or artifact
        def never(*args, **kwargs):
            raise AssertionError("ran past the time check")

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", never)
        path = write_config(tmp_path, f"[experiment]\nname = {name}\n[time]\n{time_section}")
        assert main(["run", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(key in err for key in keys), err
        assert not output_root.exists()

    @pytest.mark.parametrize("width", ["0", "-1", "nan"])
    @pytest.mark.parametrize("name", [n for n in EXPECTED_NAMES if n != "admissible-region"])
    def test_nonpositive_data_width_refused(self, tmp_path, capsys, output_root, name, width):
        # a zero width gives an all-zero or non-finite datum, and the
        # Gaussian's width enters squared, so a negative one ran as its
        # absolute value
        path = write_config(tmp_path, f"[experiment]\nname = {name}\n[data]\nwidth = {width}\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert "[data] width" in capsys.readouterr().err
        assert not output_root.exists()

    @pytest.mark.parametrize("dt", ["0", "-0.1"])
    @pytest.mark.parametrize("name", ["nls-smalldata", "nls-scattering"])
    def test_nonpositive_dt_refused(self, tmp_path, capsys, output_root, name, dt):
        path = write_config(tmp_path, f"[experiment]\nname = {name}\n[time]\ndt = {dt}\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert "[time] dt" in capsys.readouterr().err
        assert not output_root.exists()

    @pytest.mark.parametrize(
        "time_section, key",
        [
            ("t_min = 0\n", "[time] t_min"),
            ("t_min = -1\n", "[time] t_min"),
            ("t_min = nan\n", "[time] t_min"),
            ("t_min = 5\nt_max = 5\n", "[time] t_max"),
            ("t_min = 5\nt_max = 4\n", "[time] t_max"),
            ("n_times = 4\n", "[time] n_times"),
        ],
        ids=["t_min-zero", "t_min-negative", "t_min-nan", "t_max-equal", "t_max-below", "n_times-4"],
    )
    @pytest.mark.parametrize("name", DECAY_RUNNERS)
    def test_bad_decay_window_refused(self, tmp_path, capsys, output_root, name, time_section, key):
        # a window with no positive start, no width or fewer samples than
        # the fit reads is refused before any solve
        path = write_config(tmp_path, f"[experiment]\nname = {name}\n[time]\n{time_section}")
        assert main(["run", path]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not output_root.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    @pytest.mark.parametrize(
        "name, section, key",
        [(name, "fit", "tolerance") for name in DECAY_RUNNERS]
        + [
            ("two-particle", "fit", "equivalence_tolerance"),
            ("nls-smalldata", "fit", "cross_method_tolerance"),
            ("nls-smalldata", "fit", "scaling_tolerance"),
            ("nls-smalldata", "nls", "tol"),
            ("nls-scattering", "fit", "tail_decrease_factor"),
        ],
    )
    def test_nonpositive_tolerance_refused(self, tmp_path, capsys, output_root, name, section, key, value):
        # a verdict against a tolerance that is not > 0 can never pass (or,
        # for the tail factor, divides by zero)
        path = write_config(tmp_path, f"[experiment]\nname = {name}\n[{section}]\n{key} = {value}\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert f"[{section}] {key}" in capsys.readouterr().err
        assert not output_root.exists()

    @pytest.mark.parametrize("denominator", [0, -2])
    def test_nonpositive_lattice_denominator_refused(self, tmp_path, capsys, output_root, denominator):
        path = write_config(
            tmp_path, f"[experiment]\nname = admissible-region\n[exponents]\ndenominator = {denominator}\n"
        )
        assert main(["run", path]) == EXIT_CONFIG
        assert "[exponents] denominator must be >= 1" in capsys.readouterr().err
        assert not output_root.exists()

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("interpolated-decay", "q", "abc"),
            ("interpolated-decay", "q", "nan"),
            ("interpolated-decay", "q", "1/0"),
            ("admissible-region", "indices", "x"),
            ("admissible-region", "indices", "1/2,1/0"),
        ],
    )
    def test_malformed_exponent_key_refused(self, tmp_path, capsys, output_root, name, key, value):
        # an exponent key that is not an exact rational is a config error
        # that names the key, not an invalid argument from the library
        path = write_config(tmp_path, f"[experiment]\nname = {name}\n[exponents]\n{key} = {value}\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert f"[exponents] {key}" in capsys.readouterr().err
        assert not output_root.exists()

    def test_negative_lattice_index_refused(self, tmp_path, capsys, output_root):
        path = write_config(tmp_path, "[experiment]\nname = admissible-region\n[exponents]\nindices = -1\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert "[exponents] indices must be nonnegative" in capsys.readouterr().err
        assert not output_root.exists()

    @pytest.mark.parametrize("key", ["m", "n"])
    def test_small_lattice_dimension_refused(self, tmp_path, capsys, output_root, key):
        # the triangle T(m, n) is stated for factor dimensions m, n >= 2
        path = write_config(tmp_path, f"[experiment]\nname = admissible-region\n[exponents]\n{key} = 1\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert f"[exponents] {key} must be >= 2" in capsys.readouterr().err
        assert not output_root.exists()

    def test_overflowing_h3_grid_rejected_without_warnings(self, tmp_path, capsys, output_root):
        # sinh(r)^2 overflows float64 near r = 355
        path = write_config(tmp_path, "[experiment]\nname = hyperbolic-decay\n[grid]\nr_max = 800\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[grid] r_max" in err and "355" in err
        assert not output_root.exists()

    @pytest.mark.parametrize(
        "name, key, value",
        [(name, key, value)
         for name in ("potential-product-decay", "two-particle", "nls-scattering")
         for key, value in [("length", "inf"), ("length", "nan"), ("length", "-3"), ("n_points", "4")]]
        + [("two-particle", "n_points", "244"), ("hyperbolic-decay", "r_max", "inf"),
           ("hyperbolic-decay", "r_max", "nan")],
    )
    def test_bad_grid_refused(self, tmp_path, capsys, output_root, monkeypatch, name, key, value):
        # an infinite length gave non-finite nodes and a non-finite datum,
        # and a short grid or an even two-particle lattice was refused by
        # the library naming no key; each is now refused as the [grid] key
        # it was given in, before any eigenbasis, worker thread or artifact
        def never(*args, **kwargs):
            raise AssertionError("ran past the grid check")

        monkeypatch.setattr(np.linalg, "eigh", never)
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", never)
        path = write_config(tmp_path, f"[experiment]\nname = {name}\n[grid]\n{key} = {value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", path]) == EXIT_CONFIG
        assert f"[grid] {key}" in capsys.readouterr().err
        assert not output_root.exists()

    @pytest.mark.parametrize(
        "name, settings",
        [
            ("hyperbolic-decay", "[data]\ncenter = 400\n"),
            ("hyperbolic-decay", "[data]\ncenter = -50\n"),
            ("two-particle", "[data]\nwidth = 0.005\n"),
            ("free-product-decay", "[grid]\nn_points = 1023\n[data]\nwidth = 0.005\n"),
            ("free-product-decay", "[data]\nwidth = 1e-170\n"),
            ("free-product-decay", "[data]\nwidth = 1e160\n"),
            ("hyperbolic-decay", "[data]\ncenter = 1e200\n"),
        ],
        ids=[
            "h3-center-400",
            "h3-center-minus-50",
            "two-particle-width",
            "free-width-odd-grid",
            "free-width-square-underflows",
            "free-width-square-overflows",
            "h3-center-square-overflows",
        ],
    )
    def test_zero_datum_refused(self, tmp_path, capsys, output_root, monkeypatch, name, settings):
        # a Gaussian centred far off the grid, or narrower than the node
        # spacing about a centre between nodes, is 0 at every node, and a
        # width whose 2 width^2 underflows to 0 or overflows gives no
        # Gaussian; each is refused as the [data] settings that gave it,
        # before any eigenbasis, worker thread or artifact, and not after
        # every solve or with a warning
        def never(*args, **kwargs):
            raise AssertionError("ran past the datum check")

        monkeypatch.setattr(np.linalg, "eigh", never)
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", never)
        path = write_config(tmp_path, f"[experiment]\nname = {name}\n{settings}")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", path]) == EXIT_CONFIG
        assert "[data] width" in capsys.readouterr().err
        assert not output_root.exists()

    def test_malformed_config_leaves_no_outputs(self, tmp_path, capsys, output_root):
        path = write_config(tmp_path, "[experiment]\nname = \n[[[\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert not output_root.exists()


class InlineExecutor:
    """A stand-in for ThreadPoolExecutor that runs each task at submit."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


SMALL_NLS = (
    "[experiment]\nname = nls-smalldata\n[grid]\nn_points = 64\nlength = 32\n"
    "[time]\nt_final = 2\ndt = 0.1\n"
)
SMALL_SCATTERING = (
    "[experiment]\nname = nls-scattering\n[grid]\nn_points = 64\nlength = 32\n"
    "[time]\nt_final = 30\ndt = 0.1\nsave_stride = 10\n"
)
SMALL_TWO_PARTICLE = (
    "[experiment]\nname = two-particle\n[grid]\nn_points = 63\nlength = 80\n"
    "[time]\nt_equivalence = 0.5\nequivalence_steps = 8\nsplit_steps_per_unit_time = 8\n"
    "t_min = 1\nt_max = 4\nn_times = 6\n[fit]\ntolerance = 0.5\n"
)


def run_in_thread(path):
    """Exit codes of `dispersia run path` on a daemon thread, joined for at
    most 120 s, so that a run that hangs fails the test instead of the suite."""
    codes = []
    runner = threading.Thread(target=lambda: codes.append(main(["run", path])), daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "the run hangs after the worker raised"
    return codes


class TestNLSRunners:
    def test_worker_exception_surfaces(self, tmp_path, capsys, output_root, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("split-step broke")

        monkeypatch.setattr(experiments, "splitstep_nls", broken)
        path = write_config(tmp_path, SMALL_NLS)
        assert run_in_thread(path) == [EXIT_INVALID_ARGUMENT]
        assert "split-step broke" in capsys.readouterr().err
        assert not (output_root / "nls-smalldata" / "picard.json").exists()

    def test_scattering_worker_exception_surfaces(self, tmp_path, capsys, output_root, monkeypatch):
        def broken(self, t, state):
            raise ValueError("tail accumulator broke")

        monkeypatch.setattr(CauchyTails, "add", broken)
        path = write_config(tmp_path, SMALL_SCATTERING)
        assert run_in_thread(path) == [EXIT_INVALID_ARGUMENT]
        assert "tail accumulator broke" in capsys.readouterr().err
        assert not (output_root / "nls-scattering" / "tails.csv").exists()
        assert not (output_root / "nls-scattering" / "scattering.json").exists()

    def test_nonfinite_picard_iterate_exits_5(self, tmp_path, capsys, output_root, monkeypatch):
        monkeypatch.setattr(nls, "apply_nonlinearity", lambda values, nl: np.full_like(values, np.nan))
        path = write_config(tmp_path, SMALL_NLS)
        assert run_in_thread(path) == [EXIT_INVALID_ARGUMENT]
        assert "field values must be finite" in capsys.readouterr().err
        assert not (output_root / "nls-smalldata" / "picard.json").exists()

    def test_scaling_expectation_from_the_exact_gamma(self, tmp_path, capsys, output_root, monkeypatch):
        # a nonlinearity that computes with the power gamma - 1/2 halves the
        # k = 2 ratio by 2^-(5/2) on halved data; the expected factor is
        # 2^-(gamma - 1) = 1/4 of the exact gamma, so the scaling line fails
        monkeypatch.setattr(nls.Nonlinearity, "power", property(lambda nl: float(nl.gamma) - 0.5))
        assert main(["run", write_config(tmp_path, SMALL_NLS)]) == EXIT_OK
        line = next(ln for ln in capsys.readouterr().out.splitlines() if "data-size scaling" in ln)
        assert line.startswith("[FAIL]") and "expected=0.2500" in line, line

    @pytest.mark.parametrize("name,config", [("nls-smalldata", SMALL_NLS), ("nls-scattering", SMALL_SCATTERING)])
    def test_nonfinite_splitstep_state_exits_5(self, tmp_path, capsys, output_root, monkeypatch, name, config):
        # Picard never calls the nonlinear substep, so only the split-step's
        # saved states turn non-finite: the Field check of each saved state
        # refuses them, on the worker (nls-smalldata) or on the calling
        # thread (nls-scattering)
        monkeypatch.setattr(nls, "_nonlinear_substep", lambda values, nl, dt, work: np.full_like(values, np.nan))
        path = write_config(tmp_path, config)
        assert run_in_thread(path) == [EXIT_INVALID_ARGUMENT]
        assert "field values must be finite" in capsys.readouterr().err
        assert not output_root.exists()

    def test_threaded_picard_json_matches_inline(self, tmp_path, capsys, monkeypatch):
        # every threaded runner: the nls-smalldata chains, the nls-scattering
        # tail worker and the two-particle route solves give the same bytes
        # run inline at submit
        runs = {
            "nls-smalldata": (write_config(tmp_path, SMALL_NLS, "small.cfg"), ("picard.json",)),
            "nls-scattering": (
                write_config(tmp_path, SMALL_SCATTERING, "scattering.cfg"),
                ("tails.csv", "scattering.json"),
            ),
            "two-particle": (
                write_config(tmp_path, SMALL_TWO_PARTICLE, "two-particle.cfg"),
                ("series.csv", "fit.json", "summary.txt"),
            ),
        }
        outputs = {}
        for mode in ("threaded", "inline"):
            if mode == "inline":
                monkeypatch.setattr(experiments, "ThreadPoolExecutor", InlineExecutor)
            monkeypatch.setenv("DISPERSIA_OUTPUT_ROOT", str(tmp_path / mode))
            for name, (path, artifacts) in runs.items():
                assert main(["run", path]) == EXIT_OK
                for artifact in artifacts:
                    outputs[mode, name, artifact] = (tmp_path / mode / name / artifact).read_bytes()
        assert len(outputs) == 12
        for (mode, name, artifact), data in outputs.items():
            assert data == outputs["inline", name, artifact]

    @pytest.mark.parametrize("n", [64, 63])
    def test_even_grid_runs_match_the_full_torus(self, tmp_path, capsys, monkeypatch, n):
        # both runners store the even half of the torus and say so; the full
        # torus, run by a make_grid that drops even=True, gives the same
        # artifacts to 1e-12 of the datum's Y-norm (float64 roundoff, a
        # tolerance set before the run)
        paths = [
            write_config(tmp_path, config.replace("n_points = 64", f"n_points = {n}"), f"{name}.cfg")
            for name, config in (("nls-smalldata", SMALL_NLS), ("nls-scattering", SMALL_SCATTERING))
        ]
        note = f"grid: even half of the {n}-point torus, {n // 2 + 1} x {n // 2 + 1} nodes stored"
        out = {}
        for mode in ("even", "full"):
            if mode == "full":
                full_grid = functools.partial(experiments.make_grid, even=False)
                monkeypatch.setattr(experiments, "make_grid", lambda n, length, even: full_grid(n, length))
            monkeypatch.setenv("DISPERSIA_OUTPUT_ROOT", str(tmp_path / mode))
            for path in paths:
                assert main(["run", path]) == EXIT_OK
            if mode == "even":
                assert capsys.readouterr().out.count(note + "\n") == 2
            picard = json.loads((tmp_path / mode / "nls-smalldata" / "picard.json").read_text())
            tails = np.loadtxt(tmp_path / mode / "nls-scattering" / "tails.csv", delimiter=",", skiprows=2)
            out[mode] = picard, tails
        for name in ("nls-smalldata", "nls-scattering"):
            assert note in (tmp_path / "even" / name / "summary.txt").read_text().splitlines()
        (a, tails_a), (b, tails_b) = out["full"], out["even"]
        tol = 1e-12 * a["history"][0]["y_norm"]
        assert len(a["history"]) == len(b["history"]) > 2
        for x, y in zip(a["history"], b["history"]):
            assert y["y_norm"] == pytest.approx(x["y_norm"], rel=1e-12, abs=0)
            assert x["distance"] is None or abs(y["distance"] - x["distance"]) <= tol
        assert abs(b["cross_method_difference"] - a["cross_method_difference"]) <= tol
        for key in ("ratio_full", "ratio_half"):
            assert b["scaling"][key] == pytest.approx(a["scaling"][key], rel=1e-9, abs=0)
        assert np.array_equal(tails_a[:, 0], tails_b[:, 0])
        assert np.max(np.abs(tails_b[:, 1] - tails_a[:, 1])) <= tol

    @pytest.mark.parametrize("t_final", ["0", "-1"])
    @pytest.mark.parametrize("name", ["nls-smalldata", "nls-scattering"])
    def test_nonpositive_t_final_refused(self, tmp_path, capsys, output_root, name, t_final):
        path = write_config(tmp_path, f"[experiment]\nname = {name}\n[time]\nt_final = {t_final}\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert "[time] t_final" in capsys.readouterr().err
        assert not output_root.exists()

    def test_zero_amplitude_refused(self, tmp_path, capsys, output_root):
        # both Picard runs converge at sweep 1 on a zero datum, so neither
        # has the k = 2 ratio that the scaling check compares
        path = write_config(tmp_path, SMALL_NLS + "[data]\namplitude = 0\n")
        assert run_in_thread(path) == [EXIT_CONFIG]
        err = capsys.readouterr().err
        assert "[data] amplitude" in err and "[nls] tol" in err
        assert not (output_root / "nls-smalldata" / "picard.json").exists()

    def test_tolerance_met_at_sweep_1_refused(self, tmp_path, capsys, output_root):
        # a tolerance the first sweep already meets stops both runs before
        # the k = 2 ratio too
        path = write_config(tmp_path, SMALL_NLS + "[nls]\ntol = 1\n")
        assert run_in_thread(path) == [EXIT_CONFIG]
        assert "[nls] tol" in capsys.readouterr().err
        assert not (output_root / "nls-smalldata" / "picard.json").exists()

    @pytest.mark.parametrize(
        "time_section,key",
        [("t_final = 40\ndt = 0.1\nsave_stride = 100\n", "save_stride"), ("t_final = 10\ndt = 0.1\n", "t_final"),
         ("t_final = 20\ndt = 0.1\nsave_stride = 10\n", "[time] t_final")],
        ids=["t1-between-saved-samples", "t2-past-t_final", "t2-last-saved-time"],
    )
    def test_scattering_tail_time_not_saved_refused(self, tmp_path, capsys, output_root, time_section, key):
        # the verdict reads tail(1.0) and tail(20.0); a nearest-sample stand-in
        # would print another time's tail under their names, and a tail at
        # the last saved time has no later profile, so it is 0 and passes
        path = write_config(tmp_path, f"[experiment]\nname = nls-scattering\n[time]\n{time_section}")
        assert main(["run", path]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not output_root.exists()


class TestTwoParticleRunner:
    def test_worker_exception_surfaces(self, tmp_path, capsys, output_root, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("reference solve broke")

        monkeypatch.setattr(experiments, "original_coordinates_reference", broken)
        path = write_config(tmp_path, SMALL_TWO_PARTICLE)
        assert run_in_thread(path) == [EXIT_INVALID_ARGUMENT]
        assert "reference solve broke" in capsys.readouterr().err
        assert not (output_root / "two-particle" / "fit.json").exists()
        assert not (output_root / "two-particle" / "series.csv").exists()


class TestDecayDefaults:
    # the predicted slope of each entry: minus the sum of its factors' rates
    PREDICTED = {
        ("free-product-decay", 1): "1/2",
        ("free-product-decay", 2): "1",
        ("free-product-decay", 3): "3/2",
        ("potential-product-decay", 1): "1/2",
        ("potential-product-decay", 2): "1",
        ("potential-product-decay", 3): "3/2",
        ("hyperbolic-decay", 1): "3/2",
        ("hyperbolic-product-decay", 2): "3",
        ("interpolated-decay", 2): "1/2",
    }

    @pytest.mark.parametrize("preset,k", sorted(experiments._DECAY_DEFAULTS), ids=str)
    def test_defaults_entry_passes(self, tmp_path, capsys, output_root, preset, k):
        # a config naming only the preset (and the factor count where it is
        # settable) runs on that entry's defaults and must pass, warning-free,
        # against its exact predicted slope
        text = f"[experiment]\nname = {preset}\n"
        if preset in ("free-product-decay", "potential-product-decay"):
            text += f"[grid]\nfactors = {k}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", write_config(tmp_path, text)]) == EXIT_OK
        verdicts = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith(("[PASS]", "[FAIL]"))]
        assert verdicts and all(ln.startswith("[PASS]") for ln in verdicts), verdicts
        assert f" predicted=-{self.PREDICTED[preset, k]} " in verdicts[0]

    @pytest.mark.parametrize("q", ["inf", "Infinity"])
    def test_interpolated_decay_at_q_inf(self, tmp_path, capsys, output_root, q):
        # q = inf is the L^1 -> L^inf estimate: on the interpolated preset's
        # 2-factor free grid it predicts the free-product-decay slope -1
        path = write_config(tmp_path, f"[experiment]\nname = interpolated-decay\n[exponents]\nq = {q}\n")
        assert main(["run", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] interpolated decay slope (q=inf): slope=-0.9932 predicted=-1 tol=0.08" in out


class TestRunArtifacts:
    def run_admissible(self, tmp_path, output_root, subdir="a"):
        path = write_config(
            tmp_path,
            f"[experiment]\nname = admissible-region\n[output]\ndir = {subdir}\n",
            name=f"{subdir}.cfg",
        )
        assert main(["run", path]) == EXIT_OK
        return output_root / subdir

    def test_summary_and_lattice_written(self, tmp_path, capsys, output_root):
        out_dir = self.run_admissible(tmp_path, output_root)
        assert (out_dir / "summary.txt").exists()
        assert (out_dir / "lattice.csv").exists()
        summary = (out_dir / "summary.txt").read_text().splitlines()
        # a classification count and no verdict: no run measures the region
        assert summary[-1] == (
            "admitted of 49 points, T(2,2) lattice denominator 12: in_triangle 10, admissible_ab_1/2 4, "
            "admissible_ab_1 6, admissible_ab_3/2 3, admissible_ab_2 4, admissible_ab_3 3"
        )
        assert not any(line.startswith(("[PASS]", "[FAIL]")) for line in summary)

    def test_committed_lattice_counts(self, capsys, output_root):
        # the committed T(2,2) lattice, per column: the triangle without its
        # edge 1/q = 1/2 but for (0, 1/2), and each index's scaling line with
        # its endpoint, (4, inf) at a+b = 1/2 and not (2, inf) at a+b = 1
        config = os.path.join(os.path.dirname(__file__), "..", "scripts", "configs", "admissible-region.cfg")
        assert main(["run", config]) == EXIT_OK
        lines = (output_root / "admissible-region" / "lattice.csv").read_text().splitlines()[1:]
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        counts = {h: dict(collections.Counter(row[h] for row in rows)) for h in header[2:]}
        assert counts == {
            "in_triangle": {"True": 10, "False": 39},
            "admissible_ab_1/2": {"admissible": 4, "not-admissible": 45},
            "admissible_ab_1": {"admissible": 6, "not-admissible": 43},
            "admissible_ab_3/2": {"admissible": 2, "endpoint": 1, "not-admissible": 46},
            "admissible_ab_2": {"admissible": 3, "endpoint": 1, "not-admissible": 45},
            "admissible_ab_3": {"admissible": 2, "endpoint": 1, "not-admissible": 46},
        }
        triangle = {(row["inv_p"], row["inv_q"]) for row in rows if row["in_triangle"] == "True"}
        assert ("0", "1/2") in triangle and not any(q == "1/2" for p, q in triangle - {("0", "1/2")})
        by_pair = {(row["inv_p"], row["inv_q"]): row for row in rows}
        assert by_pair["1/4", "0"]["admissible_ab_1/2"] == "admissible"
        assert by_pair["1/2", "0"]["admissible_ab_1"] == "not-admissible"

    def test_lattice_rows_and_header(self, tmp_path, capsys, output_root):
        # an odd denominator stops each axis at the last multiple below
        # 1/2: 0, 1/5, 2/5 in 1/p and 1/q, so 3 x 3 rows
        path = write_config(tmp_path, "[experiment]\nname = admissible-region\n[exponents]\ndenominator = 5\n")
        assert main(["run", path]) == EXIT_OK
        lines = (output_root / "admissible-region" / "lattice.csv").read_text().splitlines()[1:]
        assert lines[0].split(",")[:3] == ["inv_p", "inv_q", "in_triangle"]
        assert {tuple(r.split(",")[:2]) for r in lines[1:]} == {
            (p, q) for p in ("0", "1/5", "2/5") for q in ("0", "1/5", "2/5")
        }
        assert len(lines) == 1 + 3 * 3

    def test_isolated_point_row_present(self, tmp_path, capsys, output_root):
        # (0, 1/2) is in the triangle though the rest of its edge is not,
        # and at a+b = 2 it is on the scaling line 2/p + 4/q = 2
        path = write_config(tmp_path, "[experiment]\nname = admissible-region\n[exponents]\nindices = 2\n")
        assert main(["run", path]) == EXIT_OK
        rows = (output_root / "admissible-region" / "lattice.csv").read_text().splitlines()[2:]
        assert "0,1/2,True,admissible" in rows

    def test_endpoint_classified(self, tmp_path, capsys, output_root):
        # on the 1/4 lattice at a+b = 2 the one endpoint is (p, q) = (2, 4)
        path = write_config(
            tmp_path, "[experiment]\nname = admissible-region\n[exponents]\ndenominator = 4\nindices = 2\n"
        )
        assert main(["run", path]) == EXIT_OK
        rows = (output_root / "admissible-region" / "lattice.csv").read_text().splitlines()[2:]
        assert [r for r in rows if r.endswith("endpoint")] == ["1/2,1/4,True,endpoint"]

    def test_lattice_columns_follow_indices(self, tmp_path, capsys, output_root):
        # the indices key is a comma list of exact rationals, spaces and an
        # empty entry allowed; each index gets its own admissibility column
        path = write_config(tmp_path, "[experiment]\nname = admissible-region\n[exponents]\nindices = 1/2, 3,\n")
        assert main(["run", path]) == EXIT_OK
        header = (output_root / "admissible-region" / "lattice.csv").read_text().splitlines()[1]
        assert header == "inv_p,inv_q,in_triangle,admissible_ab_1/2,admissible_ab_3"

    def test_fingerprint_embedded(self, tmp_path, capsys, output_root):
        out_dir = self.run_admissible(tmp_path, output_root)
        cfg = parse_config(str(tmp_path / "a.cfg"))
        lattice = (out_dir / "lattice.csv").read_text()
        assert cfg.fingerprint in lattice

    def test_determinism_byte_identical(self, tmp_path, capsys, output_root):
        path = write_config(
            tmp_path,
            "[experiment]\nname = free-product-decay\n"
            "[grid]\nfactors = 1\nn_points = 256\nlength = 150\n"
            "[time]\nt_min = 2\nt_max = 8\nn_times = 6\n"
            "[fit]\ntolerance = 0.5\n",
        )
        assert main(["run", path]) == EXIT_OK
        series_1 = (output_root / "free-product-decay" / "series.csv").read_bytes()
        fit_1 = (output_root / "free-product-decay" / "fit.json").read_bytes()
        assert main(["run", path]) == EXIT_OK
        assert (output_root / "free-product-decay" / "series.csv").read_bytes() == series_1
        assert (output_root / "free-product-decay" / "fit.json").read_bytes() == fit_1

    def test_series_csv_layout(self, tmp_path, capsys, output_root):
        path = write_config(
            tmp_path,
            "[experiment]\nname = free-product-decay\n"
            "[grid]\nfactors = 1\nn_points = 256\nlength = 150\n"
            "[time]\nt_min = 2\nt_max = 8\nn_times = 6\n",
        )
        assert main(["run", path]) == EXIT_OK
        lines = (output_root / "free-product-decay" / "series.csv").read_text().splitlines()
        assert lines[0].startswith("# fingerprint=")
        assert lines[1] == "t,value,flagged"
        assert len(lines) == 2 + 6

    def test_fit_json_fields(self, tmp_path, capsys, output_root):
        path = write_config(
            tmp_path,
            "[experiment]\nname = free-product-decay\n"
            "[grid]\nfactors = 1\nn_points = 256\nlength = 150\n"
            "[time]\nt_min = 2\nt_max = 8\nn_times = 6\n",
        )
        assert main(["run", path]) == EXIT_OK
        report = json.loads((output_root / "free-product-decay" / "fit.json").read_text())
        for key in ("slope", "stderr", "predicted", "verdict", "window", "fingerprint"):
            assert key in report

    def test_wrap_flag_stays_set(self, tmp_path, capsys, output_root):
        # on this small H^3 grid the wave reaches r_max near t = 41 and its
        # reflection has left the boundary band again by t = 60; that last
        # sample is flagged too, so the fit reads the 11 samples before the
        # wrap and passes (without the sticky flag it read t = 60: -1.05)
        path = write_config(
            tmp_path,
            "[experiment]\nname = hyperbolic-decay\n"
            "[grid]\nn_points = 680\nr_max = 170\n"
            "[time]\nt_min = 5\nt_max = 60\n",
        )
        assert main(["run", path]) == EXIT_OK
        rows = (output_root / "hyperbolic-decay" / "series.csv").read_text().splitlines()[2:]
        assert [row.split(",")[2] for row in rows] == ["0"] * 11 + ["1"] * 3
        fit = json.loads((output_root / "hyperbolic-decay" / "fit.json").read_text())
        assert fit["n_samples"] == 11 and fit["verdict"] == "pass"
        assert fit["slope"] == pytest.approx(-1.4544, abs=1e-4)

    def test_output_root_env_respected(self, tmp_path, capsys, monkeypatch):
        custom = tmp_path / "elsewhere"
        monkeypatch.setenv("DISPERSIA_OUTPUT_ROOT", str(custom))
        path = write_config(tmp_path, "[experiment]\nname = admissible-region\n")
        assert main(["run", path]) == EXIT_OK
        assert (custom / "admissible-region" / "summary.txt").exists()


class TestConfigParsing:
    def test_fingerprint_stable_under_section_order(self, tmp_path):
        a = write_config(tmp_path, "[experiment]\nname = x\n[grid]\nn_points = 9\n", "a.cfg")
        b = write_config(tmp_path, "[grid]\nn_points = 9\n[experiment]\nname = x\n", "b.cfg")
        assert parse_config(a).fingerprint == parse_config(b).fingerprint

    def test_fingerprint_changes_with_settings(self, tmp_path):
        a = write_config(tmp_path, "[experiment]\nname = x\n[grid]\nn_points = 9\n", "a.cfg")
        b = write_config(tmp_path, "[experiment]\nname = x\n[grid]\nn_points = 10\n", "b.cfg")
        assert parse_config(a).fingerprint != parse_config(b).fingerprint
