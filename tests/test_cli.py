import json
import math

import numpy as np
import pytest

from qcollide import cli
from qcollide.cli import main

from conftest import brute_force_lag_weight


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def mirror_data(**overrides):
    data = {
        "coupling": {"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 1.0},
        "dt": 1 / 64,
        "t_max": 3.0,
    }
    if "n_steps" in overrides:
        del data["t_max"]
    data.update(overrides)
    return data


class TestKernelCommand:
    def test_mirror_rows(self, tmp_path):
        config = write_config(tmp_path, mirror_data(
            coupling={"shape": "mirror", "gamma": 1.0, "phi": 0.4, "tau": 0.3},
            dt=0.1, n_steps=20))
        assert main(["kernel", "--config", config, "--output", str(tmp_path)]) == 0
        rows = (tmp_path / "weights.csv").read_text().splitlines()
        assert rows[0] == "lag,re_w,im_w"
        assert rows[1] == "0,1,0"
        lag, re_w, im_w = rows[2].split(",")
        assert lag == "3"
        assert float(re_w) == pytest.approx(-math.cos(0.4))
        assert float(im_w) == pytest.approx(math.sin(0.4))

    def test_white_single_row(self, tmp_path):
        config = write_config(tmp_path, {
            "coupling": {"shape": "white", "gamma": 2.0}, "dt": 0.1, "n_steps": 10,
        })
        assert main(["kernel", "--config", config, "--output", str(tmp_path), "--quiet"]) == 0
        rows = (tmp_path / "weights.csv").read_text().splitlines()
        assert rows == ["lag,re_w,im_w", "0,1,0"]

    def test_smooth_rows_match_oracle(self, tmp_path):
        kappa, dt, support = 1.0, 0.05, 0.6
        config = write_config(tmp_path, {
            "coupling": {
                "shape": "custom", "gamma": 1.0, "deltas": [],
                "smooth": {"form": "exponential", "kappa": kappa, "support": support},
            },
            "dt": dt, "n_steps": 30,
        })
        assert main(["kernel", "--config", config, "--output", str(tmp_path), "--quiet"]) == 0
        decay = lambda u: kappa * math.exp(-kappa * u)  # noqa: E731
        for row in (tmp_path / "weights.csv").read_text().splitlines()[1:]:
            lag, re_w, im_w = row.split(",")
            oracle = brute_force_lag_weight(decay, support, int(lag), dt)
            assert float(re_w) == pytest.approx(oracle.real, abs=1e-8)
            assert float(im_w) == pytest.approx(0.0, abs=1e-12)

    def test_warnings_printed(self, tmp_path, capsys):
        config = write_config(tmp_path, mirror_data(
            coupling={"shape": "mirror", "gamma": 1.0, "phi": 0.2, "tau": 0.04},
            dt=0.1, n_steps=10))
        assert main(["kernel", "--config", config, "--output", str(tmp_path), "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "merged deltas" in captured.err


class TestSimulateCommand:
    def test_outputs_and_summary(self, tmp_path):
        config = write_config(tmp_path, mirror_data())
        assert main(["simulate", "--config", config, "--output", str(tmp_path), "--quiet"]) == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "n,t,re_eps,im_eps,abs_eps,pop_e,norm"
        assert len(rows) == 1 + 64 * 3 + 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_steps"] == 192
        assert summary["final"]["abs_eps"] == pytest.approx(
            float(rows[-1].split(",")[4]))
        assert summary["max_norm_drift"] < 1e-9
        assert summary["wall_time_s"] > 0
        assert "config" in summary

    def test_recursion_summary_names_second_order(self, tmp_path):
        config = write_config(tmp_path, mirror_data(representation="mirror_recursion"))
        assert main(["simulate", "--config", config, "--output", str(tmp_path), "--quiet"]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["stepper"] == "second_order"

    def test_custom_output_names(self, tmp_path):
        data = mirror_data(output={"trajectory_csv": "run1.csv", "summary_json": "run1.json"})
        config = write_config(tmp_path, data)
        assert main(["simulate", "--config", config, "--output", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "run1.csv").exists()
        assert (tmp_path / "run1.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, mirror_data())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", config, "--output", str(out_a), "--quiet"]) == 0
        assert main(["simulate", "--config", config, "--output", str(out_b), "--quiet"]) == 0
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()


    @pytest.mark.parametrize("overrides", [
        {},
        {"coupling": {"shape": "white", "gamma": 0.8}, "omega0": 0.6},
        {"representation": "full_fock", "dt": 0.125, "beta": [0.6, 0.3]},
    ], ids=["mirror", "white", "full_fock"])
    def test_summary_final_is_the_last_csv_row(self, tmp_path, overrides):
        config = write_config(tmp_path, mirror_data(**overrides))
        assert main(["simulate", "--config", config, "--output", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        last = dict(zip(lines[0].split(","), map(float, lines[-1].split(","))))
        final = json.loads((tmp_path / "summary.json").read_text())["final"]
        assert list(final) == list(last)
        assert final == last


class TestConvergeCommand:
    def test_first_order_table(self, tmp_path):
        config = write_config(tmp_path, mirror_data(t_max=2.0))
        dts = ",".join(str(1.0 / 2**k) for k in (4, 5, 6))
        assert main(["converge", "--config", config, "--output", str(tmp_path),
                     "--dt-list", dts, "--quiet"]) == 0
        rows = (tmp_path / "convergence.csv").read_text().splitlines()
        assert rows[0] == "dt,max_abs_error,observed_order"
        orders = [float(r.split(",")[2]) for r in rows[1:]]
        assert math.isnan(orders[0])
        for order in orders[1:]:
            assert 0.7 <= order <= 1.3

    def test_second_order_stepper_same_order(self, tmp_path):
        config = write_config(tmp_path, mirror_data(t_max=2.0, stepper="second_order"))
        dts = ",".join(str(1.0 / 2**k) for k in (4, 5, 6))
        assert main(["converge", "--config", config, "--output", str(tmp_path),
                     "--dt-list", dts, "--quiet"]) == 0
        rows = (tmp_path / "convergence.csv").read_text().splitlines()
        for order in [float(r.split(",")[2]) for r in rows[2:]]:
            assert 0.7 <= order <= 1.3

    def test_decoupled_errors_vanish(self, tmp_path):
        config = write_config(tmp_path, mirror_data(
            coupling={"shape": "mirror", "gamma": 0.0, "phi": 0.0, "tau": 1.0}, t_max=2.0))
        assert main(["converge", "--config", config, "--output", str(tmp_path),
                     "--dt-list", "0.25,0.125", "--quiet"]) == 0
        rows = (tmp_path / "convergence.csv").read_text().splitlines()
        for row in rows[1:]:
            assert float(row.split(",")[1]) <= 1e-12

    # an order needs two nonzero errors: a vanishing error once wrote inf, and a
    # nonzero error after a vanishing one raised in log2(0) and exited 3
    @pytest.mark.parametrize("offsets,order", [
        ((0.0, 0.0, 0.0), math.nan), ((0.0, 0.0, 2**-10), math.nan),
        ((2**-10, 0.0, 0.0), math.nan), ((2**-10, 2**-11, 2**-12), 1.0),
    ])
    def test_order_of_a_vanishing_error_is_nan(self, tmp_path, monkeypatch, offsets, order):
        # a decoupled mirror stays at eps = 1 exactly; the fake reference is off by an offset
        config = write_config(tmp_path, mirror_data(
            coupling={"shape": "mirror", "gamma": 0.0, "phi": 0.0, "tau": 1.0}, t_max=2.0))
        by_dt = dict(zip((0.25, 0.125, 0.0625), offsets))
        monkeypatch.setattr(cli, "_reference_on_grid",
                            lambda cfg, times: np.ones(len(times)) + by_dt[cfg.dt])
        assert main(["converge", "--config", config, "--output", str(tmp_path),
                     "--dt-list", "0.25,0.125,0.0625", "--quiet"]) == 0
        rows = [row.split(",") for row in
                (tmp_path / "convergence.csv").read_text().splitlines()[1:]]
        assert [float(row[1]) for row in rows] == list(offsets)
        assert math.isnan(float(rows[0][2]))
        for row in rows[1:]:
            assert float(row[2]) == pytest.approx(order, nan_ok=True)

    @pytest.mark.parametrize("shape,coupling,dts", [
        ("mirror", {"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 1.0},
         "0.125,0.0625,0.03125"),
        ("white", {"shape": "white", "gamma": 1.0}, "0.02,0.01"),
    ])
    def test_errors_scale_with_beta(self, tmp_path, shape, coupling, dts):
        # the reference is beta times the eps(0) = 1 solution, as the amplitude is linear in beta
        def table(beta):
            config = write_config(tmp_path, {"coupling": coupling, "dt": 0.125, "t_max": 4.0,
                                             "beta": beta}, f"{shape}-{beta}.json")
            out = tmp_path / f"{shape}-{beta}"
            assert main(["converge", "--config", config, "--output", str(out),
                         "--dt-list", dts, "--quiet"]) == 0
            rows = (out / "convergence.csv").read_text().splitlines()[1:]
            return np.array([[float(x) for x in row.split(",")] for row in rows])

        unit, scaled = table([1.0, 0.0]), table([0.6, 0.3])
        np.testing.assert_allclose(scaled[:, 1], abs(complex(0.6, 0.3)) * unit[:, 1], rtol=1e-12)
        np.testing.assert_allclose(scaled[1:, 2], unit[1:, 2], rtol=1e-12)

    def test_white_converges_against_exponential(self, tmp_path):
        config = write_config(tmp_path, {
            "coupling": {"shape": "white", "gamma": 1.0}, "dt": 0.1, "t_max": 2.0,
        })
        assert main(["converge", "--config", config, "--output", str(tmp_path),
                     "--dt-list", "0.02,0.01", "--quiet"]) == 0
        rows = (tmp_path / "convergence.csv").read_text().splitlines()
        errs = [float(r.split(",")[1]) for r in rows[1:]]
        assert errs[1] < errs[0] < 1e-2

    def test_nondividing_dt_rejected(self, tmp_path):
        config = write_config(tmp_path, mirror_data(t_max=2.0))
        code = main(["converge", "--config", config, "--output", str(tmp_path),
                     "--dt-list", "0.3", "--quiet"])
        assert code == 2

    @pytest.mark.parametrize("dts", ["nan", "0.125,inf", "0.25,nan"])
    def test_non_finite_dt_exits_two(self, tmp_path, capsys, dts):
        config = write_config(tmp_path, mirror_data(t_max=2.0))
        out = tmp_path / "out"
        assert main(["converge", "--config", config, "--output", str(out),
                     "--dt-list", dts, "--quiet"]) == 2
        assert "'dt_list'" in capsys.readouterr().err
        assert not out.exists()

    # a delay under half a step merges into lag 0, where the delay equation
    # has no reference: 1e-200 once summed t_max / tau terms and never ended
    @pytest.mark.parametrize("tau", [0.0, 1e-200, 0.03])
    def test_delay_below_one_step_exits_two_naming_tau(self, tmp_path, capsys, tau):
        config = write_config(tmp_path, mirror_data(
            coupling={"shape": "mirror", "gamma": 0.5, "phi": 0.3, "tau": tau}, dt=0.125,
            t_max=2.0))
        out = tmp_path / "out"
        assert main(["converge", "--config", config, "--output", str(out),
                     "--dt-list", "0.125,0.0625", "--quiet"]) == 2
        assert "'coupling.tau'" in capsys.readouterr().err
        assert not out.exists()

    def test_step_too_small_for_the_delay_exits_two_naming_dt(self, tmp_path, capsys):
        # tau / dt overflows to inf: over the run budget, not an unroundable ratio
        config = write_config(tmp_path, mirror_data(t_max=2.0))
        out = tmp_path / "out"
        assert main(["converge", "--config", config, "--output", str(out),
                     "--dt-list", "5e-324", "--quiet"]) == 2
        assert "'dt'" in capsys.readouterr().err
        assert not out.exists()

    def test_needs_t_max(self, tmp_path):
        data = mirror_data()
        del data["t_max"]
        data["n_steps"] = 64
        config = write_config(tmp_path, data)
        assert main(["converge", "--config", config, "--output", str(tmp_path),
                     "--dt-list", "0.25", "--quiet"]) == 2


class TestWitnessCommand:
    def test_mirror_report(self, tmp_path):
        config = write_config(tmp_path, mirror_data())
        assert main(["witness", "--config", config, "--output", str(tmp_path), "--quiet"]) == 0
        report = json.loads((tmp_path / "witness.json").read_text())
        assert report["witness"] > 0
        assert report["first_violation_step"] == 65
        assert report["revival_intervals"][0]["start_step"] == 65

    def test_white_report(self, tmp_path):
        config = write_config(tmp_path, {
            "coupling": {"shape": "white", "gamma": 1.0}, "dt": 0.01, "t_max": 2.0,
        })
        assert main(["witness", "--config", config, "--output", str(tmp_path), "--quiet"]) == 0
        report = json.loads((tmp_path / "witness.json").read_text())
        assert report["witness"] == 0.0
        assert report["first_violation_step"] is None


class TestExitCodes:
    def test_invalid_config_exits_two(self, tmp_path):
        config = write_config(tmp_path, {"coupling": {"shape": "white", "gamma": 1.0}})
        assert main(["simulate", "--config", config, "--output", str(tmp_path)]) == 2

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--output", str(tmp_path)]) == 2

    def test_runtime_failure_exits_three(self, tmp_path):
        # gamma*dt = 10: the second-order map grows until the norm overflows
        config = write_config(tmp_path, mirror_data(
            coupling={"shape": "mirror", "gamma": 100.0, "phi": 0.0, "tau": 1.0},
            dt=0.1, n_steps=2000, stepper="second_order"))
        assert main(["simulate", "--config", config, "--output", str(tmp_path),
                     "--quiet"]) == 3

    def test_window_below_a_delta_kernel_span_runs_the_full_span(self, tmp_path):
        # the register always spans the kernel (9 modes): the window is checked and dropped
        data = mirror_data(dt=0.125, t_max=2.0, representation="full_fock")
        plain = write_config(tmp_path, data, "plain.json")
        windowed = write_config(tmp_path, dict(data, window=3), "windowed.json")
        for config, out in ((plain, "plain"), (windowed, "windowed")):
            assert main(["simulate", "--config", config, "--output", str(tmp_path / out),
                         "--quiet"]) == 0
        assert (tmp_path / "windowed" / "trajectory.csv").read_bytes() == (
            tmp_path / "plain" / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "witness", "kernel"])
    def test_fock_register_over_budget_exits_two_and_writes_nothing(
        self, tmp_path, command, capsys
    ):
        # the default window at dt = 1/64 is 65 modes, 2 * 2**65 amplitudes
        config = write_config(tmp_path, mirror_data(representation="full_fock"))
        out = tmp_path / "out"
        assert main([command, "--config", config, "--output", str(out), "--quiet"]) == 2
        assert "'dt'" in capsys.readouterr().err
        assert not out.exists()

    def test_converge_step_over_fock_budget_exits_two(self, tmp_path, capsys):
        config = write_config(tmp_path, mirror_data(dt=1 / 8, representation="full_fock"))
        out = tmp_path / "out"
        assert main(["converge", "--config", config, "--output", str(out), "--quiet",
                     "--dt-list", "0.125,0.015625"]) == 2
        assert "'dt'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,data,field", [
        # a billion white-noise steps; a smooth table of about 1e8 kernel evaluations
        ("simulate", {"coupling": {"shape": "white", "gamma": 1.0}, "dt": 1.0, "t_max": 1e9},
         "t_max"),
        ("kernel", {"coupling": {"shape": "custom", "gamma": 1.0, "smooth": {
            "form": "exponential", "kappa": 1.0, "support": 2.0}}, "dt": 1e-5, "n_steps": 10},
         "coupling.smooth.support"),
        # 1,002 smooth lags for 4M collisions: about 4e12 multiply-adds of work
        ("simulate", {"coupling": {"shape": "custom", "gamma": 1.0, "smooth": {
            "form": "exponential", "kappa": 1.0, "support": 2.0}}, "dt": 0.002,
            "n_steps": 4_000_000}, "n_steps"),
    ])
    def test_oversized_run_exits_two_and_writes_nothing(self, tmp_path, capsys, command,
                                                        data, field):
        config = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main([command, "--config", config, "--output", str(out), "--quiet"]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("data,field", [
        (mirror_data(coupling={"shape": "custom", "gamma": 1.0, "deltas": 5}), "coupling.deltas"),
        (mirror_data(coupling={"shape": "custom", "gamma": 1.0, "deltas": None}),
         "coupling.deltas"),
        (mirror_data(coupling={"shape": "custom", "gamma": 1.0, "deltas": "ab"}),
         "coupling.deltas"),
        (mirror_data(coupling={"shape": "custom", "gamma": 1.0, "deltas": [[0, 1, 0]],
                               "smooth": None}), "coupling.smooth"),
        (mirror_data(dt=10 ** 400), "dt"),
    ], ids=["deltas-int", "deltas-null", "deltas-string", "smooth-null", "dt-400-digits"])
    def test_malformed_value_exits_two_naming_its_field(self, tmp_path, capsys, data, field):
        config = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--output", str(out), "--quiet"]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["", ".", "/"])
    def test_output_name_that_is_no_file_exits_two(self, tmp_path, capsys, name):
        # "" once reached the writer, which tried to open the output directory itself
        config = write_config(tmp_path, mirror_data(output={"trajectory_csv": name}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--output", str(out), "--quiet"]) == 2
        assert "'output.trajectory_csv'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stepper", ["exact", "second_order"])
    def test_recursion_runs_the_single_excitation_sector(self, tmp_path, stepper):
        # mirror_recursion is a JSON spelling of single_excitation
        recursion = write_config(tmp_path, mirror_data(representation="mirror_recursion",
                                                       stepper=stepper), "recursion.json")
        sector = write_config(tmp_path, mirror_data(stepper=stepper), "sector.json")
        for config, out in ((recursion, "recursion"), (sector, "sector")):
            assert main(["simulate", "--config", config, "--output", str(tmp_path / out),
                         "--quiet"]) == 0
        assert (tmp_path / "recursion" / "trajectory.csv").read_bytes() == (
            tmp_path / "sector" / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("output,field", [
        ({"trajectory_csv": "same.txt", "summary_json": "same.txt"}, "output.summary_json"),
        ({"trajectory_csv": "summary.json"}, "output.trajectory_csv"),
    ])
    def test_outputs_sharing_a_file_exit_two_and_write_nothing(self, tmp_path, capsys, output,
                                                               field):
        # simulate would write one output over the other
        config = write_config(tmp_path, mirror_data(output=output))
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--output", str(out), "--quiet"]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "witness"])
    def test_overflow_exits_three_and_writes_nothing(self, tmp_path, command, capsys):
        # gamma*dt = 10: the second-order map grows by about 9 per step
        config = write_config(tmp_path, mirror_data(
            coupling={"shape": "mirror", "gamma": 100.0, "phi": 0.0, "tau": 1.0},
            dt=0.1, n_steps=2000, representation="mirror_recursion"))
        out = tmp_path / "out"
        assert main([command, "--config", config, "--output", str(out), "--quiet"]) == 3
        assert "not finite from step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tau", [4.49e307, 4.5e307])
    @pytest.mark.parametrize("representation", ["mirror_recursion", "single_excitation"])
    def test_delay_beyond_the_run_budget_exits_two_naming_dt(self, tmp_path, capsys, tau,
                                                             representation):
        # tau / dt is 1.796e308 and inf: the recursion's one-step check must not make it an int
        config = write_config(tmp_path, {
            "coupling": {"shape": "mirror", "gamma": 0.5, "phi": 0, "tau": tau},
            "dt": 0.25, "t_max": 2, "representation": representation})
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--output", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "'dt'" in err
        assert len(err.encode()) < 200  # the reach in three digits, not 309
        assert not out.exists()

    def test_overflowing_kernel_table_exits_three_naming_the_lag(self, tmp_path, capsys):
        # the smooth quadrature overflows at this dt; simulate refuses the same config
        config = write_config(tmp_path, {
            "coupling": {"shape": "custom", "gamma": 1.0, "deltas": [[0, 1, 0], [0.5, 1, 0]],
                         "smooth": {"form": "exponential", "kappa": 2.0, "support": 1.0}},
            "dt": 1.25e306, "n_steps": 4})
        out = tmp_path / "out"
        for command in ("kernel", "simulate"):
            assert main([command, "--config", config, "--output", str(out), "--quiet"]) == 3
            err = capsys.readouterr().err
            assert "at lag 0 is not finite" in err
            # the deltas merge at this dt; the merge warning does not come before the error
            assert err.startswith("error: ") and "warning" not in err
            assert not out.exists()

    @pytest.mark.parametrize("dt,step", [(1.34e154, 2), (1.35e154, 1)])
    def test_second_order_overflow_exits_three_naming_the_step(self, tmp_path, capsys, dt, step):
        # dt^2 is 1.7956e308 and past the largest double: inf, not an OverflowError
        config = write_config(tmp_path, {"coupling": {"shape": "white", "gamma": 1.0},
                                         "dt": dt, "n_steps": 5, "stepper": "second_order"})
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--output", str(out), "--quiet"]) == 3
        assert f"not finite from step {step} on" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("coupling,dt,field", [
        ({"shape": "mirror", "gamma": 2.25e307, "phi": 0.0, "tau": 1.0}, 0.125, "coupling.gamma"),
        ({"shape": "white", "gamma": 2.25e307}, 0.125, "coupling.gamma"),
        ({"shape": "white", "gamma": 1e10}, 1e-300, "dt"),
        ({"shape": "custom", "gamma": 1.0, "deltas": [[0, 7.1e307, 0]]}, 0.125,
         "coupling.deltas"),
        ({"shape": "custom", "gamma": 1.0, "deltas": [[0, 1e308, 0], [0.0625, 1e308, 0]]}, 0.125,
         "coupling.deltas"),
    ], ids=["mirror-gamma", "white-gamma", "white-dt", "delta-weight", "merged-deltas"])
    @pytest.mark.parametrize("command", ["simulate", "kernel"])
    def test_overflowing_strength_exits_two_naming_its_field(self, tmp_path, capsys, command,
                                                             coupling, dt, field):
        # g = sqrt(gamma / dt) W is exact at parse time without a smooth part
        config = write_config(tmp_path, {"coupling": coupling, "dt": dt, "n_steps": 10})
        out = tmp_path / "out"
        assert main([command, "--config", config, "--output", str(out), "--quiet"]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("representation", ["single_excitation", "full_fock"])
    def test_overflowing_strength_with_a_smooth_part_exits_three_naming_the_lag(
        self, tmp_path, capsys, monkeypatch, representation
    ):
        # a smooth part's weights come out of the quadrature: run() refuses the
        # strength sqrt(8) * 1.7e308 before any eigendecomposition
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh reached")

        monkeypatch.setattr("numpy.linalg.eigh", no_eigh)
        config = write_config(tmp_path, {
            "coupling": {"shape": "custom", "gamma": 4.0, "deltas": [[0, 1.7e308, 0]],
                         "smooth": {"form": "exponential", "kappa": 1.0, "support": 1.0}},
            "dt": 0.5, "n_steps": 4, "representation": representation})
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--output", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "coupling strength at lag 0 is not finite ((inf+0j))" in err
        assert not out.exists()

