import json
import math

import pytest

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
        # window too small for the kernel bandwidth is only detected while running
        config = write_config(tmp_path, mirror_data(
            dt=0.1, t_max=2.0,
            coupling={"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 0.4},
            representation="full_fock", window=2))
        assert main(["simulate", "--config", config, "--output", str(tmp_path),
                     "--quiet"]) == 3

    def test_exact_recursion_exits_two_naming_stepper(self, tmp_path, capsys):
        config = write_config(tmp_path, mirror_data(representation="mirror_recursion",
                                                    stepper="exact"))
        assert main(["simulate", "--config", config, "--output", str(tmp_path)]) == 2
        assert "'stepper'" in capsys.readouterr().err

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
