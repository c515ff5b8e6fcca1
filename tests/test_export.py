import tracemalloc

import numpy as np
import pytest

from qcollide import export
from qcollide.coupling import WeightMatrix
from qcollide.engine import Trajectory, run

from conftest import fmt, make_config

# one below, at and one past the 512-row chunk, and two whole chunks plus one row
ROW_COUNTS = [1, 511, 512, 513, 1025]
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308]


class TestFloatFormat:
    def test_round_trip_precision(self):
        rng = np.random.default_rng(7)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(fmt(float(x))) == float(x)

    def test_plain_values(self):
        assert fmt(1.0) == "1"
        assert fmt(0.5) == "0.5"


# ---- reference renderings: one fmt call per field, joined with "," and "\n"

def reference_table(header, rows):
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


def reference_trajectory_csv(traj):
    return reference_table("n,t,re_eps,im_eps,abs_eps,pop_e,norm", [
        [str(int(traj.steps[k])), fmt(traj.times[k]), fmt(e.real), fmt(e.imag), fmt(abs(e)),
         fmt(traj.excited_population[k]), fmt(traj.norms[k])]
        for k, e in enumerate(traj.eps)])


def reference_weights_csv(weights):
    return reference_table("lag,re_w,im_w", [
        [str(lag), fmt(weights.w(lag).real), fmt(weights.w(lag).imag)]
        for lag in weights.lags_present])


def reference_convergence_csv(rows):
    return reference_table("dt,max_abs_error,observed_order",
                           [[fmt(x) for x in row] for row in rows])


def values(rng, n):
    """n floats over many decades, with the special values spread through them."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[rng.permutation(n)[:len(SPECIAL)]] = SPECIAL[:n]
    return x


def complex_values(rng, n):
    z = np.empty(n, dtype=complex)
    z.real, z.imag = values(rng, n), values(rng, n)  # 1j * inf would make a nan real part
    return z


def mirror_run(d):
    """Ten delays of a mirror at tau / dt = d: 10 d + 1 rows."""
    return run(make_config(dt=1 / d, t_max=10.0, coupling={
        "shape": "mirror", "gamma": 1.0, "phi": 0.7, "tau": 1.0}))


def trajectory(rng, n):
    return Trajectory(steps=np.arange(n), times=values(rng, n),
                      eps=complex_values(rng, n),
                      excited_population=values(rng, n), norms=values(rng, n),
                      wall_time_s=0.0, config={})


class TestGoldenTables:
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_trajectory_csv(self, n):
        traj = trajectory(np.random.default_rng(n), n)
        assert export.trajectory_csv(traj) == reference_trajectory_csv(traj)

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_weights_csv(self, n):
        rng = np.random.default_rng(n)
        w = complex_values(rng, n)
        weights = WeightMatrix(dt=0.1, n_steps=n, lags=dict(zip(rng.permutation(3 * n)[:n], w)))
        assert export.weights_csv(weights) == reference_weights_csv(weights)

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_convergence_csv(self, n):
        rng = np.random.default_rng(n)
        rows = list(zip(values(rng, n).tolist(), values(rng, n).tolist(), values(rng, n).tolist()))
        assert export.convergence_csv(iter(rows)) == reference_convergence_csv(rows)

    def test_empty_tables_are_the_header(self):
        assert export.convergence_csv([]) == "dt,max_abs_error,observed_order\n"
        assert export.weights_csv(WeightMatrix(dt=0.1, n_steps=1)) == "lag,re_w,im_w\n"

    def test_abs_eps_is_abs_of_the_complex_not_np_abs(self):
        eps = np.array([-2.5556650313141818 + 0.8150446704972311j])  # np.abs is 1 ulp off
        assert np.abs(eps)[0] != abs(complex(eps[0]))
        traj = Trajectory(steps=np.arange(1), times=np.zeros(1), eps=eps,
                          excited_population=np.ones(1), norms=np.ones(1),
                          wall_time_s=0.0, config={})
        text = export.trajectory_csv(traj)
        assert text == reference_trajectory_csv(traj)
        assert text.splitlines()[1].split(",")[4] == fmt(abs(complex(eps[0])))

    def test_run_matches_the_reference(self):
        traj = mirror_run(d=64)
        assert export.trajectory_csv(traj) == reference_trajectory_csv(traj)


def test_trajectory_csv_peak_memory_is_bounded_by_its_text():
    traj = mirror_run(d=512)
    assert len(traj.steps) == 5121
    text = export.trajectory_csv(traj)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        export.trajectory_csv(traj)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


class TestWriteText:
    def test_creates_file_and_parents(self, tmp_path):
        path = export.write_text(tmp_path / "a" / "b" / "out.csv", "x,y\n1,2\n")
        assert path.read_bytes() == b"x,y\n1,2\n"

    def test_rewrite_keeps_only_new_text(self, tmp_path):
        path = tmp_path / "out.json"
        export.write_text(path, "long old content\r\n" * 50)
        for text in ("short\n", "short\n", "", "a\r\nlonger line than before\n"):
            export.write_text(path, text)
            assert path.read_bytes() == text.encode()
