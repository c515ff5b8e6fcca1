"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import json
import math
import time

import numpy as np

from qcollide.cli import main
from qcollide.coupling import (
    collision_weights,
    custom_coupling,
    mirror_coupling,
)
from qcollide.divisibility import analyze
from qcollide.engine import run
from qcollide.reference import solve_dde

from conftest import brute_force_lag_weight, make_config


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_white_decay():
    config = make_config(coupling={"shape": "white", "gamma": 1.0}, dt=1e-3, t_max=5.0)
    start = time.perf_counter()
    traj = run(config)
    elapsed = time.perf_counter() - start
    deviation = float(np.max(np.abs(np.abs(traj.eps) - np.exp(-traj.times / 2))))

    # continuous-limit reference cross-checked by the brute-force register
    coarse = dict(coupling={"shape": "white", "gamma": 1.0}, dt=0.05, n_steps=100)
    sector = run(make_config(**coarse))
    fock = run(make_config(**coarse, representation="full_fock"))
    oracle_gap = float(np.max(np.abs(sector.eps - fock.eps)))
    fock_vs_exp = float(np.max(np.abs(np.abs(fock.eps) - np.exp(-fock.times / 2))))

    ok = deviation <= 5e-3 and elapsed < 1.0 and oracle_gap <= 1e-9 and fock_vs_exp <= 5e-3
    _report(1, ok, f"max | |eps| - e^(-gamma t/2) | = {deviation:.2e} (<= 5e-3), "
                   f"runtime {elapsed:.2f} s (< 1 s), Fock cross-check gap {oracle_gap:.1e}")


def test_criterion_2_mirror_convergence():
    reference = solve_dde(0.0, 0.5, 0.0, 1.0, 4.0)
    errors = []
    start = time.perf_counter()
    for k in range(6, 11):
        traj = run(make_config(dt=1.0 / 2**k, t_max=4.0))
        errors.append(float(np.max(np.abs(traj.eps - reference(traj.times)))))
    elapsed = time.perf_counter() - start
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    monotone = all(errors[i] > errors[i + 1] for i in range(len(errors) - 1))
    first_order = all(1.6 <= r <= 2.4 for r in ratios)
    ok = monotone and first_order and elapsed < 10.0
    _report(2, ok, f"errors {['%.2e' % e for e in errors]}, ratios "
                   f"{['%.2f' % r for r in ratios]} (in [1.6, 2.4]), runtime {elapsed:.2f} s (< 10 s)")


def test_criterion_3_long_time_bound_value():
    traj = run(make_config(dt=1.0 / 512, t_max=40.0))
    gap = abs(abs(traj.final_eps) - 2.0 / 3.0)
    ok = gap <= 2e-2
    _report(3, ok, f"| |eps(40)| - 2/3 | = {gap:.2e} (<= 2e-2)")


def test_criterion_4_oracle_equivalence():
    base = dict(coupling={"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 0.4},
                dt=0.1, n_steps=48)
    start = time.perf_counter()
    exact = run(make_config(**base))
    fock = run(make_config(**base, representation="full_fock"))
    recursion = run(make_config(**base, stepper="second_order"))
    elapsed = time.perf_counter() - start

    fock_gap = float(np.max(np.abs(exact.eps - fock.eps)))
    recursion_gap = float(np.max(np.abs(recursion.eps - exact.eps)))

    # the recursion error is first order: halving dt (same horizon) halves it
    halved = dict(coupling={"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 0.4},
                  dt=0.05, n_steps=96)
    exact_h = run(make_config(**halved))
    recursion_h = run(make_config(**halved, stepper="second_order"))
    gap_h = float(np.max(np.abs(recursion_h.eps - exact_h.eps)))
    ratio = recursion_gap / gap_h

    ok = (fock_gap <= 1e-9 and recursion_gap <= 1.0 * 0.1 and 1.6 <= ratio <= 2.4
          and elapsed < 5.0)
    _report(4, ok, f"exact-vs-Fock {fock_gap:.1e} (<= 1e-9), recursion-vs-exact "
                   f"{recursion_gap:.2e} (<= C*dt = 0.1), halving ratio {ratio:.2f}, "
                   f"runtime {elapsed:.2f} s (< 5 s)")


def test_criterion_5_unitarity():
    long_run = run(make_config(dt=1.0 / 512, n_steps=10_000))
    exact_drift = float(np.max(np.abs(long_run.norms - 1.0)))

    drifts = []
    for dt in (1.0 / 128, 1.0 / 256):
        traj = run(make_config(dt=dt, t_max=4.0, stepper="second_order"))
        drifts.append(float(np.max(np.abs(traj.norms - 1.0))))
    ratio = drifts[0] / drifts[1]

    ok = exact_drift <= 1e-9 and 1.6 <= ratio <= 2.4
    _report(5, ok, f"exact drift over 1e4 steps {exact_drift:.1e} (<= 1e-9), "
                   f"second-order drift ratio under halving {ratio:.2f} (in [1.6, 2.4])")


def test_criterion_6_divisibility_witness():
    start = time.perf_counter()
    white = analyze(run(make_config(coupling={"shape": "white", "gamma": 1.0},
                                    dt=0.01, t_max=4.0)))
    d = 64
    mirror = analyze(run(make_config(dt=1.0 / d, t_max=3.0)))  # gamma*tau = 0.5
    elapsed = time.perf_counter() - start

    first = mirror.first_violation_step
    ok = (white.witness == 0.0 and all(white.cp_flags)
          and mirror.witness > 0 and first is not None and d < first < 3 * d
          and elapsed < 2.0)
    _report(6, ok, f"white N = {white.witness} (= 0, all CP), mirror N = "
                   f"{mirror.witness:.3e} (> 0), first non-CP step {first} in "
                   f"({d}, {3 * d}), runtime {elapsed:.2f} s (< 2 s)")


def test_criterion_7_kernel_correctness():
    phi = 0.7
    mirror = collision_weights(mirror_coupling(1.0, phi, 0.4), 0.1, 30)
    exact_deltas = (mirror.w(0) == 1.0 and mirror.w(4) == -np.exp(-1j * phi)
                    and all(mirror.w(l) == 0 for l in (1, 2, 3, 5, 6)))

    kappa, dt, support = 1.0, 0.05, 2.0
    decay = lambda u: kappa * math.exp(-kappa * u)  # noqa: E731
    smooth = collision_weights(
        custom_coupling(1.0, smooth=decay, smooth_support=support), dt, 50)
    worst = 0.0
    for lag in smooth.lags_present:
        oracle = brute_force_lag_weight(decay, support, lag, dt)
        worst = max(worst, abs(smooth.w(lag) - oracle))

    stationary = all(
        weights.entry(n, m) == weights.entry(n + 1, m + 1)
        for weights in (mirror, smooth)
        for n in range(1, 10)
        for m in range(1, 10)
    )

    ok = exact_deltas and worst <= 1e-8 and stationary
    _report(7, ok, f"mirror deltas exact on grid, smooth-vs-oracle max gap {worst:.2e} "
                   f"(<= 1e-8), stationarity structural")


def test_criterion_8_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "coupling": {"shape": "mirror", "gamma": 0.5, "phi": 0.3, "tau": 1.0},
        "omega0": 0.2, "dt": 1.0 / 64, "t_max": 3.0, "beta": [0.8, 0.1],
    }))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["simulate", "--config", str(config_path), "--output", str(out_a), "--quiet"])
    code_b = main(["simulate", "--config", str(config_path), "--output", str(out_b), "--quiet"])
    identical = (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    _report(8, ok, "repeated cmd_simulate runs produce byte-identical trajectory CSVs")
