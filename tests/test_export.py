import json
import math
import os
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcollide import export
from qcollide.coupling import WeightMatrix
from qcollide.divisibility import DivisibilityReport, analyze
from qcollide.engine import Trajectory, run

from conftest import fmt, make_config

CHUNK = export._CHUNK_ROWS
# one below, at and one past a chunk, and two whole chunks plus one row; then
# fixed counts that fall inside a chunk
ROW_COUNTS = sorted({1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 511, 512, 513, 1025})
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308]


class TestFloatFormat:
    def test_round_trip_precision(self):
        rng = np.random.default_rng(7)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(fmt(float(x))) == float(x)

    def test_plain_values(self):
        assert fmt(1.0) == "1"
        assert fmt(0.5) == "0.5"


def formatted_fields(x):
    """The %.17g fields that _table writes for the floats x, one column."""
    x = np.asarray(x, dtype=float)
    return export._table("x", len(x), export._sliced(x)).split("\n")[1:-1]


# seeded random doubles in the sweep below; CI raises it to 2,000,000
SWEEP_DOUBLES = int(os.environ.get("QCOLLIDE_FORMAT_SWEEP", "20000"))
SWEEP_BATCH = 100_000


class TestVectorisedFormat:
    """_table writes every float as format(x, ".17g") and every integer as str(n)."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_float(self, xs):
        assert formatted_fields(xs) == [format(x, ".17g") for x in xs]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @example([0x7FF8000000000001, 0xFFF0000000000000, 0x8000000000000000, 1])  # -nan, -inf, -0
    def test_any_bit_pattern(self, patterns):
        xs = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert formatted_fields(xs) == [format(x, ".17g") for x in xs.tolist()]

    def test_seeded_sweep(self):
        """Random bit patterns, then values spread over every decade."""
        rng = np.random.default_rng(20191031)
        for lo in range(0, SWEEP_DOUBLES, SWEEP_BATCH):
            n = min(SWEEP_BATCH, SWEEP_DOUBLES - lo)
            xs = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
            xs[::2] = rng.uniform(1, 10, n - n // 2) * 10.0 ** rng.integers(-323, 308, n - n // 2)
            expected = [format(x, ".17g") for x in xs.tolist()]
            fields = formatted_fields(xs)
            bad = [(x, f, e) for x, f, e in zip(xs.tolist(), fields, expected) if f != e]
            assert not bad, bad[:5]

    @pytest.mark.parametrize("x", [
        1e-5, 9.9999999999999995e-05, 1e-4, 9999999999999998.0, 1e16, 99999999999999999.0,
        1e-270, 1e280, 2.2250738585072014e-308, 1.7976931348623157e308, 5e-324, 1e17, 0.1,
    ])
    def test_edges(self, x):
        # each value, its neighbours and their negatives: the notation switches at
        # 1e-4 and 1e17, and the fast range ends at 1e-270 and 1e280
        xs = [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
        xs += [-v for v in xs]
        assert formatted_fields(xs) == [format(v, ".17g") for v in xs]

    def test_rounding_carries_into_the_exponent(self):
        # each double lies below its power of ten by less than half a unit of
        # the 17th digit, so its digits round up to the next decade
        xs = [1e-14, 1e98, 1e220]
        assert all(Fraction(x) < Fraction(10) ** e for x, e in zip(xs, (-14, 98, 220)))
        assert formatted_fields(xs) == ["1e-14", "1e+98", "1e+220"]

    def test_near_tie_is_left_to_python(self):
        # 1 + 2^-17 = 1.00000762939453125 lies exactly halfway at 17 digits, and
        # Python rounds it to even (down); 1 + 3 * 2^-17 rounds to even upward.  The
        # other two lie 1.2e-8 and 7.9e-7 from a half: inside the 2^-20 margin
        ties = np.array([1 + 2**-17, 1 + 3 * 2**-17, 4.991517512824052, 1.9572810806201208])
        assert not export._significands(ties)[2].any()
        assert formatted_fields(ties)[:2] == ["1.0000076293945312", "1.0000228881835938"]
        assert formatted_fields(ties) == [format(x, ".17g") for x in ties.tolist()]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-2**53, 2**53), min_size=1, max_size=64))
    @example([2**53, -2**53, 2**53 - 1, 10**15, 0, -1, 999, 1000, -1000001])
    def test_integers_within_2_53_are_written_as_str(self, steps):
        # exact doubles below 1e16: %.17g writes them in fixed notation without a point
        n = len(steps)
        traj = SimpleNamespace(steps=np.array(steps), times=np.zeros(n),
                               eps=np.zeros(n, dtype=complex), excited_population=np.zeros(n),
                               norms=np.ones(n))
        text = free_trajectory_csv(traj)
        assert text == reference_trajectory_csv(traj)
        assert [line.split(",")[0] for line in text.splitlines()[1:]] == [str(k) for k in steps]

    @pytest.mark.parametrize("n", [2**53 + 1, -(2**53 + 1), -2**63])
    def test_integers_beyond_2_53_are_refused(self, n):
        # -2^63 is its own absolute value in int64: the bound must not rely on np.abs
        steps = np.array([0, n, 1])
        assert steps.dtype == np.int64
        with pytest.raises(ValueError, match=r"2\^53"):
            export._table("n,x", 3, export._sliced(steps, np.zeros(3)))


# ---- reference renderings: one fmt call per field, joined with "," and "\n"

def reference_table(header, rows):
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


def reference_trajectory_csv(traj):
    with np.errstate(over="ignore"):  # |eps|^2 past the largest double is inf
        pop = traj.excited_population
    return reference_table("n,t,re_eps,im_eps,abs_eps,pop_e,norm", [
        [str(int(traj.steps[k])), fmt(traj.times[k]), fmt(e.real), fmt(e.imag), fmt(abs(e)),
         fmt(pop[k]), fmt(traj.norms[k])]
        for k, e in enumerate(traj.eps)])


def free_trajectory_csv(columns):
    """The trajectory table of free columns (any steps, times and populations), via _table."""
    eps = columns.eps
    return export._table("n,t,re_eps,im_eps,abs_eps,pop_e,norm", len(eps), export._sliced(
        columns.steps, columns.times, eps.real, eps.imag, np.hypot(eps.real, eps.imag),
        columns.excited_population, columns.norms))


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
    dt = rng.uniform(1, 10) * 10.0 ** rng.integers(-300, 300)
    return Trajectory(eps=complex_values(rng, n), norms=values(rng, n), dt=float(dt),
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
        weights = WeightMatrix(dt=0.1, lags=dict(zip(rng.permutation(3 * n)[:n], w)))
        assert export.weights_csv(weights) == reference_weights_csv(weights)

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_convergence_csv(self, n):
        rng = np.random.default_rng(n)
        rows = list(zip(values(rng, n).tolist(), values(rng, n).tolist(), values(rng, n).tolist()))
        assert export.convergence_csv(iter(rows)) == reference_convergence_csv(rows)

    def test_empty_tables_are_the_header(self):
        assert export.convergence_csv([]) == "dt,max_abs_error,observed_order\n"
        assert export.weights_csv(WeightMatrix(dt=0.1)) == "lag,re_w,im_w\n"

    def test_abs_eps_is_abs_of_the_complex_not_np_abs(self):
        eps = np.array([-2.5556650313141818 + 0.8150446704972311j])  # np.abs is 1 ulp off
        assert np.abs(eps)[0] != abs(complex(eps[0]))
        traj = Trajectory(eps=eps, norms=np.ones(1), dt=0.1, wall_time_s=0.0, config={})
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
    # the text once, grown in place, plus one chunk's scratch: no chunk list and no join
    assert peak <= 1.8 * len(text)


def reports():
    """An empty, an all-CP, a mixed and a truncated report, the last with a note."""
    traj = mirror_run(d=16)
    mixed = analyze(traj)
    assert not all(mixed.cp_flags) and mixed.revivals
    return {
        "empty": DivisibilityReport(cp_flags=(), revivals=(), witness=0.0, truncated_at=0,
                                    note="initial amplitude is zero: reduced maps are undefined"),
        "all-cp": DivisibilityReport(cp_flags=(True,) * 5, revivals=(), witness=0.0),
        "mixed": mixed,
        "truncated": DivisibilityReport(
            cp_flags=(True, False, True), revivals=((2, 2, 0.125),), witness=0.125,
            truncated_at=3, note="amplitude vanished at step 3: intermediate maps beyond it are "
                                 "singular"),
    }, traj.config


@pytest.mark.parametrize("name", ["empty", "all-cp", "mixed", "truncated"])
def test_report_json_is_json_dumps_with_indent(name):
    cases, config = reports()
    report = cases[name]
    expected = json.dumps({"config": config, **report.to_dict()}, indent=2) + "\n"
    assert export.report_json(report, config) == expected


def test_report_json_peak_memory_is_bounded_by_its_text():
    flags = tuple(np.random.default_rng(5).integers(0, 2, 2**18).astype(bool).tolist())
    report = DivisibilityReport(cp_flags=flags, revivals=((2, 2, 0.125),), witness=0.125)
    text = export.report_json(report, {"dt": 0.1})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        export.report_json(report, {"dt": 0.1})
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * len(text)


class TestWriteText:
    def test_creates_file_and_parents(self, tmp_path):
        path = export.write_text(tmp_path / "a" / "b" / "out.csv", "x,y\n1,2\n")
        assert path.read_bytes() == b"x,y\n1,2\n"

    def test_text_longer_than_a_slice_is_written_byte_for_byte(self, tmp_path):
        size = export._WRITE_SLICE
        # "\r\n" and a non-ASCII character each straddle a slice boundary
        text = "x" * (size - 1) + "\r\n" + "y" * (size - 2) + "\u00e9\u20ac" + "z" * 10
        assert text[size - 1:size + 1] == "\r\n" and text[2 * size - 1:2 * size + 1] == "\u00e9\u20ac"
        path = export.write_text(tmp_path / "out.csv", text)
        assert path.read_bytes() == text.encode("utf-8")

    def test_writing_a_long_text_peaks_at_a_slice(self, tmp_path):
        row = "0.12345678901234567,-1.2345678901234567e-05\n"
        text = row * (4 * 2**20 // len(row) + 1)  # over 4 MB
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            export.write_text(tmp_path / "big.csv", text)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**10
        assert (tmp_path / "big.csv").stat().st_size == len(text)

    def test_rewrite_keeps_only_new_text(self, tmp_path):
        path = tmp_path / "out.json"
        export.write_text(path, "long old content\r\n" * 50)
        for text in ("short\n", "short\n", "", "a\r\nlonger line than before\n"):
            export.write_text(path, text)
            assert path.read_bytes() == text.encode()
