"""The config contract under one-path mutations of valid configs.

``parse_config`` either returns a config or raises ``ConfigError``, and an
accepted config either runs to finite amplitudes and norms or raises the
RuntimeError that names what is not finite.  Through ``cli.main``, each of
the four subcommands exits 2 naming a config field, exits 3 printing the
error, or exits 0 having written only finite numbers (but the observed
orders that ``convergence_csv`` defines as nan).  Each example takes one of
five valid configs and changes the value at one path: to null, a bool, an
integer past the float range or past 64 bits, nan or inf, a string, an empty
list or object, the value wrapped in a list, the value scaled by a power of
ten, or the key deleted.  Half the examples instead nudge one nonzero number
by a factor 10^k, k in [-2, 2]: a change that usually keeps the config valid,
so that those examples reach a run.  A last property mutates two
second-order configs: ``witness`` refuses such a run, with exit 3, exactly
when its excited population grows past the initial one by ``GROWTH_RTOL``.
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcollide.cli import main
from qcollide.config import ConfigError, parse_config
from qcollide.divisibility import GROWTH_RTOL
from qcollide.engine import Stepper, run

# examples per property; CI raises it
FUZZ_EXAMPLES = int(os.environ.get("QCOLLIDE_FUZZ_EXAMPLES", "150"))
RUN_MAX_STEPS = 3000  # accepted configs up to this many steps are run

MIRROR = {"shape": "mirror", "gamma": 0.5, "phi": 0.3, "tau": 0.5}
BASES = [
    {"coupling": MIRROR, "dt": 0.125, "t_max": 4.0},
    {"coupling": {"shape": "custom", "gamma": 0.8, "deltas": [[0.0, 0.7, 0.0], [0.5, -0.4, 0.2]],
                  "smooth": {"form": "exponential", "kappa": 2.0, "support": 1.0}},
     "dt": 0.125, "n_steps": 24},
    {"coupling": MIRROR, "dt": 0.125, "t_max": 2.0, "representation": "full_fock",
     "n_max": 1, "window": 5, "beta": [0.6, 0.3], "omega0": 0.4, "rotating_frame": True,
     "output": {"trajectory_csv": "traj.csv"}},
    {"coupling": {"shape": "white", "gamma": 1.0}, "dt": 0.05, "n_steps": 40,
     "stepper": "second_order"},
    {"coupling": MIRROR, "dt": 0.0625, "t_max": 3.0, "representation": "mirror_recursion"},
]

# second-order runs: a nudge of gamma or dt by up to 100 makes the collision amplify
SECOND_ORDER_BASES = [BASES[3], dict(BASES[0], stepper="second_order")]

DELETE, WRAP, SCALE = object(), object(), object()
REPLACEMENTS = [None, True, False, 10**400, -10**400, 2**70, -2**70, math.nan, math.inf,
                -math.inf, "", "x", "0.5", [], {}]


def paths(value, path=()):
    """Every path below a JSON value: each key of an object, each index of a list."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from paths(child, path + (key,))


def nonzero_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value != 0


def value_at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def mutated_configs(draw, bases=BASES):
    data = copy.deepcopy(draw(st.sampled_from(bases)))
    every = list(paths(data))
    nudge = draw(st.booleans())  # half the examples
    if nudge:
        every = [path for path in every if nonzero_number(value_at(data, path))]
    path = draw(st.sampled_from(every))
    parent = value_at(data, path[:-1])
    key, old = path[-1], parent[path[-1]]
    if nudge:  # an integer stays an integer, as n_steps, n_max and window must be
        scaled = old * 10.0 ** draw(st.integers(-2, 2))
        parent[key] = round(scaled) if isinstance(old, int) else scaled
        return data
    change = draw(st.sampled_from(REPLACEMENTS + [DELETE, WRAP, SCALE]))
    if change is DELETE:
        del parent[key]
    elif change is WRAP:
        parent[key] = [old]
    elif change is SCALE:
        if isinstance(old, bool) or not isinstance(old, (int, float)):
            parent[key] = old
        else:  # a finite product, zero or inf: float multiplication does not raise
            parent[key] = float(old) * 10.0 ** draw(st.integers(-308, 308))
    else:
        parent[key] = copy.deepcopy(change)
    return data


def parsed(data):
    """The config ``parse_config`` makes of ``data``, or None if it is refused."""
    try:
        return parse_config(data)
    except ConfigError:
        return None


FUZZ = settings(max_examples=FUZZ_EXAMPLES, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(mutated_configs())
def test_parse_returns_a_config_or_raises_config_error(data):
    parsed(data)  # any other exception fails the test


@FUZZ
@given(mutated_configs())
def test_accepted_configs_run_or_report_what_is_not_finite(data):
    config = parsed(data)
    if config is None or config.effective_steps()[0] > RUN_MAX_STEPS:
        return
    try:
        traj = run(config)
    except RuntimeError as exc:
        assert "not finite" in str(exc)
        return
    assert np.all(np.isfinite(traj.eps)) and np.all(np.isfinite(traj.norms))


def no_constant(name):
    raise AssertionError(f"{name} in a JSON output")


def assert_finite_outputs(outdir: Path, command: str):
    """Every number in the files a subcommand wrote is finite, but the observed
    orders of a convergence table that are nan by definition: the first, and
    any next to an error of 0."""
    files = sorted(path for path in outdir.rglob("*") if path.is_file())
    assert files, f"{command} exited 0 and wrote nothing"
    for path in files:
        text = path.read_text()
        if text.startswith("{"):
            json.loads(text, parse_constant=no_constant)
            continue
        header, *rows = text.splitlines()
        values = np.array([[float(field) for field in row.split(",")] for row in rows])
        if header == "dt,max_abs_error,observed_order":
            err, order = values[:, 1], values[:, 2]
            undefined = np.concatenate([[True], (err[1:] == 0) | (err[:-1] == 0)])
            assert np.all(np.isnan(order[undefined])), order
            order[undefined] = 0.0
        assert np.all(np.isfinite(values)), f"{path.name} holds a non-finite number"


@FUZZ
@given(mutated_configs(), st.sampled_from(["kernel", "simulate", "witness", "converge"]))
def test_every_subcommand_exits_with_a_named_field_an_error_or_finite_files(data, command):
    config = parsed(data)
    dt = 0.125 if config is None else config.dt
    if config is not None and command != "kernel":
        steps = config.effective_steps()[0] * (3 if command == "converge" else 1)
        if steps > RUN_MAX_STEPS:
            return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(data))
        outdir = Path(tmp, "out")
        argv = [command, "--config", str(path), "--output", str(outdir), "--quiet"]
        if command == "converge":
            argv += ["--dt-list", f"{dt!r},{dt / 2!r}"]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            status = main(argv)
        message = err.getvalue()
        if status == 2:
            assert re.search(r"config field '[^']+'", message), message
            assert not outdir.exists()
        elif status == 3:
            assert message.startswith("error: ") and message.strip() != "error:", message
        else:
            assert status == 0, (status, message)
            assert_finite_outputs(outdir, command)


@FUZZ
@given(mutated_configs(SECOND_ORDER_BASES))
def test_second_order_runs_keep_their_population_or_witness_exits_three(data):
    config = parsed(data)
    if (config is None or config.stepper != Stepper.SECOND_ORDER
            or config.effective_steps()[0] > RUN_MAX_STEPS):
        return
    try:
        traj = run(config)
    except RuntimeError:  # not finite, which the run property checks
        return
    pop = traj.excited_population
    kept = bool(np.all(pop <= pop[0] * (1 + GROWTH_RTOL)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(data))
        argv = ["witness", "--config", str(path), "--output", str(Path(tmp, "out")), "--quiet"]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            status = main(argv)
    refused = status == 3 and "no qubit channel" in err.getvalue()
    assert refused == (not kept), (status, err.getvalue())
