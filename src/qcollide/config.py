"""Simulation configuration: validated dataclasses, JSON parsing and round-trips.

``CouplingConfig`` and ``SimulationConfig`` hold every value rule, so a config
built in code is checked as a parsed file is; ``parse_config`` only decodes
JSON.  Every failure names the offending field: silent typos in physics
parameters are the main user hazard this guards against.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
import os
from collections.abc import Mapping
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from .coupling import (
    QUADRATURE_CELLS,
    CouplingSpec,
    collision_weights,
    coupling_strengths,
    custom_coupling,
    mirror_coupling,
    white_coupling,
)
from .engine import CollisionPlan, Representation, Stepper

__all__ = [
    "ConfigError",
    "CouplingConfig",
    "SimulationConfig",
    "load_config",
    "parse_config",
]

# Most complex entries a full_fock register may size up to (2**22 entries,
# 64 MB): sum_N C(W + 1, N)^2 = C(2W + 2, W + 1) over the excitation-number
# blocks of the qubit and W two-level modes.  That sum bounds both the
# register (2^(W + 1) amplitudes) and the local collision propagator, whose
# blocks are those of the qubit and the T <= W touched modes, so it is a
# conservative bound on each.  It admits 11 modes.
FOCK_BUDGET = 2**22

# Most ancilla slots a run may span: n_steps plus the kernel's reach in steps.
# The one-excitation recursion keeps one complex ds per slot.  A white run of
# 2**20 steps peaks at 80 bytes per step (an 80 MiB tracemalloc peak of
# ``run``), and its trajectory keeps 24 (eps and norms), so the budget caps a
# run near 0.34 GB.
RUN_BUDGET = 2**22

# Most smooth-kernel evaluations the quadrature of a weight table may make:
# QUADRATURE_CELLS per smooth lag, so at most 1,024 smooth lags.  The
# quadrature runs at parse, so this bounds the parse time of a config: on a
# 2-vCPU Intel Xeon x86-64 host (one BLAS thread, best of 7) the 1,023-lag
# table of support 1021/1024 at dt = 1/1024 took 0.16 s.
KERNEL_CALL_BUDGET = 2**19

# Most collision work a run may take: steps * (L + 1)^2 for L lags, the
# entries of a dense one-excitation collision map.  The delay recursion costs
# a multiply-add per nonzero lag difference, fewer than L^2 / 2, per
# collision, so this is a conservative bound, kept so that every budget edge
# stays put: a 1,001-lag smooth kernel is held near 34,000 steps.
WORK_BUDGET = 2**35

# Interpreter floor of one full_fock collision, in the multiply-adds of
# WORK_BUDGET.  A full_fock collision is charged this plus R * D for a register
# of R amplitudes and a local propagator of dimension D.  The value was set
# when a white register of 4 amplitudes took 29 to 49 us a collision; it now
# takes 4.1 to 4.3 us, and an 11-mode mirror register of 4,096 amplitudes 22
# to 23 us (gamma 1, dt 0.01 and 0.1, 1 against 2,001 steps, best of 7, one
# BLAS thread, 2-vCPU x86-64 host).  2**17 is kept so that every budget edge
# stays where it is, until the budgets are re-based on measured costs.
FOCK_COLLISION_FLOOR = 2**17

OUTPUT_KEYS = ("trajectory_csv", "summary_json", "weights_csv", "convergence_csv", "witness_json")

# JSON keys of each coupling shape besides shape and gamma; every
# CouplingConfig field outside them keeps its default
SHAPE_KEYS = {"white": (), "mirror": ("phi", "tau"), "custom": ("deltas", "smooth")}


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


_set = object.__setattr__  # normalise a field of a frozen dataclass in place
_KINDS = {  # the built-in types first: isinstance tries them before the slower ABCs
    float: (float, int, numbers.Real), int: (int, numbers.Integral),
    complex: (complex, float, int, numbers.Complex),
}


def _require_number(value: Any, field_name: str, sign: str = "", cast: type = float) -> Any:
    """``value`` as a finite float, int or complex (``cast``), bounded by ``sign``."""
    if value is None:
        raise ConfigError(field_name, "missing")
    if isinstance(value, bool) or not isinstance(value, _KINDS[cast]):
        noun = "an integer" if cast is int else "a number"
        raise ConfigError(field_name, f"expected {noun}, got {value!r}")
    try:
        finite = cmath.isfinite(value)
    except OverflowError:
        raise ConfigError(field_name, "must be finite, got an integer beyond 1.8e308") from None
    if not finite:
        raise ConfigError(field_name, f"must be finite, got {value!r}")
    if sign and (value < 0 or value == 0 and sign == "positive"):
        raise ConfigError(field_name, f"must be {sign}, got {value}")
    return cast(value)


def _count(x: float) -> str:
    """A count for a refusal: every digit up to 2^53, where floats are exact, else three."""
    return f"{x:.0f}" if x <= 2**53 else f"{x:.3g}"


def _require_keys(data: Mapping[str, Any], allowed: Tuple[str, ...], where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}" if where else unknown[0], "unknown key")


@dataclass(frozen=True)
class _Exponential:
    """The smooth form kappa e^{-kappa u}: equal kappas give equal, hashable kernels."""

    kappa: float

    def __call__(self, u: float) -> float:
        return self.kappa * math.exp(-self.kappa * u)


@dataclass(frozen=True)
class CouplingConfig:
    """Declarative form of a coupling, as written in config files.

    Construction checks every value and normalises it in place.  A field the
    shape does not read (see ``SHAPE_KEYS``; kappa and support without a
    smooth form) must keep its default, as a config file may not name it.
    """

    shape: str
    gamma: float
    phi: float = 0.0
    tau: float = 0.0
    deltas: Tuple[Tuple[float, complex], ...] = ()
    smooth_form: Optional[str] = None
    smooth_kappa: float = 0.0
    smooth_support: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.shape, str) and self.shape in SHAPE_KEYS):
            raise ConfigError("coupling.shape",
                              f"expected white, mirror or custom, got {self.shape!r}")
        _set(self, "gamma", _require_number(self.gamma, "coupling.gamma", "nonnegative"))
        for f in fields(self)[2:]:  # the fields after shape and gamma
            read = f.name.split("_")[0] in SHAPE_KEYS[self.shape] and (
                self.smooth_form is not None or f.name not in ("smooth_kappa", "smooth_support"))
            if not read and getattr(self, f.name) != f.default:
                raise ConfigError("coupling." + f.name.replace("_", "."),
                                  f"unused by this {self.shape} coupling, must stay {f.default!r}")
        _set(self, "phi", _require_number(self.phi, "coupling.phi"))
        _set(self, "tau", _require_number(self.tau, "coupling.tau", "nonnegative"))
        deltas = []
        for i, (lag, weight) in enumerate(self.deltas):
            where = f"coupling.deltas[{i}]"
            lag = _require_number(lag, where)
            if lag < 0:
                raise ConfigError(where, f"lag must be nonnegative, got {lag}")
            deltas.append((lag, _require_number(weight, where, cast=complex)))
        _set(self, "deltas", tuple(deltas))
        if self.smooth_form is not None:
            if self.smooth_form != "exponential":
                raise ConfigError("coupling.smooth.form",
                                  f"only 'exponential' is supported, got {self.smooth_form!r}")
            for name in ("smooth_kappa", "smooth_support"):
                field_name = "coupling." + name.replace("_", ".")
                _set(self, name, _require_number(getattr(self, name), field_name, "positive"))
        if self.shape == "custom" and not self.deltas and self.smooth_form is None:
            raise ConfigError("coupling.deltas", "custom coupling needs deltas and/or a smooth part")

    def to_spec(self) -> CouplingSpec:
        if self.shape == "white":
            return white_coupling(self.gamma)
        if self.shape == "mirror":
            return mirror_coupling(self.gamma, self.phi, self.tau)
        smooth = _Exponential(self.smooth_kappa) if self.smooth_form else None
        return custom_coupling(self.gamma, self.deltas, smooth, self.smooth_support)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"shape": self.shape, "gamma": self.gamma}
        if self.shape == "mirror":
            out.update(phi=self.phi, tau=self.tau)
        if self.shape == "custom":
            out["deltas"] = [[lag, w.real, w.imag] for lag, w in self.deltas]
            if self.smooth_form is not None:
                out["smooth"] = {"form": self.smooth_form, "kappa": self.smooth_kappa,
                                 "support": self.smooth_support}
        return out


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation run.

    Construction also discretizes the kernel, once: ``weights`` (the
    WeightMatrix) and ``plan`` (the run's CollisionPlan) are read-only
    attributes, not fields, so ``==``, ``hash``, ``repr`` and ``to_dict`` see
    the fields alone, and ``dataclasses.replace`` builds both again.
    """

    coupling: CouplingConfig
    dt: float
    omega0: float = 0.0
    n_steps: Optional[int] = None
    t_max: Optional[float] = None
    stepper: Stepper = Stepper.EXACT
    representation: Representation = Representation.SINGLE_EXCITATION
    beta: complex = 1.0 + 0j
    rotating_frame: bool = False
    output: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        """Every value rule of a run, shared by ``parse_config`` and direct construction.

        Each field is checked and normalised in place first (``stepper`` and
        ``representation`` to their enums, ``output`` to sorted pairs), then
        the rules that tie fields together, then the size budgets, which
        build the kernel's tables on the way.
        """
        if not isinstance(self.coupling, CouplingConfig):
            raise ConfigError("coupling", f"expected a CouplingConfig, got {self.coupling!r}")
        _set(self, "dt", _require_number(self.dt, "dt"))
        _set(self, "omega0", _require_number(self.omega0, "omega0"))
        if self.n_steps is not None:
            _set(self, "n_steps", _require_number(self.n_steps, "n_steps", "positive", int))
        if self.t_max is not None:
            _set(self, "t_max", _require_number(self.t_max, "t_max"))
        for name, kind in (("representation", Representation), ("stepper", Stepper)):
            try:
                _set(self, name, kind(getattr(self, name)))
            except (TypeError, ValueError):
                raise ConfigError(name, f"expected one of {[m.value for m in kind]}, "
                                        f"got {getattr(self, name)!r}") from None
        _set(self, "beta", _require_number(self.beta, "beta", cast=complex))
        if abs(self.beta) > 1 + 1e-12:
            raise ConfigError("beta", f"must satisfy |beta| <= 1, got |beta| = {abs(self.beta)}")
        if not isinstance(self.rotating_frame, bool):
            raise ConfigError(
                "rotating_frame", f"expected true or false, got {self.rotating_frame!r}")
        output = dict(self.output)
        _require_keys(output, OUTPUT_KEYS, "output")
        for key, name in output.items():
            if not isinstance(name, str) or Path(name).name in ("", ".."):  # "", ".", "/"
                raise ConfigError(f"output.{key}", f"expected a file name, got {name!r}")
        _set(self, "output", tuple(sorted(output.items())))
        seen: Dict[str, str] = {}
        for key in OUTPUT_KEYS:  # two outputs in one file would overwrite each other
            name = os.path.normpath(self.output_path(key))
            if name in seen:
                offender, other = (key, seen[name]) if key in output else (seen[name], key)
                raise ConfigError(f"output.{offender}",
                                  f"names the file {name!r} of output.{other} too; each output "
                                  f"needs a file of its own")
            seen[name] = key

        if not self.dt > 0:
            raise ConfigError("dt", f"must be positive, got {self.dt}")
        if (self.n_steps is None) == (self.t_max is None):
            raise ConfigError("n_steps", "exactly one of n_steps and t_max must be given")
        if self.t_max is not None and self.t_max < self.dt:
            raise ConfigError(
                "t_max", f"must allow at least one step of dt={self.dt}, got {self.t_max}"
            )
        self._size_run()

    def _size_run(self) -> None:
        """Refuse a run over a budget before anything is allocated, in a fixed order.

        1. The smooth part of a kernel costs QUADRATURE_CELLS evaluations per
           lag over floor(support / dt) + 2 lags, one midpoint pass over each
           grid interval it covers (KERNEL_CALL_BUDGET, naming
           ``coupling.smooth.support``).
        2. Its reach in steps must fit RUN_BUDGET ancilla slots (naming ``dt``),
        3. and so must n_steps plus the reach (naming ``n_steps`` or ``t_max``).
           The largest phase omega0 t of the run, omega0 dt times that span,
           must be finite (naming ``omega0``).
        4. A collision is charged (L + 1)^2 for L stored lags, at most the
           number of deltas plus the smooth lags, and steps times the charge
           is held to WORK_BUDGET (naming ``n_steps`` or ``t_max``).
        5. gamma / dt must be finite, naming ``coupling.gamma`` or ``dt``,
           whichever is further from 1.  Then the weight table and the
           strength table of the run are built, the quadrature of a smooth
           part included, and kept as ``weights`` and ``plan``; the
           RuntimeError of a weight or a strength that is not finite becomes a
           refusal naming ``coupling.smooth`` for a kernel with a smooth part,
           else ``coupling.deltas``.  The plan's strength at lag l is
           multiplied by e^{-i omega0 l dt}, the frame rotating at omega0.
        6. A full_fock register holds the qubit and one two-level mode per
           ancilla of that span of B modes; sum_N C(B + 1, N)^2 = C(2B + 2,
           B + 1) over its excitation-number blocks bounds both the register
           and its local propagator, and must fit FOCK_BUDGET (naming ``dt``,
           which sets the span in steps).  B is the exact span lags[-1] -
           lags[0] + 1 of the stored lags.
        7. A full_fock collision is then charged FOCK_COLLISION_FLOOR + R * D
           against WORK_BUDGET, for a register of R = 2^(B + 1) amplitudes
           and a local propagator of dimension D = 2^(min(B, L) + 1).

        The counts are floats, so a t_max / dt or a lag / dt too large for an
        integer is refused like any other.
        """
        spec, dt, gamma = self.coupling_spec(), self.dt, self.coupling.gamma
        reach = max((lag / dt for lag, _ in spec.deltas), default=0.0)
        lags = len(spec.deltas)
        if spec.smooth is not None:
            smooth_lags = float(np.floor(spec.smooth_support / dt)) + 2
            if smooth_lags * QUADRATURE_CELLS > KERNEL_CALL_BUDGET:
                raise ConfigError(
                    "coupling.smooth.support",
                    f"a smooth part of support {spec.smooth_support} at dt={dt} spans "
                    f"{_count(smooth_lags)} lags, {_count(smooth_lags * QUADRATURE_CELLS)} "
                    f"kernel evaluations, more than {KERNEL_CALL_BUDGET}; shorten the support or "
                    f"use a coarser dt",
                )
            reach, lags = max(reach, smooth_lags - 1), lags + smooth_lags
        steps = self.n_steps if self.n_steps is not None else self.t_max / dt
        if reach > RUN_BUDGET:
            raise ConfigError(
                "dt",
                f"the kernel reaches {_count(reach)} steps at dt={dt}, more than the {RUN_BUDGET} "
                f"ancilla slots a run may span; use a coarser dt",
            )
        offender = "n_steps" if self.n_steps is not None else "t_max"
        if steps + reach > RUN_BUDGET:
            raise ConfigError(
                offender,
                f"{_count(steps)} steps plus the kernel's reach of {_count(reach)} span "
                f"{_count(steps + reach)} ancilla slots, more than {RUN_BUDGET}; shorten the run "
                f"or use a coarser dt",
            )
        if math.isinf(self.omega0 * dt * (steps + reach)):
            raise ConfigError("omega0", f"the phase omega0 t of {_count(steps + reach)} steps at "
                                        f"dt={dt} overflows; use a smaller omega0")

        def check_work(per_collision: float, what: str) -> None:
            if steps * per_collision > WORK_BUDGET:
                raise ConfigError(offender, f"{_count(steps)} collisions {what} cost "
                                            f"{steps * per_collision:.3g} multiply-adds, more than "
                                            f"{WORK_BUDGET}; shorten the run or use a coarser dt")

        check_work((lags + 1) ** 2, f"over up to {_count(lags)} lags")
        if math.isinf(gamma / dt):
            raise ConfigError("coupling.gamma" if gamma >= 1 / dt else "dt",
                              f"gamma / dt = {gamma} / {dt} overflows, so every collision "
                              f"strength sqrt(gamma / dt) W would be infinite")
        try:
            weights = collision_weights(spec, dt, 1)
            stored, gs = coupling_strengths(weights, gamma)
        except RuntimeError as exc:
            raise ConfigError("coupling.deltas" if spec.smooth is None else "coupling.smooth",
                              f"{exc} (gamma={gamma}, dt={dt})") from None
        if self.omega0 != 0:
            gs = gs * np.exp(-1j * self.omega0 * (stored * dt))
        n_steps, _ = self.effective_steps()
        _set(self, "weights", weights)
        _set(self, "plan", CollisionPlan(stored, gs, dt, n_steps))
        modes = int(stored[-1] - stored[0]) + 1 if len(stored) else 0
        if self.representation != Representation.FULL_FOCK:
            return
        # the block sum is at least the register's 2^(B + 1) amplitudes, so past
        # FOCK_BUDGET.bit_length() modes it is over FOCK_BUDGET anyway
        span = min(modes, FOCK_BUDGET.bit_length())
        if math.comb(2 * span + 2, span + 1) > FOCK_BUDGET:
            raise ConfigError(
                "dt",
                f"the kernel spans {modes} ancillas at dt={dt}, and a full_fock register of "
                f"{modes} modes needs a propagator of more than {FOCK_BUDGET} complex entries "
                f"(64 MB); use a coarser dt",
            )
        dim = 2 << modes
        local = 2 << min(modes, int(lags))
        check_work(FOCK_COLLISION_FLOOR + dim * local,
                   f"on a full_fock register of up to {dim} amplitudes")

    def coupling_spec(self) -> CouplingSpec:
        return self.coupling.to_spec()

    def effective_steps(self) -> Tuple[int, Optional[str]]:
        """Number of collisions, rounding t_max down to the grid if needed."""
        if self.n_steps is not None:
            return self.n_steps, None
        n = int(math.floor(self.t_max / self.dt + 1e-9))
        note = None
        if abs(n * self.dt - self.t_max) > 1e-9 * max(1.0, self.t_max):
            note = f"t_max={self.t_max!r} rounded down to n_steps={n} (t={n * self.dt!r})"
        return n, note

    def output_path(self, key: str) -> str:
        """File name of output ``key``: its ``output`` entry, else e.g. trajectory.csv."""
        return dict(self.output).get(key, key.replace("_", "."))

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "coupling": self.coupling.to_dict(),
            "omega0": self.omega0,
            "dt": self.dt,
        }
        if self.n_steps is not None:
            out["n_steps"] = self.n_steps
        else:
            out["t_max"] = self.t_max
        out["stepper"] = self.stepper.value
        out["representation"] = self.representation.value
        out["beta"] = [self.beta.real, self.beta.imag]
        out["rotating_frame"] = self.rotating_frame
        if self.output:
            out["output"] = dict(self.output)
        return out


# old full_fock keys that parse_config checks and drops
_OLD_KEYS = ("n_max", "window")
_TOP_KEYS = tuple(f.name for f in fields(SimulationConfig)) + _OLD_KEYS


def _decode_complex(value: Any, field_name: str) -> Any:
    """An [re, im] pair of numbers as a complex; any other value as it is."""
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(
            isinstance(x, numbers.Real) and not isinstance(x, bool) for x in value):
        return complex(*(_require_number(x, field_name) for x in value))
    return value


def _parse_coupling(data: Any) -> CouplingConfig:
    if not isinstance(data, Mapping):
        raise ConfigError("coupling", f"expected an object, got {data!r}")
    shape = data.get("shape")
    if isinstance(shape, str) and shape in SHAPE_KEYS:  # else CouplingConfig names the shape
        _require_keys(data, ("shape", "gamma") + SHAPE_KEYS[shape], "coupling")
    named = {key: data[key] for key in ("phi", "tau") if key in data}
    if shape == "custom":
        entries = data.get("deltas", [])
        if not isinstance(entries, (list, tuple)):
            raise ConfigError("coupling.deltas", f"expected a list, got {entries!r}")
        deltas = []
        for i, entry in enumerate(entries):
            where = f"coupling.deltas[{i}]"
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
                raise ConfigError(where, f"expected [lag, re, im], got {entry!r}")
            deltas.append((entry[0], _decode_complex(entry[1:], where)))
        named["deltas"] = tuple(deltas)
        smooth = data.get("smooth")
        if smooth is not None:
            if not isinstance(smooth, Mapping):
                raise ConfigError("coupling.smooth", f"expected an object, got {smooth!r}")
            _require_keys(smooth, ("form", "kappa", "support"), "coupling.smooth")
            if smooth.get("form") is None:
                raise ConfigError("coupling.smooth.form", "missing")
            named.update(smooth_form=smooth["form"], smooth_kappa=smooth.get("kappa"),
                         smooth_support=smooth.get("support"))
    coupling = CouplingConfig(shape, data.get("gamma"), **named)
    # null never stands for an absent key; checked after the value rules, so a
    # custom kernel with neither part still names coupling.deltas
    if "smooth" in data and data["smooth"] is None:
        raise ConfigError("coupling.smooth", "expected an object, got null")
    return coupling


def parse_config(data: Any) -> SimulationConfig:
    """Decode parsed JSON data into a SimulationConfig, which checks every value.

    JSON adds only its own rules: unknown keys are errors, null never stands
    for an absent key, and ``beta`` may be an [re, im] pair.  Old spellings
    that change no run are read and dropped, since configs in use still write
    them.  ``window`` and ``n_max`` may be written for ``full_fock`` only, and
    each is checked as a positive integer: the register always spans the
    kernel, and no mode ever holds two photons, as the emitter starts with at
    most one excitation, the ancillas in vacuum, and H conserves the
    excitation number.  The representation ``mirror_recursion`` is
    ``single_excitation`` with ``second_order`` as its default stepper.
    """
    if not isinstance(data, Mapping):
        raise ConfigError("<root>", f"expected a JSON object, got {data!r}")
    _require_keys(data, _TOP_KEYS, "")
    if "coupling" not in data:
        raise ConfigError("coupling", "missing")
    coupling = _parse_coupling(data["coupling"])
    named = {key: value for key, value in data.items() if key != "coupling"}
    for key, value in named.items():
        if value is None:
            raise ConfigError(key, "expected a value, got null")
    representation = data.get("representation", "single_excitation")
    for key in _OLD_KEYS:
        if key in named:
            if representation in ("single_excitation", "mirror_recursion"):
                raise ConfigError(key, "only meaningful for the full_fock representation")
            _require_number(named.pop(key), key, "positive", int)
    if representation == "mirror_recursion":
        named["representation"] = "single_excitation"
        named.setdefault("stepper", "second_order")
    if "beta" in named:
        named["beta"] = _decode_complex(named["beta"], "beta")
    if not isinstance(named.get("output", {}), Mapping):
        raise ConfigError("output", f"expected an object, got {named['output']!r}")
    return SimulationConfig(coupling, named.pop("dt", None), **named)


def load_config(path: Union[str, Path]) -> SimulationConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the int-to-str digit limit
        raise ConfigError("<file>", f"{path} is not valid JSON: {exc}") from exc
    return parse_config(data)
