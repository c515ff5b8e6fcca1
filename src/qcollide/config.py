"""Simulation configuration: strict JSON parsing, validation and round-trips.

The config file is a single JSON document.  Unknown keys are hard errors and
every validation failure names the offending field; silent typos in physics
parameters are the main user hazard this guards against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from .coupling import (
    QUADRATURE_CELLS,
    CouplingSpec,
    custom_coupling,
    grid_span,
    mirror_coupling,
    white_coupling,
)
from .engine import Representation, Stepper, fock_block_sizes

__all__ = [
    "ConfigError",
    "CouplingConfig",
    "SimulationConfig",
    "load_config",
    "parse_config",
]

# Most complex entries a full_fock register may size up to (2**22 entries,
# 64 MB): sum_N size_N^2 over the excitation-number blocks of the qubit and
# W modes.  That sum bounds both the register (sum_N size_N amplitudes) and
# the local collision propagator, whose blocks are those of the qubit and
# the T <= W touched modes, so it is a conservative bound on each.  At
# n_max = 1 it admits 11 modes, at n_max = 2 seven.
FOCK_BUDGET = 2**22

# Most ancilla slots a run may span: n_steps plus the kernel's reach in steps.
# The one-excitation core stores one complex amplitude per slot, and a run
# keeps about 128 bytes per step in all (white, 2**20 steps: a 134 MB
# tracemalloc peak), so the budget caps a run near 0.5 GB.
RUN_BUDGET = 2**22

# Most smooth-kernel evaluations the quadrature of a weight table may make:
# 2 * QUADRATURE_CELLS per smooth lag, so at most 1,024 smooth lags.  On a
# 2-vCPU x86-64 host 1,023 lags took 0.63 s, and the one-excitation
# propagator on 1,025 amplitudes holds 17 MB.
KERNEL_CALL_BUDGET = 2**20

# Most collision work a run may take: steps * (L + 1)^2, the entries of the
# one-excitation propagator applied per collision over the run, for L lags.
# On a 2-vCPU x86-64 host a 1,001-lag smooth kernel took 0.5 to 0.83 ms a
# collision, so the budget caps such a run near 34,000 steps, 17 to 28 s.
WORK_BUDGET = 2**35

OUTPUT_KEYS = ("trajectory_csv", "summary_json", "weights_csv", "convergence_csv", "witness_json")


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


def _require_number(value: Any, field_name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field_name, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(field_name, f"must be finite, got {value!r}")
    return float(value)


def _require_keys(data: Mapping[str, Any], allowed: Tuple[str, ...], where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}" if where else unknown[0], "unknown key")


def _parse_complex(value: Any, field_name: str) -> complex:
    """Accept a plain number or an [re, im] pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(
            _require_number(value[0], field_name), _require_number(value[1], field_name)
        )
    raise ConfigError(field_name, f"expected a number or an [re, im] pair, got {value!r}")


def _complex_to_json(z: complex) -> list:
    return [z.real, z.imag]


@dataclass(frozen=True)
class CouplingConfig:
    """Declarative form of a coupling, as written in config files."""

    shape: str
    gamma: float
    phi: float = 0.0
    tau: float = 0.0
    deltas: Tuple[Tuple[float, complex], ...] = ()
    smooth_form: Optional[str] = None
    smooth_kappa: float = 0.0
    smooth_support: float = 0.0

    def to_spec(self) -> CouplingSpec:
        if self.shape == "white":
            return white_coupling(self.gamma)
        if self.shape == "mirror":
            return mirror_coupling(self.gamma, self.phi, self.tau)
        smooth = None
        support = 0.0
        if self.smooth_form == "exponential":
            kappa = self.smooth_kappa
            smooth = lambda u, k=kappa: k * math.exp(-k * u)  # noqa: E731
            support = self.smooth_support
        return custom_coupling(self.gamma, self.deltas, smooth=smooth, smooth_support=support)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"shape": self.shape, "gamma": self.gamma}
        if self.shape == "mirror":
            out["phi"] = self.phi
            out["tau"] = self.tau
        if self.shape == "custom":
            out["deltas"] = [[lag, w.real, w.imag] for lag, w in self.deltas]
            if self.smooth_form is not None:
                out["smooth"] = {
                    "form": self.smooth_form,
                    "kappa": self.smooth_kappa,
                    "support": self.smooth_support,
                }
        return out


def _parse_coupling(data: Any) -> CouplingConfig:
    if not isinstance(data, Mapping):
        raise ConfigError("coupling", f"expected an object, got {data!r}")
    shape = data.get("shape")
    if shape not in ("white", "mirror", "custom"):
        raise ConfigError("coupling.shape", f"expected white, mirror or custom, got {shape!r}")
    if "gamma" not in data:
        raise ConfigError("coupling.gamma", "missing")
    gamma = _require_number(data["gamma"], "coupling.gamma")
    if gamma < 0:
        raise ConfigError("coupling.gamma", f"must be nonnegative, got {gamma}")

    if shape == "white":
        _require_keys(data, ("shape", "gamma"), "coupling")
        return CouplingConfig(shape="white", gamma=gamma)

    if shape == "mirror":
        _require_keys(data, ("shape", "gamma", "phi", "tau"), "coupling")
        phi = _require_number(data.get("phi", 0.0), "coupling.phi")
        tau = _require_number(data.get("tau", 0.0), "coupling.tau")
        if tau < 0:
            raise ConfigError("coupling.tau", f"must be nonnegative, got {tau}")
        return CouplingConfig(shape="mirror", gamma=gamma, phi=phi, tau=tau)

    _require_keys(data, ("shape", "gamma", "deltas", "smooth"), "coupling")
    deltas = []
    for i, entry in enumerate(data.get("deltas", [])):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ConfigError(f"coupling.deltas[{i}]", f"expected [lag, re, im], got {entry!r}")
        lag = _require_number(entry[0], f"coupling.deltas[{i}]")
        if lag < 0:
            raise ConfigError(f"coupling.deltas[{i}]", f"lag must be nonnegative, got {lag}")
        deltas.append(
            (lag, complex(_require_number(entry[1], f"coupling.deltas[{i}]"),
                          _require_number(entry[2], f"coupling.deltas[{i}]")))
        )
    smooth_form = None
    kappa = 0.0
    support = 0.0
    if "smooth" in data and data["smooth"] is not None:
        smooth = data["smooth"]
        if not isinstance(smooth, Mapping):
            raise ConfigError("coupling.smooth", f"expected an object, got {smooth!r}")
        _require_keys(smooth, ("form", "kappa", "support"), "coupling.smooth")
        if smooth.get("form") != "exponential":
            raise ConfigError(
                "coupling.smooth.form", f"only 'exponential' is supported, got {smooth.get('form')!r}"
            )
        smooth_form = "exponential"
        kappa = _require_number(smooth.get("kappa"), "coupling.smooth.kappa")
        if kappa <= 0:
            raise ConfigError("coupling.smooth.kappa", f"must be positive, got {kappa}")
        support = _require_number(smooth.get("support"), "coupling.smooth.support")
        if support <= 0:
            raise ConfigError("coupling.smooth.support", f"must be positive, got {support}")
    if not deltas and smooth_form is None:
        raise ConfigError("coupling.deltas", "custom coupling needs deltas and/or a smooth part")
    return CouplingConfig(
        shape="custom", gamma=gamma, deltas=tuple(deltas),
        smooth_form=smooth_form, smooth_kappa=kappa, smooth_support=support,
    )


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation run."""

    coupling: CouplingConfig
    dt: float
    omega0: float = 0.0
    n_steps: Optional[int] = None
    t_max: Optional[float] = None
    stepper: Stepper = Stepper.EXACT
    representation: Representation = Representation.SINGLE_EXCITATION
    n_max: int = 1
    window: Optional[int] = None
    beta: complex = 1.0 + 0j
    rotating_frame: bool = False
    output: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        """Cross-field rules, shared by ``parse_config`` and direct construction."""
        if not self.dt > 0:
            raise ConfigError("dt", f"must be positive, got {self.dt}")
        if (self.n_steps is None) == (self.t_max is None):
            raise ConfigError("n_steps", "exactly one of n_steps and t_max must be given")
        if self.t_max is not None and self.t_max < self.dt:
            raise ConfigError(
                "t_max", f"must allow at least one step of dt={self.dt}, got {self.t_max}"
            )
        if self.representation != Representation.FULL_FOCK and (
            self.n_max != 1 or self.window is not None
        ):
            offender = "n_max" if self.n_max != 1 else "window"
            raise ConfigError(offender, "only meaningful for the full_fock representation")
        if self.representation == Representation.MIRROR_RECURSION:
            if self.coupling.shape != "mirror":
                raise ConfigError("representation", "mirror_recursion requires a mirror coupling")
            if int(round(self.coupling.tau / self.dt)) < 1:
                raise ConfigError(
                    "representation",
                    f"mirror_recursion needs a delay of at least one step "
                    f"(tau={self.coupling.tau}, dt={self.dt})",
                )
            if self.stepper != Stepper.SECOND_ORDER:
                raise ConfigError("stepper", "mirror_recursion runs the second-order stepper only")
        spec = self.coupling_spec()
        self.check_run_budget(spec)
        if self.representation == Representation.FULL_FOCK:
            self.check_fock_budget(grid_span(spec, self.dt))

    def check_run_budget(self, spec: CouplingSpec) -> None:
        """Refuse a run whose kernel table or ancilla slots would exceed their budgets.

        The smooth part of a kernel costs 2 * QUADRATURE_CELLS evaluations per
        lag over floor(support / dt) + 2 lags (KERNEL_CALL_BUDGET; the error
        names ``coupling.smooth.support``).  A run spans n_steps plus the
        kernel's reach in steps of ancilla slots (RUN_BUDGET): the error names
        ``dt`` when the reach alone is over budget, else ``n_steps`` or
        ``t_max``.  A collision costs about (L + 1)^2 for L stored lags, at
        most the number of deltas plus the smooth lags, so steps * (L + 1)^2
        is held to WORK_BUDGET, again naming ``n_steps`` or ``t_max``.  The
        counts are floats, so a t_max / dt or a lag / dt too large for an
        integer is refused like any other.
        """
        dt = self.dt
        reach = max((lag / dt for lag, _ in spec.deltas), default=0.0)
        if spec.smooth is not None:
            smooth_lags = np.floor(spec.smooth_support / dt) + 2
            if smooth_lags * 2 * QUADRATURE_CELLS > KERNEL_CALL_BUDGET:
                raise ConfigError(
                    "coupling.smooth.support",
                    f"a smooth part of support {spec.smooth_support} at dt={dt} spans "
                    f"{smooth_lags:.0f} lags, {smooth_lags * 2 * QUADRATURE_CELLS:.0f} kernel "
                    f"evaluations, more than {KERNEL_CALL_BUDGET}; shorten the support or use "
                    f"a coarser dt",
                )
            reach = max(reach, smooth_lags - 1)
        steps = self.n_steps if self.n_steps is not None else self.t_max / dt
        if reach > RUN_BUDGET:
            raise ConfigError(
                "dt",
                f"the kernel reaches {reach:.0f} steps at dt={dt}, more than the {RUN_BUDGET} "
                f"ancilla slots a run may span; use a coarser dt",
            )
        offender = "n_steps" if self.n_steps is not None else "t_max"
        if steps + reach > RUN_BUDGET:
            raise ConfigError(
                offender,
                f"{steps:.0f} steps plus the kernel's reach of {reach:.0f} span "
                f"{steps + reach:.0f} ancilla slots, more than {RUN_BUDGET}; shorten the run or "
                f"use a coarser dt",
            )
        lags = len(spec.deltas) + (smooth_lags if spec.smooth is not None else 0)
        work = steps * (lags + 1) ** 2
        if work > WORK_BUDGET:
            raise ConfigError(
                offender,
                f"{steps:.0f} collisions over up to {lags:.0f} lags cost {work:.3g} "
                f"multiply-adds, more than {WORK_BUDGET}; shorten the run or use a coarser dt",
            )

    def check_fock_budget(self, span: int) -> None:
        """Refuse a full_fock run whose register would exceed FOCK_BUDGET.

        The register holds the qubit and one mode per ancilla of the kernel's
        span, max_lag - min_lag + 1 in steps, or ``window`` modes if that is
        fewer; sum_N size_N^2 over its excitation-number blocks bounds both
        the register and the local propagator that ``step_full`` applies to
        it.  The error names ``window`` when the window sets that size and
        ``dt`` when the kernel's span in steps does.
        """
        modes, offender = span, "dt"
        if self.window is not None and self.window <= modes:
            modes, offender = self.window, "window"
        dim = 2
        for _ in range(modes):  # sum_N size_N^2 lies between dim and dim^2
            dim *= self.n_max + 1
            if dim > FOCK_BUDGET:
                break
        else:
            if dim**2 <= FOCK_BUDGET:
                return
            if int((fock_block_sizes(self.n_max, modes) ** 2).sum()) <= FOCK_BUDGET:
                return
        raise ConfigError(
            offender,
            f"a full_fock register of {modes} modes at n_max={self.n_max} needs a propagator "
            f"of more than {FOCK_BUDGET} complex entries (64 MB); "
            + ("lower the window or n_max" if offender == "window" else
               f"the kernel spans {span} ancillas at dt={self.dt}; use a coarser dt or a "
               f"lower n_max"),
        )

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

    def output_path(self, key: str, default: str) -> str:
        return dict(self.output).get(key, default)

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
        if self.representation == Representation.FULL_FOCK:
            out["n_max"] = self.n_max
            if self.window is not None:
                out["window"] = self.window
        out["beta"] = _complex_to_json(self.beta)
        out["rotating_frame"] = self.rotating_frame
        if self.output:
            out["output"] = dict(self.output)
        return out


_TOP_KEYS = (
    "coupling", "omega0", "dt", "n_steps", "t_max", "stepper", "representation",
    "n_max", "window", "beta", "rotating_frame", "output",
)


def parse_config(data: Any) -> SimulationConfig:
    """Build and validate a SimulationConfig from parsed JSON data."""
    if not isinstance(data, Mapping):
        raise ConfigError("<root>", f"expected a JSON object, got {data!r}")
    _require_keys(data, _TOP_KEYS, "")
    if "coupling" not in data:
        raise ConfigError("coupling", "missing")
    coupling = _parse_coupling(data["coupling"])

    if "dt" not in data:
        raise ConfigError("dt", "missing")
    dt = _require_number(data["dt"], "dt")

    omega0 = _require_number(data.get("omega0", 0.0), "omega0")

    n_steps = None
    t_max = None
    if "n_steps" in data:
        raw = data["n_steps"]
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError("n_steps", f"expected an integer, got {raw!r}")
        if raw < 1:
            raise ConfigError("n_steps", f"must be at least 1, got {raw}")
        n_steps = raw
    if "t_max" in data:
        t_max = _require_number(data["t_max"], "t_max")

    try:
        representation = Representation(data.get("representation", "single_excitation"))
    except ValueError:
        raise ConfigError(
            "representation",
            f"expected one of {[r.value for r in Representation]}, got {data.get('representation')!r}",
        ) from None
    recursion = representation == Representation.MIRROR_RECURSION
    try:
        stepper = Stepper(data.get("stepper", "second_order" if recursion else "exact"))
    except ValueError:
        raise ConfigError(
            "stepper", f"expected one of {[s.value for s in Stepper]}, got {data.get('stepper')!r}"
        ) from None

    if representation != Representation.FULL_FOCK and ("n_max" in data or "window" in data):
        offender = "n_max" if "n_max" in data else "window"
        raise ConfigError(offender, "only meaningful for the full_fock representation")
    n_max = 1
    window = None
    if representation == Representation.FULL_FOCK:
        raw = data.get("n_max", 1)
        if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
            raise ConfigError("n_max", f"expected an integer >= 1, got {raw!r}")
        n_max = raw
        if "window" in data:
            raw = data["window"]
            if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
                raise ConfigError("window", f"expected an integer >= 1, got {raw!r}")
            window = raw

    beta = _parse_complex(data.get("beta", 1.0), "beta")
    if abs(beta) > 1 + 1e-12:
        raise ConfigError("beta", f"must satisfy |beta| <= 1, got |beta| = {abs(beta)}")

    rotating = data.get("rotating_frame", False)
    if not isinstance(rotating, bool):
        raise ConfigError("rotating_frame", f"expected true or false, got {rotating!r}")

    output: Tuple[Tuple[str, str], ...] = ()
    if "output" in data:
        raw = data["output"]
        if not isinstance(raw, Mapping):
            raise ConfigError("output", f"expected an object, got {raw!r}")
        _require_keys(raw, OUTPUT_KEYS, "output")
        for key, value in raw.items():
            if not isinstance(value, str):
                raise ConfigError(f"output.{key}", f"expected a file name, got {value!r}")
        output = tuple(sorted(raw.items()))

    return SimulationConfig(
        coupling=coupling, dt=dt, omega0=omega0, n_steps=n_steps, t_max=t_max,
        stepper=stepper, representation=representation, n_max=n_max, window=window,
        beta=beta, rotating_frame=rotating, output=output,
    )


def load_config(path: Union[str, Path]) -> SimulationConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"{path} is not valid JSON: {exc}") from exc
    return parse_config(data)
