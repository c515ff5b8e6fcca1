import json
import math
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

import qcollide
from qcollide import cli
from qcollide.config import (
    FOCK_BUDGET,
    KERNEL_CALL_BUDGET,
    RUN_BUDGET,
    WORK_BUDGET,
    ConfigError,
    CouplingConfig,
    SimulationConfig,
    load_config,
    parse_config,
)
from qcollide.coupling import mirror_coupling, white_coupling
from qcollide.engine import Representation, Stepper, run
from qcollide.export import weights_csv


def minimal(**overrides):
    data = {
        "coupling": {"shape": "white", "gamma": 1.0},
        "dt": 0.01,
        "n_steps": 100,
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_defaults(self):
        config = parse_config(minimal())
        assert config.omega0 == 0.0
        assert config.stepper == Stepper.EXACT
        assert config.representation == Representation.SINGLE_EXCITATION
        assert config.beta == 1.0 + 0j
        assert config.rotating_frame is False

    def test_coupling_specs_build(self):
        white = parse_config(minimal())
        assert white.coupling_spec() == white_coupling(1.0)
        mirror = parse_config(
            minimal(coupling={"shape": "mirror", "gamma": 0.5, "phi": 0.1, "tau": 2.0})
        )
        assert mirror.coupling_spec() == mirror_coupling(0.5, 0.1, 2.0)

    def test_custom_coupling_with_smooth(self):
        config = parse_config(minimal(coupling={
            "shape": "custom", "gamma": 1.0,
            "deltas": [[0.0, 1.0, 0.0]],
            "smooth": {"form": "exponential", "kappa": 2.0, "support": 1.5},
        }))
        spec = config.coupling_spec()
        assert spec.deltas == ((0.0, 1.0 + 0j),)
        assert spec.smooth(0.5) == pytest.approx(2.0 * math.exp(-1.0))
        assert spec.smooth_support == 1.5

    def test_equal_configs_give_equal_specs(self):
        # the smooth form is a frozen callable that holds kappa, not a new lambda each call
        coupling = {"shape": "custom", "gamma": 1.0,
                    "smooth": {"form": "exponential", "kappa": 2.0, "support": 1.5}}
        config, twin = (parse_config(minimal(coupling=coupling)) for _ in range(2))
        assert config.coupling_spec() == config.coupling_spec() == twin.coupling_spec()
        assert hash(config.coupling_spec()) == hash(twin.coupling_spec())
        steeper = dict(coupling, smooth=dict(coupling["smooth"], kappa=3.0))
        assert parse_config(minimal(coupling=steeper)).coupling_spec() != config.coupling_spec()

    def test_beta_forms(self):
        assert parse_config(minimal(beta=0.5)).beta == 0.5 + 0j
        assert parse_config(minimal(beta=[0.6, 0.8])).beta == complex(0.6, 0.8)

    def test_t_max_steps(self):
        data = minimal()
        del data["n_steps"]
        data["t_max"] = 1.0
        config = parse_config(data)
        steps, note = config.effective_steps()
        assert steps == 100
        assert note is None


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="gama"):
            parse_config(minimal(gama=1.0))

    def test_unknown_coupling_key(self):
        with pytest.raises(ConfigError, match="coupling.taus"):
            parse_config(minimal(coupling={"shape": "mirror", "gamma": 1.0, "taus": 1.0}))

    def test_bad_shape(self):
        with pytest.raises(ConfigError, match="coupling.shape"):
            parse_config(minimal(coupling={"shape": "pink", "gamma": 1.0}))

    def test_negative_gamma(self):
        with pytest.raises(ConfigError, match="coupling.gamma"):
            parse_config(minimal(coupling={"shape": "white", "gamma": -1.0}))

    def test_nonpositive_dt(self):
        with pytest.raises(ConfigError, match="'dt'"):
            parse_config(minimal(dt=0.0))

    def test_steps_and_horizon_exclusive(self):
        with pytest.raises(ConfigError, match="n_steps"):
            parse_config(minimal(t_max=1.0))
        data = minimal()
        del data["n_steps"]
        with pytest.raises(ConfigError, match="n_steps"):
            parse_config(data)

    def test_beta_magnitude(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config(minimal(beta=[1.0, 0.5]))

    def test_bad_stepper_and_representation(self):
        with pytest.raises(ConfigError, match="stepper"):
            parse_config(minimal(stepper="euler"))
        with pytest.raises(ConfigError, match="representation"):
            parse_config(minimal(representation="mps"))

    def test_fock_only_keys(self):
        with pytest.raises(ConfigError, match="n_max"):
            parse_config(minimal(n_max=2))
        plain = parse_config(minimal(representation="full_fock"))
        assert "n_max" not in plain.to_dict()
        # the register always spans the kernel and no mode ever holds two photons, so
        # a window and n_max are checked (see BAD_CONFIGS and MALFORMED) and dropped
        for extra in (dict(n_max=2, window=4), dict(n_max=2), dict(n_max=3)):
            assert parse_config(minimal(representation="full_fock", **extra)) == plain

    @pytest.mark.parametrize("coupling", [
        {"shape": "white", "gamma": 1.0},
        {"shape": "mirror", "gamma": 1.0, "phi": 0.0, "tau": 0.001},  # under half a step
        {"shape": "custom", "gamma": 1.0, "deltas": [[0.0, 1.0, 0.0], [0.05, 0.5, 0.0]]},
    ])
    def test_recursion_is_the_second_order_sector_on_any_kernel(self, coupling):
        config = parse_config(minimal(representation="mirror_recursion", coupling=coupling))
        assert config == parse_config(minimal(coupling=coupling, stepper="second_order"))

    def test_recursion_defaults_to_second_order(self):
        mirror = {"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 1.0}
        config = parse_config(minimal(representation="mirror_recursion", coupling=mirror))
        assert config.stepper == Stepper.SECOND_ORDER
        assert config.to_dict()["stepper"] == "second_order"

    def test_recursion_honours_the_exact_stepper(self):
        mirror = {"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 1.0}
        config = parse_config(minimal(representation="mirror_recursion", coupling=mirror,
                                      stepper="exact"))
        assert config == parse_config(minimal(coupling=mirror))

    def test_direct_construction_is_validated(self):
        # the same rules hold for configs built in code, not only for parsed JSON;
        # mirror_recursion is a JSON spelling that parse_config maps, not a representation
        with pytest.raises(ConfigError, match="expected one of") as info:
            SimulationConfig(coupling=CouplingConfig("mirror", 1.0, tau=1.0), dt=0.1, n_steps=5,
                             representation="mirror_recursion")
        assert info.value.field == "representation"

    @pytest.mark.parametrize("overrides,field", [
        (dict(n_steps=5, t_max=1.0), "n_steps"),
        (dict(), "n_steps"),
        (dict(n_steps=5, dt=0.0), "dt"),
        (dict(t_max=0.05), "t_max"),
    ])
    def test_direct_construction_cross_field_rules(self, overrides, field):
        kwargs = dict(coupling=CouplingConfig("white", 1.0), dt=0.1)
        kwargs.update(overrides)
        with pytest.raises(ConfigError) as info:
            SimulationConfig(**kwargs)
        assert info.value.field == field

    def test_output_keys_checked(self):
        with pytest.raises(ConfigError, match="output.plot"):
            parse_config(minimal(output={"plot": "x.png"}))

    def test_rotating_frame_must_be_bool(self):
        with pytest.raises(ConfigError, match="rotating_frame"):
            parse_config(minimal(rotating_frame="yes"))


NAN, INF = math.nan, math.inf
MIRROR = {"shape": "mirror", "gamma": 1.0, "phi": 0.0, "tau": 1.0}
SMOOTH = {"form": "exponential", "kappa": 1.0, "support": 1.0}
FOCK = dict(representation="full_fock")


def without(data, *keys):
    return {key: value for key, value in data.items() if key not in keys}


def with_coupling(**coupling):
    return minimal(coupling=coupling)


def with_mirror(**changes):
    return minimal(coupling=dict(MIRROR, **changes))


def with_custom(**changes):
    return minimal(coupling=dict({"shape": "custom", "gamma": 1.0}, **changes))


def with_smooth(**changes):
    return with_custom(smooth=dict(SMOOTH, **changes))


def with_t_max(t_max, **overrides):
    return dict(without(minimal(**overrides), "n_steps"), t_max=t_max)


# One fault per config, each with the field its ConfigError named before the
# value rules moved into the dataclasses.
BAD_CONFIGS = {
    "root-list": ([], "<root>"),
    "unknown-top": (minimal(gama=1.0), "gama"),
    "coupling-missing": (without(minimal(), "coupling"), "coupling"),
    "coupling-number": (minimal(coupling=5), "coupling"),
    "coupling-null": (minimal(coupling=None), "coupling"),
    "dt-missing": (without(minimal(), "dt"), "dt"),
    "dt-string": (minimal(dt="0.1"), "dt"),
    "dt-bool": (minimal(dt=True), "dt"),
    "dt-nan": (minimal(dt=NAN), "dt"),
    "dt-inf": (minimal(dt=INF), "dt"),
    "dt-zero": (minimal(dt=0.0), "dt"),
    "dt-negative": (minimal(dt=-0.1), "dt"),
    "dt-null": (minimal(dt=None), "dt"),
    "omega0-string": (minimal(omega0="x"), "omega0"),
    "omega0-nan": (minimal(omega0=NAN), "omega0"),
    "omega0-null": (minimal(omega0=None), "omega0"),
    "n_steps-zero": (minimal(n_steps=0), "n_steps"),
    "n_steps-negative": (minimal(n_steps=-5), "n_steps"),
    "n_steps-float": (minimal(n_steps=2.5), "n_steps"),
    "n_steps-bool": (minimal(n_steps=True), "n_steps"),
    "n_steps-string": (minimal(n_steps="10"), "n_steps"),
    "n_steps-null": (minimal(n_steps=None), "n_steps"),
    "n_steps-null-with-t_max": (minimal(n_steps=None, t_max=1.0), "n_steps"),
    "n_steps-and-t_max": (minimal(t_max=1.0), "n_steps"),
    "neither-n_steps-nor-t_max": (without(minimal(), "n_steps"), "n_steps"),
    "t_max-nan": (with_t_max(NAN), "t_max"),
    "t_max-inf": (with_t_max(INF), "t_max"),
    "t_max-string": (with_t_max("1"), "t_max"),
    "t_max-below-dt": (with_t_max(0.001), "t_max"),
    "t_max-null": (with_t_max(None), "t_max"),
    "t_max-null-with-n_steps": (minimal(t_max=None), "t_max"),
    "stepper-unknown": (minimal(stepper="euler"), "stepper"),
    "stepper-number": (minimal(stepper=3), "stepper"),
    "stepper-null": (minimal(stepper=None), "stepper"),
    "representation-unknown": (minimal(representation="mps"), "representation"),
    "representation-list": (minimal(representation=["full_fock"]), "representation"),
    "representation-null": (minimal(representation=None), "representation"),
    "n_max-outside-fock": (minimal(n_max=1), "n_max"),
    "window-outside-fock": (minimal(window=3), "window"),
    "n_max-in-recursion": (minimal(coupling=MIRROR, representation="mirror_recursion", n_max=2),
                           "n_max"),
    "n_max-zero": (minimal(n_max=0, **FOCK), "n_max"),
    "n_max-float": (minimal(n_max=1.5, **FOCK), "n_max"),
    "n_max-bool": (minimal(n_max=True, **FOCK), "n_max"),
    "n_max-null": (minimal(n_max=None, **FOCK), "n_max"),
    "window-zero": (minimal(window=0, **FOCK), "window"),
    "window-string": (minimal(window="3", **FOCK), "window"),
    "window-null": (minimal(window=None, **FOCK), "window"),
    "beta-two": (minimal(beta=2), "beta"),
    "beta-pair-over-one": (minimal(beta=[1.0, 0.5]), "beta"),
    "beta-triple": (minimal(beta=[1, 2, 3]), "beta"),
    "beta-string": (minimal(beta="1"), "beta"),
    "beta-bool-pair": (minimal(beta=[True, 0]), "beta"),
    "beta-nan-pair": (minimal(beta=[0.5, NAN]), "beta"),
    "beta-inf": (minimal(beta=INF), "beta"),
    "beta-null": (minimal(beta=None), "beta"),
    "rotating_frame-string": (minimal(rotating_frame="yes"), "rotating_frame"),
    "rotating_frame-int": (minimal(rotating_frame=1), "rotating_frame"),
    "rotating_frame-null": (minimal(rotating_frame=None), "rotating_frame"),
    "output-list": (minimal(output=[]), "output"),
    "output-unknown-key": (minimal(output={"plot": "x.png"}), "output.plot"),
    "output-number-name": (minimal(output={"trajectory_csv": 5}), "output.trajectory_csv"),
    "output-empty-name": (minimal(output={"trajectory_csv": ""}), "output.trajectory_csv"),
    "output-dot-name": (minimal(output={"summary_json": "."}), "output.summary_json"),
    "output-parent-name": (minimal(output={"witness_json": "a/.."}), "output.witness_json"),
    "output-null": (minimal(output=None), "output"),
    "output-same-file": (minimal(output={"trajectory_csv": "same.txt",
                                         "summary_json": "same.txt"}), "output.summary_json"),
    "output-default-name": (minimal(output={"trajectory_csv": "summary.json"}),
                            "output.trajectory_csv"),
    "output-same-normalised": (minimal(output={"weights_csv": "./a/../trajectory.csv"}),
                               "output.weights_csv"),
    "shape-unknown": (with_coupling(shape="pink", gamma=1.0), "coupling.shape"),
    "shape-missing": (with_coupling(gamma=1.0), "coupling.shape"),
    "shape-null": (with_coupling(shape=None, gamma=1.0), "coupling.shape"),
    "shape-number": (with_coupling(shape=5, gamma=1.0), "coupling.shape"),
    "gamma-missing": (with_coupling(shape="white"), "coupling.gamma"),
    "gamma-negative": (with_coupling(shape="white", gamma=-1.0), "coupling.gamma"),
    "gamma-string": (with_coupling(shape="white", gamma="1"), "coupling.gamma"),
    "gamma-nan": (with_coupling(shape="white", gamma=NAN), "coupling.gamma"),
    "gamma-bool": (with_coupling(shape="white", gamma=True), "coupling.gamma"),
    "gamma-null": (with_coupling(shape="white", gamma=None), "coupling.gamma"),
    "white-tau": (with_coupling(shape="white", gamma=1.0, tau=1.0), "coupling.tau"),
    "white-zero-phi": (with_coupling(shape="white", gamma=1.0, phi=0.0), "coupling.phi"),
    "mirror-deltas": (with_mirror(deltas=[]), "coupling.deltas"),
    "mirror-unknown-key": (with_mirror(taus=1.0), "coupling.taus"),
    "mirror-phi-nan": (with_mirror(phi=NAN), "coupling.phi"),
    "mirror-phi-string": (with_mirror(phi="0"), "coupling.phi"),
    "mirror-phi-null": (with_mirror(phi=None), "coupling.phi"),
    "mirror-tau-negative": (with_mirror(tau=-1.0), "coupling.tau"),
    "mirror-tau-inf": (with_mirror(tau=INF), "coupling.tau"),
    "mirror-tau-null": (with_mirror(tau=None), "coupling.tau"),
    "custom-phi": (with_custom(deltas=[[0.0, 1.0, 0.0]], phi=0.0), "coupling.phi"),
    "custom-empty": (with_custom(), "coupling.deltas"),
    "custom-no-deltas": (with_custom(deltas=[]), "coupling.deltas"),
    "custom-null-smooth": (with_custom(smooth=None), "coupling.deltas"),
    "delta-pair": (with_custom(deltas=[[0.0, 1.0]]), "coupling.deltas[0]"),
    "delta-negative-lag": (with_custom(deltas=[[-1.0, 1.0, 0.0]]), "coupling.deltas[0]"),
    "delta-nan-lag": (with_custom(deltas=[[0.0, 1.0, 0.0], [NAN, 1.0, 0.0]]),
                      "coupling.deltas[1]"),
    "delta-inf-lag": (with_custom(deltas=[[INF, 1.0, 0.0]]), "coupling.deltas[0]"),
    "delta-string-lag": (with_custom(deltas=[["a", 1.0, 0.0]]), "coupling.deltas[0]"),
    "delta-string-re": (with_custom(deltas=[[0.0, "1", 0.0]]), "coupling.deltas[0]"),
    "delta-inf-im": (with_custom(deltas=[[0.0, 1.0, INF]]), "coupling.deltas[0]"),
    "delta-bool-re": (with_custom(deltas=[[0.0, True, 0.0]]), "coupling.deltas[0]"),
    "delta-number": (with_custom(deltas=[5]), "coupling.deltas[0]"),
    "delta-null": (with_custom(deltas=[None]), "coupling.deltas[0]"),
    "smooth-list": (with_custom(smooth=[]), "coupling.smooth"),
    "smooth-empty": (with_custom(smooth={}), "coupling.smooth.form"),
    "smooth-form-unknown": (with_smooth(form="gaussian"), "coupling.smooth.form"),
    "smooth-form-null": (with_smooth(form=None), "coupling.smooth.form"),
    "smooth-form-missing": (with_custom(smooth=without(SMOOTH, "form")), "coupling.smooth.form"),
    "smooth-unknown-key": (with_smooth(sigma=1.0), "coupling.smooth.sigma"),
    "smooth-kappa-zero": (with_smooth(kappa=0.0), "coupling.smooth.kappa"),
    "smooth-kappa-missing": (with_custom(smooth=without(SMOOTH, "kappa")),
                             "coupling.smooth.kappa"),
    "smooth-kappa-nan": (with_smooth(kappa=NAN), "coupling.smooth.kappa"),
    "smooth-kappa-string": (with_smooth(kappa="1"), "coupling.smooth.kappa"),
    "smooth-support-negative": (with_smooth(support=-1.0), "coupling.smooth.support"),
    "smooth-support-missing": (with_custom(smooth=without(SMOOTH, "support")),
                               "coupling.smooth.support"),
    "smooth-support-inf": (with_smooth(support=INF), "coupling.smooth.support"),
    "fock-span-over-budget": (minimal(coupling=MIRROR, dt=1 / 64, **FOCK), "dt"),
    "run-over-budget": (with_t_max(1e9, dt=1.0), "t_max"),
    "kernel-reach-over-budget": (with_t_max(4.0, coupling=MIRROR, dt=1e-9), "dt"),
    "smooth-calls-over-budget": (dict(with_smooth(support=2.0), dt=1e-5),
                                 "coupling.smooth.support"),
    "work-over-budget": (dict(with_smooth(support=2.0), dt=2 / 1000, n_steps=4_000_000),
                         "n_steps"),
}


WHITE = CouplingConfig("white", 1.0)

# Configs built in code, one fault each.
BAD_BUILDS = {
    "shape-typo": (lambda: SimulationConfig(CouplingConfig("whte", 1.0), dt=0.1, n_steps=3),
                   "coupling.shape"),
    "custom-empty": (lambda: CouplingConfig("custom", 1.0), "coupling.deltas"),
    "white-tau": (lambda: CouplingConfig("white", 1.0, tau=1.0), "coupling.tau"),
    "kappa-without-form": (lambda: CouplingConfig("mirror", 1.0, smooth_kappa=2.0),
                           "coupling.smooth.kappa"),
    "phi-nan": (lambda: CouplingConfig("mirror", 1.0, phi=NAN, tau=1.0), "coupling.phi"),
    "weight-nan": (lambda: CouplingConfig("custom", 1.0, deltas=((0.5, NAN),)),
                   "coupling.deltas[0]"),
    "n_steps-negative": (lambda: SimulationConfig(WHITE, dt=0.1, n_steps=-5), "n_steps"),
    "n_steps-bool": (lambda: SimulationConfig(WHITE, dt=0.1, n_steps=True), "n_steps"),
    "n_steps-float": (lambda: SimulationConfig(WHITE, dt=0.1, n_steps=2.5), "n_steps"),
    "t_max-nan": (lambda: SimulationConfig(WHITE, dt=0.1, t_max=NAN), "t_max"),
    "omega0-nan": (lambda: SimulationConfig(WHITE, dt=0.1, n_steps=3, omega0=NAN), "omega0"),
    "beta-two": (lambda: SimulationConfig(WHITE, dt=0.1, n_steps=3, beta=2), "beta"),
    "output-same-file": (lambda: SimulationConfig(
        WHITE, dt=0.1, n_steps=3, output={"witness_json": "x", "weights_csv": "x"}),
        "output.witness_json"),
    "stepper-unknown": (lambda: SimulationConfig(WHITE, dt=0.1, n_steps=3, stepper="euler"),
                        "stepper"),
    "output-unknown-key": (lambda: SimulationConfig(WHITE, dt=0.1, n_steps=3,
                                                    output={"plot": "x.png"}), "output.plot"),
    "rotating_frame-int": (lambda: SimulationConfig(WHITE, dt=0.1, n_steps=3, rotating_frame=1),
                           "rotating_frame"),
}


class TestOneValidator:
    @pytest.mark.parametrize("data,field", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
    def test_parsed_config_names_its_field(self, data, field):
        with pytest.raises(ConfigError) as info:
            parse_config(data)
        assert info.value.field == field

    @pytest.mark.parametrize("build,field", BAD_BUILDS.values(), ids=BAD_BUILDS.keys())
    def test_built_config_is_refused(self, build, field):
        with pytest.raises(ConfigError) as info:
            build()
        assert info.value.field == field

    def test_built_config_is_normalised_like_a_parsed_one(self):
        built = SimulationConfig(
            CouplingConfig("custom", 1, deltas=[(0, 1), (1, 0.5j)], smooth_form="exponential",
                           smooth_kappa=2, smooth_support=1),
            dt=1, n_steps=4, stepper="second_order", representation="full_fock", beta=1,
            output={"weights_csv": "w.csv", "trajectory_csv": "t.csv"})
        parsed = parse_config({
            "coupling": {"shape": "custom", "gamma": 1.0,
                         "deltas": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.5]],
                         "smooth": {"form": "exponential", "kappa": 2.0, "support": 1.0}},
            "dt": 1.0, "n_steps": 4, "stepper": "second_order", "representation": "full_fock",
            "n_max": 2, "output": {"trajectory_csv": "t.csv", "weights_csv": "w.csv"}})
        assert built == parsed
        assert built.stepper is Stepper.SECOND_ORDER
        assert built.representation is Representation.FULL_FOCK
        assert type(built.dt) is float and type(built.beta) is complex

    def test_stepper_string_runs_like_the_enum(self):
        mirror = CouplingConfig("mirror", 0.5, phi=0.3, tau=1.0)
        by_name = run(SimulationConfig(mirror, dt=0.1, n_steps=50, stepper="exact"))
        by_enum = run(SimulationConfig(mirror, dt=0.1, n_steps=50, stepper=Stepper.EXACT))
        assert np.array_equal(by_name.eps, by_enum.eps)
        assert np.array_equal(by_name.norms, by_enum.norms)
        assert by_name.config == by_enum.config


BIG = 10 ** 400  # a JSON integer past the float range
MALFORMED = {
    "deltas-int": (with_custom(deltas=5), "coupling.deltas"),
    "deltas-null": (with_custom(deltas=None), "coupling.deltas"),
    "deltas-string": (with_custom(deltas="ab"), "coupling.deltas"),
    "deltas-object": (with_custom(deltas={"0": [1.0, 0.0]}), "coupling.deltas"),
    "smooth-null": (with_custom(deltas=[[0.0, 1.0, 0.0]], smooth=None), "coupling.smooth"),
    "dt-huge": (minimal(dt=BIG), "dt"),
    "omega0-huge": (minimal(omega0=-BIG), "omega0"),
    "n_steps-huge": (minimal(n_steps=BIG), "n_steps"),
    "t_max-huge": (with_t_max(BIG), "t_max"),
    "beta-huge": (minimal(beta=BIG), "beta"),
    "beta-pair-huge": (minimal(beta=[0, BIG]), "beta"),
    "gamma-huge": (with_coupling(shape="white", gamma=BIG), "coupling.gamma"),
    "phi-huge": (with_mirror(phi=BIG), "coupling.phi"),
    "tau-huge": (with_mirror(tau=BIG), "coupling.tau"),
    "delta-lag-huge": (with_custom(deltas=[[BIG, 1.0, 0.0]]), "coupling.deltas[0]"),
    "delta-weight-huge": (with_custom(deltas=[[0.0, 1.0, 0.0], [1.0, BIG, 0.0]]),
                          "coupling.deltas[1]"),
    "kappa-huge": (with_smooth(kappa=BIG), "coupling.smooth.kappa"),
    "support-huge": (with_smooth(support=BIG), "coupling.smooth.support"),
    "n_max-huge": (minimal(n_max=BIG, **FOCK), "n_max"),
    "window-huge": (minimal(window=BIG, **FOCK), "window"),
}


@pytest.mark.parametrize("data,field", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_json_value_names_its_field(data, field):
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert info.value.field == field


def smooth_kernel(support):
    return {"shape": "custom", "gamma": 1.0,
            "smooth": {"form": "exponential", "kappa": 1.0, "support": support}}


def fock_mirror(dt, **overrides):
    return minimal(coupling={"shape": "mirror", "gamma": 1.0, "phi": 0.0, "tau": 1.0}, dt=dt,
                   representation="full_fock", **overrides)


class TestFockBudget:
    def test_default_window_from_a_fine_dt_is_refused_at_once(self):
        # tau = 1 at dt = 1/64: the default window of 65 modes would hold 2 * 2**65
        # amplitudes; the refusal allocates nothing of that size on the way
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="65 modes") as info:
                parse_config(fock_mirror(1 / 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.field == "dt"
        assert peak < 1e6

    @pytest.mark.parametrize("window,n_max", [(9, 1), (5, 2), (11, 1), (7, 2), (5, 3)])
    def test_budget_admits_registers_up_to_its_edge(self, window, n_max):
        parse_config(fock_mirror(1 / (window - 1), n_max=n_max))

    @pytest.mark.parametrize("coupling,dt,window", [
        ({"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 1.0}, 1 / 8, 3),  # span 9
        ({"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 1.0}, 1 / 64, 5),  # span 65
        ({"shape": "custom", "gamma": 0.8, "deltas": [[0.2, 0.7, 0.0], [0.5, -0.4, 0.3]]},
         0.1, 3),  # lags 2 and 5: span 4
    ])
    def test_window_below_an_exact_span_is_dropped(self, coupling, dt, window):
        # the register always spans the kernel: the windowed config parses to the
        # same config, or is refused naming the same field (dt for 65 modes)
        data = minimal(coupling=coupling, dt=dt, representation="full_fock")
        try:
            expected = parse_config(data)
        except ConfigError as error:
            expected = error.field
        try:
            windowed = parse_config(dict(data, window=window))
        except ConfigError as error:
            windowed = error.field
        assert windowed == expected

    @pytest.mark.parametrize("coupling,window", [
        ({"shape": "custom", "gamma": 0.8, "deltas": [[0.2, 0.7, 0.0], [0.5, -0.4, 0.3]]}, 4),
        # the deltas at 0.5 cancel, so only lags 2 and 3 are stored: span 2
        ({"shape": "custom", "gamma": 0.8,
          "deltas": [[0.2, 0.7, 0.0], [0.3, 0.1, 0.0], [0.5, -0.4, 0.0], [0.5, 0.4, 0.0]]}, 2),
        ({"shape": "mirror", "gamma": 0.0, "phi": 0.0, "tau": 1.0}, 1),  # no coupling: span 0
        (smooth_kernel(0.4), 2),  # below the smooth kernel's span: dropped all the same
    ])
    def test_window_at_or_above_the_stored_span_is_admitted(self, coupling, window):
        parse_config(minimal(coupling=coupling, dt=0.1, representation="full_fock",
                             window=window))

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_white_registers_admitted(self, n_max):
        parse_config(minimal(representation="full_fock", n_max=n_max))

    def test_window_wider_than_the_kernel_names_dt(self):
        with pytest.raises(ConfigError) as info:
            parse_config(fock_mirror(1 / 64, window=100))
        assert info.value.field == "dt"

    def test_delta_kernel_is_sized_by_its_exact_span(self):
        # gamma 0 stores no lag: the register is the qubit alone, where the grid
        # bound of the mirror at dt = 1/64 is 65 modes
        config = parse_config(minimal(coupling=dict(MIRROR, gamma=0.0), dt=1 / 64, **FOCK))
        assert run(config).notes[-1].startswith("full_fock register: peak dimension 2,")

    def test_smooth_kernel_is_sized_by_its_exact_span(self):
        # the cell averages of kappa 5000 underflow past lag 3 at dt = 1/16: parse runs
        # the quadrature, so the register spans 4 modes, where the grid reaches 18
        coupling = {"shape": "custom", "gamma": 1.0,
                    "smooth": {"form": "exponential", "kappa": 5000.0, "support": 1.0}}
        fock = run(parse_config(minimal(coupling=coupling, dt=1 / 16, **FOCK)))
        sector = run(parse_config(minimal(coupling=coupling, dt=1 / 16)))
        assert fock.notes[-1].startswith("full_fock register: peak dimension 32,")
        assert np.max(np.abs(fock.eps - sector.eps)) <= 1e-13

    def test_smooth_kernel_reach_counts(self):
        smooth = {"shape": "custom", "gamma": 1.0, "deltas": [[0.0, 1.0, 0.0]],
                  "smooth": {"form": "exponential", "kappa": 1.0, "support": 2.0}}
        parse_config(minimal(coupling=smooth, dt=0.25, representation="full_fock"))
        with pytest.raises(ConfigError) as info:
            parse_config(minimal(coupling=smooth, dt=1 / 32, representation="full_fock"))
        assert info.value.field == "dt"

    def test_budget_counts_the_span_not_the_reach(self):
        # deltas at lags 20 and 25: a register of the 6-mode span, not of 26 modes
        kernel = {"shape": "custom", "gamma": 1.0, "deltas": [[2.0, 1.0, 0.0], [2.5, 0.5, 0.0]]}
        fock = run(parse_config(minimal(coupling=kernel, dt=0.1, representation="full_fock")))
        sector = run(parse_config(minimal(coupling=kernel, dt=0.1)))
        assert np.max(np.abs(fock.eps - sector.eps)) <= 1e-13

    def test_budget_edge_is_eleven_modes_at_n_max_one(self):
        def deltas_at(lag):  # a span of lag / 0.1 + 1 modes
            kernel = {"shape": "custom", "gamma": 1.0, "deltas": [[0.0, 1.0, 0.0], [lag, 0.5, 0.0]]}
            return minimal(coupling=kernel, dt=0.1, n_steps=10, **FOCK)

        parse_config(deltas_at(1.0))
        with pytest.raises(ConfigError, match=str(FOCK_BUDGET)) as info:
            parse_config(deltas_at(1.1))
        assert info.value.field == "dt"


def refused_without_allocating(data):
    """The ConfigError of parse_config(data), checked to allocate under 1 MB on the way."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            parse_config(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    return info.value


def timed(data, t_max):
    data = dict(data, t_max=t_max)
    del data["n_steps"]
    return data


class TestRunBudget:
    @pytest.mark.parametrize("data,field", [
        # a billion steps of white noise: about 16 GB of ancilla amplitudes
        (timed(minimal(dt=1.0), 1e9), "t_max"),
        # a mirror delay of a billion steps: the reach alone is over budget
        (timed(minimal(coupling={"shape": "mirror", "gamma": 1.0, "phi": 0.0, "tau": 1.0},
                       dt=1e-9), 4.0), "dt"),
        (minimal(n_steps=RUN_BUDGET + 1), "n_steps"),
        # t_max / dt overflows to inf: refused, not an OverflowError
        (timed(minimal(dt=1e-10), 1e300), "t_max"),
        # support 2 at dt = 1e-5: about 1e8 kernel evaluations
        (minimal(coupling=smooth_kernel(2.0), dt=1e-5), "coupling.smooth.support"),
        (minimal(coupling=smooth_kernel(1e300), dt=1e-10), "coupling.smooth.support"),
    ])
    def test_oversized_runs_are_refused_at_once(self, data, field):
        error = refused_without_allocating(data)
        assert error.field == field
        assert str(KERNEL_CALL_BUDGET if field.startswith("coupling") else RUN_BUDGET) in str(
            error)

    @pytest.mark.parametrize("data,message", [
        # counts up to 2^53 are exact floats and keep every digit; beyond, three
        (timed(minimal(dt=1.0), 1e9),
         "1000000000 steps plus the kernel's reach of 0 span 1000000000 ancilla slots"),
        (timed(minimal(dt=1e-10), 1e290), "1e+300 steps plus the kernel's reach of 0 span 1e+300"),
        (minimal(coupling={"shape": "mirror", "gamma": 1.0, "phi": 0.0, "tau": 2.0**53},
                 dt=1.0), "the kernel reaches 9007199254740992 steps at dt=1.0"),
        (minimal(coupling={"shape": "mirror", "gamma": 1.0, "phi": 0.0, "tau": 2.0**54},
                 dt=1.0), "the kernel reaches 1.8e+16 steps at dt=1.0"),
    ])
    def test_refusals_print_counts_beyond_2_53_in_three_digits(self, data, message):
        assert message in str(refused_without_allocating(data))

    @pytest.mark.parametrize("data,field", [
        # 1,002 smooth lags at dt = 2/1000 cost about 1e6 multiply-adds a collision
        (minimal(coupling=smooth_kernel(2.0), dt=2 / 1000, n_steps=4_000_000), "n_steps"),
        (timed(minimal(coupling=smooth_kernel(2.0), dt=2 / 1000), 100.0), "t_max"),
    ])
    def test_collision_work_is_refused_at_once(self, data, field):
        error = refused_without_allocating(data)
        assert error.field == field
        assert str(WORK_BUDGET) in str(error)

    def test_full_fock_is_sized_before_its_register(self):
        error = refused_without_allocating(fock_mirror(1e-9))
        assert error.field == "dt"
        assert str(RUN_BUDGET) in str(error)

    @pytest.mark.parametrize("coupling,dt,admitted", [
        # 2^35 / (2^17 + 4 * 4): the qubit and one mode, one lag
        ({"shape": "white", "gamma": 1.0}, 0.01, 262_112),
        # 2^35 / (2^17 + 4,096 * 8): the 11-mode span of a mirror, two lags
        (MIRROR, 0.1, 209_715),
    ])
    def test_full_fock_work_is_refused_at_its_edge(self, coupling, dt, admitted):
        parse_config(minimal(coupling=coupling, dt=dt, n_steps=admitted, **FOCK))
        error = refused_without_allocating(
            minimal(coupling=coupling, dt=dt, n_steps=admitted + 1, **FOCK))
        assert error.field == "n_steps"
        assert str(WORK_BUDGET) in str(error)
        over = with_t_max(1.5 * admitted * dt, coupling=coupling, dt=dt)
        assert refused_without_allocating(dict(over, **FOCK)).field == "t_max"
        parse_config(over)  # the same run in the one-excitation sector

    def test_full_fock_work_comes_after_the_register_budget(self):
        error = refused_without_allocating(
            minimal(coupling=MIRROR, dt=1 / 64, n_steps=4_000_000, **FOCK))
        assert error.field == "dt"

    def test_budgets_admit_their_edges(self):
        # mirror at dt = 1/64 reaches 64 steps; 1/1024 and 1022/1024 are exact in binary
        mirror = {"shape": "mirror", "gamma": 1.0, "phi": 0.0, "tau": 1.0}
        parse_config(minimal(coupling=mirror, dt=1 / 64, n_steps=RUN_BUDGET - 64))
        with pytest.raises(ConfigError) as info:
            parse_config(minimal(coupling=mirror, dt=1 / 64, n_steps=RUN_BUDGET - 63))
        assert info.value.field == "n_steps"
        parse_config(minimal(coupling=smooth_kernel(1022 / 1024), dt=1 / 1024))  # 1,024 lags
        with pytest.raises(ConfigError) as info:
            parse_config(minimal(coupling=smooth_kernel(1023 / 1024), dt=1 / 1024))
        assert info.value.field == "coupling.smooth.support"
        # 2^35 / 1,003^2 = 34,154.5 collisions of 1,002 smooth lags
        parse_config(minimal(coupling=smooth_kernel(2.0), dt=2 / 1000, n_steps=34_154))
        with pytest.raises(ConfigError, match=str(WORK_BUDGET)) as info:
            parse_config(minimal(coupling=smooth_kernel(2.0), dt=2 / 1000, n_steps=34_155))
        assert info.value.field == "n_steps"

    def test_overflowing_phase_is_refused_naming_omega0(self):
        # omega0 dt = 1.25e307 over 20 steps and a reach of 8: the phase omega0 t of
        # the late steps is inf, and e^{-i omega0 t} would be nan
        mirror = {"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 1.0}
        error = refused_without_allocating(minimal(coupling=mirror, omega0=1e308, dt=0.125,
                                                   n_steps=20))
        assert error.field == "omega0"
        assert "overflows" in str(error)
        # a phase that stays finite runs, to finite amplitudes of modulus below one
        traj = run(parse_config(minimal(coupling=mirror, omega0=5e306, dt=0.125, n_steps=20)))
        assert np.all(np.isfinite(traj.eps)) and np.all(np.abs(traj.eps) <= 1)

    def test_direct_construction_is_sized(self):
        with pytest.raises(ConfigError) as info:
            SimulationConfig(coupling=CouplingConfig("white", 1.0), dt=1.0, t_max=1e9)
        assert info.value.field == "t_max"


class TestKernelTable:
    """Parse discretizes the kernel once; run() and the kernel command reuse its table."""

    KERNEL = {"shape": "custom", "gamma": 0.8, "deltas": [[0.0, 0.7, 0.0], [0.45, -0.4, 0.2]],
              "smooth": {"form": "exponential", "kappa": 2.0, "support": 1.0}}

    def test_run_and_the_kernel_command_discretize_nothing(self, tmp_path, monkeypatch):
        calls = []

        def spy(fn):
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return counted

        for module in (qcollide, qcollide.coupling, qcollide.config, qcollide.engine, cli):
            for name in ("collision_weights", "coupling_strengths"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(getattr(module, name)))
        config = parse_config(minimal(coupling=self.KERNEL, dt=0.1, n_steps=20))
        assert calls == ["collision_weights", "coupling_strengths"]  # the spy sees parse
        fock = parse_config(minimal(coupling=self.KERNEL, dt=0.25, n_steps=8, **FOCK))
        calls.clear()
        traj = run(config)
        run(fock)
        assert cli.cmd_kernel(config, tmp_path, quiet=True) == 0
        assert calls == []
        assert traj.notes[:1] == config.weights.warnings  # the off-grid delta at 0.45
        assert (tmp_path / "weights.csv").read_text() == weights_csv(config.weights)

    def test_the_table_is_not_a_field(self):
        data = minimal(coupling=self.KERNEL, dt=0.1, n_steps=20)
        config, twin = parse_config(data), parse_config(data)
        assert config.weights is not twin.weights and config.plan is not twin.plan
        assert config == twin and hash(config) == hash(twin)
        assert [f.name for f in fields(config)] == [
            "coupling", "dt", "omega0", "n_steps", "t_max", "stepper", "representation", "beta",
            "rotating_frame", "output"]
        assert "WeightMatrix" not in repr(config) and "CollisionPlan" not in repr(config)
        assert set(config.to_dict()) == {"coupling", "omega0", "dt", "n_steps", "stepper",
                                         "representation", "beta", "rotating_frame"}
        for name in ("weights", "plan"):
            with pytest.raises(FrozenInstanceError):
                setattr(config, name, None)

    def test_replace_builds_the_table_of_the_new_dt(self):
        config = parse_config(with_t_max(2.0, coupling=MIRROR, omega0=0.3, dt=0.1))
        finer = replace(config, dt=0.05)
        assert (config.plan.lags.tolist(), config.plan.n_steps) == ([0, 10], 20)
        assert (finer.plan.lags.tolist(), finer.plan.n_steps) == ([0, 20], 40)
        assert finer.weights.dt == finer.plan.dt == 0.05
        # the strength at lag l carries e^{-i omega0 l dt}, the frame rotating at omega0 = 0.3
        phase = np.exp(-1j * 0.3 * (finer.plan.lags * 0.05))
        assert np.array_equal(finer.plan.gs, np.sqrt(1.0 / 0.05) * finer.weights.w * phase)

    @pytest.mark.parametrize("data,field", [
        # 1,024 smooth lags, the most KERNEL_CALL_BUDGET admits: a register of 1,024 modes
        (minimal(coupling=smooth_kernel(1022 / 1024), dt=1 / 1024, **FOCK), "dt"),
        # sqrt(4 / 0.5) * 1.7e308 overflows once the smooth part's weight is added
        (minimal(coupling={"shape": "custom", "gamma": 4.0, "deltas": [[0, 1.7e308, 0]],
                           "smooth": SMOOTH}, dt=0.5, n_steps=4), "coupling.smooth"),
    ], ids=["fock-register", "strength"])
    def test_smooth_kernel_refused_after_its_quadrature(self, data, field):
        assert refused_without_allocating(data).field == field


class TestRoundTrip:
    @pytest.mark.parametrize("data", [
        minimal(),
        minimal(coupling={"shape": "mirror", "gamma": 0.5, "phi": 0.2, "tau": 1.0},
                omega0=0.4, stepper="second_order", beta=[0.6, 0.2]),
        minimal(representation="full_fock", n_max=2, window=3,
                output={"trajectory_csv": "t.csv"}),
        minimal(coupling={"shape": "custom", "gamma": 1.0, "deltas": [[0.0, 1.0, 0.0]],
                          "smooth": {"form": "exponential", "kappa": 1.0, "support": 2.0}},
                rotating_frame=True),
        minimal(coupling={"shape": "mirror", "gamma": 0.5, "phi": 0.2, "tau": 1.0},
                representation="mirror_recursion"),
    ])
    def test_parse_serialize_parse_identity(self, data):
        first = parse_config(data)
        second = parse_config(json.loads(json.dumps(first.to_dict())))
        assert first == second

    def test_snapshot_in_trajectory_is_reparsable(self):
        from qcollide.engine import run

        config = parse_config(minimal(n_steps=5))
        traj = run(config)
        assert parse_config(traj.config) == config


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal()))
        assert load_config(path) == parse_config(minimal())

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_integer_past_the_digit_limit(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(minimal()).replace('"dt": 0.01', '"dt": 1' + "0" * 5000))
        with pytest.raises(ConfigError, match="not valid JSON") as info:
            load_config(path)
        assert info.value.field == "<file>"
