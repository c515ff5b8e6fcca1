import json
import math

import pytest

from qcollide.config import (
    ConfigError,
    CouplingConfig,
    SimulationConfig,
    load_config,
    parse_config,
    serialize_config,
)
from qcollide.coupling import mirror_coupling, white_coupling
from qcollide.engine import Representation, Stepper


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
        config = parse_config(minimal(representation="full_fock", n_max=2, window=4))
        assert config.n_max == 2
        assert config.window == 4

    def test_recursion_needs_mirror_with_delay(self):
        with pytest.raises(ConfigError, match="mirror"):
            parse_config(minimal(representation="mirror_recursion"))
        with pytest.raises(ConfigError, match="delay"):
            parse_config(minimal(
                representation="mirror_recursion",
                coupling={"shape": "mirror", "gamma": 1.0, "phi": 0.0, "tau": 0.001},
            ))

    def test_recursion_defaults_to_second_order(self):
        mirror = {"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 1.0}
        config = parse_config(minimal(representation="mirror_recursion", coupling=mirror))
        assert config.stepper == Stepper.SECOND_ORDER
        assert config.to_dict()["stepper"] == "second_order"

    def test_recursion_rejects_exact_stepper(self):
        mirror = {"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 1.0}
        with pytest.raises(ConfigError, match="stepper") as info:
            parse_config(minimal(representation="mirror_recursion", coupling=mirror,
                                 stepper="exact"))
        assert info.value.field == "stepper"

    def test_direct_construction_is_validated(self):
        # the same rules hold for configs built in code, not only for parsed JSON
        with pytest.raises(ConfigError, match="requires a mirror coupling") as info:
            SimulationConfig(coupling=CouplingConfig("white", 1.0), dt=0.1, n_steps=5,
                             representation=Representation.MIRROR_RECURSION)
        assert info.value.field == "representation"

    @pytest.mark.parametrize("overrides,field", [
        (dict(n_steps=5, t_max=1.0), "n_steps"),
        (dict(), "n_steps"),
        (dict(n_steps=5, dt=0.0), "dt"),
        (dict(t_max=0.05), "t_max"),
        (dict(n_steps=5, n_max=2), "n_max"),
        (dict(n_steps=5, window=3), "window"),
        (dict(n_steps=5, representation=Representation.MIRROR_RECURSION,
              coupling=CouplingConfig("mirror", 1.0, tau=1.0)), "stepper"),
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
        second = parse_config(json.loads(serialize_config(first)))
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
