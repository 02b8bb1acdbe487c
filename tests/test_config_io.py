import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from advisc.config import (
    _SECTIONS,
    ConfigError,
    ExperimentConfig,
    InitialCondition,
    OutputSettings,
    TrainingSettings,
    config_from_dict,
    config_to_dict,
    load_config,
    parse_config_text,
)
from advisc.optimizer import OptimizerConfig
from advisc.presets import preset_config
from advisc.runio import (
    read_manifest,
    read_matrix_csv,
    read_series_csv,
    write_manifest,
    write_matrix_csv,
    write_series_csv,
)
from advisc.schemes import SCHEME_NAMES

FULL_CONFIG = """
[simulation]
scheme = ftcs_mu
n_cells = 100
length = 1.0
c = 1.0
dt = 0.001
t_final = 0.15

[initial_condition]
kind = hat
lo = 0.4
hi = 0.6
amplitude = 1.0

[training]
mode = per_step
learning_rate = 0.01
n_iters = 200
mu_min = -0.005
mu_max = 0.095

[output]
directory = out
"""


class TestConfigParsing:
    def test_full_config_round_trip(self):
        cfg = parse_config_text(FULL_CONFIG)
        assert cfg.scheme == "ftcs_mu"
        assert cfg.n_cells == 100
        assert cfg.n_steps == 150
        assert cfg.ic.kind == "hat"
        assert cfg.training.mode == "per_step"
        assert cfg.training.optimizer.mu_min == -0.005
        assert cfg.output.directory == "out"

    def test_unknown_key_rejected(self):
        bad = FULL_CONFIG.replace("n_iters = 200", "n_itters = 200")
        with pytest.raises(ConfigError, match="n_itters"):
            parse_config_text(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="plotting"):
            parse_config_text(FULL_CONFIG + "\n[plotting]\nstyle = fancy\n")

    def test_missing_required_section(self):
        with pytest.raises(ConfigError, match="simulation"):
            parse_config_text("[output]\ndirectory = out\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="t_final"):
            parse_config_text(
                "[simulation]\nscheme = upwind\nn_cells = 10\nlength = 1.0\nc = 1.0\n"
                "dt = 0.001\n\n[output]\ndirectory = out\n"
            )

    def test_fractional_step_count_rejected(self):
        bad = FULL_CONFIG.replace("t_final = 0.15", "t_final = 0.1505")
        with pytest.raises(ConfigError, match="whole number"):
            parse_config_text(bad)

    def test_zero_t_final_allowed(self):
        cfg = parse_config_text(FULL_CONFIG.replace("t_final = 0.15", "t_final = 0.0"))
        assert cfg.n_steps == 0

    def test_bad_scheme_rejected(self):
        bad = FULL_CONFIG.replace("scheme = ftcs_mu", "scheme = spectral")
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_bad_value_type_rejected(self):
        bad = FULL_CONFIG.replace("n_cells = 100", "n_cells = many")
        with pytest.raises(ConfigError, match="n_cells"):
            parse_config_text(bad)

    def test_inline_comments_allowed(self):
        cfg = parse_config_text(FULL_CONFIG.replace("dt = 0.001", "dt = 0.001  # step"))
        assert cfg.dt == 0.001

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_sine_config(self):
        text = FULL_CONFIG.replace("kind = hat", "kind = sine").replace(
            "lo = 0.4\nhi = 0.6\namplitude = 1.0", "wavenumber = 2\namplitude = 0.5"
        )
        cfg = parse_config_text(text)
        assert cfg.ic.kind == "sine"
        assert cfg.ic.wavenumber == 2


class TestSchema:
    def test_sections_hold_the_eighteen_keys(self):
        assert {section: list(keys) for section, keys in _SECTIONS.items()} == {
            "simulation": ["scheme", "n_cells", "length", "c", "dt", "t_final", "mu"],
            "initial_condition": ["kind", "lo", "hi", "amplitude", "wavenumber"],
            "output": ["directory"],
            "training": ["mode", "learning_rate", "n_iters", "mu_min", "mu_max"],
        }


class TestConfigDictRoundTrip:
    def test_round_trip_with_training(self):
        cfg = parse_config_text(FULL_CONFIG)
        rebuilt = config_from_dict(config_to_dict(cfg))
        assert rebuilt == cfg

    def test_round_trip_plain_run(self):
        cfg = ExperimentConfig(
            scheme="upwind",
            n_cells=50,
            length=2.0,
            c=-1.0,
            dt=1e-3,
            t_final=0.05,
            ic=InitialCondition(kind="sine", wavenumber=3),
            output=OutputSettings(directory="x"),
        )
        rebuilt = config_from_dict(config_to_dict(cfg))
        assert rebuilt == cfg


# The config block of manifest.json for paper-hat.
PAPER_HAT_ECHO = """
{
  "initial_condition": {
    "amplitude": 1.0,
    "hi": 0.6,
    "kind": "hat",
    "lo": 0.4,
    "wavenumber": 1
  },
  "output": {
    "directory": "out"
  },
  "simulation": {
    "c": 1.0,
    "dt": 0.001,
    "length": 1.0,
    "n_cells": 100,
    "scheme": "ftcs_mu",
    "t_final": 0.15
  },
  "training": {
    "learning_rate": 0.01,
    "mode": "per_step",
    "mu_max": 0.095,
    "mu_min": -0.005,
    "n_iters": 200
  }
}
"""


class TestManifestEcho:
    def test_paper_hat_echo_format_pinned(self):
        echo = json.loads(PAPER_HAT_ECHO)
        assert config_to_dict(preset_config("paper-hat")) == echo
        assert config_from_dict(echo) == preset_config("paper-hat")

    @pytest.mark.parametrize("echo", [
        {"simulation": 5, "output": {"directory": "out"}},
        {**json.loads(PAPER_HAT_ECHO), "training": 5},
        {**json.loads(PAPER_HAT_ECHO), "initial_condition": ["hat"]},
        # the echo of a run written before these keys were deleted
        {**json.loads(PAPER_HAT_ECHO),
         "training": {**json.loads(PAPER_HAT_ECHO)["training"], "seed": 0}},
        {**json.loads(PAPER_HAT_ECHO), "output": {"directory": "out", "write_mu": True}},
    ], ids=["simulation_not_a_mapping", "training_not_a_mapping", "ic_not_a_mapping",
            "deleted_training_key", "deleted_output_key"])
    def test_malformed_echo_raises_config_error(self, echo):
        with pytest.raises(ConfigError):
            config_from_dict(echo)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    """Valid configs drawing every key of every section; ``mu`` and the whole
    [training] section are set or left unset."""
    scheme = draw(st.sampled_from(SCHEME_NAMES))
    length = draw(_finite(1e-3, 1e3))
    lo, hi = sorted(draw(st.lists(_finite(0.0, length), min_size=2, max_size=2, unique=True)))
    dt = draw(_finite(1e-6, 1.0))
    training = None
    if draw(st.booleans()):
        mu_min, mu_max = sorted(draw(st.lists(_finite(-1.0, 1.0), min_size=2, max_size=2)))
        training = TrainingSettings(
            mode=draw(st.sampled_from(["per_step", "global"])),
            optimizer=OptimizerConfig(
                learning_rate=draw(_finite(1e-6, 1e3)),
                n_iters=draw(st.integers(1, 10**4)),
                mu_min=mu_min,
                mu_max=mu_max,
            ),
        )
    try:
        return ExperimentConfig(
            scheme=scheme,
            n_cells=draw(st.integers(3, 10**6)),
            length=length,
            c=draw(_finite(-1e3, 1e3)),
            dt=dt,
            t_final=dt * draw(st.integers(0, 10**4)),
            mu=draw(st.none() | _finite(-1.0, 1.0)) if scheme == "ftcs_mu" else None,
            ic=InitialCondition(
                kind=draw(st.sampled_from(["hat", "sine"])),
                lo=lo,
                hi=hi,
                amplitude=draw(_finite(-1e3, 1e3)),
                wavenumber=draw(st.integers(1, 50)),
            ),
            training=training,
            output=OutputSettings(
                directory=draw(st.text("abcxyz0189_-./", min_size=1, max_size=20)),
            ),
        )
    except ConfigError:
        assume(False)  # t_final/dt rounded off a whole number of steps


def to_ini(echo: dict) -> str:
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in values.items()
                                   if value is not None)
        for section, values in echo.items()
    )


class TestConfigSchemaProperties:
    @settings(max_examples=50, deadline=None)
    @given(valid_configs())
    def test_ini_round_trip(self, cfg):
        assert parse_config_text(to_ini(config_to_dict(cfg))) == cfg

    @settings(max_examples=50, deadline=None)
    @given(valid_configs())
    def test_manifest_echo_round_trip(self, cfg):
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @settings(max_examples=50, deadline=None)
    @given(valid_configs(), st.data())
    def test_extra_key_rejected(self, cfg, data):
        echo = config_to_dict(cfg)
        section = data.draw(st.sampled_from(sorted(echo)))
        key = data.draw(st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True).filter(
            lambda k: k not in echo[section] and k != "mu"))
        echo[section][key] = 1
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config_text(to_ini(echo))
        with pytest.raises(ConfigError, match=f"'{key}'"):
            config_from_dict(echo)


class TestCsvRoundTrip:
    def test_seventeen_digit_format_round_trips(self, tmp_path):
        values = np.array([1 / 3, np.pi, 0.1, -7.25e-13, 1e18])
        path = tmp_path / "s.csv"
        write_series_csv(path, "i", "value", np.arange(len(values)), values)
        assert np.array_equal(read_series_csv(path)[1], values)

    def test_matrix_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        times = np.arange(6) * 1e-3
        matrix = rng.standard_normal((6, 9))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, times, matrix)
        times2, matrix2 = read_matrix_csv(path)
        assert np.array_equal(times, times2)
        assert np.array_equal(matrix, matrix2)

    def test_matrix_header_format(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.array([0.0]), np.zeros((1, 3)))
        header = path.read_text().splitlines()[0]
        assert header == "t\\x,x0,x1,x2"

    def test_series_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        xs = np.array([0.0, 0.5, 1.0])
        ys = np.array([1 / 3, 2 / 3, 1.0])
        write_series_csv(path, "t", "entropy", xs, ys)
        header = path.read_text().splitlines()[0]
        assert header == "t,entropy"
        xs2, ys2 = read_series_csv(path)
        assert np.array_equal(xs, xs2)
        assert np.array_equal(ys, ys2)

    def test_matrix_reader_rejects_other_files(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)


class TestManifest:
    def test_write_and_read(self, tmp_path):
        payload = {"status": "ok", "files": [{"name": "x.csv", "role": "solution"}]}
        write_manifest(tmp_path, payload)
        assert read_manifest(tmp_path) == payload
        assert not (tmp_path / "manifest.json.tmp").exists()

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_manifest(tmp_path)
