import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from advisc.config import (
    _SECTIONS,
    ConfigError,
    ExperimentConfig,
    OutputSettings,
    TrainingSettings,
    config_from_dict,
    config_to_dict,
    load_config,
    parse_config_text,
)
from advisc.grid import PROFILES, InitialCondition
from advisc.optimizer import OptimizerConfig
from advisc.presets import preset_config
from advisc.runio import (
    _CHUNK_VALUES,
    CorruptRunError,
    _csv_blocks,
    _csv_matches,
    matrix_header,
    read_columns_csv,
    read_manifest,
    write_columns_csv,
    write_json,
)
from advisc.schemes import SCHEME_NAMES

from oracles import reference_write_columns_csv

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

# FULL_CONFIG as a plain run: upwind, without [training].
PLAIN_CONFIG = (FULL_CONFIG[:FULL_CONFIG.index("[training]")]
                + FULL_CONFIG[FULL_CONFIG.index("[output]"):]).replace("ftcs_mu", "upwind")


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
        cfg = parse_config_text(PLAIN_CONFIG.replace("t_final = 0.15", "t_final = 0.0"))
        assert cfg.n_steps == 0

    def test_default_config_is_a_plain_run(self):
        assert ExperimentConfig().scheme == "upwind"

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
        # JSON reads Infinity, which no int() converts
        {**json.loads(PAPER_HAT_ECHO),
         "simulation": {**json.loads(PAPER_HAT_ECHO)["simulation"], "n_cells": float("inf")}},
        {**json.loads(PAPER_HAT_ECHO),
         "initial_condition": {"kind": "sine", "wavenumber": float("inf")}},
    ], ids=["simulation_not_a_mapping", "training_not_a_mapping", "ic_not_a_mapping",
            "deleted_training_key", "deleted_output_key", "n_cells_inf", "sine_wavenumber_inf"])
    def test_malformed_echo_raises_config_error(self, echo):
        with pytest.raises(ConfigError):
            config_from_dict(echo)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    """Valid configs drawing every key of every section. An ftcs_mu config
    draws either ``mu`` or the whole [training] section; other schemes have
    neither."""
    scheme = draw(st.sampled_from(SCHEME_NAMES))
    length = draw(_finite(1e-3, 1e3))
    lo, hi = sorted(draw(st.lists(_finite(0.0, length), min_size=2, max_size=2, unique=True)))
    dt = draw(_finite(1e-6, 1.0))
    mu = training = None
    if scheme == "ftcs_mu" and draw(st.booleans()):
        mu = draw(_finite(-1.0, 1.0))
    elif scheme == "ftcs_mu":
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
            t_final=dt * draw(st.integers(0 if training is None else 1, 10**4)),
            mu=mu,
            ic=InitialCondition(
                kind=draw(st.sampled_from(list(PROFILES))),
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
        write_columns_csv(path, "i,value", [np.arange(len(values)), values])
        assert np.array_equal(read_columns_csv(path, "i,value")[:, 1], values)

    def test_matrix_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        times = np.arange(6) * 1e-3
        matrix = rng.standard_normal((6, 9))
        path = tmp_path / "m.csv"
        write_columns_csv(path, matrix_header(9), [times, matrix])
        data = read_columns_csv(path, matrix_header(9))
        times2, matrix2 = data[:, 0], data[:, 1:]
        assert np.array_equal(times, times2)
        assert np.array_equal(matrix, matrix2)

    def test_matrix_header_format(self, tmp_path):
        path = tmp_path / "m.csv"
        write_columns_csv(path, matrix_header(3), [np.zeros((1, 4))])
        header = path.read_text().splitlines()[0]
        assert header == "t\\x,x0,x1,x2"

    def test_series_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        xs = np.array([0.0, 0.5, 1.0])
        ys = np.array([1 / 3, 2 / 3, 1.0])
        write_columns_csv(path, "t,entropy", [xs, ys])
        header = path.read_text().splitlines()[0]
        assert header == "t,entropy"
        xs2, ys2 = read_columns_csv(path, "t,entropy").T
        assert np.array_equal(xs, xs2)
        assert np.array_equal(ys, ys2)

    @pytest.mark.parametrize("body, rows", [
        ("1,2\n3,4\n", [[1, 2], [3, 4]]),
        ("1,2\n3,4", [[1, 2], [3, 4]]),
        ("1,2\n\n\n3,4\n\n", [[1, 2], [3, 4]]),
        ("1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
        ("1,2\r3,4\r", [[1, 2], [3, 4]]),
        ("", []),
        ("\n\n", []),
    ], ids=["plain", "unterminated", "blank_lines", "crlf", "cr", "header_only", "only_blank"])
    def test_reader_reads_every_row_whatever_the_line_breaks(self, tmp_path, body, rows):
        path = tmp_path / "s.csv"
        path.write_bytes(b"a,b\n" + body.encode())
        data = read_columns_csv(path, "a,b")
        assert data.shape == (len(rows), 2) and data.tolist() == rows

    def test_reader_rejects_a_last_line_of_spaces(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n1,2\n3,4\n   \n")
        with pytest.raises(CorruptRunError):
            read_columns_csv(path, "a,b")

    def test_matrix_reader_rejects_other_files(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_columns_csv(path, matrix_header(1))

    def test_reader_names_the_header_it_wanted(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_columns_csv(path, matrix_header(49), [np.zeros((1, 50))])
        with pytest.raises(CorruptRunError) as wide:
            read_columns_csv(path, matrix_header(50))
        assert str(wide.value).endswith("does not have the header t\\x,x0,x1,...,x49")
        with pytest.raises(CorruptRunError) as narrow:
            read_columns_csv(path, "x,u,exact,error")
        assert str(narrow.value).endswith("does not have the header x,u,exact,error")


def powers_of_ten_and_neighbours(exponents, ulps: int) -> np.ndarray:
    """10**j and the ``ulps`` doubles on each side of it, for each j, both signs."""
    values = []
    for j in exponents:
        below = above = float(f"1e{j}")
        values.append(above)
        for _ in range(ulps):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            values += [below, above]
    values = np.array(values)
    return np.concatenate((values, -values))


def hat_like_rows(n_rows: int, n_cols: int, seed: int = 0) -> np.ndarray:
    """Rows like the states of a hat run: values of order one printed from
    their 17 digits, tails below 1e-4 that ``%`` prints, runs of exact zeros
    and negative values, at a different place in each row, so that every
    kind of value straddles the edges of the writer's blocks."""
    rng = np.random.default_rng(seed)
    x = (np.arange(n_cols) + 0.5) / n_cols
    distance = np.abs((x - rng.random((n_rows, 1)) + 0.5) % 1.0 - 0.5)
    rows = np.exp(-((distance / 0.04) ** 2)) * (1.0 + 0.1 * np.sin(40.0 * x))
    rows[distance > 0.3] = 0.0
    rows[:, ::5] *= -1.0
    return rows


class TestCsvFormat:
    """The writer prints every value exactly as ``'%.17g' %`` does: its bytes
    equal those of the reference writer, which formats each row of the
    stacked columns with ``%``."""

    @staticmethod
    def assert_same_bytes(tmp_path, header, columns):
        write_columns_csv(tmp_path / "kernel.csv", header, columns)
        reference_write_columns_csv(tmp_path / "reference.csv", header, np.column_stack(columns))
        got = (tmp_path / "kernel.csv").read_bytes()
        want = (tmp_path / "reference.csv").read_bytes()
        if got != want:
            diff = next(i for i, (a, b) in enumerate(zip(got.split(b"\n"), want.split(b"\n")))
                        if a != b)
            pairs = zip(got.split(b"\n")[diff].split(b","), want.split(b"\n")[diff].split(b","))
            raise AssertionError(f"line {diff}: {next(p for p in pairs if p[0] != p[1])}")

    def assert_values_formatted(self, tmp_path, values, n_cols=10):
        values = np.asarray(values, dtype=float)
        values = np.concatenate((values, np.zeros(-len(values) % n_cols)))
        self.assert_same_bytes(tmp_path, ",".join(f"c{i}" for i in range(n_cols)),
                               [values.reshape(-1, n_cols)])

    def test_random_bit_patterns_over_the_whole_double_range(self, tmp_path):
        rng = np.random.default_rng(18)
        patterns = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                    2.2250738585072014e-308, -2.2250738585072009e-308, 1.7976931348623157e308]
        values = np.concatenate((patterns.view(np.float64), specials))
        a = np.abs(values)
        assert np.sum(~np.isfinite(values)) > 100 and np.sum((a > 0) & (a < 2.3e-308)) > 100
        self.assert_values_formatted(tmp_path, values, n_cols=1000)

    def test_random_values_inside_the_fixed_point_window(self, tmp_path):
        rng = np.random.default_rng(7)
        magnitudes = 10.0 ** rng.uniform(-4, 15, 200_000)
        self.assert_values_formatted(tmp_path, magnitudes * rng.choice([-1.0, 1.0], 200_000))

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        self.assert_values_formatted(tmp_path, powers_of_ten_and_neighbours(range(-6, 19), 8))

    def test_edges_of_the_fixed_point_window(self, tmp_path):
        values = []
        for edge in (1e-4, 1e15):
            below = above = edge
            for _ in range(64):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                values += [below, above]
        values += [9.9999999999999995e-05, 0.000099999999999999991, 999999999999999.88,
                   999999999999999.94, 1e15 - 0.5, 0.00010000000000000001]
        values = np.array(values + [1e-4, 1e15])
        self.assert_values_formatted(tmp_path, np.concatenate((values, -values)))

    def test_exact_ties_round_half_to_even(self, tmp_path):
        """x = w / 2**(k + 1) with w odd puts x * 10**k, k = 16 - D, exactly
        halfway between two integers."""
        rng = np.random.default_rng(3)
        ties = []
        for d in range(-4, 15):
            k = 16 - d
            lo, hi = int(10.0**d * 2 ** (k + 1)), int(10.0 ** (d + 1) * 2 ** (k + 1))
            w = 2 * rng.integers(lo // 2, hi // 2, 500) + 1
            x = w / 2.0 ** (k + 1)
            x = x[(x >= 10.0**d) & (x < 10.0 ** (d + 1))]
            assert np.all(x * 2.0 ** (k + 1) == w)  # exact: each x is w / 2**(k + 1)
            ties.append(x)
        ties = np.concatenate(ties)
        assert len(ties) > 8000
        self.assert_values_formatted(tmp_path, np.concatenate((ties, -ties)))

    def test_integer_valued_floats_and_an_integer_index_column(self, tmp_path):
        integers = np.concatenate((np.arange(-10**4, 10**4), 10.0 ** np.arange(16),
                                   2.0 ** np.arange(60), [2.0**53 - 1, 2.0**53 + 2]))
        self.assert_values_formatted(tmp_path, integers)
        losses = np.random.default_rng(1).random(2500)
        self.assert_same_bytes(tmp_path, "iter,loss", [np.arange(len(losses)), losses])

    def test_rows_that_span_several_chunks(self, tmp_path):
        n_cols = 2 * _CHUNK_VALUES + 3
        rows = np.random.default_rng(2).standard_normal((5, n_cols))
        rows[1, ::7] = 0.0
        rows[2, 5:_CHUNK_VALUES + 9] = 1e-30
        rows[3] = 0.0  # a block with no value the kernel formats itself
        self.assert_same_bytes(tmp_path, matrix_header(n_cols - 1), [rows])

    @pytest.mark.parametrize("n_cols", [1001, _CHUNK_VALUES + 1, 3 * _CHUNK_VALUES // 2])
    def test_hat_like_rows_across_chunk_edges(self, tmp_path, n_cols):
        rows = hat_like_rows(7, n_cols)
        assert np.any((rows != 0) & (np.abs(rows) < 1e-4)) and np.any(rows == 0)
        self.assert_same_bytes(tmp_path, matrix_header(n_cols - 1), [rows])

    def test_value_kinds_that_change_at_chunk_edges(self, tmp_path):
        """Each block, four rows of 1024 values, holds one kind of value: all
        inside the fixed-point window, none, half, or just under half. Every
        block formats all of its values by the fixed-point path, and then
        overwrites the slots of those outside the window."""
        rng = np.random.default_rng(5)
        size = _CHUNK_VALUES
        ordinary = rng.uniform(0.5, 2.0, size) * rng.choice([-1.0, 1.0], size)
        tiny = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, -4.5, size)
        half = np.where(np.arange(size) % 2 == 0, ordinary, tiny)
        under_half = half.copy()
        under_half[0] = 0.0
        chunks = [np.zeros(size), tiny, half, under_half, ordinary, -ordinary[::-1]]
        self.assert_values_formatted(tmp_path, np.concatenate(chunks), n_cols=1024)

    def test_header_only_file(self, tmp_path):
        self.assert_same_bytes(tmp_path, "t,entropy", [np.empty(0), np.empty(0)])
        assert (tmp_path / "kernel.csv").read_bytes() == b"t,entropy\n"

    def test_columns_of_unequal_length_or_another_width_raise(self, tmp_path):
        unequal = [[np.zeros(3), np.zeros(2)], [np.zeros((3, 1)), np.zeros(4)]]
        too_wide_or_narrow = [[np.zeros((3, 3))], [np.zeros(3)], [np.zeros(3)] * 3]
        for columns in unequal + too_wide_or_narrow:
            with pytest.raises(ValueError):
                write_columns_csv(tmp_path / "bad.csv", "a,b", columns)
            assert not (tmp_path / "bad.csv").exists()


def flip_byte(text: bytes, i: int) -> bytes:
    return text[:i] + bytes([text[i] ^ 1]) + text[i + 1:]


class TestCsvComparator:
    """``_csv_matches`` accepts exactly the bytes the writer writes for the
    columns: it reads the file block by block, as the writer writes it."""

    # 5000 rows of "i,value" are a header block and blocks of 2048, 2048 and
    # 904 rows; ends[k] is where block k ends, so ends[1] ends the first rows.
    EDITS = {
        "first_byte_of_a_block": lambda text, ends: flip_byte(text, ends[1]),
        "last_byte_of_a_block": lambda text, ends: flip_byte(text, ends[1] - 1),
        "extra_trailing_byte": lambda text, ends: text + b"\n",
        "no_final_newline": lambda text, ends: text[:-1],
        "shorter": lambda text, ends: text[:ends[2]],
        "one_half_as_0.50": lambda text, ends: text.replace(b"\n100,0.5\n", b"\n100,0.50\n"),
    }

    @pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS)
    def test_any_other_bytes_do_not_match(self, tmp_path, edit):
        values = np.random.default_rng(4).standard_normal(5000)
        values[100] = 0.5
        columns = [np.arange(len(values)), values]
        path = tmp_path / "s.csv"
        write_columns_csv(path, "i,value", columns)
        assert _csv_matches(path, "i,value", columns)
        ends = np.cumsum([len(block) for block in _csv_blocks(path, "i,value", columns)])
        assert len(ends) == 4 and ends[-1] == path.stat().st_size
        text = path.read_bytes()
        edited = edit(text, ends)
        assert edited != text
        path.write_bytes(edited)
        assert not _csv_matches(path, "i,value", columns)


class TestWriterMemory:
    """The writer holds one block of values, their slots and the formatter's
    arrays, whatever the length of the file: at most _CHUNK_VALUES values,
    or one row where a row is wider."""

    @staticmethod
    def traced_peak(path, matrix) -> int:
        """Peak traced memory of writing the columns of ``matrix``; the matrix
        and its header exist before tracing starts, so the peak leaves them
        out."""
        header = matrix_header(matrix.shape[1] - 1)
        tracemalloc.start()
        try:
            write_columns_csv(path, header, [matrix])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_scratch_is_a_fixed_multiple_of_the_chunk(self, tmp_path):
        # a row wider than the chunk is formatted alone: the block is that row
        for n_cols in (2001, 3 * _CHUNK_VALUES + 5):
            peaks = []
            for n_rows in (20, 80):
                rows = hat_like_rows(n_rows, n_cols)
                rows[::2, 1:] = np.sin(np.linspace(0.0, 7.0, n_cols - 1))  # the fast path
                peaks.append(self.traced_peak(tmp_path / "m.csv", rows))
            assert abs(peaks[1] - peaks[0]) <= 0.02 * peaks[0], (n_cols, peaks)
            block_bytes = max(_CHUNK_VALUES, n_cols) * 8
            assert max(peaks) < 14 * block_bytes, f"{max(peaks) / block_bytes:.1f} blocks of doubles"


class TestManifest:
    def test_write_and_read(self, tmp_path):
        payload = {"status": "ok", "files": [{"name": "x.csv", "role": "solution"}]}
        write_json(tmp_path / "manifest.json", payload)
        assert read_manifest(tmp_path) == payload
        assert not (tmp_path / "manifest.json.tmp").exists()

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_manifest(tmp_path)

    def test_non_finite_floats_written_as_names(self, tmp_path):
        payload = {"stats": {"a": float("inf"), "b": -np.inf, "c": np.float64("nan"), "d": 0.5},
                   "rows": [1.0, float("-inf")], "pair": (2, float("inf"))}
        write_json(tmp_path / "manifest.json", payload)
        write_json(tmp_path / "summary.json", payload)
        for path in (tmp_path / "manifest.json", tmp_path / "summary.json"):
            def reject(name):
                raise AssertionError(f"non-strict constant {name} in {path.name}")
            stored = json.loads(path.read_text(), parse_constant=reject)
            assert stored == {"stats": {"a": "inf", "b": "-inf", "c": "nan", "d": 0.5},
                              "rows": [1.0, "-inf"], "pair": [2, "inf"]}
