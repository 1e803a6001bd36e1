import math
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from coil2coil.config import DEFAULTS, ConfigError, load_config, parse_config
from coil2coil.network import NetworkConfig
from coil2coil.train import TrainConfig


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == DEFAULTS

    def test_no_path_gives_fresh_copy(self):
        cfg = load_config(None)
        assert cfg == DEFAULTS
        cfg["training"]["epochs"] = 1
        assert DEFAULTS["training"]["epochs"] == 30

    def test_documented_defaults(self):
        assert DEFAULTS["network"]["depth"] == 6
        assert DEFAULTS["training"]["mode"] == "C2C"
        assert DEFAULTS["noise"]["sigma"] == 1.0


class TestParsing:
    def test_overrides_and_comments(self):
        text = """
        # run settings
        [training]
        epochs = 5          # short run
        whiten = false
        mode = N2N

        [noise]
        sigma = 0.5
        """
        cfg = parse_config(text)
        assert cfg["training"]["epochs"] == 5
        assert cfg["training"]["whiten"] is False
        assert cfg["training"]["mode"] == "N2N"
        assert cfg["noise"]["sigma"] == 0.5
        # untouched sections keep defaults
        assert cfg["network"] == DEFAULTS["network"]

    def test_bool_spellings(self):
        for raw, want in (("true", True), ("ON", True), ("0", False), ("no", False)):
            cfg = parse_config(f"[training]\nnormalize = {raw}\n")
            assert cfg["training"]["normalize"] is want

    def test_unknown_section_with_line_number(self):
        for section in ("nope", "evaluation"):
            with pytest.raises(ConfigError, match=r"line 2: unknown section"):
                parse_config(f"\n[{section}]\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match=r"line 3: unknown key 'bogus'"):
            parse_config("\n[training]\nbogus = 1\n")

    @pytest.mark.parametrize(
        "section, key",
        [
            ("phantom", "n_ellipses_min"),
            ("phantom", "n_ellipses_max"),
            ("phantom", "mask_threshold"),
            ("coils", "radius"),
            ("coils", "falloff"),
            ("coils", "use_phases"),
            ("training", "lr_decay"),
            ("network", "leaky_slope"),
            ("network", "bn_momentum"),
            ("network", "bn_eps"),
        ],
    )
    def test_settings_fixed_as_constants_are_unknown_keys(self, section, key):
        # the phantom family, coil ring, mask rule, lr decay, leaky slope and
        # batch-norm settings are module constants
        with pytest.raises(ConfigError, match=rf"line 3: unknown key '{key}'"):
            parse_config(f"[{section}]\n\n{key} = 1\n")

    def test_key_before_section(self):
        with pytest.raises(ConfigError, match="before any"):
            parse_config("epochs = 3\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("[training]\nepochs\n")

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="expected int"):
            parse_config("[training]\nepochs = many\n")
        with pytest.raises(ConfigError, match="expected float"):
            parse_config("[noise]\nsigma = loud\n")
        with pytest.raises(ConfigError, match="expected boolean"):
            parse_config("[training]\nwhiten = maybe\n")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("training", "validate_every", "-1"),
            ("training", "base_lr", "-0.5"),
            ("training", "base_lr", "0"),
            ("network", "depth", "1"),
            ("network", "features", "0"),
        ],
    )
    def test_out_of_range_values_are_refused_by_their_config(self, section, key, value):
        cfg = parse_config(f"[{section}]\n{key} = {value}\n")[section]
        if section == "training":
            cfg = {k: v for k, v in cfg.items() if k not in ("slices", "val_slices")}
        with pytest.raises(ValueError, match=key):
            (TrainConfig if section == "training" else NetworkConfig)(**cfg)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_floats_rejected(self, value):
        with pytest.raises(ConfigError, match="line 3: expected float"):
            parse_config(f"[training]\nepochs = 2\nbase_lr = {value}\n")

    def test_key_set_twice_names_both_lines(self):
        with pytest.raises(ConfigError, match=r"line 3: key 'epochs' in \[training\] already set on line 2"):
            parse_config("[training]\nepochs = 5\nepochs = 50\n")
        # a repeated section header does not reset what its keys were set to
        with pytest.raises(ConfigError, match=r"line 4: key 'epochs' in \[training\] already set on line 2"):
            parse_config("[training]\nepochs = 5\n[training]\nepochs = 7\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[phantom]\ngrid_size = 16\n")
        assert load_config(path)["phantom"]["grid_size"] == 16


_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-(10**6), 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "off", "C2C", "N2N", " 1e999 ", "9" * 5000]),
)
_LINES = st.one_of(
    st.sampled_from([*DEFAULTS, "bogus"]).map(lambda name: f"[{name}]"),
    st.tuples(st.sampled_from([key for keys in DEFAULTS.values() for key in keys]), _VALUES).map(
        lambda kv: f"{kv[0]} = {kv[1]}"
    ),
    st.tuples(st.sampled_from([(sec, key) for sec in DEFAULTS for key in DEFAULTS[sec]]), _VALUES).map(
        lambda kv: f"[{kv[0][0]}]\n{kv[0][1]} = {kv[1]}"
    ),
    # an integer key, most of them sizes, set to a large value under its section
    st.tuples(
        st.sampled_from([(sec, k) for sec, keys in DEFAULTS.items() for k, v in keys.items() if type(v) is int]),
        st.integers(0, 10**6),
    ).map(lambda kv: f"[{kv[0][0]}]\n{kv[0][1]} = {kv[1]}"),
    st.text(max_size=20),
)


# no shrink or explain phase: they replay near the memory bound's edge, where
# unrelated allocations decide it, and turn a real failure into FlakyFailure
@settings(max_examples=300, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(text=st.lists(_LINES, max_size=12).map("\n".join))
def test_parse_config_fuzz(text):
    # section headers, known keys with drawn values (alone or under their
    # own section), integer keys with large values and arbitrary lines:
    # the text parses to values of each
    # default's type, finite where they are floats, or raises ConfigError,
    # never another exception; either way it allocates no more than a few
    # copies of the text plus a constant, whatever size a value names
    tracemalloc.start()
    try:
        cfg = parse_config(text)
    except ConfigError:
        cfg = None
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak <= 4 * len(text) + (32 << 10)
    if cfg is None:
        return
    for section, keys in DEFAULTS.items():
        for key, default in keys.items():
            value = cfg[section][key]
            assert type(value) is type(default)
            assert not isinstance(value, float) or math.isfinite(value)


def test_readme_key_list_matches_defaults():
    # README's "The N keys, by section" bullets, less their parentheticals,
    # name every key of DEFAULTS under its section, and N counts them
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    found = re.search(r"The (\d+) keys, by section.*?\n\n(.*?)\n\n", readme, re.S)
    assert found, "README has no key list"
    listed = {}
    for bullet in found.group(2).split("\n- "):
        names = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", bullet))
        listed[names[0].strip("[]")] = names[1:]
    assert listed == {section: list(keys) for section, keys in DEFAULTS.items()}
    assert int(found.group(1)) == sum(map(len, DEFAULTS.values()))
