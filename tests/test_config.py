"""Config file parsing, defaults, validation, and environment overrides."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from cmpdp.config import ConfigError, RunConfig, config_from_values, load_config


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_empty_file_gives_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, ""), env={})
    assert cfg.lr == 0.001
    assert cfg.batch_size == 32
    assert cfg.total_epochs == 300
    assert cfg.rounds == 3
    assert cfg.head_layers == 4
    assert cfg.width == 32


def test_no_file_gives_defaults():
    assert load_config(None, env={}) == RunConfig()


def test_override_single_key(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "lr=0.01\n"), env={})
    assert cfg.lr == 0.01
    assert cfg.batch_size == 32


def test_comments_and_blanks(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "# comment\n\nseed=9  # trailing\n"), env={})
    assert cfg.seed == 9


def test_bool_parsing(tmp_path):
    assert load_config(write_cfg(tmp_path, "mixed=true\n"), env={}).mixed is True
    assert load_config(write_cfg(tmp_path, "mixed=0\n"), env={}).mixed is False
    with pytest.raises(ConfigError, match="mixed"):
        load_config(write_cfg(tmp_path, "mixed=maybe\n"), env={})


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="momentum"):
        load_config(write_cfg(tmp_path, "momentum=0.9\n"), env={})
    for key in ("drop_ties", "cross_pairs"):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_config(write_cfg(tmp_path, f"{key}=true\n"), env={})
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_config(None, env={f"CMPDP_{key.upper()}": "true"})


def test_invalid_value_names_key(tmp_path):
    with pytest.raises(ConfigError, match="batch_size"):
        load_config(write_cfg(tmp_path, "batch_size=-1\n"), env={})
    with pytest.raises(ConfigError, match="batch_size"):
        load_config(write_cfg(tmp_path, "batch_size=huge\n"), env={})


@pytest.mark.parametrize("key", ["lr", "local_search_seconds"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_names_key(tmp_path, key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        load_config(write_cfg(tmp_path, f"{key}={value}\n"), env={})
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        load_config(None, env={f"CMPDP_{key.upper()}": value})
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        load_config(None, env={}, flags={key: float(value)})


def test_missing_equals_reports_line(tmp_path):
    with pytest.raises(ConfigError, match="line 2"):
        load_config(write_cfg(tmp_path, "lr=0.1\njust words\n"), env={})


def test_env_overrides_file(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "lr=0.01\n"), env={"CMPDP_LR": "0.05"})
    assert cfg.lr == 0.05


def test_env_alone():
    cfg = load_config(None, env={"CMPDP_WIDTH": "16", "UNRELATED": "x"})
    assert cfg.width == 16


def test_env_unknown_key_rejected():
    with pytest.raises(ConfigError, match="whatever"):
        load_config(None, env={"CMPDP_WHATEVER": "1"})


def test_eval_knobs(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "exact_budget=500\nlocal_search_moves=10\n"), env={})
    assert cfg.exact_budget == 500
    assert cfg.local_search_moves == 10
    with pytest.raises(ConfigError, match="exact_budget"):
        load_config(write_cfg(tmp_path, "exact_budget=0\n"), env={})


def test_readme_table_matches_run_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    table = dict(re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section, flags=re.MULTILINE))
    assert set(table) == {f.name for f in fields(RunConfig)}
    assert config_from_values(table) == RunConfig()


def test_flags_replace_invalid_lower_layers(tmp_path):
    path = write_cfg(tmp_path, "batch_size=0\nlr=0.5\n")
    cfg = load_config(path, env={"CMPDP_BATCH_SIZE": "huge"}, flags={"batch_size": 8})
    assert cfg.batch_size == 8
    assert cfg.lr == 0.5


def test_invalid_flag_value_names_key():
    with pytest.raises(ConfigError, match="batch_size"):
        load_config(None, env={"CMPDP_BATCH_SIZE": "8"}, flags={"batch_size": 0})


def test_unknown_flag_key_rejected():
    with pytest.raises(ConfigError, match="momentum"):
        load_config(None, env={}, flags={"momentum": 0.9})
