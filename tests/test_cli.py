"""End-to-end CLI runs through run_cli, and a few through a separate
process where a crash or a hang must show as such."""

import csv
import importlib
import os
import pkgutil
import resource
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cmpdp
from cmpdp import cli
from cmpdp.cli import CliUsageError, run_cli
from cmpdp.graphio import parse_solution, read_graph_file, write_graph_file
from cmpdp.generators import GenSpec, generate
from cmpdp.graph import is_independent_set, is_vertex_cover
from cmpdp.net import NonFiniteError, init_params, load_params, save_params

from helpers import HOSTILE_GEOMETRIES, hostile_header


@pytest.fixture()
def tiny_dataset(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for i in range(4):
        write_graph_file(generate(GenSpec("er", n=10, p=0.3, seed=i)), data / f"g{i}.col")
    return data


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "one.col"
    write_graph_file(generate(GenSpec("er", n=9, p=0.4, seed=5)), path)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_help_exits_zero():
    assert run_cli(["--help"]) == 0


def test_readme_command_lines_parse():
    # every command line the README shows parses; none runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("cmpdp ")]
    assert len(lines) == 8
    parser = cli._build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_no_command_is_usage_error():
    assert run_cli([]) == 1


def test_unknown_flag_is_usage_error():
    assert run_cli(["solve", "--nope"]) == 1


def test_gen_writes_dataset(tmp_path):
    out = tmp_path / "gen"
    rc = run_cli(
        ["gen", "--model", "er", "--count", "3", "--n-min", "8", "--n-max", "12",
         "--p", "0.3", "--seed", "1", "--out-dir", str(out)]
    )
    assert rc == 0
    files = sorted(out.glob("*.col"))
    assert len(files) == 3
    for f in files:
        g = read_graph_file(f)
        assert 8 <= g.n <= 12


def test_gen_special(tmp_path):
    out = tmp_path / "sp"
    rc = run_cli(
        ["gen", "--model", "special", "--count", "1", "--n", "5", "--surplus", "2",
         "--seed", "0", "--out-dir", str(out)]
    )
    assert rc == 0
    assert read_graph_file(next(out.glob("*.col"))).n == 14


def test_gen_needs_size_bounds(tmp_path):
    assert run_cli(["gen", "--model", "er", "--p", "0.3", "--out-dir", str(tmp_path)]) == 1


def test_gen_missing_model_param_is_usage_error(tmp_path):
    rc = run_cli(["gen", "--model", "ba", "--n", "10", "--out-dir", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gen_count_below_one_is_usage_error(tmp_path, count, capsys):
    out = tmp_path / "gen"
    rc = run_cli(["gen", "--model", "er", "--count", count, "--n", "8", "--p", "0.3",
                  "--out-dir", str(out)])
    assert rc == 1
    assert "--count" in capsys.readouterr().err
    assert not out.exists()


def test_solve_greedy_writes_valid_solution(graph_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    rc = run_cli(
        ["solve", "--graph", str(graph_file), "--method", "greedy", "--problem", "mis",
         "--out", str(sol)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("size ")
    g = read_graph_file(graph_file)
    members = parse_solution(sol.read_text())
    assert is_independent_set(g, members)
    assert len(members) == int(out.split()[1])


def test_solve_mvc_exact(graph_file, tmp_path):
    sol = tmp_path / "cover.txt"
    rc = run_cli(
        ["solve", "--graph", str(graph_file), "--method", "exact", "--problem", "mvc",
         "--out", str(sol)]
    )
    assert rc == 0
    g = read_graph_file(graph_file)
    assert is_vertex_cover(g, parse_solution(sol.read_text()))


def test_solve_with_weights(graph_file, tmp_path):
    wpath = tmp_path / "w.cmp"
    save_params(init_params(2, 4, 3, seed=0), wpath)
    rc = run_cli(
        ["solve", "--graph", str(graph_file), "--method", "cmp", "--problem", "mis",
         "--weights", str(wpath), "--rollouts", "2"]
    )
    assert rc == 0


@pytest.mark.parametrize("geometry", HOSTILE_GEOMETRIES)
def test_solve_hostile_weight_header_is_runtime_error(graph_file, tmp_path, geometry, capsys):
    wpath = tmp_path / "hostile.cmp"
    wpath.write_bytes(hostile_header(geometry))
    rc = run_cli(["solve", "--graph", str(graph_file), "--method", "cmp", "--problem", "mis",
                  "--weights", str(wpath)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: expected ")


def test_solve_non_finite_weights_is_runtime_error(graph_file, tmp_path, capsys):
    params = init_params(2, 4, 3, seed=0)
    params.flat[7] = float("nan")
    wpath = tmp_path / "nan.cmp"
    save_params(params, wpath)
    rc = run_cli(["solve", "--graph", str(graph_file), "--method", "cmp", "--problem", "mis",
                  "--weights", str(wpath)])
    assert rc == 2
    assert capsys.readouterr().err == "error: weight file holds a non-finite value\n"


def test_solve_default_solution_path(graph_file):
    rc = run_cli(["solve", "--graph", str(graph_file), "--method", "greedy",
                  "--problem", "mis"])
    assert rc == 0
    default = graph_file.with_suffix(".sol")
    assert default.exists()
    g = read_graph_file(graph_file)
    assert is_independent_set(g, parse_solution(default.read_text()))


def test_solve_missing_graph_is_runtime_error(tmp_path):
    rc = run_cli(["solve", "--graph", str(tmp_path / "nope.col"), "--method", "greedy",
                  "--problem", "mis"])
    assert rc == 2


def test_solve_huge_vertex_count_is_runtime_error(tmp_path, capsys):
    gpath = tmp_path / "huge.col"
    gpath.write_text("p edge 300000000 0\n")
    rc = run_cli(["solve", "--graph", str(gpath), "--method", "greedy", "--problem", "mis"])
    assert rc == 2
    assert "exceed the limit" in capsys.readouterr().err


def test_eval_empty_dataset_dir_is_usage_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = run_cli(["eval", "--dataset", str(empty), "--methods", "greedy",
                  "--problem", "mis", "--out", str(tmp_path / "r.csv")])
    assert rc == 1


def test_eval_writes_rows_and_summary(tiny_dataset, tmp_path):
    out = tmp_path / "report.csv"
    rc = run_cli(
        ["eval", "--dataset", str(tiny_dataset), "--methods", "greedy,random-cmp",
         "--problem", "mis", "--out", str(out), "--seed", "3", "--rollouts", "2"]
    )
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 8  # 4 graphs x 2 methods
    assert {r["method"] for r in rows} == {"greedy", "random-cmp"}
    summary = read_csv(tmp_path / "report.summary.csv")
    assert {r["method"] for r in summary} == {"greedy", "random-cmp"}


def test_eval_unknown_method_is_usage_error(tiny_dataset, tmp_path):
    rc = run_cli(["eval", "--dataset", str(tiny_dataset), "--methods", "sorcery",
                  "--problem", "mis", "--out", str(tmp_path / "r.csv")])
    assert rc == 1


def test_eval_bad_config_is_runtime_error(tiny_dataset, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("batch_size=-1\n")
    rc = run_cli(["eval", "--dataset", str(tiny_dataset), "--methods", "greedy",
                  "--problem", "mis", "--out", str(tmp_path / "r.csv"), "--config", str(cfg)])
    assert rc == 2


def test_emit_lp(graph_file, tmp_path):
    out = tmp_path / "prob.lp"
    assert run_cli(["emit-lp", "--graph", str(graph_file), "--problem", "mvc",
                    "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("Minimize")
    assert ">= 1" in text


def test_train_solve_eval_cycle(tiny_dataset, tmp_path):
    weights = tmp_path / "model.cmp"
    metrics = tmp_path / "metrics.csv"
    rc = run_cli(
        ["train", "--dataset", str(tiny_dataset), "--out", str(weights),
         "--metrics", str(metrics), "--epochs", "2", "--epochs-per-refresh", "2",
         "--graphs-per-refresh", "2", "--pairs-per-graph", "2", "--rollouts", "1",
         "--rounds", "1", "--width", "3", "--head-layers", "2", "--seed", "0"]
    )
    assert rc == 0
    params = load_params(weights)
    assert (params.rounds, params.width, params.head_layers) == (1, 3, 2)
    rows = read_csv(metrics)
    assert len(rows) == 2
    assert set(rows[0]) == {
        "epoch", "refresh_index", "train_loss", "val_loss", "val_pair_accuracy",
        "consistency", "wall_seconds",
    }
    rc = run_cli(
        ["eval", "--dataset", str(tiny_dataset), "--methods", "cmp,greedy",
         "--problem", "mis", "--out", str(tmp_path / "r.csv"), "--weights", str(weights),
         "--rollouts", "1"]
    )
    assert rc == 0


def test_consistency_command(tiny_dataset, tmp_path):
    wpath = tmp_path / "w.cmp"
    save_params(init_params(1, 3, 2, seed=1), wpath)
    out = tmp_path / "curve.csv"
    rc = run_cli(
        ["consistency", "--dataset", str(tiny_dataset), "--weights", str(wpath),
         "--out", str(out), "--pairs", "6", "--rollouts", "1"]
    )
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert 0.0 <= float(rows[0]["consistency"]) <= 1.0


def test_consistency_pairs_default_to_the_config_key(tiny_dataset, tmp_path, monkeypatch):
    wpath = tmp_path / "w.cmp"
    save_params(init_params(1, 3, 2, seed=1), wpath)
    monkeypatch.setenv("CMPDP_CONSISTENCY_PAIRS", "5")
    counts = []
    for extra in ([], ["--pairs", "7"]):
        out = tmp_path / f"curve{len(extra)}.csv"
        rc = run_cli(["consistency", "--dataset", str(tiny_dataset), "--weights", str(wpath),
                      "--out", str(out), "--rollouts", "1", *extra])
        assert rc == 0
        counts.append(int(read_csv(out)[0]["pairs"]))
    assert counts[0] <= 5
    assert counts[0] < counts[1] <= 7  # the flag still beats the key


@pytest.mark.parametrize("pairs", ["0", "-2"])
def test_consistency_pairs_below_one_is_usage_error(tiny_dataset, tmp_path, pairs, capsys):
    wpath = tmp_path / "w.cmp"
    save_params(init_params(1, 3, 2, seed=1), wpath)
    out = tmp_path / "curve.csv"
    rc = run_cli(["consistency", "--dataset", str(tiny_dataset), "--weights", str(wpath),
                  "--out", str(out), "--pairs", pairs])
    assert rc == 1
    assert "--pairs" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_runs_grid(tiny_dataset, tmp_path):
    out = tmp_path / "ablation"
    rc = run_cli(
        ["ablate", "--param", "rounds", "--values", "1,2", "--dataset", str(tiny_dataset),
         "--out-dir", str(out), "--epochs", "1", "--epochs-per-refresh", "1",
         "--graphs-per-refresh", "2", "--pairs-per-graph", "2", "--rollouts", "1",
         "--width", "3", "--head-layers", "2"]
    )
    assert rc == 0
    assert (out / "metrics_rounds_1.csv").exists()
    assert (out / "metrics_rounds_2.csv").exists()
    assert load_params(out / "weights_rounds_2.cmp").rounds == 2


def test_ablate_bad_values(tiny_dataset, tmp_path):
    rc = run_cli(["ablate", "--param", "rounds", "--values", "a,b",
                  "--dataset", str(tiny_dataset), "--out-dir", str(tmp_path)])
    assert rc == 1


def test_flags_override_env_override_file(tiny_dataset, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("total_epochs=1\n")
    monkeypatch.setenv("CMPDP_TOTAL_EPOCHS", "2")
    base = ["train", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "w.cmp"),
            "--metrics", str(tmp_path / "m.csv"), "--config", str(cfg), "--rounds", "1",
            "--width", "2", "--head-layers", "2", "--graphs-per-refresh", "1",
            "--pairs-per-graph", "1", "--rollouts", "1"]
    assert run_cli(base) == 0
    assert len(read_csv(tmp_path / "m.csv")) == 2
    assert run_cli(base + ["--epochs", "3"]) == 0
    assert len(read_csv(tmp_path / "m.csv")) == 3


def test_solve_takes_its_seed_from_the_config(tmp_path, monkeypatch):
    graph = tmp_path / "g.col"
    write_graph_file(generate(GenSpec("er", n=30, p=0.3, seed=2)), graph)
    sol = tmp_path / "g.sol"

    def solve(*extra):
        rc = run_cli(["solve", "--graph", str(graph), "--method", "random-cmp", "--problem", "mis",
                      "--rollouts", "1", "--out", str(sol), *extra])
        assert rc == 0
        return sol.read_text()

    by_flag = solve("--seed", "5")
    assert solve("--seed", "0") != by_flag  # the seed decides this graph's solution
    monkeypatch.setenv("CMPDP_SEED", "5")
    assert solve() == by_flag
    monkeypatch.setenv("CMPDP_SEED", "0")
    assert solve("--seed", "5") == by_flag


TINY_TRAIN = ["--epochs", "2", "--epochs-per-refresh", "1", "--rounds", "1", "--width", "4",
              "--head-layers", "2", "--graphs-per-refresh", "2", "--pairs-per-graph", "3"]


def test_train_non_finite_lr_is_runtime_error(tiny_dataset, tmp_path, capsys):
    rc = run_cli(["train", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "w.cmp"),
                  "--metrics", str(tmp_path / "m.csv"), "--lr", "nan"] + TINY_TRAIN)
    assert rc == 2
    assert capsys.readouterr().err == "error: lr must be finite\n"
    assert not (tmp_path / "w.cmp").exists()


def test_train_diverging_is_runtime_error(tiny_dataset, tmp_path, capsys):
    # numpy's own overflow warnings would precede the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run_cli(["train", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "w.cmp"),
                      "--metrics", str(tmp_path / "m.csv"), "--lr", "1e300"] + TINY_TRAIN)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite ") and err.count("\n") == 1
    assert not (tmp_path / "w.cmp").exists()


def test_flag_replaces_invalid_env_value(tiny_dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CMPDP_BATCH_SIZE", "0")
    base = ["eval", "--dataset", str(tiny_dataset), "--methods", "greedy",
            "--problem", "mis", "--out", str(tmp_path / "r.csv")]
    assert run_cli(base + ["--batch-size", "8"]) == 0
    capsys.readouterr()
    assert run_cli(base) == 2
    assert "batch_size" in capsys.readouterr().err


def test_invalid_value_surviving_every_layer_names_its_key(tiny_dataset, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("width=0\n")
    monkeypatch.setenv("CMPDP_WIDTH", "-1")
    base = ["eval", "--dataset", str(tiny_dataset), "--methods", "greedy",
            "--problem", "mis", "--out", str(tmp_path / "r.csv"), "--config", str(cfg)]
    assert run_cli(base + ["--width", "0"]) == 2
    assert "width" in capsys.readouterr().err
    assert run_cli(base + ["--width", "4"]) == 0


SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE_BYTES = 2 << 30


def run_capped(argv: list[str], env: dict[str, str], timeout: float = 60.0) -> subprocess.CompletedProcess:
    """``cmpdp argv`` in a fresh process with its address space capped as by
    ``ulimit -v``, so an oversized allocation fails fast instead of taking the
    machine's memory; raises TimeoutExpired if it runs past ``timeout``."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))

    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1", **env}
    return subprocess.run([sys.executable, "-c", "from cmpdp.cli import main; main()", *argv], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("flags, env, key", [
    (["--width", "100000"], {}, "width=100000"),
    (["--rounds", "1000000000"], {}, "rounds=1000000000"),
    (["--head-layers", "1000000000"], {}, "head_layers=1000000000"),
    ([], {"CMPDP_WIDTH": "100000"}, "width=100000"),
], ids=["width-flag", "rounds-flag", "head-layers-flag", "width-env"])
def test_train_oversized_geometry_exits_2_with_one_error_line(tiny_dataset, tmp_path, flags, env, key):
    proc = run_capped(["train", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "w.cmp"),
                       "--metrics", str(tmp_path / "m.csv"), *flags], env)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr[-2000:]
    assert key in proc.stderr
    assert not (tmp_path / "w.cmp").exists()


def test_ablate_checks_every_geometry_before_the_first_run(tiny_dataset, tmp_path):
    out = tmp_path / "ablation"
    proc = run_capped(["ablate", "--param", "width", "--values", "4,100000", "--dataset", str(tiny_dataset),
                       "--out-dir", str(out)], {})
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr[-2000:]
    assert "width=100000" in proc.stderr
    assert not out.exists()


def test_every_package_error_is_one_that_run_cli_catches():
    # run_cli maps ValueError and NonFiniteError to exit 2 and CliUsageError
    # to exit 1; an error class outside those would escape as a traceback
    modules = [cmpdp] + [importlib.import_module(f"cmpdp.{m.name}") for m in pkgutil.iter_modules(cmpdp.__path__)]
    errors = {obj for module in modules for obj in vars(module).values()
              if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__}
    assert {"ConfigError", "GraphError", "GraphFormatError", "WeightChecksumError"} <= {e.__name__ for e in errors}
    outside = [e.__name__ for e in errors if not issubclass(e, ValueError) and e not in (NonFiniteError, CliUsageError)]
    assert outside == []
