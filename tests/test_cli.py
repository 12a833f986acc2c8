import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reluverify
from reluverify import cli, model

from helpers import scalar_relu_net, scalar_task


def _write_toy(tmp_path, bias, name="toy"):
    task = scalar_task(scalar_relu_net(out_bias=bias))
    mp = tmp_path / f"{name}.model.json"
    sp = tmp_path / f"{name}.spec.json"
    model.save_task(task, str(mp), str(sp))
    return str(mp), str(sp)


def _dir_digest(path, skip_names=()):
    h = hashlib.sha256()
    for p in sorted(Path(path).iterdir()):
        if p.name in skip_names:
            continue
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def test_verify_safe_exit_code_and_json(tmp_path, capsys):
    mp, sp = _write_toy(tmp_path, 0.1)
    rc = cli.main(["verify", "--model", mp, "--spec", sp])
    out = capsys.readouterr().out
    assert rc == 0
    result = json.loads(out)
    assert result["verdict"] == "Safe"
    assert result["branches"] == 0
    assert "witness" not in result
    # result JSON round-trips without loss
    assert json.loads(json.dumps(result)) == result


def test_verify_unsafe_exit_code_and_witness(tmp_path, capsys):
    mp, sp = _write_toy(tmp_path, -0.5)
    rc = cli.main(["verify", "--model", mp, "--spec", sp])
    result = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert result["verdict"] == "Unsafe"
    assert result["witness"]["x_star"] == [-1.0]
    assert result["witness"]["kind"] == "concrete_violation"


def test_verify_config_echo_keys(tmp_path, capsys):
    mp, sp = _write_toy(tmp_path, 0.1)
    assert cli.main(["verify", "--model", mp, "--spec", sp]) == 0
    echo = json.loads(capsys.readouterr().out)["config_echo"]
    assert set(echo) == {"alpha_iters", "alpha_step", "trace", "timeout_seconds",
                         "max_branches", "heuristic"}


def test_verify_unknown_exit_code(tmp_path, capsys):
    net = model.make_network([
        (np.array([[1.0], [-1.0]]), np.zeros(2), model.RELU),
        (np.array([[1.0, 1.0]]), np.array([-0.2]), model.LINEAR),
    ])
    task = scalar_task(net)
    mp, sp = str(tmp_path / "u.model.json"), str(tmp_path / "u.spec.json")
    model.save_task(task, mp, sp)
    rc = cli.main(["verify", "--model", mp, "--spec", sp, "--max-branches", "0"])
    result = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert result["verdict"] == "Unknown"


def test_verify_bad_heuristic_lists_kinds(tmp_path, capsys):
    mp, sp = _write_toy(tmp_path, 0.1)
    rc = cli.main(["verify", "--model", mp, "--spec", sp, "--heuristic", "nonsense"])
    err = capsys.readouterr().err
    assert rc == 3
    for kind in ("drg", "babsr", "width"):
        assert kind in err


def test_verify_malformed_model_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.model.json"
    bad.write_text("{broken")
    mp, sp = _write_toy(tmp_path, 0.1)
    rc = cli.main(["verify", "--model", str(bad), "--spec", sp])
    assert rc == 3
    assert "parse error" in capsys.readouterr().err


def _assert_input_error(capsys, rc, name):
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err.startswith("error:") and name in err
    assert len(err.strip().splitlines()) == 1


def test_verify_rejects_timeout_that_is_not_positive(tmp_path, capsys):
    mp, sp = _write_toy(tmp_path, 0.1)
    for timeout in ("nan", "0", "-1"):
        rc = cli.main(["verify", "--model", mp, "--spec", sp, "--timeout", timeout])
        _assert_input_error(capsys, rc, "timeout")


def test_bad_slope_options_exit_3(tmp_path, capsys):
    mp, sp = _write_toy(tmp_path, 0.1)
    out = tmp_path / "report"
    runs = (["verify", "--model", mp, "--spec", sp],
            ["bench", "--suite", str(tmp_path), "--heuristics", "drg", "--out", str(out)])
    bad = [("--alpha-iters", "-1")] + [("--alpha-step", v) for v in ("0", "-1", "nan", "inf")]
    for flag, value in bad:
        for argv in runs:
            rc = cli.main(argv + [flag, value])
            _assert_input_error(capsys, rc, flag[2:].replace("-", "_"))
    assert not out.exists()
    rc = cli.main(runs[0] + ["--alpha-iters", "0", "--alpha-step", "1e-3"])
    assert rc == 0 and json.loads(capsys.readouterr().out)["verdict"] == "Safe"


def test_verify_output_and_trace_files(tmp_path, capsys):
    net = model.make_network([
        (np.array([[1.0], [-1.0]]), np.zeros(2), model.RELU),
        (np.array([[1.0, 1.0]]), np.array([0.05]), model.LINEAR),
    ])
    task = scalar_task(net)
    mp, sp = str(tmp_path / "t.model.json"), str(tmp_path / "t.spec.json")
    model.save_task(task, mp, sp)
    out = tmp_path / "result.json"
    trace = tmp_path / "trace.jsonl"
    rc = cli.main(["verify", "--model", mp, "--spec", sp,
                   "--output", str(out), "--trace", str(trace)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["verdict"] == "Safe"
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert lines and all("action" in e for e in lines)
    assert lines[0]["node"] == 0


def test_gen_is_deterministic_and_counts(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["gen", "--seed", "7", "--layers", "2", "--widths", "4,4", "--count", "5",
            "--eps", "0.2", "--weight-scale", "1.5"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert len(list(out1.glob("*.model.json"))) == 5
    assert len(list(out1.glob("*.spec.json"))) == 5
    assert _dir_digest(out1) == _dir_digest(out2)
    # a different seed changes the bytes
    out3 = tmp_path / "s3"
    assert cli.main(["gen", "--seed", "8", "--layers", "2", "--widths", "4,4", "--count", "5",
                     "--eps", "0.2", "--weight-scale", "1.5", "--out", str(out3)]) == 0
    assert _dir_digest(out1) != _dir_digest(out3)


def test_gen_single_width_is_replicated(tmp_path):
    out = tmp_path / "s"
    rc = cli.main(["gen", "--seed", "1", "--layers", "3", "--widths", "4", "--count", "1",
                   "--eps", "0.1", "--out", str(out)])
    assert rc == 0
    net = model.load_model(str(out / "case_000.model.json"))
    assert [l.out_dim for l in net.layers] == [4, 4, 4, 2]


def test_gen_rejects_bad_shapes(tmp_path, capsys):
    rc = cli.main(["gen", "--seed", "1", "--layers", "2", "--widths", "4,5,6", "--count", "1",
                   "--eps", "0.1", "--out", str(tmp_path / "x")])
    assert rc == 3
    rc = cli.main(["gen", "--seed", "1", "--layers", "1", "--widths", "abc", "--count", "1",
                   "--eps", "0.1", "--out", str(tmp_path / "y")])
    assert rc == 3


def test_gen_small_instances_pass_oracle_budget(tmp_path):
    from reluverify import oracle

    out = tmp_path / "s"
    assert cli.main(["gen", "--seed", "3", "--layers", "1", "--widths", "3", "--count", "5",
                     "--eps", "0.15", "--inputs", "2", "--out", str(out)]) == 0
    for name, mp, sp in cli.discover_suite(str(out)):
        task = model.load_task(mp, sp)
        oracle.exact_min_margin(task)  # must not raise the budget guard


def test_bench_rows_and_summary(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    _write_toy(suite, 0.1, "a")
    _write_toy(suite, -0.5, "b")
    out = tmp_path / "report"
    rc = cli.main(["bench", "--suite", str(suite), "--heuristics", "drg,babsr",
                   "--out", str(out), "--timeout", "10"])
    assert rc == 0
    with open(out / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # |instances| x |heuristics|
    assert {r["heuristic"] for r in rows} == {"drg", "babsr"}

    with open(out / "summary.csv") as fh:
        summary = {r["heuristic"]: r for r in csv.DictReader(fh)}
    # recompute medians and win rate independently from the raw CSV
    for kind in ("drg", "babsr"):
        branches = sorted(int(r["branches"]) for r in rows if r["heuristic"] == kind)
        med = (branches[0] + branches[1]) / 2
        assert float(summary[kind]["branches_median"]) == med
    by_inst = {}
    for r in rows:
        by_inst.setdefault(r["instance"], {})[r["heuristic"]] = int(r["branches"])
    wins = sum(v["drg"] <= v["babsr"] for v in by_inst.values())
    assert float(summary["drg"]["win_rate_branches_pct"]) == 100.0 * wins / len(by_inst)
    assert summary["babsr"]["win_rate_branches_pct"] == ""  # baseline row

    with open(out / "head_to_head.csv") as fh:
        h2h = list(csv.DictReader(fh))
    assert len(h2h) == 1
    row = h2h[0]
    assert row["heuristic"] == "drg" and row["baseline"] == "babsr"
    assert int(row["wins"]) + int(row["ties"]) + int(row["losses"]) == len(by_inst)


def test_bench_equal_branches_count_as_ties_and_wins(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    _write_toy(suite, 0.1, "only")  # root-safe for every heuristic: equal branches
    out = tmp_path / "report"
    assert cli.main(["bench", "--suite", str(suite), "--heuristics", "drg,babsr",
                     "--out", str(out)]) == 0
    with open(out / "summary.csv") as fh:
        summary = {r["heuristic"]: r for r in csv.DictReader(fh)}
    assert float(summary["drg"]["win_rate_branches_pct"]) == 100.0
    with open(out / "head_to_head.csv") as fh:
        row = next(csv.DictReader(fh))
    assert int(row["ties"]) == 1 and int(row["wins"]) == 0


def test_bench_results_and_summary_share_the_run_clock(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    _write_toy(suite, -0.5, "only")
    out = tmp_path / "report"
    assert cli.main(["bench", "--suite", str(suite), "--heuristics", "drg",
                     "--out", str(out)]) == 0
    with open(out / "results.csv") as fh:
        row = next(csv.DictReader(fh))
    with open(out / "summary.csv") as fh:
        summary = next(csv.DictReader(fh))
    # one run: its time in results.csv is the summary's mean, to the last digit
    assert row["time_s"] == summary["time_mean_s"] == summary["time_median_s"]


def test_bench_empty_suite_exits_3(tmp_path, capsys):
    suite = tmp_path / "empty"
    suite.mkdir()
    rc = cli.main(["bench", "--suite", str(suite), "--heuristics", "drg",
                   "--out", str(tmp_path / "r")])
    assert rc == 3


def test_bench_rejects_unknown_heuristic(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    _write_toy(suite, 0.1, "a")
    rc = cli.main(["bench", "--suite", str(suite), "--heuristics", "drg,bogus",
                   "--out", str(tmp_path / "r")])
    assert rc == 3
    assert "bogus" in capsys.readouterr().err


def test_bench_has_no_trace_option(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    _write_toy(suite, 0.1, "a")
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--suite", str(suite), "--heuristics", "drg",
                  "--out", str(tmp_path / "r"), "--trace", str(tmp_path / "t.jsonl")])
    assert exc.value.code == 3
    assert "--trace" in capsys.readouterr().err


def test_usage_errors_exit_3_and_help_exits_0(tmp_path, capsys):
    # argparse's own usage code, 2, would read as the Unknown verdict.
    mp, sp = _write_toy(tmp_path, 0.1)
    verify = ["verify", "--model", mp, "--spec", sp]
    for argv in (verify + ["--timeout", "abc"], verify + ["--bogus", "1"],
                 verify + ["--fallback", "bisect"], ["verify", "--model", mp], ["nosuch"], []):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage: reluverify" in capsys.readouterr().out


def test_gen_rejects_eps_and_weight_scale_that_are_not_finite_and_positive(tmp_path, capsys):
    out = tmp_path / "suite"
    base = ["gen", "--seed", "1", "--layers", "1", "--widths", "3", "--count", "2",
            "--out", str(out)]
    bad = [["--eps", v] for v in ("nan", "inf", "0", "-1")]
    bad += [["--eps", "0.1", "--weight-scale", v] for v in ("nan", "inf", "0")]
    for extra in bad:
        rc = cli.main(base + extra)
        _assert_input_error(capsys, rc, extra[-2])
    assert not out.exists()


def test_oracle_subcommand(tmp_path, capsys):
    mp, sp = _write_toy(tmp_path, -0.5)
    rc = cli.main(["oracle", "--model", mp, "--spec", sp, "--samples", "100"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["unsafe"] is True
    assert abs(out["min_value"] + 0.5) < 1e-9
    assert out["attack"] is not None


def test_oracle_subcommand_budget_refusal(tmp_path, capsys):
    net = model.make_network([(np.eye(7), np.zeros(7), model.LINEAR)])
    task = model.VerificationTask(net, -np.ones(7), np.ones(7), np.eye(7))
    mp, sp = str(tmp_path / "big.model.json"), str(tmp_path / "big.spec.json")
    model.save_task(task, mp, sp)
    rc = cli.main(["oracle", "--model", mp, "--spec", sp])
    assert rc == 3
    assert "budget" in capsys.readouterr().err


def test_oracle_subcommand_rejects_nonpositive_samples(tmp_path, capsys):
    mp, sp = _write_toy(tmp_path, -0.5)
    for samples in ("0", "-3"):
        rc = cli.main(["oracle", "--model", mp, "--spec", sp, "--samples", samples])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error:") and "--samples" in err
        assert len(err.strip().splitlines()) == 1


def test_oracle_subcommand_rejects_negative_seed(tmp_path, capsys):
    mp, sp = _write_toy(tmp_path, -0.5)
    rc = cli.main(["oracle", "--model", mp, "--spec", sp, "--seed", "-1"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "--seed" in err
    assert len(err.strip().splitlines()) == 1


def test_gen_subcommand_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "suite"
    rc = cli.main(["gen", "--seed", "-1", "--layers", "1", "--widths", "3", "--count", "2",
                   "--eps", "0.1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "--seed" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_module_entry_point_runs_without_runtime_warning():
    src = str(Path(reluverify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "reluverify.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: reluverify" in proc.stdout
