import csv
import dataclasses
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reluverify
from reluverify import bab, cli, model, oracle

from helpers import near_limit_task, random_task, scalar_relu_net, scalar_task


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
    assert set(echo) == {"trace", "timeout_seconds", "max_branches", "heuristic"}
    assert echo == dict(dataclasses.asdict(bab.BabConfig()), heuristic="drg")


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


_TOY = "--model {t}/suite/a.model.json --spec {t}/suite/a.spec.json"
_GEN = "gen --seed 1 --layers 1 --widths 3 --count 2 --eps 0.1 --out {t}/g"
_BENCH = "bench --suite {t}/suite --heuristics drg --out {t}/r"

# Every input error the CLI itself raises; a later option overrides the base's.
INPUT_ERRORS = {
    "gen-widths": (_GEN + " --widths abc", "--widths: cannot parse 'abc'"),
    "gen-shapes": (_GEN + " --layers 2 --widths 4,5,6", "--layers 2 and --widths '4,5,6'"),
    "gen-eps": (_GEN + " --eps nan", "--eps must be finite"),
    "gen-count": (_GEN + " --count 0", "--count"),
    "gen-seed": (_GEN + " --seed -1", "--seed must be non-negative"),
    "gen-eps-box-width": (_GEN + " --eps 1e308", "--eps 1e+308: the box width overflows"),
    "bench-heuristics-empty": (_BENCH + " --heuristics ,", "--heuristics: empty list"),
    "bench-heuristics-repeated": (_BENCH + " --heuristics drg,babsr,drg",
                                  "--heuristics: 'drg' is repeated"),
    "bench-suite-empty": (_BENCH + " --suite {t}/empty", "no (model, spec) pairs found in"),
    "bench-out-a-file": (_BENCH + " --out {t}/afile", "--out"),
    "bench-out-under-a-file": (_BENCH + " --out {t}/afile/sub", "--out"),
    "gen-out-a-file": (_GEN + " --out {t}/afile", "--out"),
    "gen-out-under-a-file": (_GEN + " --out {t}/afile/sub", "--out"),
    "oracle-samples": ("oracle " + _TOY + " --samples 0", "--samples must be positive"),
    "oracle-seed": ("oracle " + _TOY + " --seed -1", "--seed must be non-negative"),
    "oracle-budget": ("oracle --model {t}/big.model.json --spec {t}/big.spec.json",
                      "input dimension 7 exceeds oracle budget"),
    "verify-box-width": ("verify --model {t}/suite/a.model.json --spec {t}/wide.spec.json",
                         "box width input_upper[0] - input_lower[0] overflows float64"),
    "verify-output-a-directory": ("verify " + _TOY + " --output {t}/empty", "--output"),
    "verify-trace-missing-dir": ("verify " + _TOY + " --trace {t}/missing/t.jsonl", "--trace"),
    "verify-output-is-trace": ("verify " + _TOY + " --output {t}/r.json --trace {t}/empty/../r.json",
                               "--output and --trace name the same file"),
    "verify-output-is-model": ("verify " + _TOY + " --output {t}/suite/a.model.json",
                               "--model and --output name the same file"),
    "verify-output-is-spec": ("verify " + _TOY + " --output {t}/empty/../suite/a.spec.json",
                              "--spec and --output name the same file"),
    "verify-trace-is-model": ("verify " + _TOY + " --trace {t}/suite/a.model.json",
                              "--model and --trace name the same file"),
    "verify-trace-is-spec": ("verify " + _TOY + " --output {t}/r.json"
                             " --trace {t}/suite/a.spec.json",
                             "--spec and --trace name the same file"),
}


def _files(root):
    """Every path under root, with a file's bytes."""
    return sorted((p, p.is_file() and p.read_bytes()) for p in root.rglob("*"))


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_input_errors_exit_3_with_one_error_line(tmp_path, capsys, monkeypatch, case):
    (tmp_path / "suite").mkdir()
    (tmp_path / "empty").mkdir()
    (tmp_path / "afile").write_text("not a directory")
    _write_toy(tmp_path / "suite", 0.1, "a")
    big = model.make_network([(np.eye(7), np.zeros(7), model.LINEAR)])
    model.save_task(model.VerificationTask(big, -np.ones(7), np.ones(7), np.eye(7)),
                    str(tmp_path / "big.model.json"), str(tmp_path / "big.spec.json"))
    # Each bound is finite, but the width between them is not.
    model.save_spec([-1e308], [1e308], [[1.0]], str(tmp_path / "wide.spec.json"))
    files = _files(tmp_path)
    monkeypatch.setattr(cli.bab, "verify", lambda *a, **k: pytest.fail("a search started"))
    monkeypatch.setattr(cli, "generate_instance", lambda *a: pytest.fail("gen started"))
    argv, name = INPUT_ERRORS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv.format(t=tmp_path).split())
    _assert_input_error(capsys, rc, name)
    assert _files(tmp_path) == files  # nothing written or overwritten


def test_out_directory_that_cannot_be_made_is_an_input_error(tmp_path, capsys, monkeypatch):
    # mkdir's own OSError, past the up-front check, still names --out.
    def refuse(self, *a, **k):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli.Path, "mkdir", refuse)
    rc = cli.main(_GEN.format(t=tmp_path).split())
    _assert_input_error(capsys, rc, "cannot make directory (Permission denied)")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("path, field, value", [
    ("model", "weights", [[1.0, True]]),
    ("model", "bias", [False]),
    ("spec", "input_lower", [-1.0, False]),
    ("spec", "input_upper", [True, 1.0]),
    ("spec", "C", [[True]]),
    ("model", "weights", [[1.0, "2.0"]]),
    ("model", "bias", ["1"]),
    ("spec", "input_lower", ["0.5", -1.0]),
    ("spec", "input_upper", [1.0, "1"]),
    ("spec", "C", [["1.0"]]),
    ("model", "weights", [[10**400, -1.0]]),
    ("model", "bias", [-10**400]),
    ("spec", "input_lower", [-1.0, -10**400]),
    ("spec", "input_upper", [10**400, 1.0]),
    ("spec", "C", [[10**400]]),
    ("model", "weights", [[10**20, -1.0]]),
    ("spec", "input_upper", [1.0, 10**20]),
])
def test_verify_rejects_booleans_in_arrays(tmp_path, capsys, path, field, value):
    # np.array reads true as 1.0 and false as 0.0, even beside numbers, and
    # parses a numeric string: each of these files but the last two, whose
    # integers float64 holds, would load as a valid task and verify. An
    # integer beyond float64's range would raise OverflowError (exit 4).
    net = model.make_network([(np.array([[1.0, -1.0]]), np.zeros(1), model.RELU),
                              (np.ones((1, 1)), np.array([0.1]), model.LINEAR)])
    files = {"model": tmp_path / "b.model.json", "spec": tmp_path / "b.spec.json"}
    model.save_task(model.VerificationTask(net, -np.ones(2), np.ones(2), np.eye(1)),
                    str(files["model"]), str(files["spec"]))
    data = json.loads(files[path].read_text())
    (data["layers"][0] if path == "model" else data)[field] = value
    files[path].write_text(json.dumps(data))
    rc = cli.main(["verify", "--model", str(files["model"]), "--spec", str(files["spec"])])
    bad = [v for v in np.ravel(np.array(value, dtype=object)).tolist() if type(v) is not float]
    if bad == [10**20]:  # float64 holds it: the file loads as 1e20
        assert rc in (0, 1, 2) and capsys.readouterr().err == ""
        return
    message = {bool: "boolean value", str: "non-numeric value",
               int: "integer beyond float64 range"}[type(bad[0])]
    key = f"layers[0]: layer.{field}" if path == "model" else field
    _assert_input_error(capsys, rc, f"error: {files[path]}: {key}: {message} at [")


_GONE = object()

# (file, key path into its valid JSON, the value put there or _GONE to remove
# the key, what the error says after the file's path); an empty key path
# replaces the whole document.
MALFORMED_FILES = {
    "model-input_dim": ("model", ["input_dim"], _GONE, "missing required key 'input_dim'"),
    "model-layers": ("model", ["layers"], _GONE, "missing required key 'layers'"),
    "layer-weights": ("model", ["layers", 0, "weights"], _GONE,
                      "layers[0]: missing required key 'weights'"),
    "layer-bias": ("model", ["layers", 0, "bias"], _GONE,
                   "layers[0]: missing required key 'bias'"),
    "layer-activation": ("model", ["layers", 0, "activation"], _GONE,
                         "layers[0]: missing required key 'activation'"),
    "spec-input_lower": ("spec", ["input_lower"], _GONE, "missing required key 'input_lower'"),
    "spec-input_upper": ("spec", ["input_upper"], _GONE, "missing required key 'input_upper'"),
    "spec-C": ("spec", ["C"], _GONE, "missing required key 'C'"),
    "model-not-an-object": ("model", [], [1.0], "expected an object"),
    "spec-not-an-object": ("spec", [], "C", "expected an object"),
    "layer-not-an-object": ("model", ["layers", 0], [[1.0]], "layers[0]: expected an object"),
    "input_dim-true": ("model", ["input_dim"], True,
                       "network: input_dim: expected a positive integer, got True"),
    "input_dim-float": ("model", ["input_dim"], 1.0,
                        "network: input_dim: expected a positive integer, got 1.0"),
    "input_dim-zero": ("model", ["input_dim"], 0,
                       "network: input_dim: expected a positive integer, got 0"),
}


@pytest.mark.parametrize("case", MALFORMED_FILES)
def test_malformed_task_files_exit_3_naming_the_file_and_the_key(tmp_path, capsys,
                                                                 monkeypatch, case):
    which, keys, value, message = MALFORMED_FILES[case]
    mp, sp = _write_toy(tmp_path, 0.1)
    path = {"model": mp, "spec": sp}[which]
    doc = json.loads(Path(path).read_text())
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if not keys:
        doc = value
    elif value is _GONE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    Path(path).write_text(json.dumps(doc))
    monkeypatch.setattr(cli.bab, "verify", lambda *a, **k: pytest.fail("a search started"))
    rc = cli.main(["verify", "--model", mp, "--spec", sp])
    _assert_input_error(capsys, rc, f"error: {path}: {message}")


def test_verify_rejects_timeout_that_is_not_positive(tmp_path, capsys):
    mp, sp = _write_toy(tmp_path, 0.1)
    for timeout in ("nan", "0", "-1"):
        rc = cli.main(["verify", "--model", mp, "--spec", sp, "--timeout", timeout])
        _assert_input_error(capsys, rc, "timeout")


def test_bad_slope_options_exit_3(tmp_path, capsys):
    # The root's ascent runs relax.ALPHA_ITERS iterations, each first stepping
    # relax.ALPHA_STEP: no option sets either.
    mp, sp = _write_toy(tmp_path, 0.1)
    out = tmp_path / "report"
    runs = (["verify", "--model", mp, "--spec", sp],
            ["bench", "--suite", str(tmp_path), "--heuristics", "drg", "--out", str(out)])
    for argv in runs:
        for flag, value in (("--alpha-iters", "20"), ("--alpha-step", "0.25")):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + [flag, value])
            assert exc.value.code == 3 and flag in capsys.readouterr().err
    assert not out.exists()


def test_bench_baseline_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # The baseline is babsr when it runs, else the first kind listed.
    (tmp_path / "suite").mkdir()
    _write_toy(tmp_path / "suite", 0.1, "a")
    monkeypatch.setattr(cli.bab, "verify", lambda *a, **k: pytest.fail("a search started"))
    with pytest.raises(SystemExit) as exc:
        cli.main((_BENCH + " --heuristics drg,babsr --baseline babsr").format(t=tmp_path).split())
    assert exc.value.code == 3 and "--baseline" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


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


def _strict_json(text):
    """json.loads that rejects the non-standard Infinity, -Infinity and NaN."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_verify_writes_non_finite_numbers_as_null(tmp_path, capsys):
    # Every trace's root has parent_lower_bound -inf, an infinite --timeout is
    # echoed, and the 8e307 box's root bound overflows to -inf.
    mp, sp = _write_toy(tmp_path, 0.1)
    trace = tmp_path / "t.jsonl"
    assert cli.main(["verify", "--model", mp, "--spec", sp, "--timeout", "inf",
                     "--trace", str(trace)]) == 0
    result = _strict_json(capsys.readouterr().out)
    assert result["verdict"] == "Safe" and result["config_echo"]["timeout_seconds"] is None
    (root,) = map(_strict_json, trace.read_text().splitlines())
    assert root["parent_lower_bound"] is None and root["lower_bound"] > 0.0
    suite = tmp_path / "g"
    assert cli.main(["gen", "--seed", "1", "--layers", "1", "--widths", "4", "--count", "1",
                     "--eps", "8e307", "--out", str(suite)]) == 0
    capsys.readouterr()
    (mp,), (sp,) = sorted(suite.glob("*.model.json")), sorted(suite.glob("*.spec.json"))
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["verify", "--model", str(mp), "--spec", str(sp), "--trace", str(trace)])
    assert rc == 2 and _strict_json(capsys.readouterr().out)["unknown_reason"] == "non-finite bound"
    (root,) = map(_strict_json, trace.read_text().splitlines())
    assert root["action"] == "non-finite"
    assert root["lower_bound"] is None and root["raw_lower_bound"] is None


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


def test_bench_releases_each_task_before_loading_the_next(tmp_path, monkeypatch):
    suite = tmp_path / "suite"
    suite.mkdir()
    for i, bias in enumerate((0.1, -0.5, 0.2)):
        _write_toy(suite, bias, f"case_{i}")
    loaded = []
    load_task = model.load_task

    def tracked(model_path, spec_path):
        assert all(ref() is None for ref in loaded), "the previous task is still held"
        task = load_task(model_path, spec_path)
        loaded.append(weakref.ref(task))
        return task

    monkeypatch.setattr(cli.model, "load_task", tracked)
    rc = cli.main(["bench", "--suite", str(suite), "--heuristics", "drg,babsr",
                   "--out", str(tmp_path / "report")])
    assert rc == 0 and len(loaded) == 3


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


def test_bench_paired_counts_agree_where_a_kind_loses(tmp_path, capsys):
    # Seed 1 gives a 3-case suite on which drg, width and center each lose a
    # case to babsr, so wins, ties and losses are all exercised. The baseline
    # is babsr when it runs, else the first kind listed.
    suite = tmp_path / "suite"
    assert cli.main(["gen", "--seed", "1", "--layers", "2", "--widths", "4", "--count", "3",
                     "--eps", "0.3", "--out", str(suite)]) == 0
    for kinds, baseline in ((["drg", "babsr", "width", "center", "grad"], "babsr"),
                            (["drg", "width", "center"], "drg")):
        out = tmp_path / baseline
        assert cli.main(["bench", "--suite", str(suite), "--heuristics", ",".join(kinds),
                         "--max-branches", "200", "--out", str(out)]) == 0
        assert f"(baseline: {baseline})" in capsys.readouterr().out
        with open(out / "results.csv") as fh:
            branches = {(r["instance"], r["heuristic"]): int(r["branches"])
                        for r in csv.DictReader(fh)}
        names = sorted({name for name, _ in branches})
        with open(out / "summary.csv") as fh:
            summary = {r["heuristic"]: r for r in csv.DictReader(fh)}
        with open(out / "head_to_head.csv") as fh:
            h2h = {r["heuristic"]: r for r in csv.DictReader(fh)}
        assert set(h2h) == set(kinds) - {baseline}
        assert summary[baseline]["win_rate_branches_pct"] == ""
        for kind, row in h2h.items():
            assert row["baseline"] == baseline
            assert row["dominance_pct"] == summary[kind]["win_rate_branches_pct"]
            signs = [np.sign(branches[(n, kind)] - branches[(n, baseline)]) for n in names]
            assert [int(row[k]) for k in ("wins", "ties", "losses")] \
                == [signs.count(-1), signs.count(0), signs.count(1)]
            assert sum(int(row[k]) for k in ("wins", "ties", "losses")) == len(names) == 3
        assert any(int(row["losses"]) for row in h2h.values())


def test_bench_summary_means_and_medians_are_the_ones_statistics_takes(tmp_path):
    # Over odd and even suites, the summary's branch mean and median and its
    # time median are statistics.mean and statistics.median of results.csv's
    # columns, to the last digit; the time mean agrees to rounding. bench
    # takes them without importing statistics or calling np.median.
    for count in (5, 4):
        suite, out = tmp_path / f"suite{count}", tmp_path / f"report{count}"
        assert cli.main(["gen", "--seed", "3", "--count", str(count), "--layers", "2",
                         "--widths", "6", "--eps", "0.3", "--out", str(suite)]) == 0
        assert cli.main(["bench", "--suite", str(suite), "--heuristics", "drg,babsr",
                         "--max-branches", "40", "--out", str(out)]) == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        with open(out / "summary.csv") as fh:
            summary = {r["heuristic"]: r for r in csv.DictReader(fh)}
        for kind in ("drg", "babsr"):
            branches = [int(r["branches"]) for r in rows if r["heuristic"] == kind]
            times = [float(r["time_s"]) for r in rows if r["heuristic"] == kind]
            got = summary[kind]
            assert got["branches_mean"] == repr(float(statistics.mean(branches)))
            assert got["branches_median"] == repr(float(statistics.median(branches)))
            assert got["time_median_s"] == repr(float(statistics.median(times)))
            assert math.isclose(float(got["time_mean_s"]), statistics.mean(times), rel_tol=1e-12)
        assert len(set(branches)) > 1


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


def test_bench_budget_errors_leave_no_report_directory(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    _write_toy(suite, 0.1, "a")
    out = tmp_path / "report"
    for flag, value in (("--max-branches", "-1"), ("--timeout", "nan")):
        rc = cli.main(["bench", "--suite", str(suite), "--heuristics", "drg",
                       "--out", str(out), flag, value])
        _assert_input_error(capsys, rc, flag[2:].replace("-", "_"))
        assert not out.exists()


def test_bench_out_that_is_a_file_exits_3_before_any_run(tmp_path, capsys, monkeypatch):
    suite = tmp_path / "suite"
    suite.mkdir()
    _write_toy(suite, 0.1, "a")
    out = tmp_path / "report"
    out.write_text("not a directory")
    monkeypatch.setattr(cli.bab, "verify", lambda *a, **k: pytest.fail("a run started"))
    rc = cli.main(["bench", "--suite", str(suite), "--heuristics", "drg", "--out", str(out)])
    _assert_input_error(capsys, rc, "--out")


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


def test_an_internal_error_exits_4_never_the_unsafe_code(tmp_path, capsys, monkeypatch):
    # An exception escaping cli.main would exit 1, which reads as Unsafe.
    mp, sp = _write_toy(tmp_path, 0.1)
    suite = tmp_path / "suite"
    suite.mkdir()
    _write_toy(suite, 0.1, "a")

    def failing(*args, **kwargs):
        raise bab.InvariantError("input bisection did not shrink the box widths")

    monkeypatch.setattr(bab, "verify", failing)
    for argv in (["verify", "--model", mp, "--spec", sp],
                 ["bench", "--suite", str(suite), "--heuristics", "drg", "--out",
                  str(tmp_path / "r")]):
        assert cli.main(argv) == cli.EXIT_INTERNAL_ERROR == 4, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" in err
        assert err.splitlines()[-1] == ("internal error: InvariantError: input bisection"
                                        " did not shrink the box widths")


def test_verify_json_reports_the_runs_gap_clamp_events(tmp_path, capsys):
    task = random_task(np.random.default_rng(5), 3, (6, 5), 2, eps=0.6)
    mp, sp = str(tmp_path / "c.model.json"), str(tmp_path / "c.spec.json")
    model.save_task(task, mp, sp)
    stats = bab.verify(task, "drg", bab.BabConfig(max_branches=100))
    assert stats.gap_clamp_events > 0
    assert cli.main(["verify", "--model", mp, "--spec", sp, "--max-branches", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["gap_clamp_events"] == stats.gap_clamp_events


def test_verify_json_reports_the_runs_step_counters(tmp_path, capsys):
    # passes, bounded and empty, as RunStats counts them: this Safe run's
    # steps bound each of its branches once and meet empty sub-domains.
    task = random_task(np.random.default_rng(86), 3, (6, 5), 2, eps=0.6)
    mp, sp = str(tmp_path / "c.model.json"), str(tmp_path / "c.spec.json")
    model.save_task(task, mp, sp)
    stats = bab.verify(task, "drg", bab.BabConfig(max_branches=150))
    assert stats.verdict == bab.SAFE and stats.passes > 1 and stats.empty > 0
    assert cli.main(["verify", "--model", mp, "--spec", sp, "--max-branches", "150"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert [result[k] for k in ("passes", "bounded", "empty")] == \
        [stats.passes, stats.bounded, stats.empty]
    assert result["bounded"] == result["branches"] + result["empty"]


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


def test_gen_overflow_names_the_option_and_writes_nothing(tmp_path, capsys):
    # Finite but huge: 1e300 weights overflow the anchor's forward pass, a
    # 1e308 box's width overflows, and with seed 1 the 8e307 box makes the
    # second instance's bias shift overflow after the first instance is fine.
    # A numpy warning fails the run.
    out = tmp_path / "suite"
    base = ["gen", "--seed", "1", "--layers", "1", "--widths", "4", "--count", "5",
            "--out", str(out)]
    for extra in (["--eps", "0.1", "--weight-scale", "1e300"], ["--eps", "1e308"],
                  ["--eps", "8e307"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(base + extra)
        _assert_input_error(capsys, rc, f"{extra[-2]} {float(extra[-1])!r}: ")
        assert not out.exists()


def test_oracle_subcommand(tmp_path, capsys):
    mp, sp = _write_toy(tmp_path, -0.5)
    rc = cli.main(["oracle", "--model", mp, "--spec", sp, "--samples", "100"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["unsafe"] is True
    assert abs(out["min_value"] + 0.5) < 1e-9
    assert out["attack"] is not None


def test_oracle_subcommand_rejects_nonpositive_samples(tmp_path, capsys):
    mp, sp = _write_toy(tmp_path, -0.5)
    for samples in ("0", "-3"):
        rc = cli.main(["oracle", "--model", mp, "--spec", sp, "--samples", samples])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error:") and "--samples" in err
        assert len(err.strip().splitlines()) == 1


def test_oracle_subcommand_refuses_samples_past_the_cap_before_loading(tmp_path, capsys,
                                                                       monkeypatch):
    mp, sp = _write_toy(tmp_path, -0.5)
    for name in ("exact_min_margin", "scan_margin", "grid_attack"):
        monkeypatch.setattr(cli.oracle, name, lambda *a, **k: pytest.fail("a scan started"))
    monkeypatch.setattr(cli.model, "load_task", lambda *a: pytest.fail("the task loaded"))
    samples = str(oracle.MAX_ORACLE_SAMPLES + 1)
    rc = cli.main(["oracle", "--model", mp, "--spec", sp, "--samples", samples])
    _assert_input_error(capsys, rc, f"--samples {samples} exceeds the oracle's cap")


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


@pytest.mark.parametrize("out_bias,verdict,code", [(-1e8, "Safe", 0), (-1e9, "Unsafe", 1)])
def test_verify_near_the_float64_limit_without_warning(tmp_path, out_bias, verdict, code):
    # The root pre-activation is about 1.52e308: the midpoint of a rounding
    # crossing and the intercepts of stable neurons must not overflow. Under
    # -W error::RuntimeWarning an overflow's warning is raised, and verify
    # exits 4 with an internal error.
    mp, sp = str(tmp_path / "near.model.json"), str(tmp_path / "near.spec.json")
    model.save_task(near_limit_task(out_bias), mp, sp)
    src = str(Path(reluverify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "reluverify.cli", "verify",
         "--model", mp, "--spec", sp],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.stderr == ""
    assert proc.returncode == code
    assert json.loads(proc.stdout)["verdict"] == verdict


def test_verify_an_overflowed_root_ends_unknown_non_finite(tmp_path, capsys):
    # 1e308 weights overflow the root's first interval to [-inf, inf], and
    # the next layer's interval to NaN. The root is not empty, and no verdict
    # rests on a NaN: Unknown (exit 2), not an internal error (exit 4).
    net = model.make_network([(np.array([[1e308, 1e308]]), np.zeros(1), model.RELU),
                              (np.array([[1.0]]), np.zeros(1), model.RELU),
                              (np.array([[1.0]]), np.ones(1), model.LINEAR)])
    mp, sp = str(tmp_path / "of.model.json"), str(tmp_path / "of.spec.json")
    model.save_task(model.VerificationTask(net, -np.ones(2), np.ones(2), np.array([[1.0]])), mp, sp)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["verify", "--model", mp, "--spec", sp])
    out, err = capsys.readouterr()
    assert (rc, err) == (2, "")
    result = json.loads(out)
    assert (result["verdict"], result["unknown_reason"]) == ("Unknown", "non-finite bound")


def test_a_point_box_whose_bound_misses_its_positive_margin_ends_an_unrefinable_leaf(
        tmp_path, capsys):
    # The first net and point U(-1, 1)^3 that default_rng(0) draws, the hidden
    # layer linear, the box the one point x and the output bias float(-m), m
    # the exact margin at x without it: the exact margin is 3.4e-17 > 0. The
    # root's bound reads -1.11e-16 and its witness margin +1.11e-16, so the
    # witness is spurious, and a bisection of a box of zero width makes no
    # children. Unknown is then no wrong verdict, and a bound more
    # conservative than this one still reads <= 0 here.
    W1 = [[0.1257302210933933, -0.1321048632913019, 0.6404226504432821],
          [0.10490011715303971, -0.535669373161111, 0.36159505490948474],
          [1.3040000451301372, 0.9470809631292422, -0.7037352358069926],
          [-1.2654214710460525, -0.6232744625373522, 0.0413259793472436]]
    b1 = [-2.3250307746388343, -0.21879166393254573, -1.2459109472530652, -0.7322673547034516]
    W2 = [[-0.5442589828573099, -0.31630015636915454, 0.4116305363741328, 1.0425133694426776]]
    x, b2 = [-0.9433606577090741, -0.7514334470008721, 0.34124882938726064], -0.6642058066492413
    dot = lambda w, v, b: sum((Fraction(wi) * Fraction(vi) for wi, vi in zip(w, v)), Fraction(b))
    assert dot(W2[0], [dot(row, x, b) for row, b in zip(W1, b1)], b2) > 0
    net = model.make_network([(np.array(W1), np.array(b1), model.LINEAR),
                              (np.array(W2), np.array([b2]), model.LINEAR)])
    mp, sp = str(tmp_path / "leaf.model.json"), str(tmp_path / "leaf.spec.json")
    point = np.array(x)
    model.save_task(model.VerificationTask(net, point, point, np.array([[1.0]])), mp, sp)
    trace = tmp_path / "leaf.trace.jsonl"
    rc = cli.main(["verify", "--model", mp, "--spec", sp, "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert (result["verdict"], result["unknown_reason"], result["branches"]) == (
        "Unknown", "unrefinable leaf", 0)
    (root,) = map(json.loads, trace.read_text().splitlines())
    assert root["action"] == "stuck"
    assert root["raw_lower_bound"] <= 0.0 < root["witness_margin"]
