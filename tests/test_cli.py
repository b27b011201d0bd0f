"""Command line envelope, exit codes, and file round trips."""

import json
import os

import numpy as np
import pytest

import pro
from helpers import two_page_coupled_doc, two_page_doc
from pro.cli import main
from pro.graph import load_strategy


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = main(["--deterministic"] + argv)
    envelope = json.loads(capsys.readouterr().out)
    return code, envelope


def _audit_doc():
    # reward sits on page 1 only, so keeping the links to it is optimal
    # and the empty default strategy is provably not
    return {
        "num_pages": 2,
        "damping": 0.85,
        "teleport": [0.5, 0.5],
        "obligatory": [],
        "facultative": [[0, 1], [1, 1]],
        "rewards": {"type": "per_page", "values": [0.0, 1.0]},
    }


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == pro.__version__


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 1


def test_pagerank_envelope(tmp_path, capsys):
    code, env = _run(capsys, ["pagerank", _write(tmp_path, "g.json", two_page_doc())])
    assert code == 0
    assert env["status"] == "ok"
    assert env["command"] == "pagerank"
    assert env["version"] == pro.__version__
    assert env["wall_time_ms"] == 0.0
    assert env["instance"]["num_pages"] == 2
    assert env["instance"]["facultative_links"] == 4
    # default strategy keeps nothing on: both rows teleport uniformly
    np.testing.assert_allclose(env["result"]["pi"], [0.5, 0.5], atol=1e-10)
    assert env["result"]["utility"] == pytest.approx(3.75, abs=1e-9)


def test_optimize_and_strategy_round_trip(tmp_path, capsys):
    inst_path = _write(tmp_path, "g.json", two_page_doc())
    out_path = str(tmp_path / "strategy.json")
    code, env = _run(capsys, ["optimize", inst_path, "--out", out_path])
    assert code == 0
    assert env["result"]["income"] == pytest.approx(5.6625, abs=1e-8)

    strat = load_strategy(out_path)
    assert strat.choices[0].activated == (1,)
    assert strat.choices[1].activated == (0,)

    code, env = _run(capsys, ["pagerank", inst_path, "--strategy", out_path])
    assert code == 0
    assert env["result"]["utility"] == pytest.approx(5.6625, abs=1e-8)
    np.testing.assert_allclose(env["result"]["pi"], [0.5, 0.5], atol=1e-9)


def test_optimize_mode_guard(tmp_path, capsys):
    code, env = _run(capsys, ["optimize",
                              _write(tmp_path, "g.json", two_page_doc()),
                              "--mode", "weights"])
    assert code == 1
    assert env["status"] == "error"
    assert env["error"]["type"] == "ValidationError"


def test_optimize_refuses_coupled_instance(tmp_path, capsys):
    code, env = _run(capsys, ["optimize",
                              _write(tmp_path, "g.json", two_page_coupled_doc())])
    assert code == 2
    assert env["status"] == "qualified"
    assert env["error"]["type"] == "CouplingPresent"


def test_optimize_coupled_envelope(tmp_path, capsys):
    out_path = str(tmp_path / "best.json")
    code, env = _run(capsys, ["optimize-coupled",
                              _write(tmp_path, "g.json", two_page_coupled_doc()),
                              "--out", out_path])
    assert code == 0
    assert env["status"] == "ok"
    assert env["result"]["dual_bound"] == pytest.approx(0.5, abs=1e-3)
    assert env["result"]["stop_reason"] == "gap"
    assert env["result"]["best_feasible"] is not None
    assert env["result"]["candidate"]["feasible"] is True
    assert env["result"]["candidate"]["utility"] == pytest.approx(0.5, abs=1e-3)
    load_strategy(out_path)  # file exists and parses


def test_analyze_optimal_versus_default(tmp_path, capsys):
    inst_path = _write(tmp_path, "g.json", _audit_doc())
    out_path = str(tmp_path / "strategy.json")
    code, _ = _run(capsys, ["optimize", inst_path, "--out", out_path])
    assert code == 0

    code, env = _run(capsys, ["analyze", inst_path, "--strategy", out_path])
    assert code == 0
    assert env["result"]["violations"] == []
    assert env["result"]["optimal"] is True
    assert env["result"]["master"] == 1  # the rewarded page tops the ordering

    code, env = _run(capsys, ["analyze", inst_path])
    assert code == 2
    assert env["status"] == "qualified"
    assert env["result"]["violations"]
    assert all(v["problem"] == "missing" for v in env["result"]["violations"])


def test_verify_local_match(tmp_path, capsys):
    code, env = _run(capsys, ["verify", _write(tmp_path, "g.json", two_page_doc())])
    assert code == 0
    assert env["result"]["match"] is True
    assert abs(env["result"]["difference"]) <= 1e-8


def test_verify_coupled_reports_mismatch(tmp_path, capsys):
    # at a dual kink the best single feasible strategy undershoots the
    # enumerated optimum; verify must say so rather than hide it
    code, env = _run(capsys, ["verify",
                              _write(tmp_path, "g.json", two_page_coupled_doc())])
    assert code == 2
    assert env["status"] == "qualified"
    assert env["result"]["match"] is False
    assert env["result"]["difference"] < 0


def test_bad_inputs(tmp_path, capsys):
    code, env = _run(capsys, ["pagerank", str(tmp_path / "absent.json")])
    assert code == 1
    assert env["status"] == "error"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, env = _run(capsys, ["pagerank", str(bad)])
    assert code == 1

    broken = dict(two_page_doc())
    broken["teleport"] = [0.5, 0.0]  # teleport must be strictly positive
    code, env = _run(capsys, ["pagerank", _write(tmp_path, "broken.json", broken)])
    assert code == 1
    assert env["error"]["type"] == "ValidationError"


def _with(path, value):
    doc = two_page_doc()
    if path == "coupling":
        doc["coupling"] = [{"entries": [value], "bound": 1.0}]
    elif path == "rewards":
        doc["rewards"]["entries"] = doc["rewards"]["entries"][1:] + [value]
    else:
        doc["facultative"] = value
    return doc


@pytest.mark.parametrize("doc", [
    _with("facultative", [[0, 1.5]]),
    _with("rewards", [0, 1.5, 2.0]),
    _with("coupling", [0, 1.5, 1.0]),
    _with("facultative", [["a", 1]]),
    _with("facultative", [[0, 1], [1]]),
], ids=["float-link", "float-reward-index", "float-coupling-index",
        "string-link", "ragged-links"])
def test_non_integer_indices_are_parse_errors(tmp_path, capsys, doc):
    code, env = _run(capsys, ["optimize", _write(tmp_path, "g.json", doc)])
    assert code == 1
    assert env["status"] == "error"
    assert env["error"]["type"] == "ParseError"


def test_threads_flag_pins_env(tmp_path, capsys):
    saved = {k: os.environ.get(k) for k in
             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    try:
        code, _ = _run(capsys, ["--threads", "2", "pagerank",
                                _write(tmp_path, "g.json", two_page_doc())])
        assert code == 0
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
