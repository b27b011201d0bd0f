"""Command line envelope, exit codes, and file round trips."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pro
from helpers import (
    fuzz_bases,
    link_web_doc,
    random_continuous_doc,
    random_discrete_doc,
    two_page_coupled_doc,
    two_page_doc,
    uniform_doc,
    weight_web_doc,
)
from pro import analysis, cli, graph
from pro.cli import main
from pro.errors import ValidationError
from pro.graph import load_instance, load_strategy
from pro.solver_coupled import solve_coupled
from pro.solver_local import value_iterate


DATA = Path(__file__).parent / "data"


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

    strat = load_strategy(out_path, load_instance(inst_path))
    assert strat.choices[0].activated == (1,)
    assert strat.choices[1].activated == (0,)

    code, env = _run(capsys, ["pagerank", inst_path, "--strategy", out_path])
    assert code == 0
    assert env["result"]["utility"] == pytest.approx(5.6625, abs=1e-8)
    np.testing.assert_allclose(env["result"]["pi"], [0.5, 0.5], atol=1e-9)


def test_pagerank_default_row_of_a_page_that_bans_every_target(tmp_path, capsys):
    # the floor (1/7, 4/7, 2/7) sums to 1 - 1.1e-16, within validation's
    # 1e-12, so the floor alone is page 0's row, by default as at the optimum
    q = [1 / 7, 4 / 7, 2 / 7]
    assert 0.0 < 1.0 - sum(np.array(q)) <= 1e-12
    doc = {"num_pages": 3, "damping": 0.85, "teleport": "uniform",
           "obligatory": [[1, 2], [2, 0]],
           "rewards": {"type": "per_page", "values": [0.0, 1.0, 2.0]},
           "skeleton": [{"page": 0, "q": q, "mu": 0.0, "banned": [0, 1, 2]}]}
    path = _write(tmp_path, "g.json", doc)
    code, env = _run(capsys, ["optimize", path])
    assert code == 0
    income = env["result"]["income"]
    code, env = _run(capsys, ["pagerank", path])
    assert code == 0
    assert env["result"]["utility"] == pytest.approx(income, abs=1e-9)


def test_pagerank_checks_the_weights_of_a_page_without_free_mass(tmp_path, capsys):
    # with mu = 0 page 2's floor is its whole row, and its weights, which
    # move no mass, are still checked as a link page's row: no weights, or
    # a distribution
    doc = {"num_pages": 3, "damping": 0.85, "teleport": "uniform",
           "obligatory": [[0, 1], [1, 2]],
           "rewards": {"type": "per_page", "values": [0.0, 1.0, 2.0]},
           "skeleton": [{"page": 2, "q": [1.0, 0.0, 0.0], "mu": 0.0}]}
    path = _write(tmp_path, "g.json", doc)
    for entries, status in (([[1, 1e300], [2, -5.0]], "error"), ([[1, 1.5]], "error"),
                            ([[1, 1.0 + 1e-7], [2, -1e-7]], "error"),
                            ([[1, 0.5], [2, 0.5]], "ok"), ([], "ok")):
        strategy = {"pages": [{"page": 2, "kind": "free", "row_entries": entries}]}
        code, env = _run(capsys, ["pagerank", path, "--strategy",
                                  _write(tmp_path, "s.json", strategy)])
        assert env["status"] == status, entries
        if status == "error":
            assert code == 1
            assert env["error"]["type"] == "InvalidStrategy"
            assert "page 2 has no free mass" in env["error"]["message"]


def test_pagerank_checks_the_weights_of_a_page_whose_slack_is_a_rounding_residue(tmp_path,
                                                                                capsys):
    # with mu = 0 the floor q sums to 1 - 1.1e-16, so the free mass is a
    # rounding residue, and lifts of 1e6 times it would still pass the
    # lift checks: the weights are checked as a distribution instead
    q = [1 / 7, 4 / 7, 2 / 7]
    assert 0.0 < 1.0 - sum(q) <= 1e-15
    doc = {"num_pages": 3, "damping": 0.85, "teleport": "uniform",
           "obligatory": [[0, 1], [1, 2]],
           "rewards": {"type": "per_page", "values": [0.0, 1.0, 2.0]},
           "skeleton": [{"page": 2, "q": q, "mu": 0.0}]}
    path = _write(tmp_path, "g.json", doc)
    for entries, status in (([[0, 1e6], [1, -999999.0]], "error"), ([[1, 2.0]], "error"),
                            ([[0, 0.25], [1, 0.75]], "ok"), ([], "ok")):
        strategy = {"pages": [{"page": 2, "kind": "free", "row_entries": entries}]}
        code, env = _run(capsys, ["pagerank", path, "--strategy",
                                  _write(tmp_path, "s.json", strategy)])
        assert env["status"] == status, entries
        if status == "error":
            assert code == 1
            assert env["error"]["type"] == "InvalidStrategy"
            assert "page 2 has no free mass" in env["error"]["message"]


def test_pagerank_normalizes_a_row_accepted_within_tolerance(tmp_path, capsys):
    # link page 0's free rows are off unit mass, or below 0, by 1e-10,
    # inside the check's 1.18e-9, so they are used clipped at 0 and divided
    # by their sum, and the chain solves to 1e-12; weight page 2's slack
    # 1.5e-9 is above that tolerance, so its weights must sum to one
    doc = {"num_pages": 3, "damping": 0.85, "teleport": "uniform",
           "obligatory": [[0, 1], [1, 2]],
           "rewards": {"type": "per_page", "values": [0.0, 1.0, 2.0]},
           "skeleton": [{"page": 2, "q": [0.5, 0.5, 0.0], "mu": 1.5e-9}]}
    path = _write(tmp_path, "g.json", doc)
    for page, entries, status in ((0, [[1, 1.0000000001]], "ok"),
                                  (0, [[0, -1e-10], [1, 1.0000000001]], "ok"),
                                  (2, [[0, 0.4]], "error"), (2, [[0, 1.5]], "error"),
                                  (2, [[0, 1.0]], "ok")):
        strategy = {"pages": [{"page": page, "kind": "free", "row_entries": entries}]}
        code, env = _run(capsys, ["pagerank", path, "--strategy",
                                  _write(tmp_path, "s.json", strategy)])
        assert env["status"] == status, entries
        if status == "ok":
            assert code == 0
            assert abs(sum(env["result"]["pi"]) - 1.0) <= 1e-12
        else:
            assert code == 1
            assert env["error"]["type"] == "InvalidStrategy"


@pytest.mark.parametrize("command", ["pagerank", "analyze"])
def test_a_link_activated_twice_is_a_parse_error(tmp_path, capsys, command):
    strategy = {"pages": [{"page": 0, "kind": "discrete", "activated": [1, 1]}]}
    code, env = _run(capsys, [command, _write(tmp_path, "g.json", two_page_doc()),
                              "--strategy", _write(tmp_path, "s.json", strategy)])
    assert code == 1
    assert env["error"] == {"type": "ParseError", "message": "activated lists a link twice"}


def test_optimize_inlines_a_weight_strategy(tmp_path, capsys):
    # 600 pages with 10 dense skeletons: chain-space rows would have taken
    # about 6,000 entries, past the inline cap; free rows take one each
    doc = weight_web_doc(np.random.default_rng(3030), 600, 10)
    inst_path = _write(tmp_path, "w.json", doc)
    out_path = str(tmp_path / "strategy.json")
    code, env = _run(capsys, ["optimize", inst_path, "--mode", "weights",
                              "--out", out_path])
    assert code == 0
    pages = env["result"]["strategy"]["pages"]
    assert len(pages) == 10
    assert all(p["kind"] == "free" and len(p["row_entries"]) == 1 for p in pages)
    with open(out_path, encoding="utf-8") as fh:
        assert json.load(fh) == env["result"]["strategy"]
    code, back = _run(capsys, ["pagerank", inst_path, "--strategy", out_path])
    assert code == 0
    assert back["result"]["utility"] == pytest.approx(env["result"]["income"], abs=1e-8)


def test_optimize_reports_stop_reason(tmp_path, capsys):
    inst_path = _write(tmp_path, "g.json", two_page_doc())
    code, env = _run(capsys, ["optimize", inst_path])
    assert code == 0
    assert env["result"]["stop_reason"] == "policy_stable"
    assert env["result"]["residual"] <= 1e-9
    assert env["result"]["tol"] == 1e-9

    # one policy step cannot confirm its own policy: the best pair is
    # still reported, under the iteration-limit status
    out_path = tmp_path / "strategy.json"
    code, env = _run(capsys, ["optimize", inst_path, "--max-iter", "1",
                              "--out", str(out_path)])
    assert code == 3
    assert env["status"] == "limit"
    assert env["result"]["stop_reason"] == "max_iter"
    assert env["result"]["iterations"] == 1
    assert env["result"]["residual"] > 1e-9
    assert sorted(p["page"] for p in env["result"]["strategy"]["pages"]) == [0, 1]
    assert not out_path.exists()


def test_optimize_stops_at_the_rounding_of_huge_rewards(tmp_path, capsys):
    # a per-link reward of 1e15 puts the values' own rounding far above
    # tol 1e-9: the loop stops once its bracket is within that rounding
    # and stops shrinking, and the envelope states the tolerance it met
    doc = two_page_doc()
    doc["rewards"]["entries"][2][2] = 1e15
    code, env = _run(capsys, ["optimize", _write(tmp_path, "g.json", doc)])
    assert code == 0
    result = env["result"]
    assert result["stop_reason"] == "rounding"
    assert result["iterations"] <= 5
    assert result["tol"] == result["residual"] > 1e-9
    assert result["strategy"]["pages"] == [
        {"page": 0, "kind": "discrete", "activated": [1]},
        {"page": 1, "kind": "discrete", "activated": [0]}]


@pytest.mark.parametrize("damping", [0.995, 0.999])
def test_optimize_reports_the_tolerance_it_met(tmp_path, capsys, damping):
    # at high damping the rounding allowance alone exceeds --tol 1e-9: the
    # envelope either meets the tolerance asked for or says "rounding" and
    # reports the bound it met as its tol
    doc = two_page_doc()
    doc["damping"] = damping
    code, env = _run(capsys, ["optimize", _write(tmp_path, "g.json", doc)])
    assert code == 0 and env["status"] == "ok"
    result = env["result"]
    assert result["residual"] <= result["tol"]
    assert result["tol"] == 1e-9 or (result["stop_reason"] == "rounding"
                                     and result["tol"] == result["residual"])


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
    # the candidate is one randomized strategy: both pages mix their rows
    pages = env["result"]["candidate"]["strategy"]["pages"]
    assert [p["kind"] for p in pages] == ["free", "free"]
    load_strategy(out_path, load_instance(two_page_coupled_doc()))  # file exists and parses


def _strict(text):
    """Parse JSON that must hold no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_optimize_coupled_output_is_strict_json(tmp_path, capsys):
    path = _write(tmp_path, "g.json", two_page_coupled_doc())
    # one dual call finds no feasible income: the gap is unbounded
    code = main(["--deterministic", "optimize-coupled", path, "--max-outer", "1"])
    env = _strict(capsys.readouterr().out)
    assert code == 2 and env["status"] == "qualified"
    assert env["result"]["gap"] is None and env["result"]["best_feasible"] is None
    assert env["result"]["iterations"] == 1
    code = main(["--deterministic", "optimize-coupled", path])
    env = _strict(capsys.readouterr().out)
    assert code == 0 and env["result"]["gap"] <= 1e-6
    assert env["result"]["master_pivots"] >= 1
    # knobs that cannot end a run are refused in the envelope
    for flag, value in (("--max-outer", "0"), ("--tol", "-1"), ("--tol", "nan"),
                        ("--tol", "inf")):
        code = main(["--deterministic", "optimize-coupled", path, flag, value])
        env = _strict(capsys.readouterr().out)
        assert code == 1 and env["status"] == "error", (flag, value)
        assert env["error"]["type"] == "ValidationError"


def test_optimize_refuses_bad_knobs(tmp_path, capsys):
    # before, --tol inf printed "tol": Infinity and --max-iter 0 printed
    # "residual": Infinity; every bad knob now ends in the error envelope
    path = _write(tmp_path, "g.json", two_page_doc())
    for flag, value in (("--tol", "inf"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "-1"),
                        ("--max-iter", "0"), ("--max-iter", "-3")):
        code = main(["--deterministic", "optimize", path, flag, value])
        env = _strict(capsys.readouterr().out)
        assert code == 1 and env["status"] == "error", (flag, value)
        assert env["error"]["type"] == "ValidationError"


def test_pagerank_refuses_bad_tolerance(tmp_path, capsys):
    # --tol inf stopped after one step with status ok, and nan and -1 were
    # refused with a bound derived from the flag, not the flag's value
    path = _write(tmp_path, "g.json", two_page_doc())
    for value in ("inf", "nan", "-1", "0"):
        code = main(["--deterministic", "pagerank", path, "--tol", value])
        env = _strict(capsys.readouterr().out)
        assert code == 1 and env["status"] == "error", value
        assert env["error"]["type"] == "ValidationError"
        assert env["error"]["message"] == \
            f"tol must be finite and positive, got {float(value)}"


def test_verify_refuses_bad_tolerance(tmp_path, capsys):
    # --tol inf matched any difference
    path = _write(tmp_path, "g.json", two_page_doc())
    for value in ("inf", "nan", "-1"):
        code = main(["--deterministic", "verify", path, "--tol", value])
        env = _strict(capsys.readouterr().out)
        assert code == 1 and env["status"] == "error", value
        assert env["error"]["type"] == "ValidationError"


def test_optimize_coupled_infeasible_budget(tmp_path, capsys):
    # every strategy visits the two pages with total mass 1 > 0.5
    doc = {
        "num_pages": 2,
        "damping": 0.85,
        "teleport": [0.5, 0.5],
        "obligatory": [],
        "facultative": [[0, 1], [1, 0]],
        "rewards": {"type": "per_page", "values": [0.0, 1.0]},
        "coupling": [{"per_page": [1.0, 1.0], "bound": 0.5}],
    }
    code, env = _run(capsys, ["optimize-coupled", _write(tmp_path, "g.json", doc)])
    assert code == 2
    assert env["status"] == "qualified"
    assert env["error"]["type"] == "Infeasible"


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


def test_analyze_per_link_rewards_keeps_the_defect_audit(tmp_path, capsys):
    # per-link rewards get both audits: one kind per facultative link,
    # and the default strategy's violations next to its defects
    doc = random_discrete_doc(np.random.default_rng(3))
    assert doc["rewards"]["type"] == "per_link"
    code, env = _run(capsys, ["analyze", _write(tmp_path, "g.json", doc)])
    assert code == 2
    result = env["result"]
    assert len(result["classifications"]) == len(doc["facultative"])
    assert result["violations"]
    assert result["optimal"] is False
    assert result["max_defect"] > 0.0


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_analyze_rejects_a_bad_tolerance(tmp_path, capsys, tol):
    # such a tolerance would call every link a tie and hide the default
    # strategy's violations; a weight-only instance is refused alike
    weights = random_continuous_doc(np.random.default_rng(105), n_max=4)
    for doc in (_audit_doc(), weights):
        code, env = _run(capsys, ["analyze", _write(tmp_path, "g.json", doc), "--tol", tol])
        assert code == 1
        assert env["error"]["type"] == "ValidationError"


def test_analyze_audits_a_weight_instance(tmp_path, capsys):
    # no facultative link to classify, but an ordering and a defect audit
    doc = random_continuous_doc(np.random.default_rng(105), n_max=4)
    inst_path = _write(tmp_path, "w.json", doc)
    out_path = str(tmp_path / "strategy.json")
    assert _run(capsys, ["optimize", inst_path, "--out", out_path])[0] == 0
    code, env = _run(capsys, ["analyze", inst_path, "--strategy", out_path])
    assert code == 0
    result = env["result"]
    assert sorted(result["ordering"]) == list(range(doc["num_pages"]))
    assert len(result["values"]) == doc["num_pages"]
    assert result["classifications"] == []
    assert result["violations"] == []
    assert result["optimal"] is True


def test_analyze_builds_one_chain_and_solves_one_value(tmp_path, capsys, monkeypatch):
    inst_path = _write(tmp_path, "g.json", _audit_doc())
    out_path = str(tmp_path / "strategy.json")
    assert _run(capsys, ["optimize", inst_path, "--out", out_path])[0] == 0
    calls = {"chain": 0, "value": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name, key in ((graph, "build_transition", "chain"),
                              (analysis, "build_transition", "chain"),
                              (analysis, "mean_reward_before_teleport", "value")):
        monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    code, _ = _run(capsys, ["analyze", inst_path, "--strategy", out_path])
    assert code == 0
    assert calls == {"chain": 1, "value": 1}


def test_analyze_caps_its_lists_on_a_large_web(tmp_path, capsys):
    # as pagerank and optimize do: above the caps a list is replaced by
    # its length, and the verdict and violations stay whole
    doc = link_web_doc(np.random.default_rng(106), 5200, 300, 20)
    assert len(doc["facultative"]) > 5000
    code, env = _run(capsys, ["analyze", _write(tmp_path, "web.json", doc)])
    assert code == 2
    result = env["result"]
    assert result["values"] == {"count": 5200, "omitted": True}
    assert result["ordering"] == {"count": 5200, "omitted": True}
    assert result["classifications"] == {"count": len(doc["facultative"]), "omitted": True}
    assert result["violations"]
    assert result["optimal"] is False
    assert result["max_defect"] > 0.0
    assert isinstance(result["master"], int)


def test_analyze_envelope_of_a_small_instance_is_the_whole_report(tmp_path, capsys):
    doc = random_discrete_doc(np.random.default_rng(3))
    code, env = _run(capsys, ["analyze", _write(tmp_path, "g.json", doc)])
    assert code == 2
    report = analysis.master_ordering(load_instance(doc)).to_report_dict()
    assert env["result"] == json.loads(json.dumps(report))


def test_analyze_builds_no_list_above_its_cap(tmp_path, capsys, monkeypatch):
    # with the caps just below this web's sizes, values, ordering,
    # classifications and violations are each given by their length alone
    doc = random_discrete_doc(np.random.default_rng(3))
    full = analysis.master_ordering(load_instance(doc)).to_report_dict()
    lists = ("values", "ordering", "classifications", "violations")
    assert 0 < len(full["violations"]) <= min(len(full[key]) for key in lists)
    monkeypatch.setattr(cli, "_W_CAP", len(full["values"]) - 1)
    monkeypatch.setattr(cli, "_STRATEGY_INLINE_CAP", len(full["violations"]) - 1)
    code, env = _run(capsys, ["analyze", _write(tmp_path, "g.json", doc)])
    assert code == 2
    for key in lists:
        assert env["result"][key] == {"count": len(full[key]), "omitted": True}
    assert {key: env["result"][key] for key in ("master", "max_defect", "optimal")} == \
        {key: full[key] for key in ("master", "max_defect", "optimal")}


def test_analyze_envelope_of_a_small_instance_is_unchanged(tmp_path, capsys):
    # the exact standard output of ``pro --deterministic analyze`` on a
    # small web, as written before the report built its lists capped
    with open(DATA / "analyze_envelope.json", encoding="utf-8") as fh:
        case = json.load(fh)
    assert main(["--deterministic", "analyze",
                 _write(tmp_path, "g.json", case["instance"])]) == 2
    assert capsys.readouterr().out == case["stdout"]


def test_verify_local_match(tmp_path, capsys):
    code, env = _run(capsys, ["verify", _write(tmp_path, "g.json", two_page_doc())])
    assert code == 0
    assert env["result"]["match"] is True
    assert abs(env["result"]["difference"]) <= 1e-8


def test_verify_exact_match_on_a_local_instance(tmp_path, capsys):
    # --tol 0 solves at the rounding floor and reports the difference; it
    # used to exit 1 on a solve tolerance of 0 the user never passed
    code, env = _run(capsys, ["verify", _write(tmp_path, "g.json", two_page_doc()),
                              "--tol", "0"])
    result = env["result"]
    assert abs(result["difference"]) <= 1e-12
    assert result["match"] is (result["difference"] == 0.0)
    assert (code, env["status"]) == ((0, "ok") if result["match"] else (2, "qualified"))


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
    elif path == "per_page":
        doc["rewards"] = {"type": "per_page", "values": value}
    else:
        doc["facultative"] = value
    return doc


@pytest.mark.parametrize("doc", [
    _with("facultative", [[0, 1.5]]),
    _with("rewards", [0, 1.5, 2.0]),
    _with("coupling", [0, 1.5, 1.0]),
    _with("facultative", [["a", 1]]),
    _with("facultative", [[0, 1], [1]]),
    # numpy would read a boolean among numbers as 1: reward 1.0, link (0, 1)
    _with("per_page", [True, 0.5]),
    _with("facultative", [[0, True]]),
], ids=["float-link", "float-reward-index", "float-coupling-index",
        "string-link", "ragged-links", "bool-reward", "bool-link"])
def test_non_integer_indices_are_parse_errors(tmp_path, capsys, doc):
    code, env = _run(capsys, ["optimize", _write(tmp_path, "g.json", doc)])
    assert code == 1
    assert env["status"] == "error"
    assert env["error"]["type"] == "ParseError"


def _numbers_doc(key, value):
    doc = two_page_coupled_doc()
    if key == "reward":
        doc["rewards"] = two_page_doc()["rewards"]
        doc["rewards"]["entries"][0][2] = value
    elif key == "coupling":
        doc["coupling"] = [{"entries": [[0, 1, value]], "bound": 1.0}]
    elif key == "bound":
        doc["coupling"][0]["bound"] = value
    elif key == "weight":
        doc["coupling"][0]["per_page"] = [value, 1.0]
    else:
        doc["teleport"] = "uniform"
        doc[key] = value
    return doc


@pytest.mark.parametrize("doc, kind", [
    (_numbers_doc("reward", "x"), "ParseError"),
    (_numbers_doc("reward", [1.0]), "ParseError"),
    (_numbers_doc("coupling", "x"), "ParseError"),
    (_numbers_doc("bound", float("nan")), "ValidationError"),
    (_numbers_doc("weight", float("inf")), "ValidationError"),
    (_numbers_doc("num_pages", True), "ParseError"),
], ids=["string-reward", "nested-reward", "string-coupling-weight", "nan-bound",
        "infinite-per-page-weight", "bool-num-pages"])
def test_bad_instance_numbers_end_in_the_envelope(tmp_path, capsys, doc, kind):
    code, env = _run(capsys, ["optimize-coupled", _write(tmp_path, "g.json", doc)])
    assert code == 1
    assert env["status"] == "error"
    assert env["error"]["type"] == kind


@pytest.mark.parametrize("record", [
    {"page": 0, "kind": "discrete", "activated": [1.5]},
    {"page": 0, "kind": "discrete", "activated": [True]},
    {"page": True, "kind": "discrete", "activated": [1]},
    {"page": 0, "kind": "free", "row_entries": [[-1, 0.5], [0, 0.5]]},
    {"page": 0, "kind": "free", "row_entries": [[0.0, 0.5], [1, 0.5]]},
    {"page": 0, "kind": "free", "row_entries": [[0, float("nan")], [1, 0.5]]},
    {"page": 0, "kind": "free", "row_entries": [[2 ** 40, 0.5], [0, 0.5]]},
    # numpy reads a boolean among numbers as 0 or 1: links 0 and 1, column
    # 1, weight 1.0 on page 0
    {"page": 0, "kind": "discrete", "activated": [0, True]},
    {"page": 0, "kind": "free", "row_entries": [[0, 0.5], [True, 0.5]]},
    {"page": 0, "kind": "free", "row_entries": [[0, True], [1, 0.0]]},
], ids=["float-link", "bool-link", "bool-page", "negative-column",
        "float-column", "nan-weight", "huge-column", "bool-among-links",
        "bool-column", "bool-weight"])
def test_strict_strategy_documents(tmp_path, capsys, record):
    code, env = _run(capsys, ["pagerank", _write(tmp_path, "g.json", two_page_doc()),
                              "--strategy", _write(tmp_path, "s.json", {"pages": [record]})])
    assert code == 1
    assert env["status"] == "error"
    assert env["error"]["type"] in ("ParseError", "ValidationError")


def test_chain_space_strategy_kind_is_refused(tmp_path, capsys):
    # "free" rows are the one row form; the older chain-space rows are not read
    record = {"page": 0, "kind": "continuous", "row_entries": [[0, 0.5], [1, 0.5]]}
    code, env = _run(capsys, ["pagerank", _write(tmp_path, "g.json", two_page_doc()),
                              "--strategy", _write(tmp_path, "s.json", {"pages": [record]})])
    assert code == 1
    assert env["error"] == {"type": "ParseError",
                            "message": "unknown strategy kind 'continuous'"}


@pytest.mark.parametrize("page", [2, 3, 10 ** 15, 10 ** 30])
def test_analyze_refuses_a_strategy_page_out_of_range(tmp_path, capsys, page):
    strategy = {"pages": [{"page": page, "kind": "discrete", "activated": []}]}
    code, env = _run(capsys, ["analyze", _write(tmp_path, "g.json", two_page_doc()),
                              "--strategy", _write(tmp_path, "s.json", strategy)])
    assert code == 1
    assert env["error"] == {"type": "InvalidStrategy",
                            "message": f"strategy page {page} out of range"}


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


def test_page_count_above_the_int64_key_cap_is_refused(tmp_path, capsys):
    doc = uniform_doc()
    doc["num_pages"] = 10 ** 30
    code, env = _run(capsys, ["pagerank", _write(tmp_path, "g.json", doc)])
    assert code == 1
    assert env["error"]["type"] == "ValidationError"
    doc["num_pages"] = graph.MAX_PAGES + 1
    with pytest.raises(ValidationError, match="num_pages must be at most 3037000499"):
        load_instance(doc)


def test_memory_error_is_a_limit(tmp_path, capsys, monkeypatch):
    def exhausted(source):
        raise MemoryError("no room")

    monkeypatch.setattr(graph, "load_instance", exhausted)
    code, env = _run(capsys, ["pagerank", _write(tmp_path, "g.json", two_page_doc())])
    assert code == 3
    assert env["status"] == "limit"
    assert env["error"]["type"] == "MemoryError"


def _slots(node, path=()):
    """Paths to every field and list element below ``node``."""
    if isinstance(node, list):
        node = dict(enumerate(node))
    for key, child in node.items() if isinstance(node, dict) else ():
        yield path + (key,)
        yield from _slots(child, path + (key,))


_FUZZ_SLOTS = [(b, path) for b, doc in enumerate(fuzz_bases()) for path in _slots(doc)]
# no value here is huge but valid: a page count between 10**4 and the cap
# would allocate gigabytes, a damping above 0.99 run ~10**8 sweeps
_FUZZ_POOL = [None, True, "x", -1, 0, 1.5, 10 ** 15, 10 ** 30, [], [[0]], [[0, 1]], {"a": 1}]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(_FUZZ_SLOTS), st.sampled_from(_FUZZ_POOL))
@example((2, ("num_pages",)), 10 ** 30)
@example((2, ("num_pages",)), 10 ** 15)
@example((2, ("rewards", "entries", 0, 0)), [[0, 1]])
@example((2, ("coupling", 0, "entries", 0, 0)), [[0, 1]])
def test_fuzzed_documents_end_in_one_envelope(slot, value):
    base, path = slot
    doc = fuzz_bases()[base]
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = os.path.join(tmp, "g.json")
        with open(inst_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in ("pagerank", "optimize"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["--deterministic", command, inst_path])
            envelope = json.loads(out.getvalue())  # one JSON document
            assert envelope["command"] == command
            assert code == {"ok": 0, "error": 1, "qualified": 2, "limit": 3}[envelope["status"]]
            if value is True:  # no field takes a boolean, nor is one read as 0 or 1
                assert (envelope["status"], code) == ("error", 1)


def _solved_strategy(doc):
    """The solver's own strategy document for ``doc``: the local optimum,
    or the coupled solver's candidate where budget rows are present."""
    inst = load_instance(doc)
    if inst.coupling:
        return solve_coupled(inst).candidate.strategy.to_json_dict()
    return value_iterate(inst)[1].to_json_dict()


def test_fuzzed_strategy_documents_end_in_one_envelope(tmp_path):
    # every field and list element of each base's solved strategy, set to
    # every value of the pool, through both commands that read a strategy
    failures = []
    for base, doc in enumerate(fuzz_bases()):
        inst_path = _write(tmp_path, f"g{base}.json", doc)
        solved = _solved_strategy(doc)
        for path in _slots(solved):
            for value in _FUZZ_POOL:
                strategy = json.loads(json.dumps(solved))
                node = strategy
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                strat_path = _write(tmp_path, "s.json", strategy)
                for command in ("pagerank", "analyze"):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        try:
                            code = main(["--deterministic", command, inst_path,
                                         "--strategy", strat_path])
                        except Exception as exc:  # noqa: BLE001 - collected below
                            failures.append((base, path, value, command, repr(exc)))
                            continue
                    envelope = json.loads(out.getvalue())  # one JSON document
                    assert envelope["command"] == command
                    assert code == {"ok": 0, "error": 1, "qualified": 2,
                                    "limit": 3}[envelope["status"]]
    assert failures == []
