"""End-to-end CLI runs: generate, solve, evaluate, compare, suites, exit codes."""

import hashlib
import json
from fractions import Fraction

import pytest

from robustflow import (
    LexSolution,
    LpSolution,
    dumps,
    gen_bottleneck,
    gen_random,
    gen_two_hop,
    instance_to_json,
    min_arc_cut,
    nominal_max_flow,
    rat,
    rational_to_json,
    split_capacities,
)
from robustflow import model_lp
from robustflow.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_solve_evaluate_roundtrip(tmp_path, capsys):
    inst = tmp_path / "two-hop.json"
    code, _, _ = run(capsys, "generate", "two-hop", "-o", str(inst))
    assert code == 0
    doc = json.loads(inst.read_text())
    assert doc["source"] == "s" and doc["sink"] == "t"

    result_path = tmp_path / "result.json"
    code, _, _ = run(
        capsys, "solve", str(inst), "--model", "gm", "--gamma", "1", "-o", str(result_path)
    )
    assert code == 0
    result = json.loads(result_path.read_text())
    assert result["robust_value"] == 2
    assert result["nominal_value"] == 3
    assert result["manifest"] == {
        "command": "solve",
        "instance": str(inst),
        "model": "gm",
        "gamma": 1,
        "horizon": None,
        "lex_nominal": False,
    }

    flow_path = tmp_path / "flow.json"
    flow_path.write_text(dumps(result["flow"]))
    code, out, _ = run(capsys, "evaluate", str(inst), str(flow_path), "--gamma", "1")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["feasible"] is True
    assert verdict["robust_value"] == 2


def test_solve_dynamic_roundtrip(tmp_path, capsys):
    inst = tmp_path / "ti.json"
    assert run(capsys, "generate", "ti-gap", "-o", str(inst))[0] == 0
    result_path = tmp_path / "result.json"
    code, _, _ = run(
        capsys, "solve", str(inst), "--model", "dam", "-o", str(result_path)
    )
    assert code == 0
    result = json.loads(result_path.read_text())
    assert result["robust_value"] == 2
    assert result["horizon"] == 2
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(dumps(result["flow"]))
    code, out, _ = run(capsys, "evaluate", str(inst), str(flow_path))
    assert code == 0
    assert json.loads(out)["robust_value"] == 2


def test_generate_rejects_bad_alpha(tmp_path, capsys):
    code, _, err = run(
        capsys, "generate", "por-static", "--gamma", "1", "--alpha", "2",
        "-o", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "error:" in err


def test_solve_model_instance_mismatch(tmp_path, capsys):
    inst = tmp_path / "two-hop.json"
    run(capsys, "generate", "two-hop", "-o", str(inst))
    code, _, err = run(capsys, "solve", str(inst), "--model", "dpm")
    assert code == 2
    assert "dynamic instance" in err


def test_evaluate_infeasible_flow_exits_4(tmp_path, capsys):
    inst = tmp_path / "two-hop.json"
    run(capsys, "generate", "two-hop", "-o", str(inst))
    flow_path = tmp_path / "bad.json"
    flow_path.write_text(
        dumps({"kind": "arc", "timed": False, "entries": [["a1", 100]]})
    )
    code, _, err = run(capsys, "evaluate", str(inst), str(flow_path))
    assert code == 4
    assert "infeasible flow:" in err
    assert "a1" in err


def test_evaluate_infeasible_stderr_is_golden(tmp_path, capsys):
    # Nominal max flow scaled by 2/3 on a fixed random DAG at Gamma = 3: 1028
    # conservation violations. The digest was recorded from the per-scenario
    # evaluator, before it summed once per distinct scenario projection.
    net = gen_random("dag", nodes=9, arcs=18, max_cap=4, seed=1)
    _, arc_flow, _ = nominal_max_flow(net)
    inst = tmp_path / "net.json"
    inst.write_text(dumps(instance_to_json(net)))
    entries = [
        [a, rational_to_json(v * Fraction(2, 3))] for a, v in sorted(arc_flow.items()) if v != 0
    ]
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(dumps({"kind": "arc", "timed": False, "entries": entries}))
    code, out, err = run(capsys, "evaluate", str(inst), str(flow_path), "--gamma", "3")
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1029
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "4a49ccf97b543e365dc3c91d653a93e24b83496fd72eff07f34ec8d5c999b176"
    )


def test_parser_is_reused_without_leaking_state(tmp_path, capsys):
    inst = tmp_path / "two-hop.json"
    assert run(capsys, "generate", "two-hop", "-o", str(inst))[0] == 0
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["solve", str(inst), "--model", "pm", "--gamma", "2"])
    second = build_parser().parse_args(["solve", str(inst), "--model", "pm"])
    assert first is not second
    assert first.gamma == 2 and second.gamma is None
    # Through main: --gamma 2, then the same solve without it (default None,
    # so the default budget 1 applies).
    outputs = []
    for extra in (["--gamma", "2"], []):
        path = tmp_path / f"pm{len(outputs)}.json"
        code, _, _ = run(capsys, "solve", str(inst), "--model", "pm", *extra, "-o", str(path))
        assert code == 0
        outputs.append(json.loads(path.read_text()))
    assert [doc["manifest"]["gamma"] for doc in outputs] == [2, 1]
    assert [doc["robust_value"] for doc in outputs] == [0, "3/2"]
    # Different subcommands in a row: nothing of the first shows in the second.
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(dumps(outputs[1]["flow"]))
    code, out, _ = run(capsys, "evaluate", str(inst), str(flow_path))
    assert code == 0
    assert json.loads(out)["robust_value"] == "3/2"
    code, _, _ = run(capsys, "generate", "fan", "--gamma", "2", "-o", str(tmp_path / "fan.json"))
    assert code == 0
    args = build_parser().parse_args(["evaluate", str(inst), str(flow_path)])
    assert args.gamma is None and args.kind is None and not hasattr(args, "model")


def test_guard_exits_3(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "two-hop.json"
    run(capsys, "generate", "two-hop", "-o", str(inst))
    monkeypatch.setenv("ROBUSTFLOW_GUARD_PATHS", "1")
    code, _, err = run(capsys, "solve", str(inst), "--model", "pm")
    assert code == 3
    assert "guard exceeded:" in err


@pytest.mark.parametrize(
    "binding, solution, flags",
    [
        ("solve_lp", LpSolution("infeasible", None, ()), []),
        ("lexicographic_solve", LexSolution("unbounded", None, None, ()), ["--lex-nominal"]),
    ],
)
def test_non_optimal_model_lp_exits_4(tmp_path, capsys, monkeypatch, binding, solution, flags):
    # A model LP that does not come back optimal is a typed model-check
    # failure with exit code 4, not a traceback.
    inst = tmp_path / "two-hop.json"
    run(capsys, "generate", "two-hop", "-o", str(inst))
    monkeypatch.setattr(model_lp, binding, lambda *args: solution)
    code, out, err = run(capsys, "solve", str(inst), "--model", "gm", *flags)
    assert code == 4
    assert out == ""
    assert err == f"invariant violation: model LP came back {solution.status}\n"


def test_missing_instance_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.json"), "--model", "pm")
    assert code == 2
    assert "error:" in err


def test_solve_csv_no_timing_is_deterministic(tmp_path, capsys):
    inst = tmp_path / "two-hop.json"
    run(capsys, "generate", "two-hop", "-o", str(inst))
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, _ = run(
            capsys, "solve", str(inst), "--model", "pm", "--format", "csv",
            "--no-timing", "-o", str(path),
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    lines = outputs[0].decode().strip().split("\n")
    assert lines[0] == "model,robust_value,nominal_value,worst_scenarios"
    assert lines[1] == "pm,3/2,3,{a1} {a2}"


# Solves whose smallest source-sink arc cut has at most Gamma arcs, so they
# skip the simplex: (instance, model, Gamma, sha256 of the --format csv
# --no-timing output, sha256 of the JSON output). The solve JSON carries no
# timing. Recorded from the simplex, before the shortcut existed.
ZERO_CUT_GOLDEN = [
    (
        lambda: gen_random("dag", 6, 11, max_cap=1, seed=304),  # criterion 07
        "gm",
        3,
        "744ebe656f416ab85493238b90a4e935c4cddb002457b0a5fc548b7fe262cd6a",
        "4524b868f1e93d4920dd888c7f97737b7270b0ad6432c32f4c2eadf58039e479",
    ),
    (
        lambda: split_capacities(gen_random("dag", 4, 5, max_cap=2, seed=505)),
        "gm1",
        1,
        "073556ad76e0400b7afab62e7d4700d3c3d185b67cc8ed7afccdb0c0fe1aa091",
        "e2f38ed729fe1b78309b33974a9cc0084140f83bd07aa5c47065178f99bad87d",
    ),
    (
        gen_two_hop,
        "pm",
        2,
        "3110b881185a1fa5227575dc1b77345c5121291e6b6ed62fab2716df73108d8d",
        "8c61d7e5604810ac7bf237f6efb5fc7dec5e2d984891efb623819055280b109f",
    ),
    (
        lambda: gen_bottleneck(1, 1),
        "am",
        2,
        "c41efd2463f7b58505b8189b8314f346f333d8f4a5af9e940a75a96b10972b57",
        "e92b19ece7633703a5aa16fc780afc3595d21a2881f469d9308c048d588e929f",
    ),
]


@pytest.mark.parametrize(
    "make, model, gamma, csv_digest, json_digest",
    ZERO_CUT_GOLDEN,
    ids=[f"{case[1]}@{case[2]}-{k}" for k, case in enumerate(ZERO_CUT_GOLDEN)],
)
def test_zero_cut_solves_are_golden(
    tmp_path, capsys, monkeypatch, make, model, gamma, csv_digest, json_digest
):
    net = make()
    assert len(min_arc_cut(net)) <= gamma
    monkeypatch.chdir(tmp_path)  # the manifest names the instance path
    (tmp_path / "net.json").write_text(dumps(instance_to_json(net)))
    digests = []
    for out, extra in (("out.csv", ["--format", "csv", "--no-timing"]), ("out.json", [])):
        code, stdout, stderr = run(
            capsys, "solve", "net.json", "--model", model, "--gamma", str(gamma), *extra, "-o", out
        )
        assert (code, stdout, stderr) == (0, "", "")
        digests.append(hashlib.sha256((tmp_path / out).read_bytes()).hexdigest())
    assert digests == [csv_digest, json_digest]


def test_compare_covers_static_models(tmp_path, capsys):
    inst = tmp_path / "two-hop.json"
    run(capsys, "generate", "two-hop", "-o", str(inst))
    path = tmp_path / "cmp.csv"
    code, _, _ = run(capsys, "compare", str(inst), "--no-timing", "-o", str(path))
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert [line.split(",")[0] for line in lines] == ["model", "pm", "am", "gm"]
    values = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    assert values == {"pm": "3/2", "am": "4/3", "gm": "2"}


def test_compare_rejects_unknown_model(tmp_path, capsys):
    inst = tmp_path / "two-hop.json"
    run(capsys, "generate", "two-hop", "-o", str(inst))
    code, _, err = run(capsys, "compare", str(inst), "--models", "pm,bogus")
    assert code == 2
    assert "bogus" in err


def test_generate_partition_and_split(tmp_path, capsys):
    inst = tmp_path / "p.json"
    code, _, _ = run(capsys, "generate", "partition", "--b", "1", "1", "-o", str(inst))
    assert code == 0
    doc = json.loads(inst.read_text())
    assert doc["horizon"] == rat(doc["horizon"])  # integer horizon present
    code, _, err = run(capsys, "generate", "partition", "--b", "1", "-o", str(inst))
    assert code == 2
    assert "error:" in err

    split_path = tmp_path / "split.json"
    code, _, _ = run(capsys, "generate", "two-hop", "--split", "-o", str(split_path))
    assert code == 0
    assert len(json.loads(split_path.read_text())["arcs"]) == 12


def test_suite_static_invariants_passes(capsys):
    code, out, _ = run(capsys, "suite", "static-invariants", "--seeds", "2")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_suite_partition_roundtrip_reports_refutation(capsys):
    code, out, _ = run(capsys, "suite", "partition-roundtrip", "--seeds", "2")
    assert code == 4
    assert "break the subset-sum equivalence" in out
    assert "b=(2, 2, 2) (dpm=1)" in out


def test_suite_conjecture_probe(capsys):
    code, out, _ = run(capsys, "suite", "conjecture-probe", "--seeds", "1")
    assert code == 0
    assert "max observed gm/pm = 15/8 on bottleneck(1,8)" in out
    assert "consistent" in out
