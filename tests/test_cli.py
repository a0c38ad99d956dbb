"""End-to-end CLI runs: generate, solve, evaluate, compare, suites, exit codes."""

import argparse
import dataclasses
import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from robustflow import (
    LexSolution,
    LpSolution,
    dumps,
    embed_static,
    gen_bottleneck,
    gen_partition,
    gen_random,
    gen_ti_gap,
    gen_two_hop,
    instance_from_json,
    instance_to_json,
    min_arc_cut,
    nominal_dynamic_max_flow,
    nominal_max_flow,
    rat,
    rational_to_json,
    solve_dynamic,
    split_capacities,
)
from robustflow import cli, model_lp
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


@pytest.mark.parametrize(
    "family, model, kind",
    [("two-hop", "pm", "arc"), ("two-hop", "pm", "tr"), ("ti-gap", "dpm", "arc")],
)
def test_evaluate_rejects_a_kind_the_flow_does_not_have(tmp_path, capsys, family, model, kind):
    # Static and dynamic instances check --kind against the flow file alike.
    inst = tmp_path / "inst.json"
    run(capsys, "generate", family, "-o", str(inst))
    result = tmp_path / "result.json"
    assert run(capsys, "solve", str(inst), "--model", model, "-o", str(result))[0] == 0
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(dumps(json.loads(result.read_text())["flow"]))
    code, out, err = run(capsys, "evaluate", str(inst), str(flow_path), "--kind", kind)
    assert code == 2
    assert out == ""
    assert f"flow kind 'path' does not match '{kind}'" in err
    assert run(capsys, "evaluate", str(inst), str(flow_path), "--kind", "path")[0] == 0


@pytest.mark.parametrize(
    "family, flow, message",
    [
        ("two-hop", {"kind": "path", "entries": [[True, "1/2"]]}, "unknown path index True"),
        (
            "ti-gap",
            {"kind": "path", "timed": True, "entries": [[False, 1, "1/2"]]},
            "unknown route index False",
        ),
        ("ti-gap", {"kind": "tr", "entries": [[True, "1/2"]]}, "unknown path index True"),
    ],
)
def test_evaluate_rejects_boolean_flow_keys(tmp_path, capsys, family, flow, message):
    # JSON true/false is no route index, although True == 1 and False == 0 in Python.
    inst = tmp_path / "inst.json"
    run(capsys, "generate", family, "-o", str(inst))
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(dumps(flow))
    code, out, err = run(capsys, "evaluate", str(inst), str(flow_path))
    assert (code, out) == (2, "")
    assert message in err


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
    "timed, model, code",
    [(False, "pm", 0), (False, "gm", 3), (True, "dpm", 0), (True, "tr", 0), (True, "dgm", 3)],
)
def test_path_guard_counts_only_the_routes_a_model_reads(tmp_path, capsys, monkeypatch, timed, model, code):
    # two-hop has 6 source-sink paths and 11 subpaths: a guard of 8 stops only
    # the models that read subpaths, statically and in the horizon-1 embedding.
    net = gen_two_hop()
    inst = tmp_path / "inst.json"
    inst.write_text(dumps(instance_to_json(embed_static(net, 1) if timed else net)))
    unguarded = run(capsys, "solve", str(inst), "--model", model)
    assert unguarded[0] == 0
    monkeypatch.setenv("ROBUSTFLOW_GUARD_PATHS", "8")
    got, out, err = run(capsys, "solve", str(inst), "--model", model)
    assert got == code
    if code == 0:
        assert (out, err) == unguarded[1:]
    else:
        assert err == "guard exceeded: more than 8 subpaths; raise the guard to proceed\n"


@pytest.mark.parametrize("model", ["dpm", "dgm", "tr", "dam", "dam-compact"])
def test_invalid_timed_instance_is_rejected_before_routes_are_read(tmp_path, capsys, monkeypatch, model):
    # A guard of 1 path stops any route enumeration, so an invalid horizon
    # must be reported (exit 2) before a builder reads a route (exit 3).
    inst = tmp_path / "ti-gap.json"
    run(capsys, "generate", "ti-gap", "-o", str(inst))
    monkeypatch.setenv("ROBUSTFLOW_GUARD_PATHS", "1")
    code, _, err = run(capsys, "solve", str(inst), "--model", model, "--horizon", "0")
    assert code == 2
    assert err == "error: invalid dynamic instance: horizon must be an integer >= 1, got 0\n"


@pytest.mark.parametrize(
    "binding, solution, flags",
    [
        ("solve_lp", LpSolution("unbounded", None, ()), []),
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


def test_generate_random_dynamic_horizon(capsys):
    # --horizon defaults to 4 only when it is absent, and an invalid horizon
    # or budget is a parameter error, not an instance that solve rejects later.
    for extra, horizon in (([], 4), (["--horizon", "2"], 2)):
        code, out, _ = run(capsys, "generate", "random-dynamic", *extra)
        assert (code, json.loads(out)["horizon"]) == (0, horizon)
    for flag, value, violation in (
        ("--horizon", "0", "horizon must be an integer >= 1, got 0"),
        ("--gamma", "-1", "gamma must be an integer >= 0, got -1"),
    ):
        code, out, err = run(capsys, "generate", "random-dynamic", flag, value)
        assert (code, out, err) == (2, "", f"error: invalid dynamic instance: {violation}\n")


def _choices(command: str, dest: str) -> list:
    """The ``choices`` of one positional argument of a subcommand."""
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    parser = subparsers.choices[command]
    return list(next(a for a in parser._actions if a.dest == dest).choices)


def test_readme_lists_the_cli_families_and_suites():
    # The README's lists, the tables and the parser's choices name the same
    # families and suites, in the same order.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    families = readme.split("Families for `generate`: ", 1)[1].split(";", 1)[0]
    suites = readme.split("Suites for `suite`", 1)[1].split("\n\n")[1]  # the bullet list
    assert re.findall(r"`([^`]+)`", families) == list(cli.FAMILIES) == _choices("generate", "family")
    assert re.findall(r"^- `([^`]+)`", suites, re.M) == list(cli.SUITES) == _choices("suite", "name")


# Each suite's exit code and stdout at --seeds 2, recorded before the suite
# checks shared one helper.  partition-roundtrip fails by design (see README).
SUITE_GOLDEN = {
    "static-invariants": (
        0,
        "PASS seed 0 (6 nodes, 10 arcs)\n"
        "PASS seed 1 (6 nodes, 10 arcs)\n"
        "PASS static-invariants: order, budget-1 factor 2, compact model, lex nominal (2 seeds)\n",
    ),
    "dynamic-invariants": (
        0,
        "PASS seed 0 (T=4, gamma=1)\n"
        "PASS seed 1 (T=5, gamma=2)\n"
        "PASS dynamic-invariants: dgm>=max(dpm,dam), tr<=dpm (2 seeds)\n",
    ),
    "embedding": (
        0,
        "PASS two-hop: static trio equals embedded dynamic trio\n"
        "PASS fan(2): static trio equals embedded dynamic trio\n"
        "PASS bottleneck(1,2): static trio equals embedded dynamic trio\n"
        "PASS embedding: horizon-1 embedding preserves all three optima\n",
    ),
    "oracle-equivalence": (
        0,
        "PASS seed 0: dam == dam-compact == 1/2\n"
        "PASS seed 1: dam == dam-compact == 5\n"
        "PASS oracle-equivalence: compact reformulation matches dam (2 seeds)\n",
    ),
    "partition-roundtrip": (
        4,
        "FAIL partition-roundtrip: 2 of 11 multisets break the subset-sum equivalence: "
        "b=(2, 2, 2) (dpm=1), b=(2, 3, 3) (dpm=1). These are no-instances whose "
        "deadline-feasible paths pairwise overlap yet share no single arc, so a budget-1 "
        "delay cannot stop all of them and the robust optimum is positive; the equivalence "
        "only holds when positivity forces two arc-disjoint paths.\n",
    ),
    "conjecture-probe": (
        0,
        "  two-hop: gm/pm = 4/3\n"
        "  fan(1): gm/pm = 1\n"
        "  bottleneck(1,1): gm/pm = 1\n"
        "  bottleneck(1,2): gm/pm = 3/2\n"
        "  bottleneck(1,4): gm/pm = 7/4\n"
        "  bottleneck(1,8): gm/pm = 15/8\n"
        "  random-dag seed 0: gm/pm = 1\n"
        "  random-dag seed 1: pm = 0, ratio skipped\n"
        "max observed gm/pm = 15/8 on bottleneck(1,8); conjectured bound gamma+1 = 2: consistent\n",
    ),
}


@pytest.mark.parametrize("name", list(cli.SUITES))
def test_suite_output_is_golden(capsys, name):
    assert run(capsys, "suite", name, "--seeds", "2") == (*SUITE_GOLDEN[name], "")


def test_suite_rejects_negative_seeds(capsys):
    # A negative count would check nothing and still print PASS.
    assert run(capsys, "suite", "static-invariants", "--seeds", "-2") == (
        2,
        "",
        "error: --seeds must be >= 0, got -2\n",
    )


@pytest.mark.parametrize("name", ["static-invariants", "dynamic-invariants", "oracle-equivalence"])
def test_seeded_suite_rejects_zero_seeds(capsys, name):
    # These suites check only seeded random instances: with no seed they
    # would check nothing and still print PASS.
    assert run(capsys, "suite", name, "--seeds", "0") == (
        2,
        "",
        f"error: suite {name} checks only random instances: --seeds must be >= 1\n",
    )


@pytest.mark.parametrize(
    "name, code", [("embedding", 0), ("partition-roundtrip", 4), ("conjecture-probe", 0)]
)
def test_suite_with_fixed_cases_accepts_zero_seeds(capsys, name, code):
    # These suites also check built-in cases; partition-roundtrip fails by design.
    result, out, err = run(capsys, "suite", name, "--seeds", "0")
    assert (result, err) == (code, "")
    assert out.splitlines()[-1].startswith(("PASS", "FAIL", "max observed"))


def test_suite_static_invariants_passes(capsys):
    code, out, _ = run(capsys, "suite", "static-invariants", "--seeds", "2")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_suite_failure_prints_minimized_counterexample(capsys, monkeypatch):
    # A planted broken invariant: on networks with at least 4 arcs, gm reports
    # a robust value below pm's.
    solve = cli._static_value

    def planted(net, model, gamma, lex=False):
        report = solve(net, model, gamma, lex)
        if model == "gm" and len(net.arcs) >= 4:
            return dataclasses.replace(report, robust_value=Fraction(-1))
        return report

    def still_fails(net):
        values = {m: planted(net, m, 1).robust_value for m in ("pm", "am", "gm")}
        return values["gm"] < values["pm"] or values["gm"] < values["am"]

    monkeypatch.setattr(cli, "_static_value", planted)
    code, out, _ = run(capsys, "suite", "static-invariants", "--seeds", "1")
    assert code == 4
    lines = out.splitlines()
    assert lines[0].startswith("FAIL static-invariants: seed 0 gamma 1: gm below pm/am: ")
    assert lines[1] == "minimized counterexample:"
    small = instance_from_json(json.loads("\n".join(lines[2:])))
    original = gen_random("dag", 6, 10, max_cap=4, seed=0)
    assert 4 <= len(small.arcs) < len(original.arcs)
    assert still_fails(small)


def test_dynamic_suite_minimizes_each_invariant_under_its_own_predicate(capsys, monkeypatch):
    # Two planted broken invariants: dgm reports -1 on networks with at least
    # 5 arcs, and tr always beats dpm.  dgm's is reported first, so its
    # minimized counterexample must still put dgm below dpm/dam; minimizing
    # under tr's invariant too would shrink it below 5 arcs.
    values = cli._timed_values

    def planted(inst):
        v = values(inst)
        if len(inst.network.arcs) >= 5:
            v["dgm"] = Fraction(-1)
        v["tr"] = v["dpm"] + 1
        return v

    monkeypatch.setattr(cli, "_timed_values", planted)
    code, out, _ = run(capsys, "suite", "dynamic-invariants", "--seeds", "1")
    assert code == 4
    lines = out.splitlines()
    assert lines[0].startswith("FAIL dynamic-invariants: seed 0: dgm below dpm/dam: ")
    assert lines[1] == "minimized counterexample:"
    small = instance_from_json(json.loads("\n".join(lines[2:])))
    original = cli._random_dynamic(0, 5, 7)
    assert 5 <= len(small.network.arcs) < len(original.network.arcs)
    assert (small.horizon, small.gamma) == (original.horizon, original.gamma)
    v = planted(small)
    assert v["dgm"] < v["dpm"] or v["dgm"] < v["dam"]


def test_embedding_suite_minimizes_under_the_reported_pair(capsys, monkeypatch):
    # Two planted broken optima: pm reports -1 on networks with at least 4
    # arcs, and am always does.  pm/dpm is checked first, so its minimized
    # counterexample must still set pm apart from dpm; minimizing under am's
    # pair as well would shrink two-hop (5 arcs) below 4 arcs.
    solve = cli._static_value

    def planted(net, model, gamma, lex=False):
        report = solve(net, model, gamma, lex)
        if model == "am" or (model == "pm" and len(net.arcs) >= 4):
            return dataclasses.replace(report, robust_value=Fraction(-1))
        return report

    monkeypatch.setattr(cli, "_static_value", planted)
    code, out, _ = run(capsys, "suite", "embedding")
    assert code == 4
    lines = out.splitlines()
    assert lines[0] == "FAIL embedding: two-hop: pm=-1 but embedded dpm=3/2"
    assert lines[1] == "minimized counterexample:"
    small = instance_from_json(json.loads("\n".join(lines[2:])))
    assert 4 <= len(small.arcs) < len(gen_two_hop().arcs)
    dpm = solve_dynamic(embed_static(small, 1), "dpm")[1].robust_value
    assert planted(small, "pm", 1).robust_value != dpm


def test_oracle_suite_minimized_counterexample_still_breaks_the_equivalence(
    capsys, monkeypatch, tmp_path
):
    # A planted broken reformulation: dam-compact reports -1 on networks with
    # at least 5 arcs.  The counterexample keeps the instance's horizon and
    # budget, and must still set dam-compact apart from dam.
    solve = cli.solve_dynamic

    def planted(inst, model, **kwargs):
        flow, report = solve(inst, model, **kwargs)
        if model == "dam-compact" and len(inst.network.arcs) >= 5:
            report = dataclasses.replace(report, robust_value=Fraction(-1))
        return flow, report

    monkeypatch.setattr(cli, "solve_dynamic", planted)
    code, out, _ = run(capsys, "suite", "oracle-equivalence", "--seeds", "1")
    assert code == 4
    lines = out.splitlines()
    assert lines[0] == "FAIL oracle-equivalence: seed 0: dam=1/2 dam-compact=-1"
    assert lines[1] == "minimized counterexample:"
    small = instance_from_json(json.loads("\n".join(lines[2:])))
    original = cli._random_dynamic(0, 5, 7)
    assert 5 <= len(small.network.arcs) < len(original.network.arcs)
    assert (small.horizon, small.gamma) == (original.horizon, original.gamma)
    assert planted(small, "dam")[1].robust_value != planted(small, "dam-compact")[1].robust_value
    # The printed counterexample replays as it is: a timed instance for solve.
    path = tmp_path / "counterexample.json"
    path.write_text("\n".join(lines[2:]), encoding="utf-8")
    assert run(capsys, "solve", str(path), "--model", "dam")[0] == 0


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


# Dynamic solves on the built-in instances, with each instance's own horizon
# and Gamma: (instance, model, sha256 of the --format csv --no-timing output,
# sha256 of the JSON output). Recorded from the Fraction-summing evaluator,
# before it compared integers over one common denominator.  The partition
# (2,2,4) dgm digests were re-recorded when the LP presolve moved its vertex:
# the robust value stays 1, and this plain solve's nominal value went 2 -> 3.
DYNAMIC_GOLDEN = [
    (
        gen_ti_gap,
        "dpm",
        "80755a385fddd3decf7a2cfc1b5aa907f9a803e990e8608b7b72799f46678e28",
        "18d79409ea590511321615c3ee24fc2cc06f7578dac7315e1e997d6031eb7838",
    ),
    (
        gen_ti_gap,
        "dam",
        "e10981a0159b01edec16df2d99a91bb21cd10d033ad034e6c08e533dfd390cde",
        "f9e39fd6f21b160de72d7ef9b57c738fce0683f2f86be136dabfcc10a10b8ce4",
    ),
    (
        gen_ti_gap,
        "tr",
        "a3e654065e8d32f9cefe6b5dfca5ed4479b8f746a2be7da91927c2852522df90",
        "b1267354437e9450b9ce979fcf7450d50efad4e704678ff34d4764ecd971a4a9",
    ),
    (
        lambda: gen_partition((2, 2, 4)),
        "dgm",
        "8cf10098519d688a03157bdeeb834279bf6e1b4bee909f4813a553c59eb769cf",
        "44fe051f86aeca045122f13d142e2fb8c33235733dd38e419644beb134b40d46",
    ),
    (
        lambda: gen_partition((2, 2, 4)),
        "dam-compact",
        "2fdc09d730d644d732f631339e411cd4e4bdf7d3918aebc29d1f25a65fb0fe7c",
        "ca4e8d9e9633a86e0751d7b2c8e40c4758409bc2f5283346b2e1e29ac3ae56d0",
    ),
]


@pytest.mark.parametrize(
    "make, model, csv_digest, json_digest",
    DYNAMIC_GOLDEN,
    ids=[f"{case[1]}-{k}" for k, case in enumerate(DYNAMIC_GOLDEN)],
)
def test_dynamic_solves_are_golden(tmp_path, capsys, monkeypatch, make, model, csv_digest, json_digest):
    monkeypatch.chdir(tmp_path)  # the manifest names the instance path
    (tmp_path / "net.json").write_text(dumps(instance_to_json(make())))
    digests = []
    for out, extra in (("out.csv", ["--format", "csv", "--no-timing"]), ("out.json", [])):
        code, stdout, stderr = run(capsys, "solve", "net.json", "--model", model, *extra, "-o", out)
        assert (code, stdout, stderr) == (0, "", "")
        digests.append(hashlib.sha256((tmp_path / out).read_bytes()).hexdigest())
    assert digests == [csv_digest, json_digest]


def _partition_arc_flow_times_3_2():
    """The nominal timed arc flow of partition (2,2,4), scaled by 3/2."""
    _, flow = nominal_dynamic_max_flow(gen_partition((2, 2, 4)))
    return [
        [a, theta, rational_to_json(v * Fraction(3, 2))]
        for (a, theta), v in sorted(flow.values.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
    ]


@pytest.mark.parametrize(
    "make, flow, lines, digest",
    [
        (  # 15 capacity and 9 conservation violations
            lambda: gen_partition((2, 2, 4)),
            lambda: {"kind": "arc", "timed": True, "entries": _partition_arc_flow_times_3_2()},
            25,
            "83540a395baf33d98d31f3c14793aa21b3dff9301dafd1cdc123b6d878b16caa",
        ),
        (  # a negative entry and two departures outside 1..T
            gen_ti_gap,
            lambda: {
                "kind": "path",
                "timed": True,
                "entries": [[0, 0, 1], [1, 1, "1/2"], [2, 3, 2], [2, 1, "-1/3"]],
            },
            3,
            "06c874d79738d32183144384b8f0e44c312de39808113d0853f5f08629c4d1e5",
        ),
    ],
    ids=["arc-capacity-conservation", "path-horizon"],
)
def test_evaluate_dynamic_infeasible_stderr_is_golden(tmp_path, capsys, make, flow, lines, digest):
    # Recorded from the Fraction-summing evaluator, like DYNAMIC_GOLDEN.
    inst = tmp_path / "net.json"
    inst.write_text(dumps(instance_to_json(make())))
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(dumps(flow()))
    code, out, err = run(capsys, "evaluate", str(inst), str(flow_path))
    assert (code, out) == (4, "")
    assert len(err.splitlines()) == lines + 1
    assert hashlib.sha256(err.encode()).hexdigest() == digest
