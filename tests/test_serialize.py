"""JSON/CSV serialization: determinism, rational format, roundtrips."""

import json

import pytest

from robustflow import (
    NetworkError,
    compare_to_csv,
    dumps,
    flow_from_json,
    flow_to_json,
    gen_ti_gap,
    gen_two_hop,
    instance_from_json,
    instance_to_json,
    rat,
    rational_from_json,
    rational_to_json,
    report_to_json,
    result_to_json,
    solve_dynamic,
    solve_static,
)


def test_rational_json_forms():
    assert rational_to_json(rat(4)) == 4
    assert rational_to_json(rat(8, 2)) == 4
    assert rational_to_json(rat(3, 2)) == "3/2"
    assert rational_to_json(rat(-3, 2)) == "-3/2"
    assert rational_from_json(4) == 4
    assert rational_from_json("3/2") == rat(3, 2)
    with pytest.raises((ValueError, NetworkError)):
        rational_from_json("3/0")


def test_dumps_is_deterministic_and_newline_terminated():
    data = {"b": rational_to_json(rat(1, 2)), "a": [3, {"z": 1, "y": 2}]}
    one = dumps(data)
    two = dumps({"a": [3, {"y": 2, "z": 1}], "b": rational_to_json(rat(1, 2))})
    assert one == two
    assert one.endswith("\n")
    assert json.loads(one) == {"a": [3, {"y": 2, "z": 1}], "b": "1/2"}


def test_static_instance_roundtrip():
    net = gen_two_hop()
    data = instance_to_json(net)
    back = instance_from_json(json.loads(dumps(data)))
    assert [(a.id, a.tail, a.head, a.capacity) for a in back.arcs] == [
        (a.id, a.tail, a.head, a.capacity) for a in net.arcs
    ]
    assert back.source == net.source and back.sink == net.sink
    assert back.meta == net.meta


def test_dynamic_instance_roundtrip():
    inst = gen_ti_gap()
    back = instance_from_json(json.loads(dumps(instance_to_json(inst))))
    assert back.horizon == inst.horizon
    assert back.gamma == inst.gamma
    assert [(a.id, a.travel_time, a.delay) for a in back.network.arcs] == [
        (a.id, a.travel_time, a.delay) for a in inst.network.arcs
    ]


def test_instance_from_json_validates():
    net = gen_two_hop()
    data = instance_to_json(net)
    data["arcs"][0]["capacity"] = 0
    with pytest.raises(NetworkError):
        instance_from_json(data)
    data2 = instance_to_json(gen_ti_gap())
    data2["horizon"] = 0
    with pytest.raises(NetworkError):
        instance_from_json(data2)


def test_static_flow_roundtrip_with_routes():
    net = gen_two_hop()
    flow, _ = solve_static(net, "gm", 1)
    data = flow_to_json(flow, net.catalog)
    assert data["kind"] == "subpath"
    assert data["timed"] is False
    assert "routes" in data
    back = flow_from_json(json.loads(dumps(data)))
    assert back.kind == flow.kind
    assert dict(back.values) == {k: v for k, v in flow.values.items() if v != 0}


def test_timed_flow_roundtrip():
    inst = gen_ti_gap()
    flow, _ = solve_dynamic(inst, "dam")
    data = flow_to_json(flow)
    assert data["timed"] is True
    back = flow_from_json(json.loads(dumps(data)))
    assert dict(back.values) == {k: v for k, v in flow.values.items() if v != 0}


def test_tr_flow_roundtrip():
    inst = gen_ti_gap()
    flow, _ = solve_dynamic(inst, "tr")
    back = flow_from_json(flow_to_json(flow, inst.network.catalog))
    assert back.kind == "tr"
    assert dict(back.values) == {k: v for k, v in flow.values.items() if v != 0}


def test_flow_from_json_rejects_duplicates():
    data = {
        "kind": "arc",
        "timed": False,
        "entries": [["a1", "1/2"], ["a1", "1/2"]],
    }
    with pytest.raises(NetworkError):
        flow_from_json(data)


def test_report_and_result_json():
    net = gen_two_hop()
    flow, report = solve_static(net, "pm", 1)
    rep = report_to_json(report)
    assert rep["robust_value"] == "3/2"
    assert rep["nominal_value"] == 3
    assert rep["worst_loss"] == "3/2"
    assert rep["worst_scenarios"] == [["a1"], ["a2"]]
    result = result_to_json("pm", 1, flow, report, catalog=net.catalog)
    assert result["model"] == "pm"
    assert result["gamma"] == 1
    assert result["robust_value"] == "3/2"
    assert result["flow"]["kind"] in ("path", "subpath", "arc")
    # Byte-identical when serialized twice.
    assert dumps(result) == dumps(result_to_json("pm", 1, flow, report, catalog=net.catalog))


def test_dynamic_report_json():
    inst = gen_ti_gap()
    _, report = solve_dynamic(inst, "dam")
    rep = report_to_json(report)
    assert rep["robust_value"] == 2
    assert rep["earliest_arrival"] == 2
    assert rep["minimizing_scenarios"]


def test_compare_csv():
    net = gen_two_hop()
    rows = []
    for model in ("pm", "am"):
        _, report = solve_static(net, model, 1)
        rows.append(
            {
                "model": model,
                "robust_value": report.robust_value,
                "nominal_value": report.nominal_value,
                "worst_scenarios": report.worst_scenarios,
                "wall_ms": 12.5,
            }
        )
    text = compare_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0].split(",")[:4] == ["model", "robust_value", "nominal_value", "worst_scenarios"]
    assert "wall_ms" in lines[0]
    assert lines[1].startswith("pm,3/2,3,{a1} {a2},")
    no_timing = compare_to_csv(rows, include_timing=False)
    assert "wall_ms" not in no_timing.split("\n")[0]
    assert no_timing == compare_to_csv(rows, include_timing=False)
