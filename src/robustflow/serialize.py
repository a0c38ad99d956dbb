"""JSON and CSV serialization for instances, flows, and result reports.

Rationals are rendered as integers when integral and ``"p/q"`` strings
otherwise; all dumps are deterministic (sorted keys, fixed indentation) so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Optional

from .dynamic_models import (
    DynamicFlow,
    DynamicInstance,
    DynamicRobustReport,
    timing_violations,
)
from .network import Arc, Network, NetworkError, PathCatalog, validate_network
from .model_lp import scenario_label
from .rational import parse_rational, rat
from .static_models import RobustReport, StaticFlow

TIMED_KINDS = ("path", "arc", "subpath", "tr")
STATIC_KINDS = ("path", "arc", "subpath")


def rational_to_json(value):
    frac = rat(value)
    if frac.denominator == 1:
        return int(frac)
    return f"{frac.numerator}/{frac.denominator}"


def rational_from_json(value):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise NetworkError(f"expected an integer or 'p/q' string, got {value!r}")
    return parse_rational(value)


def _time_from_json(value):
    parsed = rational_from_json(value)
    return int(parsed) if parsed.denominator == 1 else parsed


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def network_to_json(net: Network) -> dict:
    data = {
        "nodes": list(net.nodes),
        "arcs": [
            {
                "id": arc.id,
                "tail": arc.tail,
                "head": arc.head,
                "capacity": rational_to_json(arc.capacity),
                "travel_time": rational_to_json(arc.travel_time),
                "delay": rational_to_json(arc.delay),
            }
            for arc in net.arcs
        ],
        "source": net.source,
        "sink": net.sink,
    }
    if net.meta:
        data["provenance"] = dict(net.meta)
    return data


def instance_to_json(instance) -> dict:
    if isinstance(instance, DynamicInstance):
        data = network_to_json(instance.network)
        data["horizon"] = instance.horizon
        data["gamma"] = instance.gamma
        return data
    return network_to_json(instance)


def instance_from_json(data):
    """Parse and validate an instance; dynamic iff a horizon field is present."""
    if not isinstance(data, dict):
        raise NetworkError("instance document must be a JSON object")
    for key in ("nodes", "arcs", "source", "sink"):
        if key not in data:
            raise NetworkError(f"instance document lacks {key!r}")
    arcs = []
    for entry in data["arcs"]:
        missing = {"id", "tail", "head", "capacity"} - set(entry)
        if missing:
            raise NetworkError(f"arc entry lacks {sorted(missing)}")
        arcs.append(
            Arc(
                entry["id"],
                entry["tail"],
                entry["head"],
                rational_from_json(entry["capacity"]),
                travel_time=_time_from_json(entry.get("travel_time", 0)),
                delay=_time_from_json(entry.get("delay", 0)),
            )
        )
    meta = data.get("provenance", {})
    if not isinstance(meta, dict):
        raise NetworkError("provenance must be a JSON object")
    net = Network(data["nodes"], arcs, data["source"], data["sink"], meta=meta)
    violations = validate_network(net).violations
    instance = net
    if not violations and "horizon" in data:
        instance = DynamicInstance(net, horizon=data["horizon"], gamma=data.get("gamma", 1))
        violations = timing_violations(instance)
    if violations:
        raise NetworkError("invalid instance: " + "; ".join(violations))
    return instance


def flow_to_json(flow, catalog: Optional[PathCatalog] = None) -> dict:
    """Dump a flow: pairs for static kinds and ``tr``, triples for timed kinds."""
    timed = isinstance(flow, DynamicFlow)
    entries = []
    used_routes = set()
    if timed and flow.kind == "tr":
        for i, value in sorted(flow.values.items()):
            entries.append([i, rational_to_json(value)])
            used_routes.add(i)
    elif timed:
        for key, value in sorted(flow.values.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
            entries.append([key[0], key[1], rational_to_json(value)])
            if flow.kind in ("path", "subpath"):
                used_routes.add(key[0])
    else:
        for key, value in sorted(flow.values.items(), key=lambda kv: str(kv[0])):
            entries.append([key, rational_to_json(value)])
            if flow.kind in ("path", "subpath"):
                used_routes.add(key)
    data = {"kind": flow.kind, "timed": timed, "entries": entries}
    if catalog is not None and flow.kind in ("path", "subpath", "tr"):
        routes = (
            catalog.st_paths if flow.kind in ("path", "tr") else catalog.subpaths
        )
        data["routes"] = {
            str(i): list(routes[i].arcs) for i in sorted(used_routes)
        }
    return data


def flow_from_json(data):
    if not isinstance(data, dict) or "kind" not in data or "entries" not in data:
        raise NetworkError("flow document needs 'kind' and 'entries'")
    kind = data["kind"]
    timed = bool(data.get("timed", kind == "tr"))
    values = {}
    for entry in data["entries"]:
        if kind == "tr":
            if len(entry) != 2:
                raise NetworkError(f"tr entries are [index, value], got {entry!r}")
            key, raw = entry[0], entry[1]
        elif timed:
            if len(entry) != 3:
                raise NetworkError(f"timed entries are [key, theta, value], got {entry!r}")
            key, raw = (entry[0], entry[1]), entry[2]
        else:
            if len(entry) != 2:
                raise NetworkError(f"static entries are [key, value], got {entry!r}")
            key, raw = entry[0], entry[1]
        if key in values:
            raise NetworkError(f"duplicate flow entry for {key!r}")
        values[key] = rational_from_json(raw)
    if timed:
        if kind not in TIMED_KINDS:
            raise NetworkError(f"unknown timed flow kind {kind!r}")
        return DynamicFlow(kind, values)
    if kind not in STATIC_KINDS:
        raise NetworkError(f"unknown static flow kind {kind!r}")
    return StaticFlow(kind, values)


def _scenarios_to_json(scenarios) -> list:
    return [list(scenario) for scenario in scenarios]


def report_to_json(report) -> dict:
    if isinstance(report, DynamicRobustReport):
        return {
            "robust_value": rational_to_json(report.robust_value),
            "nominal_value": rational_to_json(report.nominal_value),
            "minimizing_scenarios": _scenarios_to_json(report.minimizing_scenarios),
            "earliest_arrival": report.earliest_arrival,
        }
    if isinstance(report, RobustReport):
        return {
            "robust_value": rational_to_json(report.robust_value),
            "nominal_value": rational_to_json(report.nominal_value),
            "worst_loss": rational_to_json(report.worst_loss),
            "worst_scenarios": _scenarios_to_json(report.worst_scenarios),
            "per_arc_exposure": {
                str(a): rational_to_json(v)
                for a, v in sorted(report.per_arc_exposure.items(), key=lambda kv: str(kv[0]))
            },
        }
    raise NetworkError(f"not a report: {report!r}")


def result_to_json(
    model: str,
    gamma: int,
    flow,
    report,
    *,
    horizon: Optional[int] = None,
    catalog: Optional[PathCatalog] = None,
) -> dict:
    data = {
        "model": model,
        "gamma": gamma,
        "flow": flow_to_json(flow, catalog),
    }
    if horizon is not None:
        data["horizon"] = horizon
    data.update(report_to_json(report))
    return data


def compare_to_csv(rows, *, include_timing: bool = True) -> str:
    """Render compare results; one row per model, exact values as text."""
    buf = io.StringIO()
    header = ["model", "robust_value", "nominal_value", "worst_scenarios"]
    if include_timing:
        header.append("wall_ms")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        scenarios = " ".join(scenario_label(s) for s in row["worst_scenarios"])
        out = [
            row["model"],
            str(rat(row["robust_value"])),
            str(rat(row["nominal_value"])),
            scenarios,
        ]
        if include_timing:
            out.append(f"{row['wall_ms']:.1f}")
        writer.writerow(out)
    return buf.getvalue()
