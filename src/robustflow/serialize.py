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
from .network import Arc, Network, NetworkError, PathCatalog
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


def rational_from_json(value, field: str = "value"):
    """Parse an integer or ``"p/q"`` string; a :class:`NetworkError` names ``field``."""
    try:
        return parse_rational(value)
    except ValueError:
        raise NetworkError(f"{field} must be an integer or 'p/q' string, got {value!r}") from None


def _time_from_json(value, field: str):
    parsed = rational_from_json(value, field)
    return int(parsed) if parsed.denominator == 1 else parsed


def _array(data: dict, key: str) -> list:
    if not isinstance(data[key], list):
        raise NetworkError(f"{key!r} must be a JSON array, got {data[key]!r}")
    return data[key]


def _scalar(value, field: str):
    """``value``, unless it is a JSON array or object, which names nothing."""
    if isinstance(value, (list, dict)):
        raise NetworkError(f"{field} must be a string or number, got {value!r}")
    return value


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
    nodes = [_scalar(v, "node name") for v in _array(data, "nodes")]
    arcs = []
    for entry in _array(data, "arcs"):
        if not isinstance(entry, dict):
            raise NetworkError(f"arc entry must be a JSON object, got {entry!r}")
        missing = {"id", "tail", "head", "capacity"} - set(entry)
        if missing:
            raise NetworkError(f"arc entry lacks {sorted(missing)}")
        arc_id = _scalar(entry["id"], "arc id")
        where = f"arc {arc_id!r}"
        arcs.append(
            Arc(
                arc_id,
                _scalar(entry["tail"], f"{where} tail"),
                _scalar(entry["head"], f"{where} head"),
                rational_from_json(entry["capacity"], f"{where} capacity"),
                travel_time=_time_from_json(entry.get("travel_time", 0), f"{where} travel_time"),
                delay=_time_from_json(entry.get("delay", 0), f"{where} delay"),
            )
        )
    meta = data.get("provenance", {})
    if not isinstance(meta, dict):
        raise NetworkError("provenance must be a JSON object")
    source, sink = _scalar(data["source"], "source"), _scalar(data["sink"], "sink")
    net = Network(nodes, arcs, source, sink, meta=meta)
    violations = net.validation.violations
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
    if timed and flow.kind == "tr":
        for i, value in sorted(flow.values.items()):
            entries.append([i, rational_to_json(value)])
    elif timed:
        for key, value in sorted(flow.values.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
            entries.append([key[0], key[1], rational_to_json(value)])
    else:
        for key, value in sorted(flow.values.items(), key=lambda kv: str(kv[0])):
            entries.append([key, rational_to_json(value)])
    data = {"kind": flow.kind, "timed": timed, "entries": entries}
    if catalog is not None and flow.kind in ("path", "subpath", "tr"):
        # Each entry starts with its route index.
        routes = catalog.st_paths if flow.kind in ("path", "tr") else catalog.subpaths
        used = sorted({entry[0] for entry in entries})
        data["routes"] = {str(i): list(routes[i].arcs) for i in used}
    return data


def flow_from_json(data, catalog: Optional[PathCatalog] = None):
    """Parse a flow document.

    Given the ``catalog`` of the network the flow is for, also check the
    document's ``routes``, route index -> arc list as :func:`flow_to_json`
    writes it: each listed index must name the route with those arcs in
    ``catalog``, so that the flow's indices mean the routes it was made on.
    """
    if not isinstance(data, dict) or "kind" not in data or "entries" not in data:
        raise NetworkError("flow document needs 'kind' and 'entries'")
    kind = data["kind"]
    timed = data.get("timed", kind == "tr")
    if not isinstance(timed, bool):
        raise NetworkError(f"'timed' must be a JSON boolean, got {timed!r}")
    size = 3 if timed and kind != "tr" else 2
    values = {}
    for entry in _array(data, "entries"):
        if not isinstance(entry, list) or len(entry) != size:
            form = "[key, theta, value]" if size == 3 else "[key, value]"
            raise NetworkError(f"{kind} entries are {form}, got {entry!r}")
        parts = [_scalar(part, "flow entry key") for part in entry[:-1]]
        key = tuple(parts) if size == 3 else parts[0]
        if key in values:
            raise NetworkError(f"duplicate flow entry for {key!r}")
        values[key] = rational_from_json(entry[-1], f"flow value of {key!r}")
    kinds, make = (TIMED_KINDS, DynamicFlow) if timed else (STATIC_KINDS, StaticFlow)
    if kind not in kinds:
        raise NetworkError(f"unknown {'timed' if timed else 'static'} flow kind {kind!r}")
    if catalog is not None and data.get("routes") is not None:
        _check_routes(data["routes"], kind, catalog)
    return make(kind, values)


def _check_routes(routes, kind: str, catalog: PathCatalog) -> None:
    if kind == "arc":
        raise NetworkError("an arc flow is keyed by arc id and has no 'routes'")
    if not isinstance(routes, dict):
        raise NetworkError(f"'routes' must be an object of route index -> arc list, got {routes!r}")
    noun = "subpath" if kind == "subpath" else "path"
    known = catalog.subpaths if kind == "subpath" else catalog.st_paths
    for index, arcs in routes.items():
        if not (
            index.isdecimal()
            and str(int(index)) == index
            and isinstance(arcs, list)
            and all(isinstance(a, (str, int)) and not isinstance(a, bool) for a in arcs)
        ):
            raise NetworkError(f"'routes' must map route indices to arc lists, got {index!r}: {arcs!r}")
        i = int(index)
        if i >= len(known):
            raise NetworkError(f"routes[{index!r}]: the network has no {noun} {i}")
        if tuple(arcs) != known[i].arcs:
            raise NetworkError(
                f"routes[{index!r}] is {arcs!r}, but {noun} {i} of the network is {list(known[i].arcs)!r}"
            )


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
