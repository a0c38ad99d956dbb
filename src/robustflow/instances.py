"""Instance generators: worked examples, adversarial families, transformations,
and seeded random instances for the property suites.

All generators are deterministic; the random family is driven entirely by its
seed.  Every emitted network passes :func:`validate_network` except the
rational-time variant of :func:`gen_por_dynamic`, which intentionally carries
fractional travel times and is paired with an integrally scaled twin.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

from .dynamic_models import DynamicInstance
from .network import Arc, Network, NetworkError, validate_network
from .rational import ONE, rat


def _checked(net: Network) -> Network:
    report = validate_network(net)
    if not report.ok:
        raise NetworkError("generator produced an invalid network: " + "; ".join(report.violations))
    return net


def _int_params(**params) -> None:
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise NetworkError(f"{name} must be an integer, got {value!r}")


def gen_two_hop() -> Network:
    """Three nodes, two wide arcs into the middle, three unit arcs out.

    The smallest instance separating the three static models: with budget 1
    the path, arc and subpath optima are 3/2, 4/3 and 2.
    """
    arcs = [
        Arc("a1", "s", "v", rat(2)),
        Arc("a2", "s", "v", rat(2)),
        Arc("a3", "v", "t", ONE),
        Arc("a4", "v", "t", ONE),
        Arc("a5", "v", "t", ONE),
    ]
    return _checked(Network(["s", "v", "t"], arcs, "s", "t", meta={"family": "two-hop"}))


def gen_fan(gamma: int) -> Network:
    """``gamma + 1`` disjoint two-arc unit chains.

    Any arc flow must spread over all chains and loses everything to
    ``gamma`` deletions spread over distinct chains' second arcs, while a
    path flow can commit to full chains and keep one intact.
    """
    _int_params(gamma=gamma)
    if gamma < 0:
        raise NetworkError(f"gamma must be >= 0, got {gamma}")
    mids = [f"m{i}" for i in range(1, gamma + 2)]
    arcs = []
    for i, m in enumerate(mids, start=1):
        arcs.append(Arc(f"in{i}", "s", m, ONE))
        arcs.append(Arc(f"out{i}", m, "t", ONE))
    return _checked(
        Network(
            ["s", *mids, "t"], arcs, "s", "t", meta={"family": "fan", "gamma": gamma}
        )
    )


def gen_bottleneck(gamma: int, beta: int) -> Network:
    """Wide parallel arcs into a hub that fans out into unit arcs.

    With ``eta = beta * gamma * (gamma + 1)`` unit arcs, deleting wide arcs
    starves a path flow (which must pick single routes) much harder than an
    arc flow; the arc/path optimum ratio is ``gamma + 1 - 1/beta``.
    """
    _int_params(gamma=gamma, beta=beta)
    if gamma < 1 or beta < 1:
        raise NetworkError(f"gamma and beta must be >= 1, got {gamma}, {beta}")
    eta = beta * gamma * (gamma + 1)
    arcs = [Arc(f"wide{i}", "s", "v", rat(eta)) for i in range(1, gamma + 2)]
    arcs += [Arc(f"unit{j}", "v", "t", ONE) for j in range(1, eta + 1)]
    return _checked(
        Network(
            ["s", "v", "t"],
            arcs,
            "s",
            "t",
            meta={"family": "bottleneck", "gamma": gamma, "beta": beta, "eta": eta},
        )
    )


def gen_por_static(gamma: int, alpha):
    """Four-node family whose robust-vs-nominal price is exactly ``alpha``.

    Returns ``(net, scaled_net, scale)``: the rational-capacity instance and
    its integrally scaled twin.  Requires ``gamma >= 2`` and rational
    ``alpha`` strictly between 1 and ``2*gamma/(gamma+1)`` (the boundary
    ``alpha = 1`` collapses the thin capacities to zero).
    """
    _int_params(gamma=gamma)
    alpha = rat(alpha)
    if gamma < 2:
        raise NetworkError(f"gamma must be >= 2, got {gamma}")
    if not (1 < alpha < rat(2 * gamma, gamma + 1)):
        raise NetworkError(
            f"alpha must lie strictly between 1 and 2*gamma/(gamma+1), got {alpha}"
        )
    eta = (gamma * (alpha - 2) + alpha) / ((gamma - 1) * (alpha - 2))
    thin = ONE - eta
    skip = gamma - (gamma - 1) * eta
    if thin <= 0 or skip <= 0:
        raise NetworkError(f"degenerate capacities for alpha={alpha}")

    def build(factor):
        arcs = []
        for i in range(1, gamma):
            arcs.append(Arc(f"first{i}", "s", "v1", thin * factor))
            arcs.append(Arc(f"mid{i}", "v1", "v2", thin * factor))
            arcs.append(Arc(f"last{i}", "v2", "t", thin * factor))
        arcs.append(Arc("firstW", "s", "v1", ONE * factor))
        arcs.append(Arc("lastW", "v2", "t", ONE * factor))
        arcs.append(Arc("skipA", "s", "v2", skip * factor))
        arcs.append(Arc("skipB", "v1", "t", skip * factor))
        meta = {
            "family": "por-static",
            "gamma": gamma,
            "alpha": str(alpha),
            "eta": str(eta),
            "scale": str(factor),
        }
        return _checked(Network(["s", "v1", "v2", "t"], arcs, "s", "t", meta=meta))

    scale = math.lcm(thin.denominator, skip.denominator)
    return build(ONE), build(rat(scale)), scale


def gen_por_dynamic(gamma: int, alpha):
    """Chain of fast/slow gadgets whose dynamic price of robustness is ``alpha``.

    Returns ``(inst, scaled_inst, scale)``.  The first instance keeps the
    construction's fractional travel times (it fails validation on purpose);
    the second scales all times and the horizon by ``scale`` to integers.
    Requires ``gamma >= 1`` and rational ``alpha`` in ``[1, gamma + 1)``.
    """
    _int_params(gamma=gamma)
    alpha = rat(alpha)
    if gamma < 1:
        raise NetworkError(f"gamma must be >= 1, got {gamma}")
    if not (1 <= alpha < gamma + 1):
        raise NetworkError(f"alpha must lie in [1, gamma+1), got {alpha}")
    eta = ((gamma + 1) - alpha) / (gamma * alpha * (gamma + 1))
    fast_tau = rat(1, gamma + 1) - eta
    slow_delay = rat(1, gamma + 1)
    scale = math.lcm(fast_tau.denominator, slow_delay.denominator)

    def build(factor: int, horizon: int) -> DynamicInstance:
        def time(value):
            scaled = value * factor
            return int(scaled) if scaled.denominator == 1 else scaled

        nodes = ["s"]
        for i in range(1, gamma + 1):
            nodes += [f"v{i}", f"w{i}"]
        nodes.append("t")
        arcs = [Arc("link0", "s", "v1", ONE)]
        for i in range(1, gamma + 1):
            arcs.append(
                Arc(f"fast{i}", f"v{i}", f"w{i}", ONE, travel_time=time(fast_tau))
            )
            arcs.append(
                Arc(f"slow{i}", f"v{i}", f"w{i}", ONE, delay=time(slow_delay))
            )
            head = "t" if i == gamma else f"v{i + 1}"
            arcs.append(Arc(f"link{i}", f"w{i}", head, ONE))
        meta = {
            "family": "por-dynamic",
            "gamma": gamma,
            "alpha": str(alpha),
            "eta": str(eta),
            "scale": str(factor),
        }
        net = Network(nodes, arcs, "s", "t", meta=meta)
        return DynamicInstance(net, horizon=horizon, gamma=gamma)

    return build(1, 1), build(scale, scale), scale


def gen_partition(b: Sequence[int], extra_budget: int = 0) -> DynamicInstance:
    """Chain of parallel quick/slack arc pairs encoding a PARTITION question.

    With budget 1, the robust path optimum is positive iff the multiset ``b``
    splits into two halves of equal sum.  ``extra_budget`` adds that many
    wide zero-time source-sink arcs and raises the budget accordingly, which
    preserves the equivalence.
    """
    b = tuple(b)
    if not b:
        raise NetworkError("b must be non-empty")
    _int_params(extra_budget=extra_budget, **{f"b[{i}]": v for i, v in enumerate(b)})
    if any(v < 1 for v in b):
        raise NetworkError(f"b must be positive, got {b}")
    if extra_budget < 0:
        raise NetworkError(f"extra_budget must be >= 0, got {extra_budget}")
    total = sum(b)
    if total % 2:
        raise NetworkError(f"sum of b must be even, got {total}")
    n, bbar, half = len(b), max(b), total // 2
    horizon = (2 * n * bbar + 1) * half + 1
    nodes = [f"v{i}" for i in range(1, n + 2)]
    arcs = []
    for i, value in enumerate(b, start=1):
        quick = n * bbar * value
        arcs.append(
            Arc(f"quick{i}", f"v{i}", f"v{i + 1}", ONE, travel_time=quick, delay=horizon)
        )
        arcs.append(
            Arc(
                f"slack{i}",
                f"v{i}",
                f"v{i + 1}",
                ONE,
                travel_time=quick + value,
                delay=horizon,
            )
        )
    for j in range(1, extra_budget + 1):
        arcs.append(Arc(f"extra{j}", "v1", f"v{n + 1}", rat(2), delay=horizon))
    meta = {
        "family": "partition",
        "b": list(b),
        "half": half,
        "horizon": horizon,
        "extra_budget": extra_budget,
    }
    net = _checked(Network(nodes, arcs, "v1", f"v{n + 1}", meta=meta))
    return DynamicInstance(net, horizon=horizon, gamma=1 + extra_budget)


def brute_force_partition(b: Sequence[int]) -> bool:
    """Exhaustively decide whether ``b`` splits into two equal-sum halves."""
    b = tuple(b)
    if len(b) > 25:
        raise NetworkError(f"brute force is limited to 25 values, got {len(b)}")
    _int_params(**{f"b[{i}]": v for i, v in enumerate(b)})
    if any(v < 1 for v in b):
        raise NetworkError(f"b must be positive, got {b}")
    total = sum(b)
    if total % 2:
        return False
    half = total // 2
    sums = {0}
    for value in b:
        sums |= {s + value for s in sums if s + value <= half}
    return half in sums


def partition_multisets(max_n: int, max_value: int):
    """All non-decreasing positive-integer tuples with even sum, up to the
    given length and value bounds."""
    out = []
    for n in range(1, max_n + 1):
        for combo in itertools.combinations_with_replacement(
            range(1, max_value + 1), n
        ):
            if sum(combo) % 2 == 0:
                out.append(combo)
    return out


def gen_ti_gap() -> DynamicInstance:
    """Three-node instance where rerouting mid-horizon beats any repeated flow.

    The timed models all reach 2, while the best temporally repeated flow
    attains only 3/2.
    """
    arcs = [
        Arc("a1", "s", "v", ONE),
        Arc("a2", "v", "t", ONE, travel_time=0, delay=2),
        Arc("a3", "v", "t", ONE, travel_time=1, delay=0),
        Arc("a4", "s", "t", ONE, travel_time=1, delay=1),
    ]
    net = _checked(Network(["s", "v", "t"], arcs, "s", "t", meta={"family": "ti-gap"}))
    return DynamicInstance(net, horizon=2, gamma=1)


def split_capacities(net: Network) -> Network:
    """Rewrite every arc into a widest-capacity stub plus parallel unit arcs.

    Each arc ``a`` of integral capacity ``u`` becomes a new midpoint node, an
    arc into it of capacity ``u_max`` (the instance maximum, standing in for
    unbounded), and ``u`` unit arcs out of it.  The subpath-model optimum is
    invariant under this transformation.
    """
    caps = {}
    for arc in net.arcs:
        if arc.capacity.denominator != 1:
            raise NetworkError(f"arc {arc.id!r} has non-integral capacity {arc.capacity}")
        caps[arc.id] = int(arc.capacity)
    u_max = rat(max(caps.values()))
    nodes = list(net.nodes)
    arcs = []
    for arc in net.arcs:
        mid = f"split:{arc.id}"
        if mid in net.nodes:
            raise NetworkError(f"node name {mid!r} already taken")
        nodes.append(mid)
        arcs.append(
            Arc(
                f"{arc.id}:in",
                arc.tail,
                mid,
                u_max,
                travel_time=arc.travel_time,
                delay=arc.delay,
            )
        )
        for k in range(1, caps[arc.id] + 1):
            arcs.append(Arc(f"{arc.id}:u{k}", mid, arc.head, ONE))
    meta = dict(net.meta)
    meta["transformed"] = "split-capacities"
    return _checked(Network(nodes, arcs, net.source, net.sink, meta=meta))


RANDOM_KINDS = ("dag", "general", "dynamic")


def gen_random(
    kind: str,
    nodes: int,
    arcs: int,
    max_cap: int = 1,
    max_tau: int = 0,
    max_delay: int = 0,
    horizon: int = 1,
    gamma: int = 1,
    seed: int = 0,
):
    """Seeded random instance; a :class:`Network` for the static kinds and a
    :class:`DynamicInstance` for ``dynamic``.

    Construction guarantees validity: interior node ``i`` receives an arc
    from an earlier node and sends one to a later node, so every node lies
    on a source-sink route and the source/sink have no reverse arcs.  The
    ``general`` kind adds extra arcs without the topological restriction,
    allowing cycles.
    """
    if kind not in RANDOM_KINDS:
        raise NetworkError(f"kind must be one of {RANDOM_KINDS}, got {kind!r}")
    _int_params(
        nodes=nodes,
        arcs=arcs,
        max_cap=max_cap,
        max_tau=max_tau,
        max_delay=max_delay,
        horizon=horizon,
        gamma=gamma,
        seed=seed,
    )
    if nodes < 2:
        raise NetworkError(f"need at least 2 nodes, got {nodes}")
    if max_cap < 1:
        raise NetworkError(f"max_cap must be >= 1, got {max_cap}")
    if max_tau < 0 or max_delay < 0:
        raise NetworkError("max_tau and max_delay must be >= 0")
    interior = nodes - 2
    backbone = 1 if interior == 0 else 2 * interior
    if arcs < backbone:
        raise NetworkError(
            f"{nodes} nodes need at least {backbone} arcs for validity, got {arcs}"
        )
    rng = random.Random(seed)
    names = ["s"] + [f"x{i}" for i in range(1, interior + 1)] + ["t"]
    pairs = []
    if interior == 0:
        pairs.append((0, 1))
    else:
        for j in range(1, interior + 1):
            pairs.append((rng.randrange(0, j), j))
            pairs.append((j, rng.randrange(j + 1, nodes)))
    timed = kind == "dynamic"
    for _ in range(arcs - len(pairs)):
        if kind == "general":
            tail = rng.randrange(0, nodes - 1)
            head = rng.randrange(1, nodes)
            while head == tail:
                head = rng.randrange(1, nodes)
        else:
            tail = rng.randrange(0, nodes - 1)
            head = rng.randrange(tail + 1, nodes)
        pairs.append((tail, head))

    def times():
        if not timed:
            return 0, 0
        return rng.randint(0, max_tau), rng.randint(0, max_delay)

    arc_list = []
    for k, (tail, head) in enumerate(pairs, start=1):
        tau, delay = times()
        arc_list.append(
            Arc(
                f"r{k}",
                names[tail],
                names[head],
                rat(rng.randint(1, max_cap)),
                travel_time=tau,
                delay=delay,
            )
        )
    meta = {
        "family": f"random-{kind}",
        "seed": seed,
        "nodes": nodes,
        "arcs": arcs,
        "max_cap": max_cap,
    }
    if timed:
        meta.update({"max_tau": max_tau, "max_delay": max_delay, "horizon": horizon})
    net = _checked(Network(names, arc_list, "s", "t", meta=meta))
    if timed:
        return DynamicInstance(net, horizon=horizon, gamma=gamma)
    return net
