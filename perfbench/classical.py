"""classical: graph weights, Clifford identities and Gauss integrals.

Jobs are ``rtfactor weights`` on graphs of ``generate_trivalent_family``
(sl2, so3 and sl3, plain and graded pairings, bicolored wheels),
``check_AS_IHX`` and the theta weight on small families, ``rtfactor
character`` (the partition-function identity), and ``rtfactor linking``
on sampled curves.  One Gauss integral at N = 2048 per run sets the
memory peak.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from rtfactor import clifford, confint, lie, ring, weights

from common import Job, make_pool

LINK_SAMPLES = 512
LARGE_SAMPLES = 2048


def _nine(value: float) -> str:
    return f"{float(value):.9g}"


def _pairing(g, scale=Fraction(1), grade=None):
    """The CLI's scaled Killing pairing, optionally graded by h."""
    form = tuple(tuple(scale * x for x in row) for row in lie.killing_form(g))
    if grade is None:
        return lie.InvariantPairing((form,))
    return lie.InvariantPairing(
        (form, tuple(tuple(grade * x for x in row) for row in form)))


def _frontier(graph) -> int:
    """Peak number of open edges when vertices are contracted in file order,
    the size that sets the cost of a weight."""
    owner = {h: i for i, v in enumerate(graph.vertices) for h in v}
    partner = {a: b for e in graph.edges for a, b in (e, e[::-1])}
    return max(sum(1 for j in range(i + 1) for h in graph.vertices[j]
                   if owner[partner[h]] > i)
               for i in range(len(graph.vertices)))


def _graph_json(rng, vertices, frontier):
    """A connected, loop-free graph of generate_trivalent_family with the
    given vertex count and file-order frontier."""
    while True:
        family = weights.generate_trivalent_family(vertices, rng)
        for graph in family[-3:]:
            owner = {h: i for i, v in enumerate(graph.vertices) for h in v}
            loop = any(owner[a] == owner[b] for a, b in graph.edges)
            if graph.connected and not loop and _frontier(graph) == frontier:
                return weights.graph_to_json(graph)


# -- jobs ------------------------------------------------------------------------

def _run_pair(p):
    graph = weights.graph_from_json(p["graph"])
    out = []
    for name in ("sl2", "so3"):
        g, _ = lie.builtin(name)
        out.append(weights.lie_weight(graph, g, _pairing(g)))
    return out


def _check_pair(p, result, memo):
    w_sl2, w_so3 = result
    return w_sl2 == w_so3, f"weight = {w_sl2}"


def _run_sl3(p):
    graph = weights.graph_from_json(p["graph"])
    g, _ = lie.builtin("sl3")
    return (graph, g, weights.lie_weight(graph, g, _pairing(g)),
            weights.symmetry_factor(graph))


def _check_sl3(p, result, memo):
    graph, g, weight, sym = result
    # AS: reversing the cyclic order at one vertex negates the weight.
    vertices = list(graph.vertices)
    vertices[0] = vertices[0][::-1]
    flipped = weights.make_jacobi_graph(vertices, graph.legs, graph.edges)
    return weights.lie_weight(flipped, g, _pairing(g)) == -weight, (
        f"weight = {weight} symmetry_factor = {sym}")


def _run_graded(p):
    graph = weights.graph_from_json(p["graph"])
    g, _ = lie.builtin(p["algebra"])
    graded = weights.lie_weight(graph, g, _pairing(g, grade=p["grade"]))
    plain = weights.lie_weight(graph, g, _pairing(g))
    return graph, graded, plain


def _check_graded(p, result, memo):
    # With G = (1 + a h) K every vertex gains (1 + a h) and every edge
    # (1 + a h)^-1, so a closed trivalent graph scales by (1 + a h)^(-V/2).
    graph, graded, plain = result
    m, a = len(graph.vertices) // 2, p["grade"]
    want = [plain * Fraction(comb(m + k - 1, k)) * (-a) ** k
            for k in range(graded.order + 1)]
    return list(graded.coeffs) == want, f"weight = {graded.coeffs}"


def _run_relations(p):
    family = tuple(weights.graph_from_json(text) for text in p["family"])
    g, _ = lie.builtin(p["algebra"])
    pairing = _pairing(g)
    report = weights.check_AS_IHX(g, pairing, family)
    theta = weights.lie_weight(weights.theta_graph(), g, pairing)
    return g, report, theta


def _theta_brute_force(g):
    kill = lie.killing_form(g)
    inv = [[Fraction(x) for x in row] for row in _inverse(kill)]
    f, d = g.structure_constants, g.dim
    low = [[[sum(f[a][b][x] * kill[x][c] for x in range(d)) for c in range(d)]
            for b in range(d)] for a in range(d)]
    return sum(low[a][b][c] * low[e][k][h] * inv[a][e] * inv[b][h] * inv[c][k]
               for a in range(d) for b in range(d) for c in range(d)
               for e in range(d) for k in range(d) for h in range(d))


def _inverse(m):
    # Gauss-Jordan of its own: lie_weight inverts the pairing with
    # _linalg.mat_inv, and the oracle should not share that code.
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _check_relations(p, result, memo):
    g, report, theta = result
    ok = report.ok and theta == g.dim and theta == _theta_brute_force(g)
    return ok, f"AS/IHX {report.ok} theta = {theta}"


def _run_character(p):
    g, rep = lie.builtin(p["algebra"])
    return clifford.partition_function_identity(g, rep, p["element"], p["order"])


def _check_character(p, result, memo):
    return result.holds, (f"lhs = {ring.format_hseries(result.lhs, 't')} "
                          f"rhs = {ring.format_hseries(result.rhs, 't')}")


def _run_wheel(p):
    g, rep = lie.builtin("sl2")
    graph = weights.graph_from_json(p["graph"])
    return graph, [weights.coupled_weight(graph, g, rep, _pairing(g, scale=s))
                   for s in (Fraction(1), p["scale"])]


def _check_wheel(p, result, memo):
    # Every gauge edge carries one inverse pairing.
    graph, (unit, scaled) = result
    edges = len(graph.gauge_edges)
    return scaled == unit / p["scale"] ** edges, f"weight = {unit}"


def _run_linking(p):
    if p["curve"] == "hopf":
        value = confint.gauss_linking(*confint.hopf_pair(p["samples"]))
    else:
        value = confint.framed_self_linking(
            confint.twisted_circle(p["samples"], p["turns"]), 0.1)
    return value, _nine(value)


def _check_linking(p, result, memo):
    value, text = result
    if p["curve"] == "hopf":
        return abs(abs(value) - 1.0) <= 1e-3, f"linking = {text}"
    return abs(value - p["turns"]) <= 1e-2, f"self_linking = {text}"


# -- generators ------------------------------------------------------------------

def _make_pair(rng):
    return [Job("weight-sl2-so3", {"graph": _graph_json(rng, 6, 4)},
                _run_pair, _check_pair)]


def _make_sl3(rng):
    return [Job("weight-sl3", {"graph": _graph_json(rng, 4, 3)},
                _run_sl3, _check_sl3)]


def _make_graded(rng):
    payload = {"graph": _graph_json(rng, 6, 4),
               "algebra": rng.choice(("sl2", "so3")),
               "grade": Fraction(rng.randint(1, 5), rng.randint(1, 4))}
    return [Job("weight-graded", payload, _run_graded, _check_graded)]


def _make_relations(rng):
    family = weights.generate_trivalent_family(4, rng)
    payload = {"family": [weights.graph_to_json(x) for x in family],
               "algebra": rng.choice(("sl2", "so3"))}
    return [Job("as-ihx-theta", payload, _run_relations, _check_relations)]


def _make_character(rng):
    name = rng.choice(("sl2", "sl2_irrep(2)", "sl2_irrep(3)", "sl3"))
    if name == "sl3":
        element = [0] * 6 + [rng.randint(1, 3), rng.randint(1, 3)]
    else:
        element = [rng.randint(1, 3), 0, 0]
    payload = {"algebra": name, "element": element,
               "order": rng.choice((4, 6, 8))}
    return [Job("character", payload, _run_character, _check_character)]


def _make_wheel(rng):
    payload = {"graph": weights.graph_to_json(
                   weights.fermion_wheel(rng.choice((2, 4)))),
               "scale": Fraction(rng.randint(1, 4), rng.randint(1, 4))}
    return [Job("wheel", payload, _run_wheel, _check_wheel)]


def _make_linking(rng):
    if rng.random() < 0.5:
        payload = {"curve": "hopf", "samples": LINK_SAMPLES}
    else:
        payload = {"curve": "twisted", "samples": LINK_SAMPLES,
                   "turns": rng.randint(-3, 3)}
    return [Job("linking", payload, _run_linking, _check_linking)]


MAKERS = {"weight-sl2-so3": _make_pair, "weight-sl3": _make_sl3,
          "weight-graded": _make_graded, "as-ihx-theta": _make_relations,
          "character": _make_character, "wheel": _make_wheel,
          "linking": _make_linking}
SCHEDULE = ("weight-sl2-so3", "linking", "weight-sl3", "character",
            "weight-graded", "weight-sl2-so3", "as-ihx-theta", "linking",
            "weight-sl3", "weight-graded", "linking", "weight-sl2-so3",
            "wheel", "weight-sl3", "weight-graded", "character", "linking",
            "weight-sl2-so3", "as-ihx-theta", "weight-sl3")


def build(seed: int) -> list:
    for name in ("sl2", "so3", "sl3"):
        lie.builtin(name)
    pool = make_pool("classical", seed, SCHEDULE, MAKERS)
    large = Job("linking-large", {"curve": "hopf", "samples": LARGE_SAMPLES},
                _run_linking, _check_linking)
    return pool[:1] + [large] + pool[1:-1]
