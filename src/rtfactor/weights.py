"""Lie-theoretic weights of trivalent graphs.

A trivalent graph with cyclic vertex orders is evaluated by contracting
one copy of the bracket-against-pairing tensor per vertex with the
inverse of the pairing along every edge.  The vertices are taken in a
greedy order picked once per graph (each step adds the vertex that
leaves the fewest open half-edges, as in the greedy paths of tensor
network contraction), and the contraction is a sparse join: an edge's
inverse-pairing row is folded in when the edge opens, so closing it is
an exact lookup.  The pairing may be graded by powers of h; the inverse
is then the truncated series inverse.  Once per call, the inverse
pairing is scaled by Dp, the lcm of its denominators, and the vertex
tensor by its own lcm Dt, so every scalar of the contraction has integer
coefficients: an int for an ungraded pairing, an HSeries truncated at
the pairing's top order for a graded one.  Each vertex contributes one
tensor entry and each edge one inverse-pairing entry, so one division by
Dt^V Dp^E at the end gives the weight, a Fraction or an HSeries.  A
variant with a second edge color and directed fermion lines computes the
weights of the gauge-fermion coupled theory, where closed fermion cycles
turn into traces (each cycle tensor with its own lcm).

Weights here are the algebraic halves of perturbative invariants; the
analytic integrals multiplying them per graph are deliberately out of
scope, as is any resummation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import ceil, lcm, log10, prod
from operator import itemgetter

from ._linalg import mat_inv, mat_mul, row_mul_add, sparse_rows
from .diagram import UnionFind
from .errors import (
    OpenFermionPath,
    OpenGraph,
    ParseError,
    SingularPairing,
    check_size,
    load_json,
)
from .lie import InvariantPairing, LieAlgebra, Representation
from .ring import HSeries

MAX_WEIGHT_ALGEBRA_DIM = 8
MAX_WEIGHT_COST = 2 ** 19
MAX_AUT_VERTICES = 8
# The weight prints through str(), which refuses ints of more than 4300
# digits; the fermion-loop factor may take this many, the contraction the
# rest.
MAX_LOOP_DIGITS = 1000

_PERMS3 = tuple(permutations(range(3)))


# ---------------------------------------------------------------------------
# Graph data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiGraph:
    """Trivalent graph: vertices are 3-tuples of half-edge labels (tuple
    order is the cyclic order), legs are external half-edges attached to
    no vertex, edges form a perfect matching on all half-edges, legs
    included.  Scalar weights exist only for legless graphs; legs matter
    to symmetry counting, where they stay pointwise fixed."""

    vertices: tuple
    legs: tuple
    edges: tuple
    connected: bool


def _check_halves(vertices, legs, edges, fermion_halves=(),
                  fermion_loops=0) -> None:
    """Shared graph validation.  Every vertex has three half-edges, no
    label repeats, and the edges pair the vertex half-edges and the legs
    perfectly, except the fermion halves, which edges do not touch."""
    if (not isinstance(fermion_loops, int) or isinstance(fermion_loops, bool)
            or fermion_loops < 0):
        raise ParseError(
            f"fermion_loops must be a nonnegative integer, not {fermion_loops!r}")
    for v in vertices:
        if len(v) != 3:
            raise ParseError(f"vertex {v!r} does not have three half-edges")
    labels = [h for v in vertices for h in v] + list(legs)
    if len(set(labels)) != len(labels):
        raise ParseError("half-edge label reused")
    ends = set(labels) - set(fermion_halves)
    matched = set()
    for e in edges:
        if len(e) != 2 or e[0] == e[1]:
            raise ParseError(f"edge {e!r} is not a pair of distinct half-edges")
        for h in e:
            if h not in ends:
                raise ParseError(f"edge endpoint {h} is not a half-edge or leg")
            if h in matched:
                raise ParseError(f"half-edge {h} is matched twice")
            matched.add(h)
    if matched != ends:
        raise ParseError("edges must match every half-edge and leg exactly once")


def make_jacobi_graph(vertices, legs=(), edges=()) -> JacobiGraph:
    vertices = tuple(tuple(v) for v in vertices)
    legs = tuple(legs)
    edges = tuple(tuple(e) for e in edges)
    _check_halves(vertices, legs, edges)
    return JacobiGraph(vertices, legs, edges, _is_connected(vertices, legs, edges))


def _owners(vertices) -> dict:
    """Half-edge -> index of the vertex it sits at."""
    return {h: i for i, v in enumerate(vertices) for h in v}


def _components(vertices, legs, edges) -> UnionFind:
    """Vertex indices and ("leg", l) nodes, joined along the edges."""
    owner = _owners(vertices)
    owner.update((l, ("leg", l)) for l in legs)
    components = UnionFind(list(range(len(vertices)))
                           + [("leg", l) for l in legs])
    for a, b in edges:
        components.union(owner[a], owner[b])
    return components


def _is_connected(vertices, legs, edges) -> bool:
    return _components(vertices, legs, edges).class_count() <= 1


def theta_graph() -> JacobiGraph:
    """Two vertices joined by three parallel edges.

    Cyclic orders are the ones a planar drawing induces: traversing the
    boundary counterclockwise reads the two vertices in opposite edge
    order.  With this orientation the Killing-form weight is +dim.
    """
    return make_jacobi_graph(((0, 1, 2), (3, 5, 4)), (),
                             ((0, 3), (1, 4), (2, 5)))


@dataclass(frozen=True)
class BicoloredGraph:
    """Two-colored trivalent graph for the gauge-fermion coupled theory.

    Pure gauge vertices carry three gauge half-edges with a cyclic order;
    coupling vertices carry one gauge half-edge plus an outgoing and an
    incoming fermion half-edge.  Fermion edges are directed (out to in)
    and chain the coupling vertices into paths or cycles.  fermion_loops
    counts closed fermion circles that meet no vertex at all.
    """

    gauge_vertices: tuple
    coupling_vertices: tuple  # (gauge_h, fermion_out_h, fermion_in_h)
    legs: tuple
    gauge_edges: tuple
    fermion_edges: tuple  # directed (from out-half to in-half)
    fermion_loops: int


def make_bicolored_graph(gauge_vertices=(), coupling_vertices=(), legs=(),
                         gauge_edges=(), fermion_edges=(),
                         fermion_loops=0) -> BicoloredGraph:
    gauge_vertices = tuple(tuple(v) for v in gauge_vertices)
    coupling_vertices = tuple(tuple(v) for v in coupling_vertices)
    legs = tuple(legs)
    gauge_edges = tuple(tuple(e) for e in gauge_edges)
    fermion_edges = tuple(tuple(e) for e in fermion_edges)
    _check_halves(gauge_vertices + coupling_vertices, legs, gauge_edges,
                  [h for v in coupling_vertices for h in v[1:]], fermion_loops)
    outs = {v[1] for v in coupling_vertices}
    ins = {v[2] for v in coupling_vertices}
    f_sources, f_targets = set(), set()
    for src, dst in fermion_edges:
        if src not in outs or dst not in ins:
            raise ParseError("fermion edges run from an out-half to an in-half")
        if src in f_sources or dst in f_targets:
            raise ParseError("fermion half-edge used twice")
        f_sources.add(src)
        f_targets.add(dst)
    return BicoloredGraph(gauge_vertices, coupling_vertices, legs,
                          gauge_edges, fermion_edges, fermion_loops)


def fermion_wheel(spokes: int) -> BicoloredGraph:
    """Fermion cycle through `spokes` coupling vertices, gauge legs open
    pairwise closed: adjacent gauge half-edges are joined when spokes is
    even, matching the wheel diagrams of the one-loop analysis."""
    if spokes < 1 or spokes % 2:
        raise ParseError("wheel closure needs a positive even spoke count")
    coupling = []
    fermion = []
    for i in range(spokes):
        g, out, into = 3 * i, 3 * i + 1, 3 * i + 2
        coupling.append((g, out, into))
        fermion.append((out, 3 * ((i + 1) % spokes) + 2))
    gauge = [(3 * i, 3 * (i + 1)) for i in range(0, spokes, 2)]
    return make_bicolored_graph((), coupling, (), gauge, fermion)


# ---------------------------------------------------------------------------
# Ring values: integer coefficients, divided once at the end
# ---------------------------------------------------------------------------

def _ring_value(coeffs, m: int):
    """The per-order integer coefficients c_0 + c_1 h + ... as one scalar:
    an int when the pairing has a single order, else an HSeries truncated
    past h^(m-1)."""
    if m == 1:
        return coeffs[0]
    return HSeries.make(m - 1, coeffs)


def _integral(rows, m: int):
    """Dicts {key: per-order rational coefficients} -> (the dicts times D as
    ring values with integer coefficients, D), D the lcm of denominators."""
    d = lcm(*(c.denominator for r in rows for cs in r.values() for c in cs))
    return [{key: _ring_value([c.numerator * (d // c.denominator)
                               for c in cs], m)
             for key, cs in row.items()} for row in rows], d


def _graded_inverse(orders):
    """Inverse of G0 + h G1 + ... truncated at the given number of orders."""
    try:
        base = mat_inv([list(row) for row in orders[0]])
    except ValueError:
        raise SingularPairing("the order-0 pairing is singular, so the "
                              "edges have no inverse pairing") from None
    inv = [base]
    for k in range(1, len(orders)):
        # inv_k = -inv_0 (G_1 inv_(k-1) + ... + G_k inv_0)
        terms = [mat_mul(orders[j], inv[k - j]) for j in range(1, k + 1)]
        inv.append(mat_mul(base, [[-sum(cells) for cells in zip(*rows)]
                                  for rows in zip(*terms)]))
    return inv


def _edge_scalars(pairing: InvariantPairing):
    """Nonzero entries of the inverse pairing times Dp, the lcm of their
    denominators, as ring values by row: (prop, Dp), prop[r] = {c: value}."""
    inv = _graded_inverse(pairing.orders)
    return _integral([{c: coeffs for c, coeffs in enumerate(zip(*rows))
                       if any(coeffs)} for rows in zip(*inv)], len(inv))


def _vertex_tensor(g: LieAlgebra, pairing: InvariantPairing,
                   classical_vertex: bool):
    """Sparse map (a, b, c) -> <[e_a, e_b], e_c> times Dt, the lcm of its
    denominators, as ring values, summed over the nonzero brackets and
    pairing entries only: (tensor, Dt)."""
    grades = pairing.orders[:1] if classical_vertex else pairing.orders
    grades = [sparse_rows(grade) for grade in grades]
    sums = {}
    for a, plane in enumerate(g.brackets):
        for b, row in enumerate(plane):
            for x, f in row.items():
                for k, grade in enumerate(grades):
                    for c, v in grade[x].items():
                        cell = sums.setdefault((a, b, c), [0] * len(grades))
                        cell[k] += f * v
    [tensor], dt = _integral([{key: vals for key, vals in sums.items()
                               if any(vals)}], len(pairing.orders))
    return tensor, dt


def _setup(g: LieAlgebra, pairing: InvariantPairing, classical_vertex: bool):
    """Integral inverse-pairing rows and vertex tensor, the ring's one, and
    their scales Dp and Dt: built once per weight or relation check."""
    prop, dp = _edge_scalars(pairing)
    tensor, dt = _vertex_tensor(g, pairing, classical_vertex)
    return prop, tensor, _ring_value((1,), len(pairing.orders)), dp, dt


def _order(dim: int, nodes, partner, extra: int = 0) -> list:
    """Greedy contraction order of the nodes (tuples of half-edges), and
    its size guard: dim^(peak open half-edges) per node, plus ``extra``.

    Each step takes the node that leaves the fewest open half-edges; on a
    tie, the one with the most edges to contracted nodes and their
    neighbours (so a ladder is walked rung by rung), then the first
    listed.
    """
    owner = _owners(nodes)
    ends = [[owner[partner[h]] for h in node] for node in nodes]
    done, reached = {}, set()  # done is insertion-ordered: the order so far
    open_count = peak = 0

    def key(i):
        opened = touched = 0
        for q in ends[i]:
            if q != i:
                opened += -1 if q in done else 1
                touched += q in reached
        return open_count + opened, -touched

    for _ in nodes:
        best = min((i for i in range(len(nodes)) if i not in done), key=key)
        open_count = key(best)[0]
        peak = max(peak, open_count)
        done[best] = None
        reached.update(ends[best])
    check_size(f"weight contraction of {len(nodes)} nodes, peak frontier "
               f"{peak}, estimate", dim ** peak * len(nodes) + extra,
               MAX_WEIGHT_COST)
    return list(done)


def _picker(positions):
    """key -> the tuple of its entries at ``positions``."""
    if len(positions) == 1:
        return lambda key, p=positions[0]: (key[p],)
    return itemgetter(*positions) if positions else lambda key: ()


def _contract(nodes, partner, prop, unit):
    """Contract (half_edges, sparse tensor) nodes in the order given (see
    _order) against the inverse-pairing rows prop[r] = {c: scalar}.

    All frontier keys of a step share the open edges and hold, per open
    edge, the index its far end must carry: when a half-edge opens with
    index r, its row prop[r] is folded in.  Each node tensor is grouped
    by the indices of its slots that close open edges, so closing them
    is one exact lookup per key; an edge with both ends at the node
    closes inside the group.  unit is the ring's one.
    """
    waiting, frontier = [], {(): unit}  # waiting: the open edges' far ends
    for halves, tensor in nodes:
        slot = {h: s for s, h in enumerate(halves)}
        at = {h: k for k, h in enumerate(waiting)}
        closing = [s for s, h in enumerate(halves) if h in at]
        inner = [(slot[partner[h]], s) for s, h in enumerate(halves)
                 if partner[h] in slot and partner[h] < h]
        opening = [s for s, h in enumerate(halves)
                   if h not in at and partner[h] not in slot]
        groups = {}
        for indices, value in tensor.items():
            for s, t in inner:
                value = value * prop[indices[s]].get(indices[t], 0)
            opened = [((), value)] if value else []
            for s in opening:
                opened = [(key + (c,), v * f) for key, v in opened
                          for c, f in prop[indices[s]].items()]
            group = groups.setdefault(tuple(indices[s] for s in closing), {})
            for key, v in opened:
                group[key] = group[key] + v if key in group else v
        kept = [k for k, h in enumerate(waiting) if h not in slot]
        closed_part = _picker([at[halves[s]] for s in closing])
        kept_part, new_frontier = _picker(kept), {}
        for key, amp in frontier.items():
            rest = kept_part(key)
            for opened, value in groups.get(closed_part(key), {}).items():
                new_key, value = rest + opened, amp * value
                new_frontier[new_key] = (new_frontier[new_key] + value
                                         if new_key in new_frontier else value)
        waiting = ([waiting[k] for k in kept]
                   + [partner[halves[s]] for s in opening])
        frontier = new_frontier
    return frontier.get((), 0 * unit)


def _partners(edges) -> dict:
    """Half-edge -> the other end of its edge."""
    return {h: p for e in edges for h, p in (e, e[::-1])}


def _plan(graph, dim: int):
    """A closed graph's contraction nodes in order and its matching, after
    the open-leg, algebra, fermion-path and cost checks.  The nodes of a
    plain graph are its vertices; those of a bicolored graph are its gauge
    vertices and, per fermion cycle, the gauge half-edges along it."""
    if graph.legs:
        raise OpenGraph("weight of a graph with open legs is not a scalar")
    check_size("algebra dimension", dim, MAX_WEIGHT_ALGEBRA_DIM)
    if isinstance(graph, JacobiGraph):
        nodes, edges, cycles = graph.vertices, graph.edges, []
    else:
        cycles = [tuple(v[0] for v in cycle) for cycle in _fermion_cycles(graph)]
        nodes, edges = list(graph.gauge_vertices) + cycles, graph.gauge_edges
    partner = _partners(edges)
    order = _order(dim, nodes, partner, sum(dim ** len(c) for c in cycles))
    return [nodes[i] for i in order], partner


def _weight(nodes, partner, setup, cycles=None):
    """The integer contraction of a _plan with a _setup, divided once by
    Dp per edge (each edge is one pair of partners) and the scale of each
    node's tensor: Dt for a vertex, its own lcm for a fermion cycle.
    ``cycles`` maps each fermion cycle's node to its (tensor, lcm)."""
    prop, tensor, unit, dp, dt = setup
    tensors = [(cycles or {}).get(node, (tensor, dt)) for node in nodes]
    scale = dp ** (len(partner) // 2) * prod(s for _, s in tensors)
    return (_contract([(node, t) for node, (t, _) in zip(nodes, tensors)],
                      partner, prop, unit) * Fraction(1, scale))


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def lie_weight(graph: JacobiGraph, g: LieAlgebra, pairing: InvariantPairing,
               classical_vertex: bool = False):
    """Weight of a closed trivalent graph; Rational, or HSeries when the
    pairing is graded.

    With ``classical_vertex`` the vertex tensor is built from the order-0
    pairing only, while edges always invert the full graded pairing.
    """
    vertices, partner = _plan(graph, g.dim)
    return _weight(vertices, partner, _setup(g, pairing, classical_vertex))


def _fermion_cycles(graph: BicoloredGraph):
    """Split the coupling vertices into directed cycles; error on paths."""
    by_in = {v[2]: v for v in graph.coupling_vertices}
    succ = {src: by_in[dst] for src, dst in graph.fermion_edges}
    if len(succ) != len(graph.coupling_vertices):
        raise OpenFermionPath(
            "fermion lines must close into cycles for a scalar weight")
    cycles, seen = [], set()
    for v in graph.coupling_vertices:
        cycle = []
        while v not in seen:  # succ is a bijection: the walk comes back
            seen.add(v)
            cycle.append(v)
            v = succ[v[1]]
        if cycle:
            cycles.append(cycle)
    return cycles


def coupled_weight(graph: BicoloredGraph, g: LieAlgebra, rho: Representation,
                   pairing: InvariantPairing, classical_vertex: bool = False):
    """Weight of a closed bicolored graph.

    Gauge vertices and edges contract exactly as in lie_weight.  Each
    fermion cycle contributes minus the trace of the product of rho
    matrices collected along it, as a tensor in its gauge indices and
    one node of the contraction order; each vertex-free fermion loop
    contributes a bare factor of -dim(rho).
    """
    nodes, partner = _plan(graph, g.dim)
    loops = graph.fermion_loops
    # the factor has loops * log10(dim rho) digits; the Fraction keeps the
    # product exact for loop counts past the float range
    check_size(f"fermion loop factor (-{rho.dim})^{loops}, digits",
               ceil(loops * Fraction(log10(rho.dim))), MAX_LOOP_DIGITS)
    setup = _setup(g, pairing, classical_vertex)
    gauge, cycles = set(graph.gauge_vertices), {}
    for node in nodes:
        if node not in gauge:
            [tensor], dc = _integral([_cycle_traces(rho, len(node))],
                                     len(pairing.orders))
            cycles[node] = tensor, dc
    return _weight(nodes, partner, setup, cycles) * (-rho.dim) ** loops


def _cycle_traces(rho: Representation, k: int) -> dict:
    """(-tr(rho_(a_k) ... rho_(a_1)),) for each index tuple where it is
    nonzero.  A depth-first walk over sparse rows forms each nonzero
    prefix product once; the last factor is only traced against it."""
    mats = rho.rows
    traces = {}

    def walk(prefix, prod):
        if len(prefix) == k - 1:
            for a, mat in enumerate(mats):
                trace = sum(v * prod[t].get(i, 0) for i, row in enumerate(mat)
                            for t, v in row.items())
                if trace:
                    traces[prefix + (a,)] = (-trace,)
            return
        for a, mat in enumerate(mats):
            step = [row_mul_add({}, row, prod) for row in mat]
            if any(v for row in step for v in row.values()):
                walk(prefix + (a,), step)

    walk((), [{i: 1} for i in range(rho.dim)])
    return traces


# ---------------------------------------------------------------------------
# AS and IHX
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationReport:
    ok: bool
    failures: tuple  # (relation, graph_index, detail) triples


def _rotate_to(triple, h, last: bool):
    i = triple.index(h)
    rotated = triple[i:] + triple[:i]
    if last:
        return rotated[1:] + rotated[:1]
    return rotated


def _ihx_triple(graph: JacobiGraph, edge):
    """The two local rewrites of an internal edge, or None when the edge
    is a self-loop."""
    x, y = edge
    owner = _owners(graph.vertices)
    if x not in owner or y not in owner or owner[x] == owner[y]:
        return None
    u, v = owner[x], owner[y]
    a, b, _ = _rotate_to(graph.vertices[u], x, last=True)
    _, c, d = _rotate_to(graph.vertices[v], y, last=False)

    def rebuild(u_triple, v_triple):
        vertices = list(graph.vertices)
        vertices[u] = u_triple
        vertices[v] = v_triple
        return JacobiGraph(tuple(vertices), graph.legs, graph.edges,
                           graph.connected)

    second = rebuild((a, c, x), (y, b, d))
    third = rebuild((b, c, x), (y, a, d))
    return second, third


def check_AS_IHX(g: LieAlgebra, pairing: InvariantPairing,
                 family) -> RelationReport:
    """Antisymmetry and the three-term edge relation, graph by graph."""
    setup = _setup(g, pairing, False)

    def weight(graph):
        return _weight(*_plan(graph, g.dim), setup)

    failures = []
    for idx, graph in enumerate(family):
        vertices, partner = _plan(graph, g.dim)
        base = _weight(vertices, partner, setup)
        for vi, v in enumerate(graph.vertices):
            # A reversed cyclic order has the same ends, so the same plan.
            flipped = [u[::-1] if u == v else u for u in vertices]
            if _weight(flipped, partner, setup) != -base:
                failures.append(("AS", idx, f"vertex {vi}"))
        for edge in graph.edges:
            rewrites = _ihx_triple(graph, edge)
            if rewrites is None:
                continue
            second, third = rewrites
            total = base - weight(second) + weight(third)
            if total:
                failures.append(("IHX", idx, f"edge {edge}"))
    return RelationReport(not failures, tuple(failures))


def generate_trivalent_family(max_vertices: int, rng) -> tuple:
    """Seeded family of closed trivalent graphs: the theta graph plus
    random perfect matchings on up to max_vertices vertices."""
    family = [theta_graph()]
    for count in range(2, max_vertices + 1, 2):
        for _ in range(3):
            halves = list(range(3 * count))
            rng.shuffle(halves)
            edges = [(halves[i], halves[i + 1])
                     for i in range(0, len(halves), 2)]
            vertices = tuple(tuple(range(3 * i, 3 * i + 3))
                             for i in range(count))
            family.append(make_jacobi_graph(vertices, (), edges))
    return tuple(family)


# ---------------------------------------------------------------------------
# Symmetry factors
# ---------------------------------------------------------------------------

def symmetry_factor(graph: JacobiGraph) -> int:
    """Count graph automorphisms fixing the legs pointwise.

    A symmetry permutes vertices and half-edges compatibly with the edge
    matching; the cyclic orders do not constrain it, matching the way
    the diagram sum divides by vertex and edge permutations.  Counted per
    connected component: one with legs maps to itself, and m isomorphic
    leg-free components C give m! |Aut(C)|^m.
    """
    check_size("vertex count", len(graph.vertices), MAX_AUT_VERTICES)
    partner, legs = _partners(graph.edges), set(graph.legs)
    components = _components(graph.vertices, graph.legs, graph.edges)
    members = {}
    for node in components.parent:
        members.setdefault(components.find(node), []).append(node)
    count, free = 1, []  # free: the leg-free components so far
    for nodes in members.values():
        verts = [graph.vertices[n] for n in nodes if type(n) is int]
        count *= _count_maps(verts, verts, partner, legs)
        if len(verts) == len(nodes):  # m! |Aut(C)|^m, one factor at a time
            count *= 1 + sum(len(c) == len(verts) and _count_maps(
                verts, c, partner, legs) > 0 for c in free)
            free.append(verts)
    return count


def _count_maps(source, target, partner, legs) -> int:
    """Bijections of the vertices ``source`` onto ``target``, each vertex
    sent with one of the six orders of its half-edges, that carry the
    edge matching along and fix the legs."""
    hmap = {l: l for l in legs}
    used = [False] * len(target)
    count = 0

    def descend(i):
        nonlocal count
        if i == len(source):
            count += 1
            return
        for j, target_vertex in enumerate(target):
            if used[j]:
                continue
            for perm in _PERMS3:
                placed = []
                images = (target_vertex[k] for k in perm)
                for h, image in zip(source[i], images):
                    p = partner[h]
                    if (partner[image] != hmap[p] if p in hmap
                            else partner[image] in legs):
                        break
                    hmap[h] = image
                    placed.append(h)
                else:
                    used[j] = True
                    descend(i + 1)
                    used[j] = False
                for h in placed:
                    del hmap[h]

    descend(0)
    return count


# ---------------------------------------------------------------------------
# JSON graph files
# ---------------------------------------------------------------------------

def graph_from_json(text: str):
    """Parse a graph file; plain when it has "vertices", bicolored when
    it has coupling data."""
    data = load_json(text, "graph")
    if not isinstance(data, dict):
        raise ParseError("graph file must be a JSON object")
    try:
        if "coupling_vertices" in data or "fermion_edges" in data:
            return make_bicolored_graph(
                data.get("gauge_vertices", ()),
                data.get("coupling_vertices", ()),
                data.get("legs", ()),
                data.get("gauge_edges", ()),
                data.get("fermion_edges", ()),
                data.get("fermion_loops", 0))
        return make_jacobi_graph(data.get("vertices", ()),
                                 data.get("legs", ()),
                                 data.get("edges", ()))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad graph data: {exc}") from exc


def graph_to_json(graph) -> str:
    if isinstance(graph, JacobiGraph):
        return json.dumps({
            "vertices": [list(v) for v in graph.vertices],
            "legs": list(graph.legs),
            "edges": [list(e) for e in graph.edges],
        })
    return json.dumps({
        "gauge_vertices": [list(v) for v in graph.gauge_vertices],
        "coupling_vertices": [list(v) for v in graph.coupling_vertices],
        "legs": list(graph.legs),
        "gauge_edges": [list(e) for e in graph.gauge_edges],
        "fermion_edges": [list(e) for e in graph.fermion_edges],
        "fermion_loops": graph.fermion_loops,
    })
