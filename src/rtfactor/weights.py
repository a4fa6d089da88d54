"""Lie-theoretic weights of trivalent graphs.

A trivalent graph with cyclic vertex orders is evaluated by contracting
one copy of the bracket-against-pairing tensor per vertex with the
inverse of the pairing along every edge.  The pairing may be graded by
powers of h; the inverse is then the truncated series inverse, and the
weight comes back graded as well.  A variant with a second edge color
and directed fermion lines computes the weights of the gauge-fermion
coupled theory, where closed fermion cycles turn into traces.

Weights here are the algebraic halves of perturbative invariants; the
analytic integrals multiplying them per graph are deliberately out of
scope, as is any resummation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from ._linalg import mat_inv, mat_mul
from .diagram import UnionFind
from .errors import (
    DimensionTooLarge,
    OpenFermionPath,
    OpenGraph,
    ParseError,
    TooLarge,
)
from .lie import InvariantPairing, LieAlgebra, Representation
from .ring import HSeries

MAX_WEIGHT_ALGEBRA_DIM = 8
MAX_WEIGHT_EDGES = 10
MAX_AUT_VERTICES = 8

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


def make_jacobi_graph(vertices, legs=(), edges=()) -> JacobiGraph:
    vertices = tuple(tuple(v) for v in vertices)
    legs = tuple(legs)
    edges = tuple(tuple(e) for e in edges)
    seen = set()
    for v in vertices:
        if len(v) != 3:
            raise ParseError(f"vertex {v!r} is not trivalent")
        seen.update(v)
    if len(seen) != 3 * len(vertices):
        raise ParseError("half-edge label reused between vertices")
    for leg in legs:
        if leg in seen:
            raise ParseError(f"leg {leg} also appears at a vertex")
        seen.add(leg)
    matched = set()
    for e in edges:
        if len(e) != 2 or e[0] == e[1]:
            raise ParseError(f"edge {e!r} is not a pair of distinct half-edges")
        for h in e:
            if h not in seen:
                raise ParseError(f"edge endpoint {h} is not a half-edge")
            if h in matched:
                raise ParseError(f"half-edge {h} is matched twice")
            matched.add(h)
    if matched != seen:
        raise ParseError("edges must match every half-edge exactly once")
    return JacobiGraph(vertices, legs, edges, _is_connected(vertices, legs, edges))


def _is_connected(vertices, legs, edges) -> bool:
    nodes = list(range(len(vertices))) + [("leg", l) for l in legs]
    if len(nodes) <= 1:
        return True
    owner = {}
    for i, v in enumerate(vertices):
        for h in v:
            owner[h] = i
    for l in legs:
        owner[l] = ("leg", l)
    components = UnionFind(nodes)
    for a, b in edges:
        components.union(owner[a], owner[b])
    return components.class_count() == 1


def theta_graph() -> JacobiGraph:
    """Two vertices joined by three parallel edges.

    Cyclic orders are the ones a planar drawing induces: traversing the
    boundary counterclockwise reads the two vertices in opposite edge
    order.  With this orientation the Killing-form weight is +dim.
    """
    return make_jacobi_graph(((0, 1, 2), (3, 5, 4)), (),
                             ((0, 3), (1, 4), (2, 5)))


def disjoint_union(a: JacobiGraph, b: JacobiGraph) -> JacobiGraph:
    shift = 1 + max([h for v in a.vertices for h in v] + list(a.legs) + [-1])
    vertices = a.vertices + tuple(tuple(h + shift for h in v) for v in b.vertices)
    legs = a.legs + tuple(l + shift for l in b.legs)
    edges = a.edges + tuple((x + shift, y + shift) for x, y in b.edges)
    return make_jacobi_graph(vertices, legs, edges)


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
    if fermion_loops < 0:
        raise ParseError("fermion_loops must be nonnegative")
    gauge_halves = set()
    outs, ins = set(), set()
    for v in gauge_vertices:
        if len(v) != 3:
            raise ParseError(f"gauge vertex {v!r} is not trivalent")
        gauge_halves.update(v)
    for g, out, into in coupling_vertices:
        gauge_halves.add(g)
        outs.add(out)
        ins.add(into)
    labels = gauge_halves | outs | ins | set(legs)
    if len(labels) != (3 * len(gauge_vertices) + 3 * len(coupling_vertices)
                       + len(legs)):
        raise ParseError("half-edge label reused")
    matched = set()
    for e in gauge_edges:
        if len(e) != 2 or e[0] == e[1]:
            raise ParseError(f"bad gauge edge {e!r}")
        for h in e:
            if h not in gauge_halves:
                raise ParseError(f"gauge edge endpoint {h} is not gauge")
            if h in matched:
                raise ParseError(f"half-edge {h} matched twice")
            matched.add(h)
    if matched != gauge_halves | set(legs):
        raise ParseError("gauge edges must match every gauge half-edge and leg")
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
# Truncated per-order scalars
# ---------------------------------------------------------------------------

def _tmul(a, b):
    m = len(a)
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(m))


def _tadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _graded_inverse(orders):
    """Inverse of G0 + h G1 + ... truncated at the given number of orders."""
    base = mat_inv([list(row) for row in orders[0]])
    dim = len(base)
    inv = [base]
    for k in range(1, len(orders)):
        acc = [[Fraction(0)] * dim for _ in range(dim)]
        for j in range(1, k + 1):
            step = mat_mul(orders[j], inv[k - j])
            for r in range(dim):
                for c in range(dim):
                    acc[r][c] += step[r][c]
        inv.append([[-x for x in row] for row in mat_mul(base, acc)])
    return inv


def _edge_scalars(pairing: InvariantPairing):
    inv = _graded_inverse(pairing.orders)
    m = len(pairing.orders)
    dim = len(inv[0])
    return [[tuple(inv[k][r][c] for k in range(m)) for c in range(dim)]
            for r in range(dim)], dim, m


def _vertex_tensor(g: LieAlgebra, pairing: InvariantPairing, m: int,
                   classical_vertex: bool):
    """Sparse map (a, b, c) -> per-order tuple of <[e_a, e_b], e_c>."""
    dim = g.dim
    effective = 1 if classical_vertex else m
    tensor = {}
    f = g.structure_constants
    for a in range(dim):
        for b in range(dim):
            row = f[a][b]
            for c in range(dim):
                vals = [Fraction(0)] * m
                nonzero = False
                for k in range(effective):
                    grade = pairing.orders[k]
                    s = sum(row[x] * grade[x][c] for x in range(dim) if row[x])
                    if s:
                        vals[k] = s
                        nonzero = True
                if nonzero:
                    tensor[(a, b, c)] = tuple(vals)
    return tensor


def _contract(node_tensors, partner, prop, m):
    """Contract vertex tensors against edge scalars by a moving frontier.

    node_tensors: list of (half_edges, sparse tensor {indices: scalar}).
    partner: half-edge matching.  Returns the closed-graph scalar tuple.
    """
    one = tuple([Fraction(1)] + [Fraction(0)] * (m - 1))
    frontier = {(): one}
    for halves, tensor in node_tensors:
        own = set(halves)
        new_frontier = {}
        for key, amp in frontier.items():
            pending = dict(key)
            for indices, tval in tensor.items():
                weight = _tmul(amp, tval)
                local = dict(zip(halves, indices))
                next_pending = dict(pending)
                dead = False
                for h, idx in zip(halves, indices):
                    p = partner[h]
                    if p in next_pending:
                        weight = _tmul(weight, prop[next_pending.pop(p)][idx])
                    elif p in own:
                        if p < h:  # both ends of a self-edge land here; once
                            weight = _tmul(weight, prop[local[p]][idx])
                    else:
                        next_pending[h] = idx
                    if not any(weight):
                        dead = True
                        break
                if dead:
                    continue
                new_key = tuple(sorted(next_pending.items()))
                prior = new_frontier.get(new_key)
                new_frontier[new_key] = (_tadd(prior, weight) if prior
                                         else weight)
        frontier = new_frontier
        if not frontier:
            zero = tuple([Fraction(0)] * m)
            return zero
    return frontier.get((), tuple([Fraction(0)] * m))


def _as_result(scalar, m):
    if m == 1:
        return scalar[0]
    return HSeries.make(m - 1, scalar)


def _guard_size(g: LieAlgebra, edge_count: int) -> None:
    if g.dim > MAX_WEIGHT_ALGEBRA_DIM:
        raise DimensionTooLarge(
            f"algebra dimension {g.dim} exceeds {MAX_WEIGHT_ALGEBRA_DIM}")
    if edge_count > MAX_WEIGHT_EDGES:
        raise DimensionTooLarge(
            f"{edge_count} edges exceed the bound {MAX_WEIGHT_EDGES}")


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
    if graph.legs:
        raise OpenGraph("weight of a graph with open legs is not a scalar")
    _guard_size(g, len(graph.edges))
    prop, _, m = _edge_scalars(pairing)
    tensor = _vertex_tensor(g, pairing, m, classical_vertex)
    partner = {}
    for a, b in graph.edges:
        partner[a] = b
        partner[b] = a
    nodes = [(v, tensor) for v in graph.vertices]
    return _as_result(_contract(nodes, partner, prop, m), m)


def _fermion_cycles(graph: BicoloredGraph):
    """Split the coupling vertices into directed cycles; error on paths."""
    by_out = {v[1]: v for v in graph.coupling_vertices}
    by_in = {v[2]: v for v in graph.coupling_vertices}
    succ = {}
    for src, dst in graph.fermion_edges:
        succ[by_out[src][1]] = by_in[dst]
    unmatched = (len(graph.coupling_vertices) * 2
                 - 2 * len(graph.fermion_edges))
    if unmatched:
        raise OpenFermionPath(
            "fermion lines must close into cycles for a scalar weight")
    cycles = []
    seen = set()
    for v in graph.coupling_vertices:
        if v in seen:
            continue
        cycle = [v]
        seen.add(v)
        cur = succ[v[1]]
        while cur != v:
            cycle.append(cur)
            seen.add(cur)
            cur = succ[cur[1]]
        cycles.append(cycle)
    return cycles


def coupled_weight(graph: BicoloredGraph, g: LieAlgebra, rho: Representation,
                   pairing: InvariantPairing, classical_vertex: bool = False):
    """Weight of a closed bicolored graph.

    Gauge vertices and edges contract exactly as in lie_weight.  Each
    fermion cycle contributes minus the trace of the product of rho
    matrices collected along it, as a tensor in its gauge indices; each
    vertex-free fermion loop contributes a bare factor of -dim(rho).
    """
    if graph.legs:
        raise OpenGraph("weight of a graph with open legs is not a scalar")
    _guard_size(g, len(graph.gauge_edges) + len(graph.fermion_edges))
    prop, dim, m = _edge_scalars(pairing)
    tensor = _vertex_tensor(g, pairing, m, classical_vertex)
    partner = {}
    for a, b in graph.gauge_edges:
        partner[a] = b
        partner[b] = a
    nodes = [(v, tensor) for v in graph.gauge_vertices]
    pad = [Fraction(0)] * (m - 1)
    for cycle in _fermion_cycles(graph):
        halves = tuple(v[0] for v in cycle)
        cycle_tensor = {}
        for assignment in product(range(dim), repeat=len(cycle)):
            prod = None
            for a in assignment:
                mat = rho.matrices[a]
                prod = mat if prod is None else mat_mul(mat, prod)
            trace = -sum(prod[i][i] for i in range(rho.dim))
            if trace:
                cycle_tensor[assignment] = tuple([trace] + pad)
        nodes.append((halves, cycle_tensor))
    scalar = _contract(nodes, partner, prop, m)
    loop = Fraction(-rho.dim)
    for _ in range(graph.fermion_loops):
        scalar = tuple(loop * x for x in scalar)
    return _as_result(scalar, m)


# ---------------------------------------------------------------------------
# AS and IHX
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationReport:
    ok: bool
    failures: tuple  # (relation, graph_index, detail) triples


def _negated(value):
    if isinstance(value, HSeries):
        return HSeries.make(value.order, [-c for c in value.coeffs])
    return -value


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
    owner = {}
    for i, v in enumerate(graph.vertices):
        for h in v:
            owner[h] = i
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
    failures = []
    for idx, graph in enumerate(family):
        base = lie_weight(graph, g, pairing)
        for vi in range(len(graph.vertices)):
            vertices = list(graph.vertices)
            vertices[vi] = vertices[vi][::-1]
            flipped = JacobiGraph(tuple(vertices), graph.legs, graph.edges,
                                  graph.connected)
            if lie_weight(flipped, g, pairing) != _negated(base):
                failures.append(("AS", idx, f"vertex {vi}"))
        for edge in graph.edges:
            rewrites = _ihx_triple(graph, edge)
            if rewrites is None:
                continue
            second, third = rewrites
            total = (base - lie_weight(second, g, pairing)
                     + lie_weight(third, g, pairing))
            zero = HSeries.zero(total.order) if isinstance(total, HSeries) \
                else Fraction(0)
            if total != zero:
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
    the diagram sum divides by vertex and edge permutations.
    """
    if len(graph.vertices) > MAX_AUT_VERTICES:
        raise TooLarge(
            f"{len(graph.vertices)} vertices exceed {MAX_AUT_VERTICES}")
    verts = graph.vertices
    partner = {}
    for a, b in graph.edges:
        partner[a] = b
        partner[b] = a
    legs = set(graph.legs)
    hmap = {l: l for l in legs}
    used = [False] * len(verts)
    count = 0

    def compatible(h, target):
        p = partner.get(h)
        if p is None:
            return True
        if p in hmap:
            return partner.get(target) == hmap[p]
        if partner.get(target) in legs:
            return False
        return True

    def descend(i):
        nonlocal count
        if i == len(verts):
            count += 1
            return
        source = verts[i]
        for j, target_vertex in enumerate(verts):
            if used[j]:
                continue
            for perm in _PERMS3:
                images = [target_vertex[p] for p in perm]
                placed = []
                ok = True
                for h, tgt in zip(source, images):
                    if not compatible(h, tgt):
                        ok = False
                        break
                    hmap[h] = tgt
                    placed.append(h)
                if ok:
                    used[j] = True
                    descend(i + 1)
                    used[j] = False
                for h in placed:
                    del hmap[h]
        return

    descend(0)
    return count


# ---------------------------------------------------------------------------
# JSON graph files
# ---------------------------------------------------------------------------

def graph_from_json(text: str):
    """Parse a graph file; plain when it has "vertices", bicolored when
    it has coupling data."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad graph JSON: {exc}") from exc
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
