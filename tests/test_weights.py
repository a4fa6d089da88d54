"""Graph weights, AS/IHX relations, symmetry factors."""

import importlib.util
import json
import random
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from rtfactor._linalg import mat_inv, mat_mul
from rtfactor.errors import (
    DimensionTooLarge,
    OpenFermionPath,
    OpenGraph,
    ParseError,
    SingularPairing,
)
from rtfactor.lie import (
    InvariantPairing,
    Representation,
    builtin,
    killing_form,
)
from rtfactor import weights
from rtfactor.ring import HSeries, series_exp, series_log, series_inverse
from rtfactor.weights import (
    BicoloredGraph,
    JacobiGraph,
    check_AS_IHX,
    coupled_weight,
    fermion_wheel,
    generate_trivalent_family,
    graph_from_json,
    graph_to_json,
    lie_weight,
    make_bicolored_graph,
    make_jacobi_graph,
    symmetry_factor,
    theta_graph,
)

from test_linalg import _dense_algebra


def disjoint_union(a: JacobiGraph, b: JacobiGraph) -> JacobiGraph:
    """a beside b, b's half-edge labels shifted past a's."""
    shift = 1 + max([h for v in a.vertices for h in v] + list(a.legs) + [-1])
    vertices = a.vertices + tuple(tuple(h + shift for h in v) for v in b.vertices)
    legs = a.legs + tuple(l + shift for l in b.legs)
    edges = a.edges + tuple((x + shift, y + shift) for x, y in b.edges)
    return make_jacobi_graph(vertices, legs, edges)


def _killing_pairing(g, scale=1):
    return InvariantPairing((tuple(tuple(scale * x for x in row)
                                   for row in killing_form(g)),))


def chord_diagram(chords) -> BicoloredGraph:
    """One Wilson loop through 2m coupling vertices, its gauge half-edges
    joined by the m chords (i, j)."""
    k = 2 * len(chords)
    return make_bicolored_graph(
        (), [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)], (),
        [(3 * i, 3 * j) for i, j in chords],
        [(3 * i + 1, 3 * ((i + 1) % k) + 2) for i in range(k)])


def _trace_pairing(g, rho):
    """The trace form tr(rho_a rho_b) of a representation."""
    return InvariantPairing((tuple(tuple(
        Fraction(sum(v * rho.rows[b][t].get(i, 0)
                     for i, row in enumerate(rho.rows[a])
                     for t, v in row.items()))
        for b in range(g.dim)) for a in range(g.dim)),))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_crossed_minus_parallel_chords_is_n_times_n_squared_minus_one(n):
    g, rho = builtin(f"sln_fundamental({n})")
    trace = _trace_pairing(g, rho)
    assert trace == _killing_pairing(g, Fraction(1, 2 * n))
    crossed = coupled_weight(chord_diagram([(0, 2), (1, 3)]), g, rho, trace)
    parallel = coupled_weight(chord_diagram([(0, 1), (2, 3)]), g, rho, trace)
    assert crossed - parallel == n * (n * n - 1)


@pytest.mark.parametrize("n, weight", [(4, Fraction(-255, 16)),
                                       (5, Fraction(-624, 25))])
def test_degree_3_chords_at_sl4_and_sl5_are_admitted(n, weight):
    g, rho = builtin(f"sln_fundamental({n})")
    assert coupled_weight(chord_diagram([(0, 3), (1, 4), (2, 5)]), g, rho,
                          _killing_pairing(g, Fraction(1, 2 * n))) == weight


def test_theta_weight_is_dimension_for_killing():
    for g, _ in (builtin("sl2"), builtin("so3"), builtin("sl3")):
        weight = lie_weight(theta_graph(), g, _killing_pairing(g))
        assert weight == Fraction(g.dim)


def test_theta_weight_matches_brute_force():
    # theta_graph() reads the second vertex in the order (3, 5, 4), so the
    # edge (1, 4) lands on that tensor's third slot and (2, 5) on its
    # second; the six-fold loop below contracts exactly that pattern.
    g, _ = builtin("sl2")
    kill = killing_form(g)
    inv = mat_inv(kill)
    f = g.structure_constants
    dim = g.dim
    lowered = [[[sum(f[a][b][x] * kill[x][c] for x in range(dim))
                 for c in range(dim)] for b in range(dim)] for a in range(dim)]
    brute = Fraction(0)
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                for d in range(dim):
                    for e in range(dim):
                        for h in range(dim):
                            brute += (lowered[a][b][c] * lowered[d][e][h]
                                      * inv[a][d] * inv[b][h] * inv[c][e])
    assert lie_weight(theta_graph(), g, _killing_pairing(g)) == brute


def test_self_loop_graph_vanishes():
    # One vertex with a self-loop, its third half-edge tied to a second
    # vertex carrying its own self-loop.
    graph = make_jacobi_graph(((0, 1, 2), (3, 4, 5)), (),
                              ((0, 1), (3, 4), (2, 5)))
    g, _ = builtin("sl2")
    assert lie_weight(graph, g, _killing_pairing(g)) == 0


def test_abelian_theta_vanishes():
    g, _ = builtin("abelian(3)")
    pairing = InvariantPairing((tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(3))
        for i in range(3)),))
    assert lie_weight(theta_graph(), g, pairing) == 0


def test_open_graph_rejected():
    graph = make_jacobi_graph((), (0, 1), ((0, 1),))
    g, _ = builtin("sl2")
    with pytest.raises(OpenGraph):
        lie_weight(graph, g, _killing_pairing(g))


def test_size_guards():
    # The dimension alone refuses nothing: abelian(9) on theta costs 2 * 9^3.
    g, _ = builtin("abelian(9)")
    pairing = InvariantPairing((tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(9))
        for i in range(9)),))
    assert lie_weight(theta_graph(), g, pairing) == 0
    # Twelve edges, refused by the old edge count, cost 8 * 3^3 now.
    big = disjoint_union(disjoint_union(theta_graph(), theta_graph()),
                         disjoint_union(theta_graph(), theta_graph()))
    g2, rho = builtin("sl2")
    assert lie_weight(big, g2, _killing_pairing(g2)) == 3 ** 4
    # The twelve-spoke wheel's cycle walks at most 2^(j + 1) prefixes of
    # length j, not 3^j: 1 + 6 * 8188 / 8 of the limit.
    assert weights._cycle_cost(rho, 12) == 6141
    assert coupled_weight(fermion_wheel(12), g2, rho,
                          _killing_pairing(g2)) == Fraction(-729, 131072)
    # Over sl2_irrep(1023) the walk meets every one of the 3^j prefixes.
    g3, rho3 = builtin("sl2_irrep(1023)")
    with pytest.raises(DimensionTooLarge, match="estimate 1259521 exceeds"):
        coupled_weight(fermion_wheel(8), g3, rho3, _killing_pairing(g3))


def test_graded_pairing_weight_expands_order_by_order():
    g, _ = builtin("sl2")
    kill = tuple(tuple(row) for row in killing_form(g))
    half = tuple(tuple(c / 2 for c in row) for row in kill)
    graded = InvariantPairing((kill, half))
    weight = lie_weight(theta_graph(), g, graded)
    assert isinstance(weight, HSeries)
    assert weight.order == 1
    # With G = G0 (1 + h/2), the propagator scales by 1/(1 + h/2) and the
    # vertex by (1 + h/2); theta has 3 edges and 2 vertices, so the weight
    # is 3 * (1 + h/2)^(-1) truncated at h.
    assert weight.coeffs[0] == Fraction(3)
    assert weight.coeffs[1] == Fraction(-3, 2)


def test_classical_vertex_mode_drops_vertex_corrections():
    g, _ = builtin("sl2")
    kill = tuple(tuple(row) for row in killing_form(g))
    half = tuple(tuple(c / 2 for c in row) for row in kill)
    graded = InvariantPairing((kill, half))
    weight = lie_weight(theta_graph(), g, graded, classical_vertex=True)
    # Vertices stay at order 0: the h-coefficient comes from the edges
    # alone, 3 * (-2) * (1/2) = -3 relative to the constant term 3.
    assert weight.coeffs[0] == Fraction(3)
    assert weight.coeffs[1] == Fraction(-9, 2)


def test_weight_is_basis_independent():
    rng = random.Random(77)
    g, _ = builtin("sl2")
    dim = g.dim
    kill = killing_form(g)
    graphs = [theta_graph(),
              make_jacobi_graph(((0, 1, 2), (3, 4, 5)), (),
                                ((0, 1), (3, 4), (2, 5)))]
    for _ in range(3):
        while True:
            basis = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)]
                     for _ in range(dim)]
            try:
                inverse = mat_inv(basis)
                break
            except ValueError:
                continue
        f = g.structure_constants
        new_f = [[[sum(basis[a][p] * basis[b][q] * f[p][q][r]
                       * inverse[r][c]
                       for p in range(dim) for q in range(dim)
                       for r in range(dim))
                   for c in range(dim)] for b in range(dim)]
                 for a in range(dim)]
        new_g = _dense_algebra(new_f)
        new_kill = [[sum(basis[a][p] * basis[b][q] * kill[p][q]
                         for p in range(dim) for q in range(dim))
                     for b in range(dim)] for a in range(dim)]
        pairing = InvariantPairing((tuple(tuple(row) for row in new_kill),))
        for graph in graphs:
            assert (lie_weight(graph, new_g, pairing)
                    == lie_weight(graph, g, _killing_pairing(g)))


def test_as_and_ihx_hold_for_builtins():
    rng = random.Random(510)
    family = generate_trivalent_family(6, rng)
    for g, _ in (builtin("sl2"), builtin("so3")):
        report = check_AS_IHX(g, _killing_pairing(g), family)
        assert report.ok, report.failures


def test_relation_failures_are_reported():
    # A fake "algebra" whose bracket tensor is all ones is neither
    # antisymmetric nor Jacobi; both relation families must flag it.
    from rtfactor.lie import LieAlgebra

    ones = tuple(tuple({0: 1, 1: 1} for _ in range(2)) for _ in range(2))
    fake = LieAlgebra(2, ones)
    identity = InvariantPairing(((
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ),))
    report = check_AS_IHX(fake, identity, [theta_graph()])
    assert not report.ok
    kinds = {kind for kind, _, _ in report.failures}
    assert kinds == {"AS", "IHX"}


def test_fermion_two_wheel_matches_direct_contraction():
    g, rho = builtin("sl2")
    pairing = _killing_pairing(g)
    inv = mat_inv([list(row) for row in pairing.orders[0]])
    dim = g.dim
    expected = Fraction(0)
    for a in range(dim):
        for b in range(dim):
            prod = mat_mul(rho.matrices[a], rho.matrices[b])
            expected -= inv[a][b] * sum(prod[i][i] for i in range(rho.dim))
    assert coupled_weight(fermion_wheel(2), g, rho, pairing) == expected


def test_vertexless_fermion_loop_counts_dimension():
    g, rho = builtin("sl2")
    graph = make_bicolored_graph(fermion_loops=1)
    assert coupled_weight(graph, g, rho, _killing_pairing(g)) == -rho.dim
    two = make_bicolored_graph(fermion_loops=2)
    assert coupled_weight(two, g, rho, _killing_pairing(g)) == rho.dim ** 2


def test_zero_representation_kills_coupled_weight():
    g, rho = builtin("sl2")
    zero_rho = Representation(rho.dim, tuple(
        tuple(tuple(Fraction(0) for _ in range(rho.dim))
              for _ in range(rho.dim)) for _ in g.structure_constants))
    assert coupled_weight(fermion_wheel(2), g, zero_rho,
                          _killing_pairing(g)) == 0


def test_cycle_over_the_trivial_representation_is_charged_in_one_step():
    # no index walk survives the zero matrices of abelian(8)'s trivial
    # representation, so however long the cycle the charge is the one
    # prefix of length 0, found without forming any power of the dimension
    _, rho = builtin("abelian(8)")
    assert weights._cycle_cost(rho, 10 ** 6) == 1


def test_open_fermion_path_rejected():
    coupling = ((0, 1, 2), (3, 4, 5))
    graph = make_bicolored_graph((), coupling, (), ((0, 3),), ((1, 5),))
    g, rho = builtin("sl2")
    with pytest.raises(OpenFermionPath):
        coupled_weight(graph, g, rho, _killing_pairing(g))


def test_coupled_wheel_cross_checks_one_loop_coefficients():
    # An abelian algebra with a single generator represented by a fixed
    # diagonal matrix turns the four-spoke wheel into -tr(M^4); the
    # series route computes the same trace inside its log-determinant.
    from rtfactor.clifford import todd_series, wheel_term

    g, _ = builtin("abelian(1)")
    m = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    rho = Representation(2, (m,))
    pairing = InvariantPairing((((Fraction(1),),),))
    order = 4
    wheel = wheel_term(rho, [Fraction(1)], order)
    todd = todd_series(order)
    half = HSeries.make(order, [Fraction(0), Fraction(-1, 2)])
    log_factor = series_log(series_exp(half) * todd)
    # wheel_term(s) = -sum_k log_factor[k] * tr(M^k) * s^k and the graph
    # weight of the 2k-wheel is -tr(M^(2k)).
    for spokes in (2, 4):
        weight = coupled_weight(fermion_wheel(spokes), g, rho, pairing)
        assert wheel.coeffs[spokes] == -log_factor.coeffs[spokes] * (-weight)


def test_symmetry_factor_pinned_values():
    assert symmetry_factor(theta_graph()) == 12
    assert symmetry_factor(disjoint_union(theta_graph(), theta_graph())) == 288
    strand = make_jacobi_graph((), (0, 1), ((0, 1),))
    assert symmetry_factor(strand) == 1


def test_symmetry_factor_legs_pin_the_attached_vertex():
    # A vertex with two legs and a self-loop would have a flip symmetry,
    # but the labeled legs freeze it; only the identity survives.
    graph = make_jacobi_graph(((0, 1, 2),), (3, 4, 5),
                              ((0, 3), (1, 4), (2, 5)))
    assert symmetry_factor(graph) == 1


def test_symmetry_factor_size_guard():
    graphs = theta_graph()
    for _ in range(4):
        graphs = disjoint_union(graphs, theta_graph())
    with pytest.raises(DimensionTooLarge):
        symmetry_factor(graphs)


def test_graph_json_round_trip():
    graph = theta_graph()
    again = graph_from_json(graph_to_json(graph))
    assert again == graph
    wheel = fermion_wheel(2)
    back = graph_from_json(graph_to_json(wheel))
    assert back == wheel


def test_graph_json_rejects_garbage():
    with pytest.raises(ParseError):
        graph_from_json("[1, 2]")
    with pytest.raises(ParseError):
        graph_from_json("{\"vertices\": [[0, 1]]}")
    with pytest.raises(ParseError):
        graph_from_json("not json")


def test_make_graph_validations():
    with pytest.raises(ParseError):
        make_jacobi_graph(((0, 1, 2),), (), ((0, 1),))  # dangling 2
    with pytest.raises(ParseError):
        make_jacobi_graph(((0, 1, 2), (2, 3, 4)), (),
                          ((0, 2), (1, 3), (2, 4)))  # label reuse
    with pytest.raises(ParseError):
        make_bicolored_graph((), ((0, 1, 2),), (), ((0, 0),), ((1, 2),))


def test_connectivity_recorded():
    assert theta_graph().connected
    assert not disjoint_union(theta_graph(), theta_graph()).connected


def test_bicolored_graph_with_a_leg_parses_and_is_open():
    # One coupling vertex on a fermion cycle; its gauge half-edge ends
    # on a leg.
    graph = make_bicolored_graph((), ((0, 1, 2),), (3,), ((0, 3),), ((1, 2),))
    assert graph.legs == (3,)
    g, rho = builtin("sl2")
    with pytest.raises(OpenGraph):
        coupled_weight(graph, g, rho, _killing_pairing(g))


@pytest.mark.parametrize("loops", [2.5, True, -1, "1", None])
def test_fermion_loops_must_be_a_nonnegative_int(loops):
    with pytest.raises(ParseError):
        make_bicolored_graph(fermion_loops=loops)
    with pytest.raises(ParseError):
        graph_from_json('{"coupling_vertices": [], "fermion_loops": %s}'
                        % json.dumps(loops))


def test_singular_pairing_is_a_domain_error():
    g, rho = builtin("sl2")
    zero = InvariantPairing((tuple((Fraction(0),) * 3 for _ in range(3)),))
    with pytest.raises(SingularPairing, match="singular"):
        lie_weight(theta_graph(), g, zero)
    with pytest.raises(SingularPairing):
        coupled_weight(fermion_wheel(2), g, rho, zero)


def _graded_killing(g, a, order, scale=1):
    """G = (1 + a h) scale K, padded with zero matrices up to h^order."""
    kill = tuple(tuple(scale * x for x in row) for row in killing_form(g))
    zero = tuple(tuple(Fraction(0) for _ in row) for row in kill)
    scaled = tuple(tuple(a * x for x in row) for row in kill)
    return InvariantPairing((kill, scaled) + (zero,) * (order - 1))


@pytest.mark.parametrize("name, seed", [("sl2", 11), ("so3", 12), ("sl2", 13)])
def test_graded_weight_scales_by_vertex_count(name, seed):
    # Every vertex tensor gains a factor (1 + a h) and every edge the
    # inverse; a closed trivalent graph has 3V/2 edges, so its weight is
    # the plain one times (1 + a h)^(-V/2).
    g, _ = builtin(name)
    a, order = Fraction(3, 2), 3
    graded = _graded_killing(g, a, order)
    inverse = series_inverse(HSeries.make(order, [1, a]))
    for graph in generate_trivalent_family(6, random.Random(seed)):
        weight = lie_weight(graph, g, graded)
        plain = lie_weight(graph, g, _killing_pairing(g))
        assert isinstance(weight, HSeries)
        assert all(type(c) is Fraction for c in weight.coeffs)
        assert weight == inverse ** (len(graph.vertices) // 2) * plain


@pytest.mark.parametrize("spokes", [2, 4])
def test_graded_wheel_scales_by_gauge_edges(spokes):
    g, rho = builtin("sl2")
    a, order = Fraction(-2, 3), 3
    wheel = fermion_wheel(spokes)
    weight = coupled_weight(wheel, g, rho, _graded_killing(g, a, order))
    unit = coupled_weight(wheel, g, rho, _killing_pairing(g))
    inverse = series_inverse(HSeries.make(order, [1, a]))
    assert weight == inverse ** len(wheel.gauge_edges) * unit
    loops = make_bicolored_graph(fermion_loops=2)
    assert (coupled_weight(loops, g, rho, _graded_killing(g, a, order))
            == HSeries.const(rho.dim ** 2, order))


# ---------------------------------------------------------------------------
# The file-order scan that the greedy sparse join replaced, as an oracle
# ---------------------------------------------------------------------------

def _scan_contract(node_tensors, partner, prop, unit):
    """Vertices in listing order; every tensor entry is tried against every
    frontier key, with prop a dense matrix of ring values."""
    frontier = {(): unit}
    for halves, tensor in node_tensors:
        own = set(halves)
        new_frontier = {}
        for key, amp in frontier.items():
            pending = dict(key)
            for indices, tval in tensor.items():
                weight = amp * tval
                local = dict(zip(halves, indices))
                next_pending = dict(pending)
                for h, idx in zip(halves, indices):
                    p = partner[h]
                    if p in next_pending:
                        weight = weight * prop[next_pending.pop(p)][idx]
                    elif p in own:
                        if p < h:
                            weight = weight * prop[local[p]][idx]
                    else:
                        next_pending[h] = idx
                    if not weight:
                        break
                else:
                    new_key = tuple(sorted(next_pending.items()))
                    prior = new_frontier.get(new_key)
                    new_frontier[new_key] = (weight if prior is None
                                             else prior + weight)
        frontier = new_frontier
        if not frontier:
            break
    return frontier.get((), 0 * unit)


def _scan_value(coeffs, m):
    """Per-order coefficients as a Fraction, or an HSeries past h^(m-1)."""
    return Fraction(coeffs[0]) if m == 1 else HSeries.make(m - 1, coeffs)


def _scan_setup(g, pairing, classical_vertex):
    """Dense inverse pairing and the vertex tensor from every pairing cell,
    as Fraction or HSeries values with no denominators cleared."""
    inv = weights._graded_inverse(pairing.orders)
    m, dim = len(inv), g.dim
    prop = [[_scan_value([inv[k][r][c] for k in range(m)], m)
             for c in range(dim)] for r in range(dim)]
    grades = pairing.orders[:1] if classical_vertex else pairing.orders
    tensor = {}
    for a, b, c in product(range(dim), repeat=3):
        vals = [sum(v * grade[x][c] for x, v in g.brackets[a][b].items())
                for grade in grades]
        if any(vals):
            tensor[(a, b, c)] = _scan_value(vals, m)
    return prop, tensor, _scan_value((1,), m)


def _scan_lie_weight(graph, g, pairing, classical_vertex=False):
    prop, tensor, unit = _scan_setup(g, pairing, classical_vertex)
    return _scan_contract([(v, tensor) for v in graph.vertices],
                          weights._partners(graph.edges), prop, unit)


def _scan_coupled_weight(graph, g, rho, pairing, classical_vertex=False):
    prop, tensor, unit = _scan_setup(g, pairing, classical_vertex)
    nodes = [(v, tensor) for v in graph.gauge_vertices]
    for cycle in weights._fermion_cycles(graph):
        cycle_tensor = {}
        for assignment in product(range(g.dim), repeat=len(cycle)):
            prod = rho.matrices[assignment[0]]
            for a in assignment[1:]:
                prod = mat_mul(rho.matrices[a], prod)
            trace = -sum(prod[i][i] for i in range(rho.dim))
            if trace:
                cycle_tensor[assignment] = _scan_value(
                    (trace,), len(pairing.orders))
        nodes.append((tuple(v[0] for v in cycle), cycle_tensor))
    scalar = _scan_contract(nodes, weights._partners(graph.gauge_edges),
                            prop, unit)
    return scalar * Fraction(-rho.dim) ** graph.fermion_loops


# (a, scale, order): the pairing (1 + a h) scale K, padded up to h^order.
# Truncating at h^2 and at h^1 covers both a padded and an unpadded series.
_GRADINGS = ((Fraction(3, 2), 1, 2), (Fraction(2, 3), Fraction(3, 7), 1))


def _pairings(g):
    """Killing at scales 1, 3/7 and 5/2, and for each (a, scale, order) of
    _GRADINGS the graded pairing, also with order-0 vertices; with the
    value type each weight must have.  Scales other than 1 put
    denominators in both the vertex tensor and the inverse pairing."""
    pairings = [(_killing_pairing(g, scale), False, Fraction)
                for scale in (1, Fraction(3, 7), Fraction(5, 2))]
    for a, scale, order in _GRADINGS:
        graded = _graded_killing(g, a, order, scale)
        pairings += [(graded, False, HSeries), (graded, True, HSeries)]
    return pairings


@pytest.mark.parametrize("name, seed, max_vertices",
                         [("sl2", 21, 6), ("so3", 22, 6), ("sl3", 23, 4)])
def test_greedy_join_matches_file_order_scan(name, seed, max_vertices):
    g, _ = builtin(name)
    family = generate_trivalent_family(max_vertices, random.Random(seed))
    for pairing, classical_vertex, kind in _pairings(g):
        for graph in family:
            weight = lie_weight(graph, g, pairing, classical_vertex)
            oracle = _scan_lie_weight(graph, g, pairing, classical_vertex)
            assert type(weight) is type(oracle) is kind
            assert repr(weight) == repr(oracle)


@pytest.mark.parametrize("name", ["sl2", "so3"])
def test_coupled_weights_match_file_order_scan(name):
    g, rho = builtin(name)
    # A gauge vertex joined to a three-vertex fermion cycle, two two-vertex
    # cycles joined by two gauge edges, and wheels.
    tripod = make_bicolored_graph(
        [(0, 1, 2)], [(3, 4, 5), (6, 7, 8), (9, 10, 11)], (),
        [(0, 3), (1, 6), (2, 9)], [(4, 8), (7, 11), (10, 5)])
    two_cycles = make_bicolored_graph(
        (), [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)], (),
        [(0, 6), (3, 9)], [(1, 5), (4, 2), (7, 11), (10, 8)])
    graphs = (fermion_wheel(2), fermion_wheel(4), tripod, two_cycles)
    for alg, rep in ((g, rho), _rescaled(g, rho)):
        for graph in graphs:
            for pairing, classical_vertex, kind in _pairings(alg):
                weight = coupled_weight(graph, alg, rep, pairing,
                                        classical_vertex)
                oracle = _scan_coupled_weight(graph, alg, rep, pairing,
                                              classical_vertex)
                assert type(weight) is type(oracle) is kind
                assert repr(weight) == repr(oracle)
    # The weight does not depend on the basis.
    alg, rep = _rescaled(g, rho)
    scale = Fraction(3, 7)
    for graph in graphs:
        assert (coupled_weight(graph, alg, rep, _killing_pairing(alg, scale))
                == coupled_weight(graph, g, rho, _killing_pairing(g, scale)))


def _rescaled(g, rho):
    """The algebra and representation in the basis e'_a = e_a / (a + 2):
    traces along a fermion cycle then have denominators, so each cycle
    tensor has its own scale."""
    c = [Fraction(1, a + 2) for a in range(g.dim)]
    f = g.structure_constants
    return (_dense_algebra([[[c[a] * c[b] / c[k] * f[a][b][k]
                              for k in range(g.dim)] for b in range(g.dim)]
                            for a in range(g.dim)]),
            Representation(rho.dim, tuple(
                tuple(tuple(c[a] * x for x in row) for row in m)
                for a, m in enumerate(rho.matrices))))


def test_vanishing_weights_are_fraction_zero():
    g, rho = builtin("sl2")
    loops = make_jacobi_graph(((0, 1, 2), (3, 4, 5)), (),
                              ((0, 1), (3, 4), (2, 5)))
    zero_rho = Representation(rho.dim, tuple(
        tuple((Fraction(0),) * rho.dim for _ in range(rho.dim))
        for _ in rho.matrices))
    for scale in (1, Fraction(3, 7)):
        pairing = _killing_pairing(g, scale)
        for weight in (lie_weight(loops, g, pairing),
                       coupled_weight(fermion_wheel(2), g, zero_rho, pairing)):
            assert type(weight) is Fraction and weight == 0


def test_contraction_sees_only_ints_for_a_one_order_pairing(monkeypatch):
    seen = []
    contract = weights._contract

    def spy(nodes, partner, prop, unit):
        values = [unit] + [v for row in prop for v in row.values()]
        values += [v for _, tensor in nodes for v in tensor.values()]
        result = contract(nodes, partner, prop, unit)
        seen.append({type(v) for v in values + [result]})
        return result

    monkeypatch.setattr(weights, "_contract", spy)
    family = generate_trivalent_family(4, random.Random(5))
    for g, rho in (builtin("sl2"), _rescaled(*builtin("sl3"))):
        pairing = _killing_pairing(g, Fraction(3, 7))
        for graph in family:
            assert type(lie_weight(graph, g, pairing)) is Fraction
        assert check_AS_IHX(g, pairing, family[:3]).ok
        assert type(coupled_weight(fermion_wheel(4), g, rho,
                                   pairing)) is Fraction
    assert seen and all(kinds == {int} for kinds in seen)


def test_weight_ignores_labels_and_listing_order():
    # Relabelling half-edges, listing the vertices in another order and
    # rotating each vertex triple (its cyclic order is kept) give the
    # same graph, so the same weight whatever order the greedy picks.
    rng = random.Random(31)
    for name in ("sl2", "so3", "sl3"):
        g, _ = builtin(name)
        pairing = _killing_pairing(g)
        for graph in generate_trivalent_family(6, random.Random(3))[1:]:
            labels = [h for v in graph.vertices for h in v]
            fresh = dict(zip(labels, rng.sample(range(100, 200), len(labels))))
            vertices = [tuple(fresh[h] for h in v[k:] + v[:k])
                        for v, k in ((v, rng.randrange(3))
                                     for v in graph.vertices)]
            rng.shuffle(vertices)
            edges = [(fresh[a], fresh[b]) for a, b in graph.edges]
            moved = make_jacobi_graph(vertices, (), edges)
            assert (lie_weight(moved, g, pairing)
                    == lie_weight(graph, g, pairing))


def test_sl3_probe_graphs_pinned():
    # Graphs 6-9 of this family took up to 6 s each in listing order.
    g, _ = builtin("sl3")
    family = generate_trivalent_family(6, random.Random(3))
    assert [lie_weight(graph, g, _killing_pairing(g))
            for graph in family[6:10]] == [-8, 8, 8, 4]


def _enumerate_automorphisms(graph):
    """One automorphism at a time over the whole graph: the enumerator
    that symmetry_factor's per-component count replaced."""
    verts = graph.vertices
    partner = weights._partners(graph.edges)
    legs = set(graph.legs)
    hmap = {l: l for l in legs}
    used = [False] * len(verts)
    count = 0

    def compatible(h, target):
        p = partner[h]
        if p in hmap:
            return partner[target] == hmap[p]
        return partner[target] not in legs

    def descend(i):
        nonlocal count
        if i == len(verts):
            count += 1
            return
        for j, target_vertex in enumerate(verts):
            if used[j]:
                continue
            for perm in permutations(range(3)):
                placed = []
                for h, p in zip(verts[i], perm):
                    if not compatible(h, target_vertex[p]):
                        break
                    hmap[h] = target_vertex[p]
                    placed.append(h)
                else:
                    used[j] = True
                    descend(i + 1)
                    used[j] = False
                for h in placed:
                    del hmap[h]

    descend(0)
    return count


def test_symmetry_factor_matches_enumeration_on_small_unions():
    loops = make_jacobi_graph(((0, 1, 2), (3, 4, 5)), (),
                              ((0, 1), (3, 4), (2, 5)))
    loop_and_leg = make_jacobi_graph(((0, 1, 2),), (3,), ((0, 1), (2, 3)))
    strand = make_jacobi_graph((), (0, 1), ((0, 1),))
    family = generate_trivalent_family(4, random.Random(41))
    pieces = [theta_graph(), loops, loop_and_leg, strand] + list(family[1:])
    for a in pieces:
        for b in pieces:
            union = disjoint_union(a, b)
            assert symmetry_factor(union) == _enumerate_automorphisms(union)
    three = disjoint_union(disjoint_union(loops, theta_graph()), loops)
    # theta (12) and a pair of two-loop graphs (2! * 8^2)
    assert (symmetry_factor(three) == _enumerate_automorphisms(three)
            == 12 * 2 * 8 ** 2)


def test_four_thetas_are_counted_not_enumerated():
    graph = theta_graph()
    for _ in range(3):
        graph = disjoint_union(graph, theta_graph())
    assert symmetry_factor(graph) == 24 * 12 ** 4 == 497664


def test_tracer_patch_points_exist():
    # perfbench/tracing.py wraps every name of TARGETS by getattr with no
    # default; a missing one makes its --trace 1 runs fail.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.TARGETS
               if not hasattr(owner, attr)]
    assert not missing
