"""The acceptance suite: eleven independent end-to-end checks.

Each criterion function takes a seeded random generator and returns
(ok, detail).  The pytest wrapper and the CLI `verify` subcommand both
run the same functions, so a green suite means the same thing in both
places.  Criteria that need no randomness ignore the generator.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial
from time import perf_counter

from . import confint
from ._linalg import exact_rank, mat_inv, mat_mul
from .ce import (
    ce_complex,
    cohomology_dims,
    cs_deformation_cohomology,
    defect_deformation_cohomology,
    defect_module,
    module_from_representation,
    trivial_module,
)
from .clifford import (
    CliffordElement,
    cl_element,
    clifford_multiply,
    hh0_dimension,
    partition_function_identity,
    spinor_matrix,
    supertrace_via_top,
    wheel_term,
)
from .diagram import (
    CATALOG,
    LinkSpec,
    make_braid,
    pd_components,
    pd_from_sliced,
    writhe,
)
from .kauffman import jones_polynomial
from .lie import builtin, killing_form, InvariantPairing
from .quantum_group import (
    quantum_dimension,
    ribbon_twist,
    sln_fundamental_ribbon,
)
from .ring import HSeries, LaurentPoly, series_exp
from .rt import (
    compare_with_bracket,
    hbar_expand_invariant,
    writhe_corrected_invariant,
)
from .weights import (
    check_AS_IHX,
    generate_trivalent_family,
    lie_weight,
    symmetry_factor,
    theta_graph,
)

DEFAULT_SEED = 1729


def default_seed() -> int:
    """The property-test seed, overridable through RTFACTOR_SEED."""
    return int(os.environ.get("RTFACTOR_SEED", DEFAULT_SEED))


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    ok: bool
    detail: str
    elapsed_s: float  # wall time of the criterion's check


# ---------------------------------------------------------------------------
# 1. One uniform bracket rule across the whole catalog
# ---------------------------------------------------------------------------

def check_uniform_bracket_rule(rng) -> tuple[bool, str]:
    shared = None
    for name, spec in CATALOG.items():
        report = compare_with_bracket(spec.tangle())
        if not report.verdict:
            return False, f"{name}: no substitution-and-sign rule matches"
        rules = set(report.rules)
        shared = rules if shared is None else shared & rules
        if not shared:
            return False, f"rule set became empty at {name}"
    rule = min(shared, key=lambda r: (r.substitution, r.per_writhe,
                                      r.per_component, r.global_sign))
    law = (f"{rule.substitution}, sign {rule.global_sign:+d} * "
           f"(-1)^({rule.per_writhe}*w + {rule.per_component}*c)")
    return True, f"{len(CATALOG)} catalog links share the rule [{law}]"


# ---------------------------------------------------------------------------
# 2. Jones oracle: kink invariance, mirror symmetry, distinct chiralities
# ---------------------------------------------------------------------------

def _jones_of(spec):
    tangle = spec.tangle()
    return jones_polynomial(pd_from_sliced(tangle), writhe(tangle))


def check_jones_oracle(rng) -> tuple[bool, str]:
    for name, spec in CATALOG.items():
        base = _jones_of(spec)
        for extra in (1, -1):
            kinked = LinkSpec(spec.braid, spec.framing_kinks + extra)
            if _jones_of(kinked) != base:
                return False, f"{name}: kink {extra:+d} changed the polynomial"
        mirror = LinkSpec(
            make_braid(spec.braid.strands,
                       tuple(-x for x in spec.braid.word)),
            -spec.framing_kinks)
        if _jones_of(mirror) != base.scale_exponents(Fraction(-1)):
            return False, f"{name}: mirror is not t -> 1/t"
    left = _jones_of(CATALOG["trefoil_left"])
    right = _jones_of(CATALOG["trefoil_right"])
    if left == right:
        return False, "trefoil chiralities are not distinguished"
    if left != right.scale_exponents(Fraction(-1)):
        return False, "trefoils are not mirror polynomials"
    return True, (f"{len(CATALOG)} links kink-invariant and mirror-covariant; "
                  "trefoil chiralities distinct")


# ---------------------------------------------------------------------------
# 3. Low-order structure of the normalized expansion
# ---------------------------------------------------------------------------

def check_expansion_structure(rng) -> tuple[bool, str]:
    rep = sln_fundamental_ribbon(2)
    unknot = quantum_dimension(rep)
    knots = [name for name, spec in CATALOG.items()
             if pd_components(pd_from_sliced(spec.tangle())) == 1]
    for name in knots:
        value = writhe_corrected_invariant(CATALOG[name].tangle(), rep)
        series = hbar_expand_invariant(value, 4, normalize=True, unknot_value=unknot)
        if series.coeffs[0] != 1 or series.coeffs[1] != 0:
            return False, f"{name}: expansion starts {series.coeffs[:2]}"
    trefoil = writhe_corrected_invariant(CATALOG["trefoil_right"].tangle(), rep)
    c2 = hbar_expand_invariant(trefoil, 2, normalize=True, unknot_value=unknot).coeffs[2]
    if c2 == 0:
        return False, "trefoil degree-2 coefficient vanishes"
    return True, (f"{len(knots)} knots start (1, 0); "
                  f"trefoil degree-2 coefficient = {c2}")


# ---------------------------------------------------------------------------
# 4. Deformation-complex dimensions
# ---------------------------------------------------------------------------

def check_deformation_cohomology(rng) -> tuple[bool, str]:
    for name in ("sl2", "sl3"):
        g, _ = builtin(name)
        dims = cs_deformation_cohomology(g)
        if dims != (1, 0):
            return False, f"bulk {name}: expected (1, 0), got {dims}"
    g, rep = builtin("sl2")
    for boundary in (False, True):
        dims = defect_deformation_cohomology(g, rep, boundary)
        if dims != (0, 0):
            kind = "boundary" if boundary else "flat"
            return False, f"defect sl2 {kind}: expected (0, 0), got {dims}"
    for gauge_dim in (1, 2):
        g, rep = builtin(f"abelian({gauge_dim})")
        for boundary in (False, True):
            module_dim = defect_module(g, rep, boundary).dim
            oracle = (comb(gauge_dim, 1) * module_dim,
                      comb(gauge_dim, 2) * module_dim)
            got = defect_deformation_cohomology(g, rep, boundary)
            if got != oracle:
                return False, (f"abelian({gauge_dim}) boundary={boundary}: "
                               f"expected {oracle}, got {got}")
    return True, ("bulk sl2/sl3 = (1, 0); defect sl2 = (0, 0) both variants; "
                  "abelian control matches the zero-bracket count")


# ---------------------------------------------------------------------------
# 5. Whitehead vanishing sweep
# ---------------------------------------------------------------------------

def check_whitehead_vanishing(rng) -> tuple[bool, str]:
    g, _ = builtin("sl2")
    modules = [("trivial", trivial_module(g))]
    for k in range(1, 5):
        _, rep = builtin(f"sl2_irrep({k})")
        modules.append((f"{k + 1}-dim", module_from_representation(g, rep)))
    for label, module in modules:
        betti = cohomology_dims(ce_complex(g, module, degrees=(1, 2)))
        if betti[1] != 0 or betti[2] != 0:
            return False, f"{label}: H1={betti[1]}, H2={betti[2]}"
    return True, "H1 = H2 = 0 for all five sl2 modules of dimension <= 5"


# ---------------------------------------------------------------------------
# 6. Clifford/Morita suite
# ---------------------------------------------------------------------------

def _random_clifford(rng, d: int) -> CliffordElement:
    return cl_element(d, {
        (rng.randrange(1 << d), rng.randrange(1 << d)):
            Fraction(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 5))
    })


def check_clifford_morita(rng) -> tuple[bool, str]:
    for trial in range(200):
        d = rng.choice([1, 2, 3])
        a = _random_clifford(rng, d)
        b = _random_clifford(rng, d)
        direct = mat_mul(spinor_matrix(a).matrix, spinor_matrix(b).matrix)
        if spinor_matrix(clifford_multiply(a, b)).matrix != tuple(map(tuple, direct)):
            return False, f"homomorphism fails at trial {trial} (d={d})"
    for d in (1, 2, 3):
        rows = []
        for left in range(1 << d):
            for right in range(1 << d):
                word = CliffordElement(d, (((left, right), Fraction(1)),))
                m = spinor_matrix(word).matrix
                rows.append([v for row in m for v in row])
        if exact_rank(rows) != 4 ** d:
            return False, f"spinor map rank below 4^{d}"
        if hh0_dimension(d) != 1:
            return False, f"hh0_dimension({d}) != 1"
    for trial in range(200):
        d = rng.choice([1, 2, 3])
        a = _random_clifford(rng, d)
        if supertrace_via_top(a) != spinor_matrix(a).supertrace():
            return False, f"supertrace mismatch at trial {trial} (d={d})"
    return True, ("200 product pairs, full rank and hh0 = 1 for d <= 3, "
                  "200 supertrace agreements")


# ---------------------------------------------------------------------------
# 7. Character and partition-function identities
# ---------------------------------------------------------------------------

_CARTAN_CASES = (
    ("sl2", [1, 0, 0]),
    ("sl2_irrep(2)", [1, 0, 0]),
    ("sl3", [0, 0, 0, 0, 0, 0, 1, 3]),
)


def _diagonal_weights(rep, coords) -> list[Fraction]:
    """The diagonal of M = sum_a c_a rho(e_a), summed entry by entry from
    the rows; ValueError when M is not diagonal."""
    m = [{} for _ in range(rep.dim)]
    for c, rows in zip(coords, rep.rows):
        for i, row in enumerate(rows):
            for j, v in row.items():
                m[i][j] = m[i].get(j, 0) + c * v
    if any(v for i, row in enumerate(m) for j, v in row.items() if i != j):
        raise ValueError("element is not Cartan-diagonal here")
    return [Fraction(row.get(i, 0)) for i, row in enumerate(m)]


def check_character_identities(rng) -> tuple[bool, str]:
    from .clifford import charged_character

    order = 6
    for name, coords in _CARTAN_CASES:
        g, rep = builtin(name)
        result = partition_function_identity(g, rep, coords, order)
        if not result.holds:
            return False, f"{name}: two-route series disagree"
        expected = HSeries.const(Fraction(1), order)
        for w in _diagonal_weights(rep, coords):
            half = series_exp(HSeries.make(order, [Fraction(0), w / 2]))
            other = series_exp(HSeries.make(order, [Fraction(0), -w / 2]))
            expected = expected * (half - other)
        if charged_character(g, rep, coords, order) != expected:
            return False, f"{name}: character is not the weight product"
    return True, (f"{len(_CARTAN_CASES)} Cartan cases agree to order {order}, "
                  "both routes and weight products")


# ---------------------------------------------------------------------------
# 8. Wheel coefficients against Bernoulli numbers
# ---------------------------------------------------------------------------

_BERNOULLI = {2: Fraction(1, 6), 4: Fraction(-1, 30),
              6: Fraction(1, 42), 8: Fraction(-1, 30)}


def check_wheel_bernoulli(rng) -> tuple[bool, str]:
    order = 8
    for name, coords in _CARTAN_CASES:
        _, rep = builtin(name)
        weights = _diagonal_weights(rep, coords)
        coeffs = [Fraction(0)] * (order + 1)
        for k, bern in _BERNOULLI.items():
            # trace M^k of the diagonal M
            coeffs[k] = bern * sum(w ** k for w in weights) / (k * factorial(k))
        if wheel_term(rep, coords, order) != HSeries.make(order, coeffs):
            return False, f"{name}: wheel series differs from Bernoulli form"
    _, rep = builtin("abelian(2)")
    if wheel_term(rep, [1, 1], order):
        return False, "zero representation gave a nonzero wheel"
    return True, (f"{len(_CARTAN_CASES)} cases match B_2..B_8 coefficients; "
                  "zero representation gives the zero series")


# ---------------------------------------------------------------------------
# 9. Ribbon axioms for the builtin braidings
# ---------------------------------------------------------------------------

def _dense_braid_axioms(rep) -> tuple[bool, bool]:
    """(R . R_inv = I, (R x I)(I x R)(R x I) = (I x R)(R x I)(I x R)) by
    dense products, independent of the sweep that built the rep."""
    n, m, zero = rep.n, rep.n ** 2, LaurentPoly.zero()
    eye = [[LaurentPoly.one() if i == j else zero for j in range(m)]
           for i in range(m)]
    big = range(n ** 3)
    a = [[rep.R[i // n][j // n] if i % n == j % n else zero for j in big]
         for i in big]
    b = [[rep.R[i % m][j % m] if i // m == j // m else zero for j in big]
         for i in big]
    return (mat_mul(rep.R, rep.R_inv, zero) == eye,
            mat_mul(mat_mul(a, b, zero), a, zero)
            == mat_mul(mat_mul(b, a, zero), b, zero))


def check_ribbon_axioms(rng) -> tuple[bool, str]:
    for n in (2, 3, 4):
        rep = sln_fundamental_ribbon(n)
        inverse, braid = _dense_braid_axioms(rep)
        if not braid:
            return False, f"n={n}: Yang-Baxter fails"
        if not inverse:
            return False, f"n={n}: R inverse fails"
        if ribbon_twist(rep) != rep.twist:
            return False, f"n={n}: kink scalar differs from declared twist"
    return True, "Yang-Baxter, inverse, and kink scalar exact for n = 2, 3, 4"


# ---------------------------------------------------------------------------
# 10. Weight-system relations
# ---------------------------------------------------------------------------

def _theta_brute_force(g) -> Fraction:
    kill = killing_form(g)
    inv = mat_inv(kill)
    f = g.structure_constants
    dim = g.dim
    lowered = [[[sum(f[a][b][x] * kill[x][c] for x in range(dim))
                 for c in range(dim)] for b in range(dim)]
               for a in range(dim)]
    return sum((lowered[a][b][c] * lowered[d][e][h]
                * inv[a][d] * inv[b][h] * inv[c][e]
                for a, b, c, d, e, h in product(range(dim), repeat=6)),
               Fraction(0))


def check_weight_relations(rng) -> tuple[bool, str]:
    family = generate_trivalent_family(6, rng)
    for name in ("sl2", "so3"):
        g, _ = builtin(name)
        pairing = InvariantPairing((tuple(tuple(row)
                                          for row in killing_form(g)),))
        report = check_AS_IHX(g, pairing, family)
        if not report.ok:
            kind, idx, where = report.failures[0]
            return False, f"{name}: {kind} fails on graph {idx} at {where}"
        got = lie_weight(theta_graph(), g, pairing)
        want = _theta_brute_force(g)
        if got != want:
            return False, f"{name}: theta weight {got} != brute force {want}"
    if symmetry_factor(theta_graph()) != 12:
        return False, "theta symmetry factor is not 12"
    return True, (f"AS/IHX on {len(family)} graphs for sl2 and so3; "
                  "theta matches brute force; |Aut(theta)| = 12")


# ---------------------------------------------------------------------------
# 11. Numerical linking
# ---------------------------------------------------------------------------

def check_numerical_linking(rng) -> tuple[bool, str]:
    hopf = confint.gauss_linking(*confint.hopf_pair(512))
    if abs(abs(hopf) - 1.0) > 1e-3:
        return False, f"Hopf linking {hopf:.6f} not within 1e-3 of an integer"
    flat = confint.writhe_integral(confint.unit_circle(256))
    if abs(flat) > 1e-6:
        return False, f"planar circle writhe {flat:.2e}"
    for turns in range(-2, 3):
        value = confint.framed_self_linking(
            confint.twisted_circle(1024, turns), 0.1)
        if abs(value - turns) > 1e-2:
            return False, f"{turns}-twist self-linking came out {value:.4f}"
    knot = confint.torus_knot(1024)
    framed = confint.frenet_framing(knot)
    lhs = (confint.writhe_integral(knot)
           + confint.framing_twist_turns(framed))
    rhs = confint.framed_self_linking(framed, 0.05)
    if abs(lhs - rhs) > 0.05:
        return False, f"writhe+twist {lhs:.4f} vs self-linking {rhs:.4f}"
    return True, (f"Hopf {hopf:+.4f}; twists -2..2 within 1e-2; "
                  f"writhe+twist matches self-linking to {abs(lhs - rhs):.1e}")


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

CRITERIA: tuple[tuple[str, object], ...] = (
    ("uniform-bracket-rule", check_uniform_bracket_rule),
    ("jones-oracle", check_jones_oracle),
    ("expansion-structure", check_expansion_structure),
    ("deformation-cohomology", check_deformation_cohomology),
    ("whitehead-vanishing", check_whitehead_vanishing),
    ("clifford-morita", check_clifford_morita),
    ("character-identities", check_character_identities),
    ("wheel-bernoulli", check_wheel_bernoulli),
    ("ribbon-axioms", check_ribbon_axioms),
    ("weight-relations", check_weight_relations),
    ("numerical-linking", check_numerical_linking),
)


def run_criterion(index: int, seed: int | None = None) -> CriterionResult:
    """Run one criterion by its 1-based index."""
    name, fn = CRITERIA[index - 1]
    rng = random.Random(default_seed() if seed is None else seed)
    start = perf_counter()
    ok, detail = fn(rng)
    return CriterionResult(index, name, ok, detail, perf_counter() - start)


def run_all(seed: int | None = None) -> list[CriterionResult]:
    return [run_criterion(i + 1, seed) for i in range(len(CRITERIA))]
