"""cohomology: CE cohomology of builtin and rebased algebras.

Each job is one ``rtfactor cohomology`` call: ``--deformation cs``,
``defect``/``defect-boundary``, or the full Betti table.  Jobs come in
pairs: the algebra by its builtin name, then the same algebra as JSON
structure constants in a seeded random unimodular integer basis, with
its representation carried into that basis.  Builtin bases of sl2 and
sl3 diagonalise a Cartan element; rebased ones do not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

from rtfactor import ce, lie

from common import Job, make_pool

REBASE_STEPS = 2

# Betti numbers of trivial coefficients for the simple algebras used.
_TRIVIAL_BETTI = {
    "sl2": (1, 0, 0, 1),
    "so3": (1, 0, 0, 1),
    "sl3": (1, 0, 0, 1, 0, 1, 0, 0, 1),
}

# class -> (kind, algebra choices, coefficients)
CLASSES = {
    "cs-sl2": ("cs", ("sl2", "so3"), "trivial"),
    "cs-sl3": ("cs", ("sl3",), "trivial"),
    "cs-abelian": ("cs", ("abelian(3)", "abelian(4)", "abelian(5)"), "trivial"),
    "defect-sl2": ("defect", ("sl2",), "rep"),
    "boundary-sl2": ("defect-boundary", ("sl2",), "rep"),
    "defect-so3": ("defect", ("so3",), "rep"),
    "boundary-irrep2": ("defect-boundary", ("sl2_irrep(2)",), "rep"),
    "defect-abelian": ("defect", ("abelian(1)", "abelian(2)", "abelian(3)"), "rep"),
    "betti-irrep": ("betti", ("sl2_irrep(1)", "sl2_irrep(2)", "sl2_irrep(3)",
                              "sl2_irrep(4)", "so3"), "rep"),
    "betti-sl3": ("betti", ("sl3",), "trivial"),
}
SCHEDULE = ("cs-sl3", "defect-sl2", "betti-irrep", "defect-so3", "cs-abelian",
            "defect-abelian", "boundary-sl2", "boundary-irrep2", "betti-sl3",
            "defect-sl2", "cs-sl2", "boundary-sl2")
DEGREES = {"cs": (3, 4), "defect": (1, 2), "defect-boundary": (1, 2),
           "betti": None}


# -- inputs ------------------------------------------------------------------

def _unimodular(rng, d):
    """A signed permutation times REBASE_STEPS elementary row operations,
    with its exact integer inverse."""
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    p = [[signs[i] if perm[i] == j else 0 for j in range(d)] for i in range(d)]
    p_inv = [[p[j][i] for j in range(d)] for i in range(d)]
    for _ in range(REBASE_STEPS if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((1, -1))
        p[i] = [a + s * b for a, b in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= s * row[i]
    return p, p_inv


def _rebased(rng, g, rep):
    """Structure constants and representation in the basis e'_i = P e."""
    d = g.dim
    f = [[{c: int(v) if v.denominator == 1 else v
           for c, v in enumerate(g.structure_constants[a][b]) if v}
          for b in range(d)] for a in range(d)]
    p, p_inv = _unimodular(rng, d)
    rows = [{a: x for a, x in enumerate(row) if x} for row in p]
    brackets = []
    for i in range(d):
        for j in range(d):
            image = {}
            for a, pa in rows[i].items():
                for b, pb in rows[j].items():
                    for c, v in f[a][b].items():
                        image[c] = image.get(c, 0) + pa * pb * v
            for k in range(d):
                v = sum(x * p_inv[c][k] for c, x in image.items())
                if v:
                    brackets.append([i, j, k, str(v)])
    algebra = json.dumps({"dim": d, "brackets": brackets})
    if rep is None:
        return algebra, None
    n = rep.dim
    mats = [[[str(sum((x * rep.matrices[a][r][s] for a, x in rows[i].items()),
                      Fraction(0))) for s in range(n)] for r in range(n)]
            for i in range(d)]
    return algebra, json.dumps({"dim": n, "matrices": mats})


def _expected(kind, name, coefficients):
    """The answer theory predicts for the builtin algebra."""
    base = name.split("(")[0]
    if base == "abelian":
        d = int(name[len("abelian("):-1])
        if kind == "cs":
            return (comb(d, 3), comb(d, 4))
        if kind == "betti":
            return tuple(comb(d, k) for k in range(d + 1))
        module_dim = 3 if kind == "defect" else 2  # words in V + V*, dim V = 1
        return (comb(d, 1) * module_dim, comb(d, 2) * module_dim)
    if kind == "cs":
        return (1, 0)
    if kind in ("defect", "defect-boundary"):
        return (0, 0)  # Whitehead's lemmas
    if coefficients == "trivial":
        return _TRIVIAL_BETTI[name]
    return (0,) * 4  # nontrivial irreducible module of sl2 = so3


# -- jobs ----------------------------------------------------------------------

def _coefficient_rep(payload, g):
    if payload["coefficients"] == "trivial":
        return None
    if "rep_json" in payload:
        data = json.loads(payload["rep_json"])
        return lie.Representation(data["dim"], tuple(
            tuple(tuple(Fraction(x) for x in row) for row in m)
            for m in data["matrices"]))
    return payload["builtin_rep"](g)


def _run(payload):
    if "algebra_json" in payload:
        g = lie.algebra_from_json(payload["algebra_json"])
    else:
        g, _ = lie.builtin(payload["algebra"])
    rep = _coefficient_rep(payload, g)
    kind = payload["kind"]
    if kind == "cs":
        h3, h4 = ce.cs_deformation_cohomology(g)
        return (h3, h4), None, f"H3={h3} H4={h4}"
    if kind in ("defect", "defect-boundary"):
        h1, h2 = ce.defect_deformation_cohomology(
            g, rep, boundary=kind == "defect-boundary")
        return (h1, h2), None, f"H1={h1} H2={h2}"
    module = ce.trivial_module(g) if rep is None \
        else ce.module_from_representation(g, rep)
    complex_ = ce.ce_complex(g, module)
    dims = ce.cohomology_dims(complex_)
    return dims, complex_.spaces, " ".join(f"H{i}={d}" for i, d in enumerate(dims))


def _check(payload, result, memo):
    dims, spaces, text = result
    ok = tuple(dims) == payload["expect"]
    if spaces is not None:
        euler = sum((-1) ** k * n for k, n in enumerate(spaces))
        ok = ok and euler == sum((-1) ** k * b for k, b in enumerate(dims))
    key = payload["key"]
    if "algebra_json" in payload:
        ok = ok and memo.get(key) == text
    else:
        memo[key] = text
    return ok, text


def _builtin_rep(name):
    # The CLI's _resolve_rep: the named builtin's own representation.
    return lambda g: lie.builtin(name)[1]


def _maker(cls, algebras):
    kind, names, coefficients = CLASSES[cls]

    def make(rng):
        name = rng.choice(names)
        g, rep = algebras[name]
        algebra_json, rep_json = _rebased(
            rng, g, rep if coefficients == "rep" else None)
        common = {"kind": kind, "coefficients": coefficients,
                  "key": (kind, name, coefficients),
                  "expect": _expected(kind, name, coefficients)}
        builtin = dict(common, algebra=name, builtin_rep=_builtin_rep(name))
        rebased = dict(common, algebra_json=algebra_json)
        if rep_json is not None:
            rebased["rep_json"] = rep_json
        meta = {"degrees": DEGREES[kind]}
        return [Job(cls, builtin, _run, _check, "builtin", meta),
                Job(cls, rebased, _run, _check, "rebased", meta)]
    return make


def build(seed: int) -> list:
    algebras = {name: lie.builtin(name)
                for _, names, _ in CLASSES.values() for name in names}
    return make_pool("cohomology", seed, SCHEDULE,
                     {c: _maker(c, algebras) for c in CLASSES})
