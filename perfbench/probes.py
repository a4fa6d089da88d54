"""Fixed-size layer probes, run untraced at the end of a traced run.

They repeat the rows of the ROADMAP baseline table, each with its input
size, so a layer change can be quoted against that table.  Two rows are
left out: the 400 s sl3 defect cohomology (longer than a run may take)
and the tier-1 suite time (a test run, not a layer).
"""

from __future__ import annotations

import random
from time import perf_counter

from rtfactor import ce, diagram, kauffman, lie, quantum_group, rt, weights
from rtfactor.ring import LaurentPoly

from common import random_word

# Index of the slowest sl3 6-vertex graph in generate_trivalent_family(6,
# Random(3)); the graphs at indices 7, 8 and 9 took 0.3, 10.9 and 11.9 s.
SLOW_SL3_GRAPH = 9
MULADD_TERMS = 8
MULADD_REPEATS = 2000


def _timed(fn, *args):
    start = perf_counter()
    value = fn(*args)
    return perf_counter() - start, value


def _unknot_kinks(kinks):
    tangle = diagram.LinkSpec(diagram.make_braid(1, ()), kinks).tangle()
    seconds, _ = _timed(rt.framed_invariant, tangle,
                        quantum_group.sln_fundamental_ribbon(2))
    return seconds, 2 ** (2 * (kinks + 1))


def _sl3_braid():
    word = random_word(random.Random(16), 4, 16)
    tangle = diagram.LinkSpec(diagram.make_braid(4, word)).tangle()
    seconds, _ = _timed(rt.framed_invariant, tangle,
                        quantum_group.sln_fundamental_ribbon(3))
    return seconds, 3 ** 8


def _bracket(crossings):
    word = random_word(random.Random(crossings), 3, crossings)
    pd = diagram.pd_from_sliced(diagram.LinkSpec(diagram.make_braid(3, word)).tangle())
    seconds, _ = _timed(kauffman.kauffman_bracket, pd)
    return seconds


def _defect_rank():
    g, rep = lie.builtin("sl2_irrep(3)")
    complex_ = ce.ce_complex(g, ce.defect_module(g, rep))
    d1 = complex_.differentials[1]
    seconds, _ = _timed(ce.exact_rank, d1)
    return seconds, len(d1) * len(d1[0])


def _slow_graph():
    family = weights.generate_trivalent_family(6, random.Random(3))
    g, _ = lie.builtin("sl3")
    pairing = lie.InvariantPairing(
        (tuple(tuple(row) for row in lie.killing_form(g)),))
    seconds, _ = _timed(weights.lie_weight, family[SLOW_SL3_GRAPH], g, pairing)
    return seconds


def _muladd():
    """One multiply-add of MULADD_TERMS-term polynomials, in microseconds,
    for LaurentPoly and for a plain dict of integer coefficients."""
    rng = random.Random(0)
    exps = [rng.sample(range(-12, 13), MULADD_TERMS) for _ in range(2)]
    coeffs = [[rng.randint(-9, 9) or 1 for _ in range(MULADD_TERMS)]
              for _ in range(2)]
    a, b = ({e: c for e, c in zip(ex, co)} for ex, co in zip(exps, coeffs))
    pa, pb = LaurentPoly.from_terms(1, a), LaurentPoly.from_terms(1, b)

    def laurent():
        acc = LaurentPoly.zero()
        for _ in range(MULADD_REPEATS):
            acc = acc + pa * pb
        return acc

    def int_dict():
        acc = {}
        for _ in range(MULADD_REPEATS):
            for ea, ca in a.items():
                for eb, cb in b.items():
                    e = ea + eb
                    acc[e] = acc.get(e, 0) + ca * cb
            acc = {e: c for e, c in acc.items() if c}
        return acc

    poly_s, poly = _timed(laurent)
    dict_s, plain = _timed(int_dict)
    if dict(poly.terms) != plain:
        raise AssertionError("multiply-add probes disagree")
    return 1e6 * poly_s / MULADD_REPEATS, 1e6 * dict_s / MULADD_REPEATS


def run_probes() -> dict:
    """Every probe, as metric name -> (value, unit)."""
    out = {}
    for kinks in (6, 8):
        seconds, rows = _unknot_kinks(kinks)
        out[f"probe.sl2_unknot_k{kinks}_s"] = (seconds, "s")
        out[f"probe.sl2_unknot_k{kinks}_dense_rows"] = (rows, "count")
    seconds, rows = _sl3_braid()
    out["probe.sl3_b4_l16_s"] = (seconds, "s")
    out["probe.sl3_b4_l16_dense_rows"] = (rows, "count")
    for crossings in (12, 14, 16):
        out[f"probe.bracket_c{crossings}_s"] = (_bracket(crossings), "s")
    seconds, cells = _defect_rank()
    out["probe.rank_d1_s"] = (seconds, "s")
    out["probe.rank_d1_cells"] = (cells, "count")
    out["probe.sl3_graph6_s"] = (_slow_graph(), "s")
    poly_us, dict_us = _muladd()
    out["probe.laurent_muladd_us"] = (poly_us, "us")
    out["probe.intdict_muladd_us"] = (dict_us, "us")
    out["probe.muladd_terms"] = (MULADD_TERMS, "count")
    return out
