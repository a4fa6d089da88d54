"""skein: the state-sum oracle against the braiding route.

Each job takes one braid string, runs ``compare_with_bracket`` (one sl2
sweep and one 2^c state sum), then ``rtfactor jones`` (a second state
sum) against the quantum-route Jones polynomial, and renders the result.
"""

from __future__ import annotations

from fractions import Fraction

from rtfactor import diagram, kauffman, ring, rt

from common import Job, braid_components, make_pool, random_word

# (strands, crossings) per class; the seed picks the letters
CLASSES = {"c6": (4, 6), "c7": (3, 7), "c8": (4, 8), "c9": (3, 9),
           "c10": (3, 10), "c12": (3, 12)}
_CYCLE = ("c6", "c8", "c7", "c10", "c9", "c6", "c8", "c7", "c9", "c10",
          "c6", "c8", "c7", "c9", "{}", "c6", "c8", "c7", "c9", "c10")
# one 12-crossing job per 40, so a 20 s run has well over 100 jobs
SCHEDULE = (tuple(c.format("c12") for c in _CYCLE)
            + tuple(c.format("c10") for c in _CYCLE))


def _run(payload):
    tangle = diagram.resolve_link(payload["braid"]).tangle()
    comparison = rt.compare_with_bracket(tangle)
    skein = kauffman.jones_polynomial(diagram.pd_from_sliced(tangle),
                                      diagram.writhe(tangle))
    quantum = rt.jones_from_quantum(tangle)
    text = ring.format_laurent(skein, "t")
    return comparison, skein, quantum, text, ring.parse_laurent(text, "t")


def _check(payload, result, memo):
    comparison, skein, quantum, text, back = result
    c = payload["components"]
    ok = (comparison.verdict and skein == quantum and back == skein
          and skein.at_one() == Fraction(-2) ** (c - 1))
    rule = (comparison.substitution, comparison.sign_exponent_law,
            comparison.global_sign)
    return ok, f"{text} | {rule}"


def _maker(cls):
    strands, crossings = CLASSES[cls]

    def make(rng):
        word = random_word(rng, strands, crossings)
        braid = f"B{strands}:" + ",".join(str(x) for x in word)
        payload = {"braid": braid,
                   "components": braid_components(strands, word)}
        return [Job(cls, payload, _run, _check)]
    return make


def build(seed: int) -> list[Job]:
    return make_pool("skein", seed, SCHEDULE, {c: _maker(c) for c in CLASSES})
