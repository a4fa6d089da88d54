"""knots: framed sl2/sl3 invariants of seeded braids, with expansion.

Each job does what ``rtfactor invariant --framed`` and ``rtfactor
invariant --expand 4 --normalize`` do for one link: parse the link JSON,
sweep the closed diagram, remove the writhe, expand around q = e^h and
render both values, then parse the renderings back.
"""

from __future__ import annotations

import json

from rtfactor import diagram, quantum_group, ring, rt

from common import Job, braid_components, make_pool, random_word

EXPAND_ORDER = 4

# (algebra n, strands, word length, framing kinks); the seed picks the
# letters and the sign of the braid kinks, never a size.  The kinked
# unknots are fixed inputs: the median job falls among them, so p50
# does not move with the seed.
CLASSES = {
    "sl2-b3": (2, 3, 10, 1),
    "sl2-b4": (2, 4, 9, 0),
    "sl2-kinked": (2, 1, 0, 5),
    "sl3-b3": (3, 3, 8, 0),
    "sl3-b4": (3, 4, 4, 0),
    "sl3-kinked": (3, 1, 0, -3),
}
SCHEDULE = ("sl2-b4", "sl2-kinked", "sl3-b4", "sl2-b3", "sl3-kinked",
            "sl2-b4", "sl3-b3", "sl2-kinked", "sl3-b4", "sl3-kinked")


def _run(payload):
    text, n = payload["link"], payload["n"]
    tangle = diagram.resolve_link(text).tangle()
    rep = quantum_group.sln_fundamental_ribbon(n)
    framed = rt.framed_invariant(tangle, rep)
    corrected = rt.writhe_corrected_invariant(tangle, rep)
    series = rt.hbar_expand_invariant(
        corrected, EXPAND_ORDER, normalize=True,
        unknot_value=quantum_group.quantum_dimension(rep))
    framed_text = ring.format_laurent(framed, "q")
    series_text = ring.format_hseries(series)
    return (framed, series, framed_text, series_text,
            ring.parse_laurent(framed_text, "q"),
            ring.parse_hseries(series_text))


def _check(payload, result, memo):
    framed, series, framed_text, series_text, framed_back, series_back = result
    n, c = payload["n"], payload["components"]
    ok = (abs(framed.at_one()) == n ** c
          and abs(series.constant) == n ** (c - 1)
          and (c > 1 or (series.coeffs[0] == 1 and series.coeffs[1] == 0))
          and framed_back == framed and series_back == series)
    return ok, f"{framed_text} | {series_text}"


def _maker(cls):
    n, strands, length, kinks = CLASSES[cls]

    def make(rng):
        word = random_word(rng, strands, length) if strands > 1 else []
        link = json.dumps({"braid": {"strands": strands, "word": word},
                           "framing_kinks": kinks * (rng.choice((1, -1))
                                                     if strands > 1 else 1)})
        payload = {"link": link, "n": n,
                   "components": braid_components(strands, word)}
        return [Job(cls, payload, _run, _check)]
    return make


def build(seed: int) -> list[Job]:
    for n in (2, 3):
        quantum_group.sln_fundamental_ribbon(n)
    return make_pool("knots", seed, SCHEDULE, {c: _maker(c) for c in CLASSES})
