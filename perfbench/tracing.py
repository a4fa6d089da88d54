"""Spans around calls into the rtfactor modules, recorded from outside.

Nothing under src/ is edited.  A traced run replaces public names with
wrappers, in the namespace the caller looks them up in: the job code
calls ``rt.framed_invariant``, while ``rt.compare_with_bracket`` reaches
the state sum through ``rtfactor.rt.kauffman_bracket`` and ``ce`` reaches
the rank through ``rtfactor.ce.exact_rank``.  Each wrapper records one
span (name, start, end, parent, job) in memory; ``layer_metrics`` turns
the spans into per-layer self times and counts after the run.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

from rtfactor import (ce, clifford, confint, diagram, kauffman, lie,
                      quantum_group, ring, rt, weights)

MODULES = ("diagram", "rt", "ring", "quantum_group", "kauffman", "lie", "ce",
           "linalg", "weights", "clifford", "confint")

# Span names whose self time is reported as "<name>_s".
SPANS = (
    "diagram.tangle", "diagram.pd",
    "rt.sweep", "rt.compare", "rt.normalize",
    "ring.expand", "ring.render",
    "quantum_group.ribbon",
    "kauffman.state_sum", "kauffman.jones",
    "lie.builtin", "lie.parse", "lie.killing",
    "ce.module", "ce.complex", "ce.betti",
    "linalg.rank", "linalg.matmul", "linalg.inv",
    "weights.weight", "weights.symmetry", "weights.relations", "weights.parse",
    "clifford.identity", "clifford.berezin",
    "confint.integral", "confint.curve",
    "bench.check",
)

# Layers reported once per cohomology basis kind as well as in total.
SPLIT_LABELS = ("builtin", "rebased")
SPLIT_METRICS = (
    ("ce.module_s", "s"), ("ce.complex_s", "s"), ("ce.betti_s", "s"),
    ("ce.cochain_dim_total", "count"), ("ce.cochain_dim_max", "count"),
    ("ce.ranks_used_frac", "ratio"),
    ("linalg.rank_s", "s"), ("linalg.rank_cells", "count"),
    ("linalg.rank_density", "ratio"), ("linalg.matmul_s", "s"),
)


def _max_width(tangle) -> int:
    width = peak = tangle.input_arity
    for piece, _ in tangle.slices:
        if piece == diagram.CUP:
            width += 2
        elif piece == diagram.CAP:
            width -= 2
        peak = max(peak, width)
    return peak


# -- counters: (tracer, args, result) -> None, run outside the measured span --

def _count_sweep(tr, args, result):
    tangle, rep = args[0], args[1]
    tr.add("rt.sweeps", 1)
    tr.add("rt.dense_rows", rep.n ** _max_width(tangle))


def _count_tangle(tr, args, result):
    tr.peak("diagram.max_width", _max_width(result))


def _count_states(tr, args, result):
    tr.add("kauffman.states", 2 ** len(args[0].crossings))


def _count_terms(tr, args, result):
    tr.add("ring.result_terms", len(args[0].terms))


def _count_builtin(tr, args, result):
    tr.add("lie.builtin_calls", 1)


def _count_complex(tr, args, result):
    tr.add("ce.cochain_dim_total", sum(result.spaces))
    tr.peak("ce.cochain_dim_max", max(result.spaces))


def _count_betti(tr, args, result):
    computed = len(args[0].differentials)
    wanted = tr.job_meta.get("degrees")
    if wanted is None:
        needed = computed
    else:
        # H^k needs the ranks of d_{k-1} and d_k.
        needed = len({j for k in wanted for j in (k - 1, k)
                      if 0 <= j < computed})
    tr.add("ce.ranks_computed", computed)
    tr.add("ce.ranks_needed", needed)


def _count_rank(tr, args, result):
    rows = args[0]
    cells = sum(len(row) for row in rows)
    tr.add("linalg.rank_cells", cells)
    tr.add("linalg.rank_nonzero", sum(1 for row in rows for v in row if v))


def _count_pairs(tr, args, result):
    sizes = [len(c.points) for c in args[:2]]
    n1, n2 = (sizes[0], sizes[0]) if len(sizes) == 1 else sizes
    tr.peak("confint.pair_bytes", 70 * n1 * n2)


# (namespace object, attribute, span name, counter)
TARGETS = (
    (diagram, "resolve_link", "diagram.tangle", None),
    (diagram.LinkSpec, "tangle", "diagram.tangle", _count_tangle),
    (diagram, "pd_from_sliced", "diagram.pd", None),
    (rt, "pd_from_sliced", "diagram.pd", None),
    (rt, "evaluate_sliced_tangle", "rt.sweep", _count_sweep),
    (rt, "compare_with_bracket", "rt.compare", None),
    (rt, "writhe_corrected_invariant", "rt.normalize", None),
    (rt, "normalized_invariant", "rt.normalize", None),
    (rt, "jones_from_quantum", "rt.normalize", None),
    (rt, "hbar_expand_invariant", "ring.expand", None),
    (ring, "format_laurent", "ring.render", _count_terms),
    (ring, "parse_laurent", "ring.render", None),
    (ring, "format_hseries", "ring.render", None),
    (ring, "parse_hseries", "ring.render", None),
    (quantum_group, "sln_fundamental_ribbon", "quantum_group.ribbon", None),
    (rt, "sln_fundamental_ribbon", "quantum_group.ribbon", None),
    (rt, "ribbon_twist", "quantum_group.ribbon", None),
    (quantum_group, "quantum_dimension", "quantum_group.ribbon", None),
    (rt, "quantum_dimension", "quantum_group.ribbon", None),
    (rt, "kauffman_bracket", "kauffman.state_sum", _count_states),
    (kauffman, "kauffman_bracket", "kauffman.state_sum", _count_states),
    (kauffman, "jones_polynomial", "kauffman.jones", None),
    (lie, "builtin", "lie.builtin", _count_builtin),
    (lie, "algebra_from_json", "lie.parse", None),
    (lie, "killing_form", "lie.killing", None),
    (lie, "mat_mul", "linalg.matmul", None),
    (ce, "module_from_representation", "ce.module", None),
    (ce, "defect_module", "ce.module", None),
    (ce, "ce_complex", "ce.complex", _count_complex),
    (ce, "cohomology_dims", "ce.betti", _count_betti),
    (ce, "exact_rank", "linalg.rank", _count_rank),
    (ce, "mat_mul", "linalg.matmul", None),
    (weights, "lie_weight", "weights.weight", None),
    (weights, "coupled_weight", "weights.weight", None),
    (weights, "symmetry_factor", "weights.symmetry", None),
    (weights, "check_AS_IHX", "weights.relations", None),
    (weights, "graph_from_json", "weights.parse", None),
    (weights, "mat_inv", "linalg.inv", None),
    (weights, "mat_mul", "linalg.matmul", None),
    (clifford, "partition_function_identity", "clifford.identity", None),
    (clifford, "berezin_determinant", "clifford.berezin", None),
    (confint, "gauss_linking", "confint.integral", _count_pairs),
    (confint, "writhe_integral", "confint.integral", _count_pairs),
    (confint, "framed_self_linking", "confint.integral", None),
    (confint, "hopf_pair", "confint.curve", None),
    (confint, "twisted_circle", "confint.curve", None),
    (confint, "torus_knot", "confint.curve", None),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent, job, raised]
        self.stack = []
        self.job = None
        self.job_meta = {}
        self.job_label = None
        self.counts = defaultdict(int)   # (metric, label) -> value
        self._saved = []

    def add(self, metric, value):
        self.counts[(metric, self.job_label)] += value

    def peak(self, metric, value):
        key = (metric, self.job_label)
        self.counts[key] = max(self.counts[key], value)

    def begin_job(self, job_id, meta, label):
        self.job, self.job_meta, self.job_label = job_id, meta, label

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span; used for the benchmark's own phases."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            record = [name, 0.0, 0.0, parent, tracer.job, False]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                record[5] = True
                raise
            finally:
                record[2] = perf_counter()
                tracer.stack.pop()
            if counter is not None:
                tracer.span("trace.counter", counter, tracer, args, result)
            return result
        return traced

    def install(self):
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, raised in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "raised": raised}) + "\n")

    def self_times(self):
        """Self time per span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _, _) in enumerate(self.spans)]


def layer_metrics(tracer, job_labels, job_time_s):
    """Per-layer self times, counts and errors from one traced run.

    job_labels maps a job id to its split label (or None); job_time_s is
    the traced wall time the spans belong to, for the accounted share.
    """
    own = tracer.self_times()
    total = defaultdict(float)
    split = defaultdict(float)
    errors = defaultdict(int)
    for (name, _, _, _, job, raised), t in zip(tracer.spans, own):
        total[name] += t
        label = job_labels.get(job)
        if label is not None:
            split[(name, label)] += t
        if raised:
            errors[name.split(".")[0]] += 1

    out = {f"{name}_s": (total[name], "s") for name in SPANS}
    out["trace.counter_s"] = (total["trace.counter"], "s")

    def count(metric, label=None):
        if label is not None:
            return tracer.counts.get((metric, label), 0)
        return sum(v for (m, _), v in tracer.counts.items() if m == metric)

    def peak(metric, label=None):
        return max([v for (m, lab), v in tracer.counts.items()
                    if m == metric and (label is None or lab == label)],
                   default=0)

    def ratio(num, den):
        return num / den if den else 0.0

    for metric in ("rt.sweeps", "rt.dense_rows", "kauffman.states",
                   "ring.result_terms", "lie.builtin_calls",
                   "ce.cochain_dim_total", "linalg.rank_cells"):
        out[metric] = (count(metric), "count")
    for metric in ("diagram.max_width", "ce.cochain_dim_max"):
        out[metric] = (peak(metric), "count")
    out["confint.pair_bytes"] = (peak("confint.pair_bytes"), "bytes")
    out["ce.ranks_used_frac"] = (ratio(count("ce.ranks_needed"),
                                       count("ce.ranks_computed")), "ratio")
    out["linalg.rank_density"] = (ratio(count("linalg.rank_nonzero"),
                                        count("linalg.rank_cells")), "ratio")
    for label in SPLIT_LABELS:
        for metric, unit in SPLIT_METRICS:
            name = metric.replace(".", f".{label}.", 1)
            if unit == "s":
                value = split[(metric[:-2], label)]
            elif metric == "ce.cochain_dim_max":
                value = peak(metric, label)
            elif metric == "ce.ranks_used_frac":
                value = ratio(count("ce.ranks_needed", label),
                              count("ce.ranks_computed", label))
            elif metric == "linalg.rank_density":
                value = ratio(count("linalg.rank_nonzero", label),
                              count("linalg.rank_cells", label))
            else:
                value = count(metric, label)
            out[name] = (value, unit)
    for module in MODULES:
        out[f"{module}.errors"] = (errors[module], "count")

    layered = sum(t for (name, *_), t in zip(tracer.spans, own)
                  if not name.startswith(("bench.", "trace.")))
    out["bench.job_self_s"] = (job_time_s - sum(own), "s")
    out["trace.layer_frac"] = (ratio(layered, job_time_s), "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
