"""In-memory span tracing of freqsynth from the outside, plus the per-layer
metrics derived from the spans.

A span is (name, start, end, parent, op, info).  Wrappers replace a function
in every namespace listed in ``HOOKS``: the caller's module, where the name
is looked up at call time, which is not always the defining module.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _len_result(args, kwargs, result):
    return {"states": len(result)}


def _dgrma_info(args, kwargs, aut):
    letters = len(aut.lts.alphabet)
    return {
        "states": len(aut),
        "pairs": len(aut.pairs),
        "letters": letters,
        "successor_calls": len(aut) * letters,
    }


def _product_info(args, kwargs, result):
    product = result[0]
    return {"states": len(product), "actions": len(product.actions)}


def _mec_info(args, kwargs, result):
    return {"mecs": len(result)}


def _lp_info(args, kwargs, result):
    num_vars = args[0] if args else kwargs["num_vars"]
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return {"rows": len(rows), "cols": num_vars, "status": result[0]}


def _decide_info(args, kwargs, result):
    return {"accepted": bool(result[0])}


def _reach_info(args, kwargs, result):
    values = result[0]
    return {"maybe": sum(1 for v in values.values() if _ZERO < v < _ONE)}


# (namespace module, attribute, span name, info extractor).  Each entry is the
# module a caller looks the name up in, so the wrapper sits on the live path.
HOOKS = (
    ("freqsynth.cli", "synthesize", "synthesis.synthesize", None),
    ("freqsynth.synthesis", "build_dgrma", "dgrma.translate", _dgrma_info),
    ("freqsynth.dgrma", "build_master", "master.build", _len_result),
    ("freqsynth.dgrma", "build_slave_lts", "slave.slave", _len_result),
    ("freqsynth.dgrma", "build_token_lts", "slave.token", _len_result),
    ("freqsynth.dgrma", "build_count_lts", "slave.count", _len_result),
    ("freqsynth.dgrma", "build_lts", "dgrma.product_lts", None),
    ("freqsynth.synthesis", "product_mdp", "mdp.product", _product_info),
    ("freqsynth.synthesis", "lift_pair", "synthesis.lift", None),
    ("freqsynth.synthesis", "winning_union", "synthesis.winning_union", None),
    ("freqsynth.synthesis", "restrict", "mdp.restrict", None),
    ("freqsynth.synthesis", "mec_decomposition", "mdp.mec", _mec_info),
    ("freqsynth.synthesis", "accepting_mec", "mecanalysis.decide", _decide_info),
    ("freqsynth.simplex", "solve_lp", "simplex.solve", _lp_info),
    ("freqsynth.simplex", "_pivot", "simplex.pivot", None),
    ("freqsynth.synthesis", "max_reach", "synthesis.reach", _reach_info),
    ("freqsynth.synthesis", "_evaluate_policy", "synthesis.policy_eval", None),
    ("freqsynth.synthesis", "_assemble_strategy", "synthesis.assemble", None),
    ("freqsynth.synthesis", "maximize_margin", "mecanalysis.margin", None),
    ("freqsynth.synthesis", "build_witness_strategy", "mecanalysis.witness", None),
)


class Tracer:
    """Collects spans for one process; ``op`` tags the spans of one call."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.op = None

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        return traced

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (the benchmark's root spans)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        for module_name, attr, name, info in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, info))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path):
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": op, "info": info}
            for n, s, e, p, op, info in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    out = [e - s for _, s, e, _, _, _ in spans]
    for _, s, e, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= e - s
    return out


# Per-layer time metrics: (metric, span names, "total" or "self").
TIME_METRICS = (
    ("master.build_s", ("master.build",), "total"),
    ("slave.build_s", ("slave.slave", "slave.token", "slave.count"), "total"),
    ("dgrma.product_lts_s", ("dgrma.product_lts",), "total"),
    ("dgrma.pairs_s", ("dgrma.translate",), "self"),
    ("dgrma.translate_s", ("dgrma.translate",), "total"),
    ("mdp.product_s", ("mdp.product",), "total"),
    ("mdp.restrict_s", ("mdp.restrict",), "total"),
    ("mdp.mec_s", ("mdp.mec",), "total"),
    ("simplex.solve_s", ("simplex.solve",), "total"),
    ("mecanalysis.decide_s", ("mecanalysis.decide",), "total"),
    ("mecanalysis.margin_s", ("mecanalysis.margin",), "total"),
    ("mecanalysis.witness_s", ("mecanalysis.witness",), "total"),
    ("synthesis.lift_s", ("synthesis.lift",), "total"),
    ("synthesis.winning_union_s", ("synthesis.winning_union",), "total"),
    ("synthesis.reach_s", ("synthesis.reach",), "total"),
    ("synthesis.assemble_s", ("synthesis.assemble",), "total"),
    ("synthesis.self_s", ("synthesis.synthesize",), "self"),
    ("synthesis.simulate_s", ("synthesis.simulate",), "total"),
    ("cli.self_s", ("cli.synth",), "self"),
)

# Per-layer counts: (metric, span name, info key or None for the span count).
COUNT_METRICS = (
    ("master.states", "master.build", "states"),
    ("slave.states", ("slave.slave", "slave.token", "slave.count"), "states"),
    ("dgrma.states", "dgrma.translate", "states"),
    ("dgrma.pairs", "dgrma.translate", "pairs"),
    ("dgrma.letters", "dgrma.translate", "letters"),
    ("dgrma.successor_calls", "dgrma.translate", "successor_calls"),
    ("mdp.product_states", "mdp.product", "states"),
    ("mdp.product_actions", "mdp.product", "actions"),
    ("mdp.restrict_calls", "mdp.restrict", None),
    ("mdp.mec_calls", "mdp.mec", None),
    ("mdp.mecs", "mdp.mec", "mecs"),
    ("simplex.solve_calls", "simplex.solve", None),
    ("simplex.pivots", "simplex.pivot", None),
    ("mecanalysis.decide_calls", "mecanalysis.decide", None),
    ("synthesis.reach_policy_evals", "synthesis.policy_eval", None),
    ("synthesis.reach_maybe_states", "synthesis.reach", "maybe"),
)

# Counts that must repeat exactly for an instance (checked across runs).
EXACT_COUNTS = (
    "dgrma.states",
    "dgrma.letters",
    "mdp.product_states",
    "simplex.pivots",
    "simplex.solve_calls",
    "synthesis.reach_policy_evals",
    "synthesis.reach_maybe_states",
)

# Metrics derived from several spans: (metric, the spans they read).
DERIVED = (
    ("simplex.rows_max", ("simplex.solve",)),
    ("simplex.cols_max", ("simplex.solve",)),
    ("mecanalysis.accepted_share", ("mecanalysis.decide",)),
    ("mecanalysis.solves_per_winner", ("mecanalysis.decide", "simplex.solve")),
    ("synthesis.simulate_steps", ("synthesis.simulate",)),
    ("trace.synth_s", ("cli.synth",)),
    ("trace.self_sum_share", ("cli.synth",)),
)


def _names(spec):
    return (spec,) if isinstance(spec, str) else spec


def metric_sources() -> dict:
    """Every span-derived metric and the span names it is computed from."""
    out = {m: tuple(names) for m, names, _ in TIME_METRICS}
    out.update((m, _names(spec)) for m, spec, _ in COUNT_METRICS)
    out.update(DERIVED)
    return out


def op_counts(spans) -> dict:
    """Every count metric of each traced call, keyed by its op tag."""
    per_op: dict = {}
    for name, _, _, _, op, info in spans:
        per_op.setdefault(op, []).append((name, info))
    out = {}
    for op, recs in per_op.items():
        counts = {}
        for metric, spec, key in COUNT_METRICS:
            names = _names(spec)
            chosen = [info for name, info in recs if name in names]
            counts[metric] = len(chosen) if key is None else sum(i[key] for i in chosen)
        out[op] = counts
    return out


def layer_metrics(spans, ops: int, simulate_steps: int) -> dict:
    """Per-layer metrics as (value, unit); times and counts are means per
    traced synth call, so self times add back to ``trace.synth_s``."""
    selfs = self_times(spans)
    total_by_name: dict = {}
    self_by_name: dict = {}
    for rec, own in zip(spans, selfs):
        name = rec[0]
        total_by_name[name] = total_by_name.get(name, 0.0) + rec[2] - rec[1]
        self_by_name[name] = self_by_name.get(name, 0.0) + own
    out = {}
    for metric, names, kind in TIME_METRICS:
        table = total_by_name if kind == "total" else self_by_name
        out[metric] = (sum(table.get(n, 0.0) for n in names) / ops, "s")
    per_op = op_counts(spans).values()
    for metric, _, _ in COUNT_METRICS:
        out[metric] = (sum(counts[metric] for counts in per_op) / ops, "count")

    solves = [r for r in spans if r[0] == "simplex.solve"]
    out["simplex.rows_max"] = (max((r[5]["rows"] for r in solves), default=0), "count")
    out["simplex.cols_max"] = (max((r[5]["cols"] for r in solves), default=0), "count")
    decides = [r for r in spans if r[0] == "mecanalysis.decide"]
    accepted = sum(1 for r in decides if r[5]["accepted"])
    out["mecanalysis.accepted_share"] = (accepted / max(len(decides), 1), "ratio")
    out["mecanalysis.solves_per_winner"] = (_solves_per_winner(spans), "ratio")
    out["synthesis.simulate_steps"] = (simulate_steps / ops, "count")

    synth_total = total_by_name.get("cli.synth", 0.0)
    out["trace.synth_s"] = (synth_total / ops, "s")
    under_synth = sum(
        own for rec, own in zip(spans, selfs) if _root(spans, rec) == "cli.synth"
    )
    out["trace.self_sum_share"] = (under_synth / synth_total if synth_total else 0.0, "ratio")
    return out


def _root(spans, rec) -> str:
    while rec[3] >= 0:
        rec = spans[rec[3]]
    return rec[0]


def _ancestor(spans, rec, names):
    while rec[3] >= 0:
        rec = spans[rec[3]]
        if rec[0] in names:
            return rec
    return None


def _solves_per_winner(spans) -> float:
    """LP solves spent on winning MECs (their decisions, re-analyses and
    margin re-solves) per winning MEC found by ``winning_union``."""
    winners = 0
    solves = 0
    for rec in spans:
        if rec[0] == "mecanalysis.decide" and rec[5]["accepted"]:
            if _ancestor(spans, rec, ("synthesis.winning_union",)) is not None:
                winners += 1
        elif rec[0] == "simplex.solve":
            owner = _ancestor(spans, rec, ("mecanalysis.decide", "mecanalysis.margin"))
            if owner is not None and (
                owner[0] == "mecanalysis.margin" or owner[5]["accepted"]
            ):
                solves += 1
    return solves / winners if winners else 0.0
