"""Seeded input generators for the three benchmark workloads.

Each workload is a fixed grid of cells: a generated base model of a given
size with a formula.  A cell's ``VARIANTS`` variants differ only in the
model's initial state, and the pinned references in ``refs.json`` cover every
variant.  A run's ``--seed`` picks the variant of every call and the order of
the cells in every pass.  Variants of a cell cost about the same to decide,
so each seed runs the same mix of sizes and formulas on different inputs and
the timings of different seeds stay comparable.

This module imports nothing from freqsynth: the generators and the float
reference below are independent of the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

VARIANTS = 6
# A plan has at least this many calls, so the tail has ten samples beyond it.
MIN_CALLS = 21


@dataclass(frozen=True)
class Instance:
    """One synth input: model text, formula, threshold, and an identifier."""

    key: str  # "<workload>/<cell>/<variant>", the key into refs.json
    model: str
    formula: str
    threshold: str
    sim_seed: int  # seed of the simulation run on the synthesized strategy
    chain: tuple = ()  # gambler's-ruin parameters for the float reference


def _rng(key: str) -> random.Random:
    return random.Random(f"freqsynth-bench:{key}")


# --- lp_mec: strongly connected rings with chords -------------------------

LP_FORMULAS = (
    "G{>1/3,sup} a & G{>=1/4,inf} b",
    "G{>=1/2,inf} (a | X b)",
    "G F a & G{>=2/5,inf} b",
    "G{>=9/10,inf} a",
)
LP_SIZES = (10, 12, 14)
_PROBS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))


def ring_model(n: int, init: int, rng: random.Random, labels, prefix: str) -> str:
    """A ring of n states (so the MDP is strongly connected) plus random
    chord actions; ``labels(k)`` gives the atoms of state k."""
    p = prefix
    lines = ["mdp", "states " + " ".join(f"{p}{k}" for k in range(n)), f"init {p}{init}"]
    for k in range(n):
        atoms = labels(k)
        if atoms:
            lines.append(f"label {p}{k} " + " ".join(atoms))
    for k in range(n):
        nxt = (k + 1) % n
        q = rng.choice(_PROBS)
        lines.append(f"action {p}{k} r{k} : {p}{nxt} {q} , {p}{k} {1 - q}")
        if rng.random() < 0.6:
            t = rng.choice([j for j in range(n) if j not in (k, nxt)])
            q = rng.choice(_PROBS)
            lines.append(f"action {p}{k} c{k} : {p}{t} {q} , {p}{nxt} {1 - q}")
    return "\n".join(lines) + "\n"


def lp_mec_cells():
    """Two base models for every size and formula."""
    return [(n, f, k) for n in LP_SIZES for f in range(len(LP_FORMULAS)) for k in (0, 1)]


def lp_mec_instance(cell: int, variant: int) -> Instance:
    n, f, _ = lp_mec_cells()[cell]
    rng = _rng(f"lp_mec/{cell}")
    labels = [[x for x in ("a", "b") if rng.random() < 0.5] for _ in range(n)]
    model = ring_model(n, variant % n, rng, labels.__getitem__, "s")
    return Instance(
        f"lp_mec/{cell}/{variant}", model, LP_FORMULAS[f], "1/2", 100 * cell + variant
    )


# --- reach_ruin: gambler's-ruin lines -------------------------------------

RUIN_FORMULAS = ("F goal", "F G !broke")
RUIN_SIZES = tuple(range(26, 50, 2))
RUIN_PROBS = (Fraction(2, 5), Fraction(9, 20), Fraction(1, 2))
RUIN_REFLECTING = (30, 40, 48)


def ruin_model(n: int, p: Fraction, reflecting: bool, start: int) -> str:
    """States x0..x{n-1}; x0 is 'broke', x{n-1} is the absorbing 'goal'.
    Interior states bet timidly (+-1) or boldly (+-2) and win with p.
    The reflecting variant bounces from x0 to x1 instead of absorbing."""
    last = n - 1
    lines = [
        "mdp",
        "states " + " ".join(f"x{k}" for k in range(n)),
        f"init x{start}",
        "label x0 broke",
        f"label x{last} goal",
    ]
    if reflecting:
        lines.append("action x0 bounce : x1 1")
    else:
        lines.append("action x0 stay0 : x0 1")
    for k in range(1, last):
        lines.append(f"action x{k} timid{k} : x{k + 1} {p} , x{k - 1} {1 - p}")
        lines.append(
            f"action x{k} bold{k} : x{min(k + 2, last)} {p} , x{max(k - 2, 0)} {1 - p}"
        )
    lines.append(f"action x{last} stay{last} : x{last} 1")
    return "\n".join(lines) + "\n"


def ruin_cells():
    """A ladder of absorbing lines that cycles through every win probability
    and formula, plus reflecting lines (all values exactly 1).  Evenly spaced
    sizes spread the call times, so the median does not sit between two
    clusters of sizes."""
    cells = [
        (n, RUIN_PROBS[i % 3], i % 2, False) for i, n in enumerate(RUIN_SIZES)
    ]
    cells += [(n, RUIN_PROBS[0], 0, True) for n in RUIN_REFLECTING]
    return cells


def reach_ruin_instance(cell: int, variant: int) -> Instance:
    n, p, f, reflecting = ruin_cells()[cell]
    key = f"reach_ruin/{cell}/{variant}"
    start = _rng(key).randrange(n // 4, 3 * n // 4)
    return Instance(
        key,
        ruin_model(n, p, reflecting, start),
        RUIN_FORMULAS[f],
        "1/2",
        100 * cell + variant,
        chain=(n, p, reflecting, start),
    )


def ruin_reference(n: int, p: Fraction, reflecting: bool, start: int):
    """Maximal probability of reaching x{n-1} from ``start`` by float value
    iteration on the absorbing line itself; both formulas have this value,
    since x0 and the goal absorb.  None for the reflecting line, whose value
    is exactly 1 but which value iteration approaches too slowly to check."""
    if reflecting:
        return None
    q = float(p)
    last = n - 1
    v = [0.0] * n
    v[last] = 1.0
    for _ in range(100_000):
        w = list(v)
        for k in range(1, last):
            timid = q * v[k + 1] + (1 - q) * v[k - 1]
            bold = q * v[min(k + 2, last)] + (1 - q) * v[max(k - 2, 0)]
            w[k] = max(timid, bold)
        delta = max(abs(a - b) for a, b in zip(v, w))
        v = w
        if delta < 1e-15:
            return v[start]
    raise ArithmeticError("value iteration did not converge")


# --- translate_wide: the two-bound formula over eight atoms ---------------

WIDE_FORMULA = (
    "((l U b) -> G{>=0.99,inf}(r -> X(f & F c)))"
    " & ((l U w) -> G{>=0.85,inf}(r -> (X p | X X p)))"
)
WIDE_ATOMS = ("l", "b", "r", "f", "c", "w", "p")
WIDE_EXTRA = ("x",)
WIDE_SIZES = (3, 4, 5)


def wide_labels(n: int, rng: random.Random) -> list:
    """Labels over the formula's atoms plus atoms it never mentions; every
    extra atom occurs, so the alphabet has 2^(7 + len(WIDE_EXTRA)) letters."""
    labels = []
    for k in range(n):
        atoms = [x for x in WIDE_ATOMS if rng.random() < 0.35]
        atoms += [x for x in WIDE_EXTRA if k == 0 or rng.random() < 0.3]
        labels.append(atoms)
    return labels


def wide_cells():
    """Two base models of 3 and of 4 states, one of 5.  An odd number of
    cells puts the median call inside one cell's cluster of times, not in
    the gap between two clusters, where noise moves it most."""
    return [(n, k) for n in WIDE_SIZES for k in (0, 1)][:5]


def translate_wide_instance(cell: int, variant: int) -> Instance:
    n, _ = wide_cells()[cell]
    rng = _rng(f"translate_wide/{cell}")
    labels = wide_labels(n, rng)
    model = ring_model(n, variant % n, rng, labels.__getitem__, "m")
    return Instance(
        f"translate_wide/{cell}/{variant}", model, WIDE_FORMULA, "1/2",
        100 * cell + variant,
    )


WORKLOADS = {
    "lp_mec": (lp_mec_cells, lp_mec_instance),
    "reach_ruin": (ruin_cells, reach_ruin_instance),
    "translate_wide": (wide_cells, translate_wide_instance),
}


def corpus(workload: str) -> list[Instance]:
    """Every instance the pinned references cover."""
    cells, make = WORKLOADS[workload]
    return [make(c, v) for c in range(len(cells())) for v in range(VARIANTS)]


def calls(workload: str, target: float) -> int:
    """Whole passes over the cells, as close to ``target`` calls as allowed."""
    cells = len(WORKLOADS[workload][0]())
    passes = max(round(target / cells), -(-MIN_CALLS // cells))
    return passes * cells


def plan(workload: str, seed: int, n_calls: int) -> list[Instance]:
    """The seed's sequence of calls: each pass visits every cell once, in a
    seeded order.  A cell's visits take its variants in a seeded order
    without repeats, so the mix of variants, and with it the timings, varies
    less from seed to seed than independent draws would."""
    cells, make = WORKLOADS[workload]
    n_cells = len(cells())
    rng = random.Random(seed)
    variants = [rng.sample(range(VARIANTS), VARIANTS) for _ in range(n_cells)]
    made: dict = {}
    out = []
    for n in range(n_calls // n_cells):
        order = list(range(n_cells))
        rng.shuffle(order)
        for c in order:
            v = variants[c][n % VARIANTS]
            if (c, v) not in made:
                made[(c, v)] = make(c, v)
            out.append(made[(c, v)])
    return out
