"""Command-line interface: synth, automaton, check-word, mec, simulate."""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from .dgrma import accepts_lasso, acceptance_dump, build_dgrma, dgrma_to_dot
from .formula import Formula, FormulaError, parse_formula, parse_rational
from .lasso import LassoError, models, parse_lasso
from .lts import DEFAULT_STATE_CAP, StateCapExceeded
from .mdp import MdpError, mec_decomposition, parse_mdp
from .mecanalysis import EpochSchedule
from .simplex import SimplexError
from .slave import token_str
from .synthesis import SynthesisError, simulate_global, synthesize

_ERRORS = (
    FormulaError,
    LassoError,
    MdpError,
    StateCapExceeded,
    SynthesisError,
    SimplexError,
    OSError,
    ValueError,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built at the first ``main`` call.
    Each ``parse_args`` fills a new namespace, so calls share nothing else."""
    parser = argparse.ArgumentParser(
        prog="freqsynth",
        description="Controller synthesis for MDPs against frequency-LTL "
        "specifications, via deterministic mean-payoff automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_formula_opts(p):
        p.add_argument("--formula", help="formula text")
        p.add_argument("--formula-file", help="file containing the formula")
        p.add_argument(
            "--max-states",
            type=int,
            default=DEFAULT_STATE_CAP,
            help=f"state cap for automata and products (default {DEFAULT_STATE_CAP})",
        )

    p = sub.add_parser("synth", help="decide the synthesis problem for a model")
    add_formula_opts(p)
    p.add_argument("--model", required=True, help="MDP model file")
    p.add_argument("--threshold", required=True, help="probability bound, e.g. 1/2")
    p.add_argument(
        "--strict", action="store_true", help="require strictly above the threshold"
    )
    p.add_argument("--dot", help="write the product automaton DOT here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("automaton", help="translate a formula and print sizes")
    add_formula_opts(p)
    p.add_argument("--dot", help="write the automaton DOT to this file")
    p.add_argument(
        "--export-slaves",
        action="store_true",
        help="also dump every slave transition system",
    )
    p.set_defaults(func=cmd_automaton)

    p = sub.add_parser("check-word", help="compare oracle and automaton on a lasso")
    add_formula_opts(p)
    p.add_argument("--stem", default="", help="stem letters, e.g. '{a};{}'")
    p.add_argument("--loop", required=True, help="loop letters (nonempty)")
    p.set_defaults(func=cmd_check_word)

    p = sub.add_parser("mec", help="print the maximal end components of a model")
    p.add_argument("--model", required=True, help="MDP model file")
    p.set_defaults(func=cmd_mec)

    p = sub.add_parser("simulate", help="simulate the synthesized strategy")
    add_formula_opts(p)
    p.add_argument("--model", required=True, help="MDP model file")
    p.add_argument("--steps", type=int, required=True, help="steps per episode")
    p.add_argument("--episodes", type=int, default=1, help="number of episodes")
    p.add_argument("--seed", type=int, default=0, help="simulation seed")
    p.add_argument("--epoch-cap", type=int, help="cap on individual epoch lengths")
    p.set_defaults(func=cmd_simulate)
    return parser


def _load_formula(args) -> Formula:
    if args.formula and args.formula_file:
        raise FormulaError("give either --formula or --formula-file, not both")
    if args.formula_file:
        with open(args.formula_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif args.formula:
        text = args.formula
    else:
        raise FormulaError("a formula is required (--formula or --formula-file)")
    return parse_formula(text)


def _load_model(args):
    with open(args.model, "r", encoding="utf-8") as fh:
        return parse_mdp(fh.read())


def cmd_synth(args) -> int:
    phi = _load_formula(args)
    mdp, valuation = _load_model(args)
    report = synthesize(
        mdp,
        valuation,
        phi,
        parse_rational(args.threshold),
        strict=args.strict,
        max_states=args.max_states,
    )
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dgrma_to_dot(report.automaton))
    sys.stdout.write(report.to_text())
    return 0 if report.threshold_met else 1


def cmd_automaton(args) -> int:
    phi = _load_formula(args)
    aut = build_dgrma(phi, cap=args.max_states)
    print(f"formula: {phi}")
    print(f"states: {len(aut)}")
    print(f"pairs: {len(aut.pairs)}")
    print(f"recurrent_subformulas: {len(aut.rec)}")
    sys.stdout.write(acceptance_dump(aut))
    dot = dgrma_to_dot(aut)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    if args.export_slaves:
        for i, rho in enumerate(aut.rec):
            slave, states = aut.slaves[i], aut.components[i].states
            exports = [
                (f"slave{i}", slave.lts.to_dot()),
                (
                    f"slave{i}.tokens",
                    aut.components[i].to_dot(lambda q: token_str(slave, states[q])),
                ),
            ]
            for suffix, text in exports:
                if args.dot:
                    with open(f"{args.dot}.{suffix}", "w", encoding="utf-8") as fh:
                        fh.write(text)
                else:
                    print(f"{suffix}: {rho}")
                    sys.stdout.write(text)
    return 0


def cmd_check_word(args) -> int:
    phi = _load_formula(args)
    word = parse_lasso(args.stem, args.loop)
    aut = build_dgrma(phi, cap=args.max_states)
    oracle = models(word, phi)
    automaton = accepts_lasso(aut, word)
    print(f"oracle: {'accept' if oracle else 'reject'}")
    print(f"automaton: {'accept' if automaton else 'reject'}")
    verdict = "MATCH" if oracle == automaton else "MISMATCH"
    print(verdict)
    return 0 if verdict == "MATCH" else 1


def cmd_mec(args) -> int:
    mdp, _ = _load_model(args)
    mecs = mec_decomposition(mdp)
    print(f"mecs: {len(mecs)}")
    for k, ec in enumerate(mecs):
        states = ",".join(sorted(ec.states))
        actions = ",".join(sorted(a.name for a in ec.actions))
        print(f"mec {k}: states={{{states}}} actions={{{actions}}}")
    return 0


def cmd_simulate(args) -> int:
    phi = _load_formula(args)
    mdp, valuation = _load_model(args)
    schedule = EpochSchedule(cap=args.epoch_cap)
    report = synthesize(mdp, valuation, phi, Fraction(0), max_states=args.max_states)
    if report.strategy is None or not report.strategy.winners:
        raise SynthesisError(
            "no strategy available: the maximal probability is 0 everywhere"
        )
    stats = simulate_global(
        report.product, report.strategy, args.episodes, args.steps, args.seed, schedule
    )
    sys.stdout.write(f"max_probability: {report.probability} "
                     f"(~{float(report.probability):.6f})\n")
    sys.stdout.write(stats.to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
