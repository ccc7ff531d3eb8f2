"""Controller synthesis for MDPs against frequency-LTL specifications.

The pipeline translates a formula of the until-free-under-globally fragment
into a deterministic generalized Rabin mean-payoff automaton, products it
with an MDP, and decides (with an exact-rational flow LP per end component)
whether the satisfaction probability meets a threshold, constructing a
witness strategy when it does.
"""

from .formula import (
    Formula,
    FormulaError,
    FreqBound,
    in_fragment,
    nb_subformulas,
    parse_formula,
    push_negation,
)
from .boolfn import BoolFn, step, substitute_ff, unfold
from .lasso import Lasso, models, parse_lasso
from .lts import Lts, StateCapExceeded
from .master import build_master
from .slave import (
    accepting_sinks,
    assumption_conj,
    buchi_accepting_sets,
    build_count_lts,
    build_slave_lts,
    build_token_lts,
    cobuchi_rejecting_sets,
    mp_reward,
)
from .dgrma import Dgrma, GbmpCondition, GrmpPair, MpBound, accepts_lasso, build_dgrma, rec_set
from .mdp import Mdp, MdpError, mec_decomposition, parse_mdp, product_mdp, restrict
from .mecanalysis import (
    EpochSchedule,
    LpSolution,
    Strategy,
    accepting_mec,
    build_lp,
    build_witness_strategy,
)
from .synthesis import (
    GlobalStrategy,
    SynthesisReport,
    max_reach,
    simulate_global,
    synthesize,
    winning_union,
)

__version__ = "0.1.0"
