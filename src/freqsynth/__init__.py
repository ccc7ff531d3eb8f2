"""Controller synthesis for MDPs against frequency-LTL specifications.

The pipeline translates a formula of the until-free-under-globally fragment
into a deterministic generalized Rabin mean-payoff automaton, products it
with an MDP, and decides (with an exact-rational flow LP per end component)
whether the satisfaction probability meets a threshold, constructing a
witness strategy when it does.  Each name is imported from the module
that defines it (``from freqsynth.synthesis import synthesize``); the
package itself holds only ``__version__``.
"""

__version__ = "0.1.0"
