import inspect
import random
from collections import Counter
from fractions import Fraction

import pytest

from freqsynth.formula import parse_formula
from freqsynth.lts import StateCapExceeded
from freqsynth.graph import attractor_policy, mec_decomposition, restrict
from freqsynth.mdp import (
    Mdp,
    MdpAction,
    MdpError,
    parse_mdp,
    product_mdp,
    skip_draws,
    weights_of,
)
from freqsynth.slave import build_master

from helpers import (
    action_at,
    component_names,
    dist,
    model_text,
    plain_parse_mdp,
    random_mdp,
    rescan_attractor_policy,
    rescan_mec_decomposition,
    rescan_restrict,
    state_at,
)

EXAMPLE = """\
mdp
states s0 s1
init s0
label s0 a b
label s1 b
action s0 alpha : s0 1/2 , s1 1/2
action s0 beta  : s1 1
action s1 gamma : s1 1
"""


def test_parse_example():
    mdp, valuation = parse_mdp(EXAMPLE)
    assert mdp.states == ["s0", "s1"]
    assert len(mdp.actions) == 3
    assert valuation[0] == frozenset({"a", "b"})
    assert valuation[1] == frozenset({"b"})
    alpha = mdp.actions[action_at(mdp, "alpha")]
    assert alpha.weights == (2, ((0, 1), (1, 1)))
    assert dist(alpha) == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))


def test_parse_decimal_probabilities():
    text = "mdp\nstates s\ninit s\naction s a : s 0.5 , s2 0.5\n"
    with pytest.raises(MdpError):
        parse_mdp(text)  # unknown state s2
    ok = "mdp\nstates s t\ninit s\naction s a : s 0.5 , t 0.5\naction t b : t 1\n"
    mdp, _ = parse_mdp(ok)
    assert dist(mdp.actions[0])[0][1] == Fraction(1, 2)


def test_parse_rejects_bad_sum():
    text = (
        "mdp\nstates s t u\ninit s\n"
        "action s a : s 0.3 , t 0.3 , u 0.3\n"
        "action t b : t 1\naction u c : u 1\n"
    )
    with pytest.raises(MdpError, match="sums to 9/10"):
        parse_mdp(text)


def test_distribution_sums_are_exact_over_mixed_denominators():
    # The sum is taken in integers over the lcm of the denominators; a
    # distribution off by 1/100 keeps the line-numbered Fraction message.
    base = "mdp\nstates s t u\ninit s\naction t b : t 1\naction u c : u 1\n"
    mdp, _ = parse_mdp(base + "action s a : s 1/3 , t 1/6 , u 1/2\n")
    assert mdp.actions[2].weights == (6, ((0, 2), (1, 1), (2, 3)))
    with pytest.raises(MdpError, match="^line 6: distribution sums to 99/100, not 1$"):
        parse_mdp(base + "action s a : s 1/4 , t 0.24 , u 1/2\n")
    third, sixth, half = Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)
    tail = [MdpAction("b", 1, (1, ((1, 1),))), MdpAction("c", 2, (1, ((2, 1),)))]
    exact = weights_of(((0, third), (1, sixth), (2, half)))
    Mdp(["s", "t", "u"], [MdpAction("a", 0, exact)] + tail, 0)
    with pytest.raises(MdpError, match="^action 'a' distribution sums to 99/100, not 1$"):
        off = weights_of(((0, Fraction(1, 4)), (1, Fraction(6, 25)), (2, half)))
        Mdp(["s", "t", "u"], [MdpAction("a", 0, off)] + tail, 0)


def test_derived_actions_carry_their_weights():
    # weights_of is the one converter from Fraction probabilities: the
    # parser's weights are its output on the probabilities of the model
    # text, and each product action's are its output on the parent's
    # probabilities with every target renumbered to the product state it
    # enters.  An action is its name, source and weights; equality, hashing
    # and repr read those three.
    assert list(inspect.signature(MdpAction).parameters) == ["name", "source", "weights"]
    rng = random.Random(8)
    master = build_master(parse_formula("G F a & F b"))
    derived = 0
    for _ in range(120):
        mdp = random_mdp(rng, 6, 3)
        valuation = [frozenset(x for x in "ab" if rng.random() < 0.5) for _ in mdp.states]
        parsed, _ = parse_mdp(model_text(mdp, valuation))
        for a, b in zip(mdp.actions, parsed.actions, strict=True):
            assert b == a and b.weights == weights_of(dist(a))
        product, _ = product_mdp(parsed, valuation, master)
        index = {name: i for i, name in enumerate(product.states)}
        for a in product.actions:
            name, q = a.name.split("@")
            parent = parsed.actions[action_at(parsed, name)]
            entered = [
                (index[f"{parsed.states[t]}@{master.successor(int(q), valuation[t])}"], p)
                for t, p in dist(parent)
            ]
            assert a.weights == weights_of(entered)
            fresh = MdpAction(a.name, a.source, weights_of(dist(a)))
            assert a == fresh and hash(a) == hash(fresh)
            shown = f"MdpAction(name={a.name!r}, source={a.source}, weights={a.weights!r})"
            assert repr(a) == shown
            derived += 1
    assert derived >= 500


def test_public_constructor_checks_every_distribution():
    # parse_mdp and the product skip this check; Mdp(...) keeps it.
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    for weights, message in (
        ((10, ((0, 3), (1, 3), (2, 3))), "sums to 9/10"),
        ((1, ((0, 1), (1, 0))), "non-positive probability"),
        (weights_of(((0, Fraction(3, 2)), (1, -half))), "non-positive probability"),
        ((0, ()), "non-positive denominator"),
        # parse_mdp rejects the same entries as "duplicate target".
        (weights_of(((1, quarter), (0, half), (1, quarter))), "duplicate target"),
    ):
        actions = [MdpAction("a", 0, weights), MdpAction("b", 1, (2, ((1, 1), (2, 1))))]
        actions.append(MdpAction("c", 2, (1, ((2, 1),))))
        with pytest.raises(MdpError, match=message):
            Mdp(["s", "t", "u"], actions, 0)


def test_parse_reports_a_bad_probability_text_at_its_first_line():
    # parse_mdp converts each distinct probability text once per call.
    base = "mdp\nstates s t\ninit s\naction s a : s 1/2 , t 1/2\n"
    for bad, message in (("1/0", "bad probability '1/0'"), ("0", "probability of 's' must be positive")):
        text = base + f"action t b : t 1 , s {bad}\naction t c : t 1 , s {bad}\n"
        with pytest.raises(MdpError, match=f"^line 5: {message}$"):
            parse_mdp(text)


def test_parse_checks_each_distinct_distribution_once_and_every_target_on_its_line():
    # parse_mdp converts and sums each distinct tuple of probability texts
    # once per call; the targets of every line are still checked, in entry
    # order, and each error names its own line.
    head = "mdp\nstates s t u\ninit s\naction u c : u 1\n"
    bad = "action s a : s 0.3 , t 0.3 , u 0.3\naction t b : t 0.3 , s 0.3 , u 0.3\n"
    with pytest.raises(MdpError, match="^line 5: distribution sums to 9/10, not 1$"):
        parse_mdp(head + bad)
    kept = head + "action s a : s 1/2 , t 1/2\n"
    mdp, _ = parse_mdp(kept + "action t b : u 1/2 , s 1/2\n")
    assert mdp.actions[2].weights == (2, ((2, 1), (0, 1)))
    for line, message in (
        ("u 1/2 , v 1/2", "unknown state 'v'"),
        ("u 1/2 , u 1/2", "duplicate target 'u'"),
        ("u 1/2 , s t 1/2", "expected 'TARGET PROB' entries"),
        ("v 1/2 , s 1/0", "unknown state 'v'"),
        ("u 1/0 , v 1/2", "bad probability '1/0'"),
        ("u 1/2 , v 1/2 , t 0", "unknown state 'v'"),
    ):
        text = kept + f"action t b : {line}\naction t d : s 1/2 , t 1/2\n"
        with pytest.raises(MdpError, match=f"^line 6: {message}$"):
            parse_mdp(text)


def _mutated_entries(rng, entries):
    """One fault, or an equal-valued respelling, in one entry of an action
    line's ``TARGET PROB`` entries; returns the entries and the kind."""
    kind = rng.choice(("unknown", "repeat", "fields", "zero", "no_den", "literal", "sum", "respell"))
    wellformed = [j for j, entry in enumerate(entries) if len(entry.split()) == 2]
    if not wellformed:
        return entries + ["zz 1"], "unknown"
    j = rng.choice(wellformed)
    target, text = entries[j].split()
    if kind == "unknown":
        entries[j] = f"zz {rng.choice((text, text, '0', '1/0', 'x'))}"
    elif kind == "repeat":
        text = rng.choice(("1/2", "1/4", text, "0", "x"))
        entries.insert(rng.randrange(len(entries) + 1), f"{target} {text}")
    elif kind == "fields":
        entries[j] = rng.choice((target, f"{target} {text} 1/2", "", f"{target}{text}"))
    elif kind == "zero":
        entries[j] = f"{target} {rng.choice(('0', '0/3', '0.0'))}"
    elif kind == "no_den":
        entries[j] = f"{target} {rng.choice(('1/0', '0/0'))}"
    elif kind == "literal":
        entries[j] = f"{target} {rng.choice(('x', '-1/2', '1e3', '.5', '1/2/3', '+1'))}"
    elif kind == "sum":
        entries[j] = f"{target} {rng.choice(('1/7', '2', '0.3', '1/3'))}"
    else:
        try:
            p = Fraction(text)
        except (ValueError, ZeroDivisionError):
            return entries, kind  # a fault already; nothing to respell
        entries[j] = f"{target} {rng.choice((f'{2 * p.numerator}/{2 * p.denominator}', f'{p}'))}"
    return entries, kind


def _parsed(parse, text):
    try:
        mdp, valuation = parse(text)
    except MdpError as exc:
        return str(exc)
    return mdp.states, mdp.actions, mdp.init, valuation


def test_parse_matches_the_plain_entry_checker_on_mutated_models():
    # parse_mdp reads each action line in one pass and keeps a memo of
    # probability texts and one of distributions; a reader with neither,
    # checking each entry in order, must give the same MDP or the same
    # message on models whose action lines carry unknown and repeated
    # targets, entries of the wrong size, zero, zero-denominator and
    # malformed probabilities, sums other than 1 and equal-valued
    # respellings.  The lines of one model reuse a few probability texts, so
    # memo hits meet faults on later lines.  One model in four is unmutated;
    # the others carry one to three mutations, which may share a line or an
    # entry, so faults meet in either order.
    rng = random.Random(5252)
    kinds, messages, valid = Counter(), Counter(), 0
    for k in range(5000):
        mdp = random_mdp(rng, 5, 3)
        valuation = [frozenset(rng.sample(("a", "b"), rng.randint(0, 2))) for _ in mdp.states]
        lines = model_text(mdp, valuation).splitlines()
        actions = [i for i, line in enumerate(lines) if line.startswith("action")]
        for _ in range(rng.randint(1, 3) if k % 4 else 0):
            i = rng.choice(actions)
            head, _, entries = lines[i].partition(" : ")
            entries, kind = _mutated_entries(rng, entries.split(" , "))
            lines[i] = f"{head} : {' , '.join(entries)}"
            kinds[kind] += 1
        text = "\n".join(lines) + "\n"
        want = _parsed(plain_parse_mdp, text)
        assert _parsed(parse_mdp, text) == want, text
        if isinstance(want, str):
            messages[want.split(": ", 1)[1].split(" ", 1)[0]] += 1
        else:
            valid += 1
    assert valid >= 1250
    assert min(kinds.values()) >= 500 and len(kinds) == 8
    assert set(messages) == {"unknown", "duplicate", "expected", "probability", "bad", "distribution"}
    assert min(messages.values()) >= 300


def test_parse_requires_init_and_actions():
    with pytest.raises(MdpError, match="init"):
        parse_mdp("mdp\nstates s\naction s a : s 1\n")
    with pytest.raises(MdpError, match="no enabled action"):
        parse_mdp("mdp\nstates s t\ninit s\naction s a : s 1\n")
    with pytest.raises(MdpError, match="redeclared"):
        parse_mdp("mdp\nstates s\ninit s\naction s a : s 1\naction s a : s 1\n")
    with pytest.raises(MdpError, match="mdp"):
        parse_mdp("states s\ninit s\naction s a : s 1\n")


def test_parse_rejects_repeated_directives():
    base = "mdp\nstates s\ninit s\nlabel s a\naction s a : s 1\n"
    parse_mdp(base)
    for extra in ("states s\n", "init s\n", "label s b\n"):
        with pytest.raises(MdpError, match="duplicate"):
            parse_mdp(base + extra)


def test_parse_rejects_malformed_lines_and_unknown_names():
    # Each rejection names its fault, with its line where it has one.
    for text, message in (
        ("mdp\nstates\ninit s\n", "line 2: empty state list"),
        ("mdp\nstates s\ninit s\nlabel\n", "line 4: label line needs a state"),
        ("mdp\nstates s\ninit s\naction s a s 1\n", "line 4: action line needs ':'"),
        ("mdp\nstates s\ninit s\naction s : s 1\n", "line 4: expected 'action STATE NAME :'"),
        ("mdp\nstates s\ninit s\naction s a b : s 1\n", "line 4: expected 'action STATE NAME :'"),
        ("mdp\nstates s t s\ninit s\n", "duplicate state name in 'states' line"),
        ("mdp\nstates s x:y\ninit s\naction s a : s 1\n", "line 2: bad state name 'x:y'"),
        ("mdp\nstates s :\ninit s\n", "line 2: bad state name ':'"),
        ("mdp\nstates s\ninit t\naction s a : s 1\n", "unknown initial state 't'"),
        ("mdp\nstates s\ninit s\nlabel t a\naction s a : s 1\n", "label for unknown state 't'"),
        ("mdp\nstates s\ninit s\naction s a : s 1\naction t b : s 1\n", "line 5: unknown state 't'"),
    ):
        with pytest.raises(MdpError) as exc:
            parse_mdp(text)
        assert str(exc.value) == message


def test_public_constructor_rejects_duplicate_names_and_outside_targets():
    loop = (1, ((0, 1),))
    for states, actions, message in (
        (["s", "s"], [MdpAction("a", 0, loop), MdpAction("b", 1, loop)], "duplicate state name"),
        (["s"], [MdpAction("a", 0, loop), MdpAction("a", 0, loop)], "duplicate action name"),
        (["s"], [MdpAction("a", 0, (2, ((0, 1), (1, 1))))], "action 'a' has a target outside the states"),
    ):
        with pytest.raises(MdpError) as exc:
            Mdp(states, actions, 0)
        assert str(exc.value) == message


def test_parse_rejects_label_names_that_are_not_atom_names():
    # Labels follow the atom-name rule of formulas and lasso letters.
    text = "mdp\nstates s\ninit s\nlabel s a {}\naction s loop : s 1\n"
    assert parse_mdp(text.format("_b c9"))[1] == [frozenset({"a", "_b", "c9"})]
    for name in ("1bad", "a.b", "a-b", "\u00b2"):
        with pytest.raises(MdpError) as exc:
            parse_mdp(text.format(name))
        assert str(exc.value) == f"line 4: bad atom name {name!r}"


def test_parse_rejects_keyword_labels():
    # No formula can name a keyword as an atom, so no label may be one; a
    # name that only starts with a keyword is an atom name.
    text = "mdp\nstates s\ninit s\nlabel s a {}\naction s loop : s 1\n"
    for name in ("X", "F", "G", "U", "tt", "ff"):
        with pytest.raises(MdpError) as exc:
            parse_mdp(text.format(name))
        assert str(exc.value) == f"line 4: bad atom name {name!r}"
    assert parse_mdp(text.format("Gx tt1 FF"))[1] == [frozenset({"a", "Gx", "tt1", "FF"})]


def test_product_with_master():
    mdp, valuation = parse_mdp(
        "mdp\nstates s\ninit s\nlabel s a\naction s loop : s 1\n"
    )
    master = build_master(parse_formula("F a"))
    product, comp = product_mdp(mdp, valuation, master)
    # The automaton reads the initial label immediately, so the single
    # reachable product state already sits in the accepting master state.
    assert len(product) == 1
    assert str(master.states[comp[0]]) == "tt"


def test_product_unit_automaton_isomorphic():
    mdp, valuation = parse_mdp(EXAMPLE)
    master = build_master(parse_formula("tt"))
    product, _ = product_mdp(mdp, valuation, master)
    assert len(product) == len(mdp)
    assert len(product.actions) == len(mdp.actions)
    for a, pa in zip(sorted(x.name for x in mdp.actions),
                     sorted(x.name.split("@")[0] for x in product.actions)):
        assert a == pa


def test_product_preserves_distributions():
    mdp, valuation = parse_mdp(EXAMPLE)
    master = build_master(parse_formula("G F a"))
    product, _ = product_mdp(mdp, valuation, master)
    for action in product.actions:
        assert sum(p for _, p in dist(action)) == 1


def test_mec_strongly_connected():
    mdp, _ = parse_mdp(
        "mdp\nstates s t\ninit s\naction s a : t 1\naction t b : s 1\n"
    )
    mecs = mec_decomposition(mdp)
    assert [component_names(mdp, ec) for ec in mecs] == [(("s", "t"), ("a", "b"))]
    assert mecs == [((0, 1), (0, 1))]


def test_mec_transient_dag():
    mdp, _ = parse_mdp(
        "mdp\nstates s t u\ninit s\n"
        "action s a : t 1/2 , u 1/2\naction t b : u 1\naction u c : u 1\n"
    )
    mecs = mec_decomposition(mdp)
    assert [ec.states for ec in mecs] == [(2,)]


def test_mec_two_disjoint_loops():
    mdp, _ = parse_mdp(
        "mdp\nstates s t u\ninit s\n"
        "action s a : t 1/2 , u 1/2\naction t b : t 1\naction u c : u 1\n"
    )
    mecs = mec_decomposition(mdp)
    assert [ec.states for ec in mecs] == [(1,), (2,)]


def test_restrict_identity_and_cascade():
    # The closed part comes back as index sets into the MDP, not a copy.
    mdp, _ = parse_mdp(EXAMPLE)
    assert restrict(mdp, []) == ({0, 1}, {0, 1, 2})
    # Removing s1 kills alpha and beta, which leaves s0 with no actions.
    assert restrict(mdp, [1]) is None


def test_restrict_can_split_mecs():
    mdp, _ = parse_mdp(
        "mdp\nstates s t u v\ninit s\n"
        "action s a : t 1\naction t b : u 1\naction u c : v 1\naction v d : s 1\n"
        "action t b2 : t 1\naction v d2 : v 1\n"
    )
    assert len(mec_decomposition(mdp)) == 1
    cut = restrict(mdp, [state_at(mdp, "u")])
    mecs = mec_decomposition(mdp, cut)
    assert [component_names(mdp, ec) for ec in mecs] == [(("t",), ("b2",)), (("v",), ("d2",))]


def test_mec_components_keep_index_order_and_sort_actions_by_name():
    # The LP's pivots follow the component's action order, so the order is
    # part of the contract: states in index order, actions in name order,
    # and the MECs ordered by least state name, not least index.
    mdp, _ = parse_mdp(
        "mdp\nstates x q p c b\ninit x\n"
        "action x go : q 1/2 , c 1/2\n"
        "action q zeta : p 1\naction p alpha : q 1\naction p mid : p 1\n"
        "action c c1 : b 1\naction b b1 : c 1\n"
    )
    mecs = mec_decomposition(mdp)
    assert [component_names(mdp, ec) for ec in mecs] == [
        (("c", "b"), ("b1", "c1")),
        (("q", "p"), ("alpha", "mid", "zeta")),
    ]
    assert mecs == [((3, 4), (5, 4)), ((1, 2), (2, 3, 1))]


def test_product_enforces_the_state_cap():
    mdp, valuation = parse_mdp(EXAMPLE)
    master = build_master(parse_formula("G F a"))
    size = len(product_mdp(mdp, valuation, master)[0])
    assert len(product_mdp(mdp, valuation, master, size)[0]) == size
    with pytest.raises(StateCapExceeded, match=f"product MDP exceeds the state cap of {size - 1} "):
        product_mdp(mdp, valuation, master, size - 1)
    for cap in (0, -1):
        with pytest.raises(StateCapExceeded) as exc:
            product_mdp(mdp, valuation, master, cap)
        assert str(exc.value) == f"product MDP exceeds the state cap of {cap} states"


def _shuffle_names(rng, mdp):
    """The same MDP with its state names and its action names each permuted,
    so that name order and index order differ."""
    states = list(mdp.states)
    names = [a.name for a in mdp.actions]
    rng.shuffle(states)
    rng.shuffle(names)
    actions = [MdpAction(name, a.source, a.weights) for name, a in zip(names, mdp.actions)]
    return Mdp(states, actions, mdp.init)


def _check_graph_toolkit(rng, mdp):
    n = len(mdp)
    mecs = [component_names(mdp, ec) for ec in mec_decomposition(mdp)]
    assert mecs == rescan_mec_decomposition(mdp)
    states = rng.sample(range(n), rng.randint(1, n))
    part = restrict(mdp, [s for s in range(n) if s not in states])
    mecs = [] if part is None else mec_decomposition(mdp, part)
    assert [component_names(mdp, ec) for ec in mecs] == rescan_mec_decomposition(mdp, states)
    removed = rng.sample(mdp.states, rng.randint(0, n))
    cut = restrict(mdp, [state_at(mdp, s) for s in removed])
    oracle = rescan_restrict(mdp, removed)
    if oracle is None:
        assert cut is None
    else:
        kept_states, kept_actions = cut
        assert [mdp.states[s] for s in sorted(kept_states)] == oracle.states
        assert [mdp.actions[ai].name for ai in sorted(kept_actions)] == [
            a.name for a in oracle.actions
        ]
    targets = rng.sample(range(n), rng.randint(1, n))
    policy = attractor_policy(mdp, targets, range(len(mdp.actions)))
    assert list(policy.items()) == list(rescan_attractor_policy(mdp, targets).items())


def test_graph_toolkit_matches_rescan_oracles():
    rng = random.Random(20260)
    for _ in range(300):
        _check_graph_toolkit(rng, random_mdp(rng, 10, 3))
    # Names that sort apart from their indices: more than ten states, and
    # permuted names.
    rng = random.Random(20261)
    for _ in range(100):
        _check_graph_toolkit(rng, random_mdp(rng, 14, 3))
        _check_graph_toolkit(rng, _shuffle_names(rng, random_mdp(rng, 10, 3)))


def test_mec_idempotent_on_own_component():
    mdp, _ = parse_mdp(EXAMPLE)
    for ec in mec_decomposition(mdp):
        assert mec_decomposition(mdp, (set(ec.states), set(ec.actions))) == [ec]


def test_product_lift_matches_automaton_run():
    # Simulated product runs carry exactly the automaton's run over the
    # valuation sequence (shifted by the eagerly-read initial label).
    import random

    mdp, valuation = parse_mdp(EXAMPLE)
    master = build_master(parse_formula("G F a"))
    product, comp = product_mdp(mdp, valuation, master)
    rng = random.Random(51)
    for _ in range(30):
        p_state = product.init
        s_state = mdp.init
        q = master.successor(master.init, valuation[mdp.init])
        for _ in range(40):
            assert comp[p_state] == q
            ai = rng.choice(product.act[p_state])
            action = product.actions[ai]
            u = rng.random()
            acc = Fraction(0)
            nxt = dist(action)[-1][0]
            for t, p in dist(action):
                acc += p
                if u < acc:
                    nxt = t
                    break
            p_state = nxt
            name = product.states[p_state]
            s_state = state_at(mdp, name.split("@")[0])
            q = master.successor(q, valuation[s_state])


@pytest.mark.parametrize("n", (0, 1, 2, 63, 4097, 2**16 + 3))
def test_skip_draws_leaves_the_rng_where_n_draws_leave_it(n):
    # random() reads two 32-bit words of the Mersenne Twister and
    # getrandbits(64 * n) reads 2n, so both leave one state; past 2**16
    # draws the skip takes more than one call.
    ours, theirs = random.Random(n), random.Random(n)
    skip_draws(ours, n)
    for _ in range(n):
        theirs.random()
    assert ours.getstate() == theirs.getstate()
    assert ours.random() == theirs.random()
