import copy
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import freqsynth.formula
from freqsynth import cli
from freqsynth.dgrma import acceptance_dump, build_dgrma
from freqsynth.formula import parse_formula
from freqsynth.lts import DEFAULT_STATE_CAP

from helpers import WIDE_FORMULA, time_limit

MODEL = """\
mdp
states s0 s1
init s0
label s0 a b
label s1 b
action s0 alpha : s0 1/2 , s1 1/2
action s0 beta  : s1 1
action s1 gamma : s1 1
"""


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "m.mdp"
    path.write_text(MODEL)
    return str(path)


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "freqsynth.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_synth_exit_codes(model_file):
    met = run_cli("synth", "--model", model_file, "--formula", "F a",
                  "--threshold", "1/2")
    assert met.returncode == 0
    assert "threshold_met: yes" in met.stdout
    unmet = run_cli("synth", "--model", model_file, "--formula", "G a",
                    "--threshold", "1/2")
    assert unmet.returncode == 1
    assert "max_probability: 0" in unmet.stdout


def test_synth_errors(model_file):
    bad_formula = run_cli("synth", "--model", model_file, "--formula", "F (",
                          "--threshold", "1/2")
    assert bad_formula.returncode == 2
    assert "position" in bad_formula.stderr
    bad_threshold = run_cli("synth", "--model", model_file, "--formula", "F a",
                            "--threshold", "3/2")
    assert bad_threshold.returncode == 2
    assert bad_threshold.stderr == "error: threshold 3/2 outside [0,1]\n"
    # Every command that translates reports the fragment error in one line.
    formula = ["--formula", "G(a U b)"]
    fragment = [
        run_cli("synth", "--model", model_file, *formula, "--threshold", "1/2"),
        run_cli("automaton", *formula),
        run_cli("check-word", *formula, "--loop", "{a}"),
        run_cli("simulate", "--model", model_file, *formula, "--steps", "5"),
    ]
    assert [r.returncode for r in fragment] == [2] * 4
    assert [r.stderr for r in fragment] == [
        "error: G (a U b) is outside the supported fragment "
        "(no until inside a globally operator)\n"
    ] * 4


def test_every_state_cap_defaults_to_the_one_constant():
    import inspect

    from freqsynth import dgrma, lts, master, mdp, slave, synthesis

    def default(fn, name="cap"):
        return inspect.signature(fn).parameters[name].default

    defaults = [
        default(master.build_master),
        default(slave.build_slave_lts),
        default(slave.build_token_lts),
        default(slave.build_count_lts),
        default(dgrma.build_dgrma),
        default(mdp.product_mdp),
        default(synthesis.synthesize, "max_states"),
        cli._build_parser().parse_args(["automaton", "--formula", "a"]).max_states,
    ]
    assert defaults == [lts.DEFAULT_STATE_CAP] * len(defaults)


# SHA-256 of `automaton` stdout (sizes, acceptance dump and DOT) for the
# two-bound formula of the translation benchmark, three corpus formulas and
# an `lp_mec` formula whose sup bound comes first.
# Each runs in a fresh process: formulas print in their interning order.
AUTOMATON_DIGESTS = {
    WIDE_FORMULA: "b1516b8134c557c4d08385fc594f930786d65557795887e491828b48ea8a3fc5",
    "G(X a | G X b)": (
        "98f807eeda3cde7b7f93c19c89fd626ccebb989b7f056892fb1e0b3b0c2efc10"
    ),
    "G(a -> F b)": "ef45af7260e0729389130fb3998da3a2a3f443cfebc563e8abc1041723269592",
    "(a U b) & G{>=1/2,inf} c": (
        "1f17f1a7b462ff0ed32022462636cd701c5c1924ab1a3ce9d1a8c85e3821f066"
    ),
    # A sup bound before an inf bound: the dump keeps the assumption order.
    "G{>1/3,sup} a & G{>=1/4,inf} b": (
        "0cdebc65e798c63f0ed227c722c80a7a3f5de7b746b3da887e18e867b9529ddc"
    ),
}


def test_automaton_output_bytes_are_pinned():
    for formula, digest in AUTOMATON_DIGESTS.items():
        out = run_cli("automaton", "--formula", formula)
        assert out.returncode == 0, out.stderr
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest, formula


# SHA-256 of `automaton --export-slaves` stdout, which adds every slave and
# its token or counting automaton with their state labels.
EXPORT_SLAVES_DIGESTS = {
    WIDE_FORMULA: "b0e7d6f6317ec47f22e71354253a5a4c9bc825470c469e8b2bb54c71c70907fa",
    "G(a -> F b)": "1dc1cd9ebbace12f4356cb55d09f3b49b8cc1babb92815bd7943450d21bf4d58",
    "(a U b) & G{>=1/2,inf} c": (
        "df447c24d3ed2f152095c5a229540c62501271e1d5e8bb74b3b2e64c4568c701"
    ),
    "G(X a | G X b)": (
        "aaa3a547af0bf46c592dacc1e38507a7da438ffd32c7370ca5a604251fa1383b"
    ),
    "G{>1/3,sup} a & G{>=1/4,inf} b": (
        "78d92801b7a971bba3e00b4dfd1b21653f197e645f40bd09a1f129de6f302b04"
    ),
}


def test_exported_slave_bytes_are_pinned():
    for formula, digest in EXPORT_SLAVES_DIGESTS.items():
        out = run_cli("automaton", "--formula", formula, "--export-slaves")
        assert out.returncode == 0, out.stderr
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest, formula


def test_automaton_command(tmp_path):
    out = run_cli("automaton", "--formula", "a & X(b U a)")
    assert out.returncode == 0
    assert "states: 4" in out.stdout
    assert "digraph" in out.stdout
    dot = tmp_path / "aut.dot"
    with_slaves = run_cli("automaton", "--formula", "G F a", "--dot", str(dot),
                          "--export-slaves")
    assert with_slaves.returncode == 0
    assert dot.exists()
    assert (tmp_path / "aut.dot.slave0").exists()


def test_synth_dot_is_the_automaton_dot(model_file, tmp_path):
    # The model labels b, which "F a" never reads: the product automaton is
    # over the formula's atoms alone, as in the automaton command.
    synth_dot, aut_dot = tmp_path / "synth.dot", tmp_path / "aut.dot"
    synth = run_cli("synth", "--model", model_file, "--formula", "F a",
                    "--threshold", "1/2", "--dot", str(synth_dot))
    aut = run_cli("automaton", "--formula", "F a", "--dot", str(aut_dot))
    assert synth.returncode == 0 and aut.returncode == 0
    assert synth_dot.read_bytes() == aut_dot.read_bytes()
    letters = {
        line.split('label="')[1].split('"')[0]
        for line in aut_dot.read_text().splitlines()
        if "-> q" in line and "label" in line
    }
    assert letters == {"{}", "{a}"}


def test_synth_rejects_a_label_that_is_not_an_atom_name(tmp_path):
    path = tmp_path / "bad.mdp"
    path.write_text(MODEL.replace("label s1 b", "label s1 1bad a.b \u00b2"))
    out = run_cli("synth", "--model", str(path), "--formula", "F a",
                  "--threshold", "1/2")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: line 5: bad atom name '1bad'\n"


def test_keyword_labels_and_letters_are_errors(tmp_path):
    path = tmp_path / "keyword.mdp"
    path.write_text(MODEL.replace("label s1 b", "label s1 G tt"))
    out = run_cli("synth", "--model", str(path), "--formula", "F a",
                  "--threshold", "1/2")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: line 5: bad atom name 'G'\n"
    word = run_cli("check-word", "--formula", "F a", "--loop", "{a F}")
    assert (word.returncode, word.stdout) == (2, "")
    assert "bad atom name 'F'" in word.stderr


def test_automaton_state_cap():
    out = run_cli("automaton", "--formula", "G F a", "--max-states", "2")
    assert out.returncode == 2
    assert "cap" in out.stderr


def test_a_zero_state_cap_admits_not_even_the_initial_state():
    out = run_cli("automaton", "--formula", "tt", "--max-states", "0")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: master LTS exceeds the state cap of 0 states\n"


def test_deeply_nested_formula_is_a_syntax_error():
    out = run_cli("automaton", "--formula", "X " * 400 + "a")
    assert out.returncode == 2
    assert out.stderr.startswith("error: formula nested deeper than")
    assert out.stderr.count("\n") == 1


def test_check_word(model_file):
    match = run_cli("check-word", "--formula", "F a", "--stem", "{}",
                    "--loop", "{a}")
    assert match.returncode == 0
    assert "oracle: accept" in match.stdout
    assert "automaton: accept" in match.stdout
    assert "MATCH" in match.stdout
    neg = run_cli("check-word", "--formula", "F a", "--loop", "{}")
    assert "oracle: reject" in neg.stdout and "automaton: reject" in neg.stdout
    freq = run_cli("check-word", "--formula", "G{>=1/2,inf} a",
                   "--loop", "{a};{}")
    assert freq.stdout.count("accept") == 2
    bad = run_cli("check-word", "--formula", "F a", "--loop", "a")
    assert bad.returncode == 2


def test_mec_command(model_file):
    out = run_cli("mec", "--model", model_file)
    assert out.returncode == 0
    assert "mecs: 1" in out.stdout
    assert "states={s1}" in out.stdout


def test_a_distribution_that_misses_1_is_a_model_error(tmp_path):
    path = tmp_path / "off.mdp"
    path.write_text(MODEL.replace("s0 1/2 , s1 1/2", "s0 1/2 , s1 49/100"))
    out = run_cli("mec", "--model", str(path))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: line 6: distribution sums to 99/100, not 1\n"


def test_a_byte_order_mark_changes_no_output(tmp_path):
    # Some editors start a UTF-8 file with U+FEFF.  The model and the
    # formula file each read the same with it as without it.
    for bom in ("", "\ufeff"):
        (tmp_path / f"m{len(bom)}.mdp").write_text(bom + MODEL, encoding="utf-8")
        (tmp_path / f"f{len(bom)}.txt").write_text(bom + "G{>=1/2,inf} a | F b\n", encoding="utf-8")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "freqsynth.cli", "synth", "--model",
             str(tmp_path / f"m{m}.mdp"), "--formula-file",
             str(tmp_path / f"f{f}.txt"), "--threshold", "1/3"],
            capture_output=True,
        )
        for m, f in ((0, 0), (1, 0), (0, 1))
    ]
    plain = runs[0]
    assert plain.returncode == 0 and b"threshold_met: yes" in plain.stdout
    for run in runs[1:]:
        assert (run.returncode, run.stdout, run.stderr) == (0, plain.stdout, b"")


def test_simulate_command(model_file):
    out = run_cli("simulate", "--model", model_file, "--formula", "G b",
                  "--steps", "2000", "--seed", "11")
    assert out.returncode == 0
    assert "entered_winning_union: 1" in out.stdout
    zero = run_cli("simulate", "--model", model_file, "--formula", "G a",
                   "--steps", "100", "--seed", "11")
    assert zero.returncode == 2
    assert "no strategy" in zero.stderr
    bad_steps = run_cli("simulate", "--model", model_file, "--formula", "G b",
                        "--steps", "0", "--seed", "11")
    assert bad_steps.returncode == 2


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_simulate_rejects_an_epoch_cap_below_one(model_file, cap):
    # A cap below 1 once planned empty epochs, and the runner looped forever;
    # the timeout turns such a regression into a failure.
    out = run_cli("simulate", "--model", model_file, "--formula", "G b",
                  "--steps", "5", "--epoch-cap", cap, timeout=30)
    assert out.returncode == 2
    assert out.stderr == "error: epoch cap must be at least 1\n"
    capped = run_cli("simulate", "--model", model_file, "--formula", "G b",
                     "--steps", "5", "--epoch-cap", "1", timeout=30)
    assert capped.returncode == 0
    assert "entered_winning_union: 1" in capped.stdout


def test_byte_identical_reruns(model_file, tmp_path):
    dot1, dot2 = tmp_path / "a1.dot", tmp_path / "a2.dot"
    r1 = run_cli("synth", "--model", model_file, "--formula",
                 "G{>=1/2,inf} a | F b", "--threshold", "1/3",
                 "--dot", str(dot1))
    r2 = run_cli("synth", "--model", model_file, "--formula",
                 "G{>=1/2,inf} a | F b", "--threshold", "1/3",
                 "--dot", str(dot2))
    assert r1.stdout == r2.stdout
    assert dot1.read_bytes() == dot2.read_bytes()
    s1 = run_cli("simulate", "--model", model_file, "--formula", "G b",
                 "--steps", "5000", "--seed", "3", "--episodes", "3")
    s2 = run_cli("simulate", "--model", model_file, "--formula", "G b",
                 "--steps", "5000", "--seed", "3", "--episodes", "3")
    assert s1.stdout == s2.stdout


def main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(code, err):
    assert code == 2
    assert err.startswith("error: ") and err.endswith("\n"), err
    assert err.count("\n") == 1, err


FORMULA_TOKENS = (
    "a", "b", "(", ")", "!", "&", "|", "U", "->", "X", "F", "G", "{", "}",
    ">=", ">", ",", "inf", "sup", "1/2", "0.5", "2", "/", "0", "tt", "ff",
    "$", "\u00b2", "\u0663", ".", "\n",
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(FORMULA_TOKENS), max_size=12).map(" ".join),
        st.text(max_size=12),
    )
)
def test_fuzzed_malformed_formula_gives_one_error_line(text):
    try:
        parse_formula(text)
    except ValueError:
        pass
    else:
        assume(False)  # well-formed formulas are not this test's subject
    code, _, err = main_in_process(["automaton", "--formula=" + text])
    assert_one_error_line(code, err)


MODEL_LINES = (
    "mdp", "states s t", "states s s", "states", "init s", "init u", "init",
    "label s a", "label u a", "label", "action s go : t 1",
    "action s go : t 1/2 , s 1/2", "action t stay : t 1",
    "action s x : t 1/3", "action s y : u 1", "action s z : t 0 , s 1",
    "action s w t 1", "action s v : t 1 , t 0", "action s q : t x",
    "action : t 1", "action s r : t 1/0", "bogus", "# note",
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(MODEL_LINES), st.text(max_size=8)), max_size=8
    ).map("\n".join)
)
def test_fuzzed_model_is_parsed_or_gives_one_error_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.mdp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, out, err = main_in_process(["mec", "--model", path])
    if code == 0:
        assert out.startswith("mecs: ") and err == ""
    else:
        assert_one_error_line(code, err)


LETTER_TOKENS = (
    "{", "}", "{}", "{a}", "{a b}", ";", "a", " ", "{1}", "{a-b}", "{_x}",
    "{ }", "}{", "{{}}", "\n",
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(LETTER_TOKENS), max_size=8).map("".join),
        st.text(max_size=12),
    ),
    st.booleans(),
)
def test_fuzzed_letters_are_parsed_or_give_one_error_line(text, as_loop):
    stem, loop = ("{}", text) if as_loop else (text, "{a}")
    code, out, err = main_in_process(
        ["check-word", "--formula=a", "--stem=" + stem, "--loop=" + loop]
    )
    if code == 2:
        assert_one_error_line(code, err)
    else:
        assert code == 0 and out.endswith("MATCH\n") and err == ""


SMALL_INTS = st.integers(min_value=-3, max_value=3)


@settings(max_examples=100, deadline=None)
@given(SMALL_INTS, SMALL_INTS, st.one_of(st.none(), SMALL_INTS))
def test_fuzzed_simulate_counts_run_or_give_one_error_line(steps, episodes, cap):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.mdp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(MODEL)
        argv = ["simulate", "--model", path, "--formula", "G b",
                f"--steps={steps}", f"--episodes={episodes}"]
        if cap is not None:
            argv.append(f"--epoch-cap={cap}")
        with time_limit(30):
            code, out, err = main_in_process(argv)
    if code == 2:
        assert_one_error_line(code, err)
    else:
        assert code == 0 and err == "" and f"episodes: {episodes}\n" in out


NOT_LITERALS = ("1e-10000000", "1E5", "-1/2", "+1", ".5", "0x10", "1_0", "inf")


@pytest.fixture()
def fraction_calls(monkeypatch):
    """The argument tuples of every call of ``Fraction`` in
    ``freqsynth.formula``, where all rational literals are converted.
    ``Fraction('1e-10000000')`` alone runs for seconds, so a rejected
    literal must be rejected before it gets there."""
    calls = []
    real = freqsynth.formula.Fraction

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(freqsynth.formula, "Fraction", recording)
    return calls


@pytest.mark.parametrize("token", NOT_LITERALS)
def test_probability_outside_the_literal_grammar_is_a_model_error(
    tmp_path, fraction_calls, token
):
    path = tmp_path / "m.mdp"
    path.write_text(MODEL.replace("s1 1/2", f"s1 {token}"))
    with time_limit(30):
        code, _, err = main_in_process(["mec", "--model", str(path)])
    assert fraction_calls and not any(token in args for args in fraction_calls)
    assert_one_error_line(code, err)
    assert f"line 6: bad probability {token!r}" in err


def test_zero_probability_is_a_line_numbered_model_error(tmp_path):
    # 's1 0' passes the sum check; it must not reach Mdp's unnumbered check.
    path = tmp_path / "m.mdp"
    path.write_text("mdp\nstates s t\ninit s\naction s a : s 1 , t 0\naction t b : t 1\n")
    code, _, err = main_in_process(["mec", "--model", str(path)])
    assert_one_error_line(code, err)
    assert err == "error: line 4: probability of 't' must be positive\n"


@pytest.mark.parametrize("token", NOT_LITERALS)
def test_threshold_outside_the_literal_grammar_is_rejected(
    model_file, fraction_calls, token
):
    with time_limit(30):
        code, _, err = main_in_process(
            ["synth", "--model", model_file, "--formula", "F a", "--threshold=" + token]
        )
    assert fraction_calls and not any(token in args for args in fraction_calls)
    assert_one_error_line(code, err)
    assert f"bad rational {token!r}" in err


def test_zero_denominator_threshold_says_so(model_file):
    code, _, err = main_in_process(
        ["synth", "--model", model_file, "--formula", "F a", "--threshold", "1/0"]
    )
    assert_one_error_line(code, err)
    assert err == "error: bad rational '1/0': zero denominator\n"


def test_integer_fraction_and_decimal_literals_are_accepted(model_file):
    for token in ("1", "1/2", "0.5", "0.50"):
        code, out, _ = main_in_process(
            ["synth", "--model", model_file, "--formula", "F a", "--threshold", token]
        )
        assert code == 0 and "threshold_met: yes" in out, token


def test_in_process_calls_share_no_options(model_file, tmp_path):
    # The parser is built once per process; each call's options come from
    # its own argv alone, also after a usage error.  "F a" holds with
    # probability 1 here, so only --strict makes threshold 1 unmet.
    synth = ["synth", "--model", model_file, "--formula", "F a", "--threshold", "1"]
    dot = tmp_path / "aut.dot"
    plain = main_in_process(synth)
    assert plain[0] == 0 and "threshold: >= 1\n" in plain[1]
    code, out, _ = main_in_process(synth + ["--strict", "--dot", str(dot)])
    assert code == 1 and "threshold: > 1\n" in out and dot.exists()
    dot.unlink()
    assert main_in_process(synth) == plain and not dot.exists()
    capped = main_in_process(synth + ["--max-states", "1"])
    assert capped[0] == 2 and "state cap of 1 states" in capped[2]
    assert main_in_process(synth) == plain
    with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
        cli.main(["synth", "--model", model_file, "--strict"])
    assert exc.value.code == 2
    assert main_in_process(synth) == plain


def _kept_runs(model_file):
    """synth, automaton, check-word and simulate on one formula, then on
    another: each command after the first of a formula reuses its
    automaton."""
    runs = []
    for formula in (WIDE_FORMULA, "G{>=1/2,inf} a | F b"):
        opts = ["--formula", formula]
        runs += [
            ["synth", "--model", model_file, *opts, "--threshold", "1/3"],
            ["automaton", *opts],
            ["check-word", *opts, "--stem", "{b}", "--loop", "{a};{}"],
            ["simulate", "--model", model_file, *opts, "--steps", "300", "--seed", "5"],
        ]
    return runs


def test_a_kept_automaton_gives_the_bytes_of_a_fresh_one(model_file):
    # Formulas parsed in between must not change what a rebuilt automaton
    # prints, so keeping it is invisible in reports, DOT and simulations.
    runs = _kept_runs(model_file)
    build_dgrma.cache_clear()
    kept = [main_in_process(argv) for argv in runs]
    assert build_dgrma.cache_info()[:2] == (6, 2)  # hits, misses
    for text in ("X G !b & p", "G{>=1/2,inf} (X p | r) | F c", "!w U (!l & X X !w)"):
        parse_formula(text)
    fresh = []
    for argv in runs:
        build_dgrma.cache_clear()
        fresh.append(main_in_process(argv))
    assert [code for code, _, _ in kept] == [0] * len(runs)
    assert fresh == kept


def test_commands_leave_the_kept_automaton_unchanged(model_file):
    phi = parse_formula(WIDE_FORMULA)
    build_dgrma.cache_clear()
    aut = build_dgrma(phi, cap=DEFAULT_STATE_CAP)
    before = copy.deepcopy((acceptance_dump(aut), aut.lts.delta, aut.columns))
    for argv in _kept_runs(model_file)[:4]:
        assert main_in_process(argv)[0] == 0, argv
        assert build_dgrma(phi, cap=DEFAULT_STATE_CAP) is aut
    assert (acceptance_dump(aut), aut.lts.delta, aut.columns) == before


def test_a_kept_automaton_does_not_bypass_a_lower_cap(model_file):
    # The cap is part of the key: the two-bound formula's 925 states
    # exceed a cap of 924 whatever was built before.
    synth = ["synth", "--model", model_file, "--formula", WIDE_FORMULA, "--threshold", "1/2"]
    build_dgrma.cache_clear()
    assert main_in_process(synth)[0] == 0
    assert main_in_process(synth + ["--max-states", "924"]) == (
        2,
        "",
        "error: product automaton exceeds the state cap of 924 states\n",
    )
    assert main_in_process(synth + ["--max-states", "925"])[0] == 0


# Two lim-inf bounds that only a mixture of the s0 and s1 loops meets.
MIXING_MODEL = """\
mdp
states s0 s1 s2
init s0
label s0 b
label s1 a
action s0 go : s0 1/2 , s1 1/2
action s0 stay0 : s0 1
action s1 stay1 : s1 1
action s1 leave : s0 4/7 , s2 3/7
action s2 mix : s0 1/4 , s1 1/2 , s2 1/4
"""


def test_mixing_witness_meets_its_liminf_bounds(tmp_path):
    path = tmp_path / "mix.mdp"
    path.write_text(MIXING_MODEL)
    code, out, _ = main_in_process(
        ["simulate", "--model", str(path), "--formula",
         "G{>=1/2,inf} a & G{>=2/5,inf} b", "--steps", "400000", "--seed", "7"]
    )
    assert code == 0 and "max_probability: 1 " in out
    averages = {}
    for line in out.splitlines():
        if line.startswith("pooled_avg["):
            label, value = line.split(": ")
            averages[label.split(">=")[1].rstrip("]")] = float(value)
    assert sorted(averages) == ["1/2", "2/5"]
    for bound, value in averages.items():
        # Within 0.05 below the bound at worst; above it is fine.
        assert value >= float(Fraction(bound)) - 0.05, (bound, value)
