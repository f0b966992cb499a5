"""The regular-language engine against stdlib `re` and integer oracles."""

import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xvpa import datatypes
from xvpa.dfa import (MAX_CP, MAX_DFA_STATES, MAX_EXPANSION, Dfa, PatternError, _Positions,
                      parse_pattern, refine)

from .oracles import distinguishing_string, sample_string, subset_counterexample, union_dfas

# patterns whose syntax coincides with Python re, for oracle comparison
RE_COMPATIBLE = [
    r"(a|b)*abb",
    r"[0-9]{1,3}",
    r"x?y+z*",
    r"(ab|ba){2,4}",
    r"[^a-c]",
    r"-?P([0-9]+Y([0-9]+M)?|[0-9]+M)",
    r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*",
    r"(true|false|1|0)",
    r"a{3}",
    r"a{2,}b",
    r"[-a]",
    r"[a-]",
    r"[a\-z]",
    r"[a-c-e]",
    r"[\d-]",
]

ALPHABET = "abcxyzPYM019-"


@pytest.mark.parametrize("pattern", RE_COMPATIBLE)
def test_matches_re_oracle(pattern):
    dfa = Dfa.from_pattern(pattern)
    compiled = re.compile(pattern)
    rng = random.Random(1)
    for _ in range(2000):
        s = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 9)))
        assert dfa.accepts(s) == bool(compiled.fullmatch(s)), (pattern, s)


@pytest.mark.parametrize("lo,hi", [(0, 0), (0, 9), (0, 127), (0, 255), (1, 128),
                                   (0, 32767), (0, 65535), (7, 4321), (100, 100)])
def test_num_range_against_int(lo, hi):
    dfa = Dfa.from_pattern(rf"\num{{{lo},{hi}}}")
    probes = list(range(0, 300)) + [hi - 1, hi, hi + 1, 2 * hi + 7, 10 * hi + 3]
    for value in probes:
        if value < 0:
            continue
        for pad in ("", "0", "000"):
            text = pad + str(value)
            assert dfa.accepts(text) == (lo <= value <= hi), (lo, hi, text)
    assert not dfa.accepts("")
    assert not dfa.accepts("12a")
    assert not dfa.accepts("-3")


def test_num_range_64bit_bounds():
    top = 18446744073709551615
    dfa = Dfa.from_pattern(rf"\num{{0,{top}}}")
    assert dfa.accepts(str(top))
    assert not dfa.accepts(str(top + 1))
    assert dfa.accepts("0" * 30 + str(top))


def test_unicode_classes_and_escapes():
    dfa = Dfa.from_pattern(r"[\u{10000}-\u{10FFFF}]+")
    assert dfa.accepts("\U00010000\U0010FFFF")
    assert not dfa.accepts("a")
    any_star = Dfa.from_pattern(r"[\u{0}-\u{10FFFF}]*")
    assert any_star.accepts("") and any_star.accepts("\x00\udfff￿")
    ws = Dfa.from_pattern(r"[\t\n\r ]+")
    assert ws.accepts(" \t\r\n") and not ws.accepts("x")


def test_syntax_errors():
    for bad in ["(a", "a)", "[a", "a{2,1}", "*a", r"\num{5,1}", "a{x}", r"[\num{1,2}]",
                "a{\u00b2}", "a{+2}", r"[a-\d]", "[z-a]", r"[\u{zz}]"]:
        with pytest.raises(PatternError):
            Dfa.from_pattern(bad)


def test_is_universal():
    """Universal exactly when every string is accepted, whatever states
    the DFA holds that no run reaches."""
    for pattern in (".*", "(a|[^a])*"):
        assert Dfa.from_pattern(pattern).is_universal(), pattern
    for pattern in ("a*", ".+"):
        assert not Dfa.from_pattern(pattern).is_universal(), pattern
    unreached = Dfa(2, 0, {0, 1}, [[(0, MAX_CP, 0)], [(0, 5, 1)]])
    assert unreached.is_universal()
    assert not Dfa(1, 0, set(), [[]]).is_universal()


@pytest.mark.parametrize("pattern", [
    "a{99999}", "a{1001}", "a{0,1001}", "a{1000,}", "(a{1000}){1000}", "(a{40}){30}",
    "((((((((((a+)+)+)+)+)+)+)+)+)+)+", "(ab){600}", "a{600}b{600}",
    r"\num{0," + "9" * 200 + "}", r"\num{0," + "9" * 5000 + "}", "a{" + "9" * 5000 + "}",
])
def test_expansion_past_the_bound_is_refused(pattern):
    """A repetition count, a nested repetition or a long \\num bound that
    unrolls past MAX_EXPANSION atoms is a PatternError, raised before any
    automaton is built."""
    with pytest.raises(PatternError, match="more than 1000 atoms|integer too large"):
        Dfa.from_pattern(pattern)


def unminimized(pattern: str) -> Dfa:
    """The DFA that subset construction builds from ``pattern``, before
    minimization: the automaton ``MAX_DFA_STATES`` guards."""
    return Dfa.from_positions(_Positions(parse_pattern(pattern)))


def test_packaged_patterns_determinize_below_the_state_bound(monkeypatch):
    """The packaged file's 41 patterns determinize to 816 states in all,
    the largest (long) to 113, far below MAX_DFA_STATES."""
    with open(datatypes.DEFAULT_PATH, "rb") as fh:
        raw = fh.read()
    patterns = []
    original = Dfa.from_pattern
    monkeypatch.setattr(datatypes.Dfa, "from_pattern",
                        lambda pattern: patterns.append(pattern) or original(pattern))
    system = datatypes._parse_definitions(raw, "", None)
    sizes = {name: unminimized(pattern).n for name, pattern in zip(system.datatypes, patterns)}
    assert len(sizes) == len(patterns) == 41
    assert sum(sizes.values()) == 816
    assert max(sizes.values()) == sizes["long"] == 113


def test_state_bound_admits_4096_states_and_refuses_more():
    """(a|b)*a(a|b){k} determinizes to 2**(k+1) states: k = 11 reaches
    MAX_DFA_STATES exactly, and k = 12 is refused."""
    assert MAX_DFA_STATES == 4096
    assert unminimized("(a|b)*a(a|b){11}").n == 4096
    with pytest.raises(PatternError, match="more than 4096 states"):
        Dfa.from_pattern("(a|b)*a(a|b){12}")


def test_expansion_at_the_bound_builds():
    assert MAX_EXPANSION == 1000
    assert Dfa.from_pattern("(ab){0,200}c{3}").accepts("ab" * 200 + "ccc")
    assert Dfa.from_pattern(r"\num{0,18446744073709551615}").accepts("18446744073709551615")


def test_union_and_witnesses():
    a = Dfa.from_pattern("ab*")
    b = Dfa.from_pattern("ba*")
    u = union_dfas([a, b])
    for s in ("a", "abbb", "b", "baaa"):
        assert u.accepts(s)
    assert not u.accepts("ab" + "ba")
    assert subset_counterexample(a, u) is None
    assert subset_counterexample(b, u) is None
    extra = subset_counterexample(u, a)
    assert extra is not None and u.accepts(extra) and not a.accepts(extra)
    assert distinguishing_string(u, u) is None
    w = distinguishing_string(a, b)
    assert w is not None and a.accepts(w) != b.accepts(w)


def test_empty_language():
    # intersection-free trick: a pattern matching nothing
    dfa = Dfa.from_pattern("a").minimized()
    empty = Dfa(1, 0, set(), [[]])
    assert not empty.accepting
    assert subset_counterexample(empty, dfa) is None
    assert distinguishing_string(empty, dfa) == "a"
    with pytest.raises(ValueError):
        sample_string(empty, random.Random(0))


@given(st.integers(0, 400), st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_num_range_hypothesis(a, b):
    lo, hi = min(a, b), max(a, b)
    dfa = Dfa.from_pattern(rf"\num{{{lo},{hi}}}")
    rng = random.Random(lo * 1000 + hi)
    for _ in range(30):
        value = rng.randint(0, 800)
        assert dfa.accepts(str(value)) == (lo <= value <= hi)


def test_sampling_stays_in_language():
    rng = random.Random(7)
    for pattern in RE_COMPATIBLE:
        dfa = Dfa.from_pattern(pattern)
        if not dfa.accepting:
            continue
        for _ in range(50):
            assert dfa.accepts(sample_string(dfa, rng))


def test_minimization_preserves_language():
    rng = random.Random(3)
    for pattern in RE_COMPATIBLE:
        dfa = Dfa.from_pattern(pattern)
        again = dfa.minimized()
        assert distinguishing_string(dfa, again) is None
        for _ in range(200):
            s = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 8)))
            assert dfa.accepts(s) == again.accepts(s)


# -- partition refinement ------------------------------------------------------

def test_refine_separates_states_by_a_missing_transition():
    """p loops on a, q has no edge: only the missing transition tells them
    apart, so every initial block must start as a splitter, the largest
    one included."""
    block = refine({"p": 0, "q": 0}, [("p", "a", "p")])
    assert block["p"] != block["q"]
    block = refine({"p": 0, "q": 0, "r": 0, "s": 1}, [("p", "a", "p"), ("r", "a", "p")])
    assert block["p"] == block["r"] != block["q"]
    assert len({block["p"], block["q"], block["s"]}) == 3


def test_refine_merges_along_chains():
    """Two chains that end alike merge state by state; a third whose end
    differs splits at every step back from that end."""
    n = 50
    initial, edges = {}, []
    for chain, end in (("x", 1), ("y", 1), ("z", 2)):
        for i in range(n):
            initial[(chain, i)] = end if i == n - 1 else 0
            if i < n - 1:
                edges.append(((chain, i), "a", (chain, i + 1)))
    block = refine(initial, iter(edges))
    assert all(block[("x", i)] == block[("y", i)] for i in range(n))
    assert len({block[("x", i)] for i in range(n)}) == n
    assert not {block[("x", i)] for i in range(n)} & {block[("z", i)] for i in range(n)}


_PATTERNS = st.recursive(
    st.sampled_from(["a", "b", "c", ".", "[a-c]", "[^b]", "[ab]", r"\num{3,17}", ""]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map("".join),
        st.tuples(inner, inner).map(lambda t: f"({t[0]}|{t[1]})"),
        st.tuples(inner, st.sampled_from(["*", "+", "?", "{2}", "{0,3}", "{2,}"])).map(
            lambda t: f"({t[0]}){t[1]}")),
    max_leaves=8)


@given(_PATTERNS)
@example(r"((((\num{3,17}){0,3})+){0,3}){0,3}")
@settings(max_examples=150, deadline=None)
def test_minimized_dfa_is_equivalent_and_minimal(pattern):
    """from_pattern's DFA accepts the language of the unminimized subset
    construction, and no two of its states accept the same language.  A
    pattern that expands past ``MAX_EXPANSION`` is refused by both."""
    try:
        parse_pattern(pattern)
    except PatternError:
        with pytest.raises(PatternError):
            Dfa.from_pattern(pattern)
        return
    raw = unminimized(pattern)
    dfa = Dfa.from_pattern(pattern)
    assert distinguishing_string(raw, dfa) is None
    tables = [list(dfa.edges(s)) for s in range(dfa.n)]
    at = [Dfa(dfa.n, s, dfa.accepting, tables) for s in range(dfa.n)]
    for i in range(dfa.n):
        for j in range(i + 1, dfa.n):
            assert distinguishing_string(at[i], at[j]) is not None, (pattern, i, j)


def test_long_chain_minimizes_in_linearithmic_time():
    """a{1000} minimizes a chain of 1,001 states; refining it in rounds took
    seconds, the smaller-half refinement takes hundredths."""
    t0 = time.process_time()
    dfa = Dfa.from_pattern("a{1000}")
    elapsed = time.process_time() - t0
    assert dfa.n == 1001 and dfa.accepts("a" * 1000) and not dfa.accepts("a" * 999)
    assert elapsed < 1.0, f"{elapsed:.2f}s"
