"""The regular-language engine against stdlib `re` and integer oracles."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xvpa.dfa import Dfa, PatternError

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
    for bad in ["(a", "a)", "[a", "a{2,1}", "*a", r"\num{5,1}", "a{x}"]:
        with pytest.raises(PatternError):
            Dfa.from_pattern(bad)


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
