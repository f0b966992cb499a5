"""Lexical datatype system: point values, inference pipeline, order laws."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .oracles import (brute_force_minimal, distinguishing_string, is_antichain, sample_string,
                      subset_counterexample)
from .samplers import SAMPLERS, mixed_corpus, sample

EXPECTED_DATATYPES = {
    "top", "string", "normalizedString", "token", "NMTOKEN", "NMTOKENS",
    "Name", "NCName", "QName", "language", "anyURI", "boolean", "hexBinary",
    "base64Binary", "decimal", "integer", "nonNegativeInteger",
    "nonPositiveInteger", "negativeInteger", "positiveInteger", "double",
    "long", "int", "short", "byte", "unsignedLong", "unsignedInt",
    "unsignedShort", "unsignedByte", "duration", "yearMonthDuration",
    "dayTimeDuration", "gYear", "gYearMonth", "gMonth", "gDay", "gMonthDay",
    "date", "time", "dateTime", "dateTimeStamp",
}

KIND_MEMBERS = {
    "stringLike": {"string", "normalizedString", "token", "NMTOKEN"},
    "listLike": {"NMTOKENS"},
    "structureLike": {"anyURI", "QName", "Name", "language", "NCName"},
    "encodingLike": {"base64Binary", "hexBinary"},
    "temporalLike": {"gDay", "gMonth", "gYear", "gYearMonth", "gMonthDay", "date",
                     "duration", "time", "dayTimeDuration", "yearMonthDuration",
                     "dateTime", "dateTimeStamp"},
    "numericLike": {"nonPositiveInteger", "nonNegativeInteger", "positiveInteger",
                    "decimal", "integer", "negativeInteger"},
    "atomicNumericLike": {"double", "long", "int", "short", "byte"},
    "atomicUnsignedLike": {"unsignedLong", "unsignedInt", "unsignedShort", "unsignedByte"},
    "booleanLike": {"boolean"},
    "topKind": {"top"},
}


def test_datatype_inventory(dts):
    assert set(dts.names()) == EXPECTED_DATATYPES
    for kind, members in KIND_MEMBERS.items():
        assert {n for n in dts.names() if dts.kind_of(n) == kind} == members


def test_accepts_point_values(dts):
    assert dts.accepts("boolean", "true")
    assert dts.accepts("top", "anything at all \x00")
    assert not dts.accepts("gYear", "20x5")


def test_minimal_datatypes_point_values(dts):
    assert dts.minimal_datatypes("false") == {"language", "boolean", "NCName"}
    assert dts.minimal_datatypes("33") == {"unsignedByte", "byte"}
    # a control character lies outside every concrete lexical space
    assert dts.minimal_datatypes("\x00\x01") == {"top"}


def test_prefer_point_values(dts):
    assert dts.prefer({"language", "boolean", "NCName"}) == {"boolean"}
    assert dts.prefer({"unsignedByte", "byte"}) == {"unsignedByte"}
    assert dts.prefer({"boolean"}) == {"boolean"}
    with pytest.raises(ValueError):
        dts.prefer(set())


def test_infer_point_values(dts):
    assert dts.infer("false") == {"boolean"}
    # a plain in-range number prefers the unsigned chain over gYear (the
    # kind order puts atomicUnsignedLike below temporalLike); timezone or
    # month qualifiers make the temporal reading win
    assert dts.infer("2015") == {"unsignedShort"}
    assert dts.infer("2015Z") == {"gYear"}
    assert dts.infer("2015-09") == {"gYearMonth"}
    assert dts.infer("hello world") == {"NMTOKENS"}
    assert dts.infer("") == {"anyURI", "base64Binary"}


def test_aggregate_point_values(dts):
    folded = None
    for text in ["1", "0", "true", "33"]:
        inferred = dts.infer(text)
        folded = inferred if folded is None else dts.merge(folded, inferred)
    assert folded == {"boolean", "unsignedByte"}
    assert dts.merge({"byte"}, {"short"}) == {"short"}
    some = dts.infer("x y z")
    assert dts.merge(some, some) == some


# -- order soundness and distinctness ---------------------------------------

def test_every_order_edge_is_a_language_inclusion(dts):
    """Exact proof per edge: no string of the smaller language escapes the
    larger one (product construction over the two acceptors)."""
    for small, large in dts.lex_edges:
        witness = subset_counterexample(dts.datatypes[small].dfa, dts.datatypes[large].dfa)
        assert witness is None, f"{small} <= {large} violated by {witness!r}"


def test_order_edges_are_strict(dts):
    for small, large in dts.lex_edges:
        witness = subset_counterexample(dts.datatypes[large].dfa, dts.datatypes[small].dfa)
        assert witness is not None, f"{small} and {large} are lexically equal"


def test_order_soundness_by_sampling(dts, master_seed):
    """1000 random members of the smaller language per edge, all accepted
    by the larger one."""
    rng = random.Random(master_seed)
    for small, large in dts.lex_edges:
        small_dfa = dts.datatypes[small].dfa
        large_dfa = dts.datatypes[large].dfa
        for _ in range(1000):
            s = sample_string(small_dfa, rng, max_len=24)
            assert small_dfa.accepts(s)
            assert large_dfa.accepts(s), (small, large, s)


def test_lexical_spaces_pairwise_distinct(dts):
    names = dts.names()
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            witness = distinguishing_string(dts.datatypes[a].dfa, dts.datatypes[b].dfa)
            assert witness is not None, f"{a} and {b} share a lexical space"


def test_top_is_unique_maximum(dts):
    for name in dts.names():
        if name != "top":
            assert dts.lex_lt(name, "top")
    assert not any(dts.lex_lt("top", n) for n in dts.names())


def test_samplers_cover_their_datatypes(dts, master_seed):
    rng = random.Random(master_seed + 1)
    assert set(SAMPLERS) == set(dts.names())
    for name in dts.names():
        for _ in range(200):
            value = sample(name, rng)
            assert dts.accepts(name, value), (name, value)


# -- minimality pipeline vs brute force --------------------------------------

def test_pruning_equals_brute_force_on_corpus(dts, master_seed):
    rng = random.Random(master_seed + 2)
    for text in mixed_corpus(rng, 400):
        fast = dts.minimal_datatypes(text)
        assert fast == brute_force_minimal(dts, text), text
        assert fast, "minimal set must be nonempty"
        assert is_antichain(dts, fast), (text, fast)
        for name in fast:
            assert dts.accepts(name, text)


@given(st.text(max_size=14))
@settings(max_examples=300, deadline=None)
def test_pruning_equals_brute_force_hypothesis(dts, text):
    assert dts.minimal_datatypes(text) == brute_force_minimal(dts, text)


def test_infer_outputs_remain_antichains(dts, master_seed):
    rng = random.Random(master_seed + 3)
    for text in mixed_corpus(rng, 300):
        inferred = dts.infer(text)
        assert inferred
        assert is_antichain(dts, inferred)
        assert inferred <= dts.minimal_datatypes(text)


def test_aggregate_laws(dts, master_seed):
    rng = random.Random(master_seed + 4)
    corpus = mixed_corpus(rng, 120)
    sets = [dts.infer(t) for t in corpus]
    for _ in range(300):
        a, b, c = (rng.choice(sets) for _ in range(3))
        ab = dts.merge(a, b)
        assert ab == dts.merge(b, a)
        assert dts.merge(a, a) == dts.maxima(a) == a
        assert dts.merge(dts.merge(a, b), c) == dts.merge(a, dts.merge(b, c))
        assert is_antichain(dts, ab)


def test_aggregate_covers_both_inputs(dts, master_seed):
    """Every string accepted by a member of either input is accepted by
    some member of the merge."""
    rng = random.Random(master_seed + 5)
    texts = mixed_corpus(rng, 150)
    for _ in range(60):
        a = dts.infer(rng.choice(texts))
        b = dts.infer(rng.choice(texts))
        merged = dts.merge(a, b)
        for name in set(a) | set(b):
            for _ in range(20):
                s = sample(name, rng)
                if dts.accepts(name, s):
                    assert any(dts.accepts(x, s) for x in merged), (name, s, merged)


def test_content_hash_matches_file(dts):
    import hashlib
    from xvpa.datatypes import DEFAULT_PATH
    with open(DEFAULT_PATH, "rb") as fh:
        assert dts.content_hash == hashlib.sha256(fh.read()).hexdigest()
