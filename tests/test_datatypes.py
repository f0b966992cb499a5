"""Lexical datatype system: point values, inference pipeline, order laws."""

import gc
import hashlib
import itertools
import random
import tracemalloc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xvpa import datatypes
from xvpa import events as ev
from xvpa.datatypes import (DEFAULT_PATH, DatatypeFileError, LexicalDatatypeSystem,
                            load_datatype_system)
from xvpa.dfa import CACHED_TEXT_MAX
from xvpa.harness import build_cardealer_scenario
from xvpa.learner import Learner, NamingScheme
from xvpa.persistence import dump_state

from .conftest import MASTER_SEED
from .oracles import (brute_force_minimal, distinguishing_string, is_antichain, kinds_above,
                      lex_lt, member_accepts, order_edges, pairwise_maxima, pairwise_minimal,
                      pairwise_prefer, sample_string, subset_counterexample)
from .samplers import SAMPLERS, mixed_corpus, sample
from .test_automata import _load_benchmark_workloads

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
    assert set(dts.datatypes) == EXPECTED_DATATYPES
    for kind, members in KIND_MEMBERS.items():
        assert {n for n, d in dts.datatypes.items() if d.kind == kind} == members


def test_accepts_point_values(dts):
    assert member_accepts(dts, "boolean", "true")
    assert member_accepts(dts, "top", "anything at all \x00")
    assert not member_accepts(dts, "gYear", "20x5")


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
        folded = inferred if folded is None else dts.maxima(folded | inferred)
    assert folded == {"boolean", "unsignedByte"}
    assert dts.maxima({"byte"} | {"short"}) == {"short"}
    some = dts.infer("x y z")
    assert dts.maxima(some | some) == some


# -- inference shared per accept mask ----------------------------------------

NON_ASCII = ["café", "日本語", "ｆｕｌｌ", "١٢٣", "Ⅻ", "x\u0301", "1\u00a02", "a\u2028b",
             "\U0001d518\U0001d52b", "\U0001f600", "20\U00010000", "\U0010ffff", "\x7f\x80"]


def _idlog_texts(seed: int, count: int) -> list:
    """The texts of ``count`` documents of the benchmark's idlog protocol,
    none of which repeats."""
    source = _load_benchmark_workloads().IdlogSource(seed)
    return [e.label for raw in source.batch(count)
            for e in ev.parse_document(raw).events if e.kind == ev.CHARS]


IDLOG_TEXTS = _idlog_texts(3, 60)
MEMO_CORPUS = mixed_corpus(random.Random(MASTER_SEED + 11), 300)


@given(st.one_of(st.text(), st.text(st.characters(min_codepoint=0x80)),
                 st.text(st.characters(min_codepoint=0x10000)),
                 st.sampled_from(MEMO_CORPUS + IDLOG_TEXTS + NON_ASCII)))
@settings(max_examples=300, deadline=None)
def test_infer_equals_its_definition_on_a_text_cache_miss(dts, text):
    dts.product.memo.pop(text, None)
    assert dts.infer(text) == dts.prefer(dts.minimal_datatypes(text)), text


def test_infer_with_a_warm_mask_memo_equals_its_definition(dts):
    """A fresh system first infers one corpus, so most masks are already
    memoized from other texts, then every other text must still get the
    definition's result, as computed on another system."""
    fresh = load_datatype_system()
    for text in MEMO_CORPUS:
        fresh.infer(text)
    for text in IDLOG_TEXTS + NON_ASCII + _idlog_texts(4, 20):
        assert fresh.infer(text) == dts.prefer(dts.minimal_datatypes(text)), text


def test_texts_with_one_accept_mask_share_one_result():
    fresh = load_datatype_system()
    by_mask: dict = {}
    for text in IDLOG_TEXTS:
        by_mask.setdefault(fresh.product.accept_mask(text), set()).add(text)
    assert max(len(texts) for texts in by_mask.values()) > 10
    for texts in by_mask.values():
        assert len({id(fresh.infer(text)) for text in texts}) == 1


def test_learned_state_is_the_same_with_the_definition_as_infer(monkeypatch):
    """Learning cardealer and idlog documents, and then unlearning the last
    tenth, writes byte-identical state files whether ``infer`` shares
    results per accept mask or computes the definition for every text."""
    docs = build_cardealer_scenario(7, train_count=150, normal_count=1).train
    docs += [ev.parse_document(raw) for raw in _load_benchmark_workloads().IdlogSource(5).batch(150)]
    keep = len(docs) - len(docs) // 10

    def states():
        system = load_datatype_system()
        learner = Learner(system, NamingScheme("ancestor", 1, 2))
        for stream in docs:
            learner.learn(stream)
        learned = dump_state(learner)
        for stream in docs[keep:]:
            learner.unlearn(stream)
        return learned, dump_state(learner)

    shared = states()
    monkeypatch.setattr(LexicalDatatypeSystem, "infer",
                        lambda self, text: self.prefer(self.minimal_datatypes(text)))
    assert states() == shared


def test_a_long_text_leaves_nothing_in_the_text_cache():
    """Only short texts enter the product's text memo: learning a document
    with a 1 MB text and dropping its stream retains less than 100 KB."""
    learner = Learner(load_datatype_system(), NamingScheme("ancestor", 1, 2))
    learner.learn(ev.parse_document(b"<r><a>xxxx</a></r>"))
    raw = b"<r><a>" + b"x" * 1_000_000 + b"</a></r>"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        learner.learn(ev.parse_document(raw))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 100_000
    assert max(map(len, learner.dts.product.memo)) <= CACHED_TEXT_MAX


# -- order soundness and distinctness ---------------------------------------

def test_every_order_edge_is_a_language_inclusion(dts):
    """Exact proof per edge: no string of the smaller language escapes the
    larger one (product construction over the two acceptors)."""
    for small, large in order_edges(DEFAULT_PATH, "lexorder"):
        witness = subset_counterexample(dts.datatypes[small].dfa, dts.datatypes[large].dfa)
        assert witness is None, f"{small} <= {large} violated by {witness!r}"


def test_order_edges_are_strict(dts):
    for small, large in order_edges(DEFAULT_PATH, "lexorder"):
        witness = subset_counterexample(dts.datatypes[large].dfa, dts.datatypes[small].dfa)
        assert witness is not None, f"{small} and {large} are lexically equal"


def test_order_soundness_by_sampling(dts, master_seed):
    """1000 random members of the smaller language per edge, all accepted
    by the larger one."""
    rng = random.Random(master_seed)
    for small, large in order_edges(DEFAULT_PATH, "lexorder"):
        small_dfa = dts.datatypes[small].dfa
        large_dfa = dts.datatypes[large].dfa
        for _ in range(1000):
            s = sample_string(small_dfa, rng, max_len=24)
            assert small_dfa.accepts(s)
            assert large_dfa.accepts(s), (small, large, s)


def test_lexical_spaces_pairwise_distinct(dts):
    names = list(dts.datatypes)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            witness = distinguishing_string(dts.datatypes[a].dfa, dts.datatypes[b].dfa)
            assert witness is not None, f"{a} and {b} share a lexical space"


def test_top_is_unique_maximum(dts):
    """In the file's order every other datatype lies below top and top
    below none, and the loaded order's maxima are top alone."""
    for name in dts.datatypes:
        if name != "top":
            assert lex_lt(name, "top")
    assert not any(lex_lt("top", n) for n in dts.datatypes)
    assert dts.maxima(dts.datatypes) == {"top"}


def test_samplers_cover_their_datatypes(dts, master_seed):
    rng = random.Random(master_seed + 1)
    assert set(SAMPLERS) == set(dts.datatypes)
    for name in dts.datatypes:
        for _ in range(200):
            value = sample(name, rng)
            assert member_accepts(dts, name, value), (name, value)


# -- minimality pipeline vs brute force --------------------------------------

def test_pruning_equals_brute_force_on_corpus(dts, master_seed):
    rng = random.Random(master_seed + 2)
    for text in mixed_corpus(rng, 400):
        fast = dts.minimal_datatypes(text)
        assert fast == brute_force_minimal(dts, text), text
        assert fast, "minimal set must be nonempty"
        assert is_antichain(fast), (text, fast)
        for name in fast:
            assert member_accepts(dts, name, text)


@given(st.text(max_size=14))
@settings(max_examples=300, deadline=None)
def test_pruning_equals_brute_force_hypothesis(dts, text):
    assert dts.minimal_datatypes(text) == brute_force_minimal(dts, text)


def test_mask_orders_equal_pairwise_definitions(dts, master_seed, monkeypatch):
    """maxima, prefer and minimal_datatypes equal their pairwise
    definitions on every set of 1-3 datatypes and on 2,000 seeded random
    sets, and a generator with repeated names gives the same results as a
    set.  minimal_datatypes reads its set as the product's accept mask."""
    names = list(dts.datatypes)
    above = kinds_above(DEFAULT_PATH)
    rng = random.Random(master_seed + 6)
    sets = [set(c) for size in (1, 2, 3) for c in itertools.combinations(names, size)]
    sets += [set(rng.sample(names, rng.randint(1, len(names)))) for _ in range(2000)]
    mask = 0
    monkeypatch.setattr(dts, "product", types.SimpleNamespace(accept_mask=lambda _text: mask))
    for members in sets:
        mask = sum(1 << names.index(n) for n in members)
        assert dts.minimal_datatypes("") == pairwise_minimal(members), members
        maxima, preferred = pairwise_maxima(members), pairwise_prefer(dts, above, members)
        assert dts.maxima(members) == maxima, members
        assert dts.prefer(members) == preferred, members
        assert dts.maxima(n for n in [*members, *members]) == maxima
        assert dts.prefer(n for n in [*members, *members]) == preferred


def test_infer_outputs_remain_antichains(dts, master_seed):
    rng = random.Random(master_seed + 3)
    for text in mixed_corpus(rng, 300):
        inferred = dts.infer(text)
        assert inferred
        assert is_antichain(inferred)
        assert inferred <= dts.minimal_datatypes(text)


def test_aggregate_laws(dts, master_seed):
    rng = random.Random(master_seed + 4)
    corpus = mixed_corpus(rng, 120)
    sets = [dts.infer(t) for t in corpus]
    for _ in range(300):
        a, b, c = (rng.choice(sets) for _ in range(3))
        ab = dts.maxima(a | b)
        assert ab == dts.maxima(b | a)
        assert dts.maxima(a | a) == dts.maxima(a) == a
        assert dts.maxima(ab | c) == dts.maxima(a | dts.maxima(b | c))
        assert is_antichain(ab)


def test_aggregate_covers_both_inputs(dts, master_seed):
    """Every string accepted by a member of either input is accepted by
    some member of the maxima of their union."""
    rng = random.Random(master_seed + 5)
    texts = mixed_corpus(rng, 150)
    for _ in range(60):
        a = dts.infer(rng.choice(texts))
        b = dts.infer(rng.choice(texts))
        merged = dts.maxima(a | b)
        for name in set(a) | set(b):
            for _ in range(20):
                s = sample(name, rng)
                if member_accepts(dts, name, s):
                    assert any(member_accepts(dts, x, s) for x in merged), (name, s, merged)


def test_content_hash_matches_file(dts):
    import hashlib
    from xvpa.datatypes import DEFAULT_PATH
    with open(DEFAULT_PATH, "rb") as fh:
        assert dts.content_hash == hashlib.sha256(fh.read()).hexdigest()


_HEAD = b"version 1\ndatatype top topKind .*\n"

# one malformed definition file per way a file can be wrong, with the
# message it is refused with
MALFORMED_DEFINITIONS = {
    "unknown-keyword": (_HEAD + b"frobnicate x\n", "line 3: unknown keyword 'frobnicate'"),
    "bad-pattern": (_HEAD + b"datatype d k (\nlexorder d top\n", "line 3: missing ')'"),
    "short-lexorder": (_HEAD + b"lexorder top\n", "line 3: lexorder line needs 2 names, has 1"),
    "not-utf8": (_HEAD + b"# caf\xe9\n", "line 3: not UTF-8 text"),
    "cyclic-lexorder": (_HEAD + b"datatype a k a\ndatatype b k b\n"
                        b"lexorder a b\nlexorder b a\nlexorder a top\n", "lexical order is cyclic"),
    "self-loop-lexorder": (_HEAD + b"datatype a k a\nlexorder a a\nlexorder a top\n",
                           "lexical order is cyclic"),
    "three-cycle-lexorder": (_HEAD + b"datatype a k a\ndatatype b k b\ndatatype c k c\n"
                             b"lexorder a b\nlexorder b c\nlexorder c a\nlexorder a top\n",
                             "lexical order is cyclic"),
    "cyclic-kindorder": (_HEAD + b"datatype a k a\nlexorder a top\n"
                         b"kindorder k topKind\nkindorder topKind k\n",
                         "kind order has a cycle through"),
    "not-below-top": (_HEAD + b"datatype a k a\n", "'a' is not below the top datatype"),
    "huge-repetition": (_HEAD + b"datatype d k a{99999}\nlexorder d top\n",
                        "line 3: pattern expands to more than 1000 atoms"),
    "nested-repetition": (_HEAD + b"def r (a{1000}){1000}\ndatatype d k x$r\nlexorder d top\n",
                          "line 4: pattern expands to more than 1000 atoms"),
    "too-many-states": (_HEAD + b"datatype d k (a|b)*a(a|b){25}\nlexorder d top\n",
                        "line 3: pattern determinizes to more than 4096 states"),
    "non-universal-top": (b"version 1\ndatatype top topKind a*\n",
                          "the top datatype does not accept every string"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DEFINITIONS))
def test_malformed_definition_file_is_refused(tmp_path, name):
    payload, message = MALFORMED_DEFINITIONS[name]
    path = tmp_path / "dts.txt"
    path.write_bytes(payload)
    with pytest.raises(DatatypeFileError) as info:
        load_datatype_system(str(path))
    assert message in str(info.value)


# -- the packaged DFA table ------------------------------------------------------

# the texts of acceptance criterion 1
CRITERION_1_TEXTS = ["false", "1", "0", "true", "33"]


def _dfa_fields(dfa):
    return dfa.n, dfa.start, dfa.accepting, dfa._los, dfa._his, dfa._dst


def _count_builds(monkeypatch):
    """A list that grows by one per DFA built from a pattern."""
    built = []
    original = datatypes.Dfa.from_pattern
    monkeypatch.setattr(datatypes.Dfa, "from_pattern",
                        lambda pattern: built.append(pattern) or original(pattern))
    return built


def test_packaged_table_is_the_written_table(tmp_path):
    """The checked-in table is exactly what the writer makes from DFAs
    built from the definition file's patterns: a stale table fails here."""
    target = tmp_path / "table.txt"
    datatypes.write_dfa_table(str(target))
    with open(datatypes.DFA_TABLE_PATH, "rb") as fh:
        assert fh.read() == target.read_bytes()


def test_packaged_file_loads_its_dfas_from_the_table(monkeypatch):
    built = _count_builds(monkeypatch)
    system = load_datatype_system()
    assert built == [] and len(system.datatypes) == len(EXPECTED_DATATYPES)


def test_edited_definition_file_builds_the_same_dfas(tmp_path, monkeypatch):
    """A copy with one added comment line has another hash, so the table
    is ignored and every DFA is built from its pattern: the DFAs equal the
    table's, and so do inference results."""
    with open(DEFAULT_PATH, "rb") as fh:
        payload = fh.read()
    copy = tmp_path / "dts.txt"
    copy.write_bytes(payload + b"# a local note\n")
    table = load_datatype_system()
    built = _count_builds(monkeypatch)
    rebuilt = load_datatype_system(str(copy))
    assert len(built) == len(EXPECTED_DATATYPES)
    assert rebuilt.content_hash != table.content_hash
    assert list(rebuilt.datatypes) == list(table.datatypes)
    for name in table.datatypes:
        assert (_dfa_fields(rebuilt.datatypes[name].dfa)
                == _dfa_fields(table.datatypes[name].dfa)), name
    for text in CRITERION_1_TEXTS:
        assert rebuilt.infer(text) == table.infer(text), text


def _packaged_table() -> list[bytes]:
    """The packaged table's title, source and body hash lines and body."""
    with open(datatypes.DFA_TABLE_PATH, "rb") as fh:
        return fh.read().split(b"\n", 3)


def _table(body: bytes, recorded: bytes | None = None) -> bytes:
    """The packaged table's title and source lines over ``body``, under
    the hash of ``recorded`` (by default of ``body`` itself)."""
    title, source, _body_hash, _body = _packaged_table()
    digest = hashlib.sha256(body if recorded is None else recorded).hexdigest()
    return b"\n".join([title, source, b"body " + digest.encode(), body])


def _swap_first_two_entries(body: bytes) -> bytes:
    entries = body.split(b"dfa ")
    entries[1], entries[2] = entries[2], entries[1]
    return b"dfa ".join(entries)


_BODY = _packaged_table()[3]

# a table whose header records the packaged definition file's hash, and
# what is wrong with its body
CORRUPT_TABLES = {
    # the body does not match its recorded hash
    "edited-row": _table(_BODY.replace(b"0 1114111 0\n", b"0 1114110 0\n", 1), _BODY),
    "truncated": _table(_BODY[:-40], _BODY),
    "no-body": b"\n".join(_packaged_table()[:2]),
    # each of these bodies matches its hash
    "not-a-number": _table(_BODY.replace(b"dfa top 1 0 0\n", b"dfa top 1 0 x\n", 1)),
    "target-out-of-range": _table(_BODY.replace(b"0 1114111 0\n", b"0 1114111 7\n", 1)),
    "odd-row": _table(_BODY.replace(b"0 1114111 0\n", b"0 1114111\n", 1)),
    "unterminated": _table(_BODY[:-1]),
    "renamed-datatype": _table(_BODY.replace(b"dfa string ", b"dfa strung ", 1)),
    "reordered-datatypes": _table(_swap_first_two_entries(_BODY)),
    "missing-datatypes": _table(_BODY.split(b"dfa string ")[0]),
    "repeated-datatype": _table(_BODY + _BODY.split(b"dfa string ")[0]),
}


@pytest.mark.parametrize("name", sorted(CORRUPT_TABLES))
def test_corrupt_table_with_a_matching_header_is_refused(tmp_path, monkeypatch, name):
    table = tmp_path / "table.txt"
    table.write_bytes(CORRUPT_TABLES[name])
    monkeypatch.setattr(datatypes, "DFA_TABLE_PATH", str(table))
    with pytest.raises(DatatypeFileError, match="DFA table"):
        load_datatype_system()


@pytest.mark.parametrize("payload", [
    b"\n".join(_packaged_table()[:1] + [b"source " + b"0" * 64] + _packaged_table()[2:]),
    b"",
    b"not a table\n",
], ids=["other-source", "empty", "no-header"])
def test_table_of_another_definition_file_is_ignored(tmp_path, monkeypatch, payload):
    """A table recording another file's hash, or no hash, leaves the
    loader to build every DFA from its pattern; so does a missing table."""
    table = tmp_path / "table.txt"
    table.write_bytes(payload)
    monkeypatch.setattr(datatypes, "DFA_TABLE_PATH", str(table))
    built = _count_builds(monkeypatch)
    assert load_datatype_system().minimal_datatypes("false") == {"language", "boolean", "NCName"}
    assert len(built) == len(EXPECTED_DATATYPES)
    monkeypatch.setattr(datatypes, "DFA_TABLE_PATH", str(tmp_path / "absent.txt"))
    load_datatype_system()
    assert len(built) == 2 * len(EXPECTED_DATATYPES)
