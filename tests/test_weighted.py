"""Weighted automaton: table shape, trim semantics and snapshot summaries."""

from hypothesis import given, settings
from hypothesis import strategies as st

from xvpa import events as ev
from xvpa.automata import _matched_reach
from xvpa.learner import (ANCESTOR_SIBLING, Learner, LearnerError, NamingScheme, call_name,
                          int_name, ret_name)
from xvpa.persistence import dump_state, parse_state
from xvpa.weighted import START_STATE, WeightedVpa

from .oracles import lex_lt
from .test_automata import _TREES, _tree_events


def internal_datatypes(vpa, src):
    """Datatypes on the text transition from ``src``."""
    return frozenset(dt for (s, dt) in vpa.ints if s == src)


def test_fresh_stats():
    vpa = WeightedVpa()
    stats = vpa.stats()
    assert (stats.states, stats.transitions, stats.finals, stats.total_weight) == (1, 0, 0, 0)


def test_stats_after_single_and_double_learn(dts):
    learner = Learner(dts, NamingScheme("ancestor", 1, 1))
    doc = ev.parse_document(b"<a/>")
    learner.learn(doc)
    stats = learner.vpa.stats()
    assert (stats.states, stats.transitions, stats.finals) == (3, 2, 1)
    assert set(learner.vpa.states) == {(("a",), ()), ((), ("a",))}
    first_total = stats.total_weight
    learner.learn(doc)
    again = learner.vpa.stats()
    assert (again.states, again.transitions, again.finals) == (3, 2, 1)
    assert again.total_weight == 2 * first_total


def test_trim_all_zero_keeps_only_start(dts):
    """A state with no counter is not stored; trimming drops the
    transitions into it, and only the implicit start state is left."""
    vpa = WeightedVpa()
    vpa.calls[(START_STATE, "a")] = ((("a",), ()), 1)
    snap = vpa.trimmed(dts)
    assert not snap.states and not snap.calls and not snap.finals
    assert snap.stats().states == 1


def test_trim_keeps_only_lexically_maximal_datatypes(dts):
    vpa = WeightedVpa()
    src, dst = (("m",), ()), (("m",), ("$",))
    vpa.states[src] = 1
    vpa.states[dst] = 4
    vpa.ints[(src, "byte")] = (dst, 3)
    vpa.ints[(src, "short")] = (dst, 1)
    snap = vpa.trimmed(dts)
    assert internal_datatypes(snap, src) == {"short"}
    assert snap.ints == {(src, "short"): (dst, 1)}
    # incomparable datatypes both survive
    vpa.ints[(src, "boolean")] = (dst, 2)
    snap2 = vpa.trimmed(dts)
    assert internal_datatypes(snap2, src) == {"short", "boolean"}
    # the raw automaton is untouched
    assert vpa.ints[(src, "byte")] == (dst, 3)


def test_trim_after_learning_is_the_learned_part(dts):
    learner = Learner(dts, NamingScheme("ancestor", 1, 1))
    learner.learn(ev.parse_document(b"<r><a>5</a></r>"))
    snap = learner.vpa.trimmed(dts)
    assert snap == learner.vpa.trimmed(dts)
    assert snap.states == learner.vpa.states
    assert snap.calls == learner.vpa.calls
    assert snap.rets == learner.vpa.rets


def test_trim_idempotent(dts):
    learner = Learner(dts, NamingScheme("ancestor", 1, 2))
    for raw in (b"<r><a>5</a><a>false</a></r>", b"<r><b>x y</b></r>", b"<r/>"):
        learner.learn(ev.parse_document(raw))
    once = learner.vpa.trimmed(dts)
    twice = once.trimmed(dts)
    assert once == twice


def test_trim_never_drops_positive_noninternal_entries(dts):
    learner = Learner(dts, NamingScheme("ancestor", 2, 2))
    learner.learn(ev.parse_document(b"<r><a>1</a><b/><a>2</a></r>"))
    snap = learner.vpa.trimmed(dts)
    assert snap.calls == learner.vpa.calls
    assert snap.rets == learner.vpa.rets
    assert snap.states == learner.vpa.states


def test_trim_drops_returns_that_pop_an_uncounted_state(dts):
    """Sanitizing drops the state ``r|b`` while a return that pops it keeps
    its count; the trimmed model must not keep that return."""
    learner = Learner(dts, NamingScheme("ancestor", 1, 1))
    for raw in (b"<r>5</r>", b"<r><a>5</a><c><c>x</c><a></a></c><a>5</a></r>",
                b"<r><b>5</b><a>5</a></r>",
                b"<r><a><c><a>x</a><a>5</a><b></b></c><c><a>x</a><b>x</b><a></a></c></a>"
                b"<b>5</b><a>x</a></r>",
                b"<r>5</r>"):
        learner.learn(ev.parse_document(raw))
    assert learner.sanitize()
    v = learner.vpa
    assert (("r",), ("b",)) not in v.states
    assert all(popped in v.states or popped == START_STATE for _x, _c, popped in v.rets)


def test_datatype_cover_monotonicity(dts):
    """A datatype transition is only missing from a snapshot when a
    covering (lexically larger) datatype survives between the same
    states."""
    learner = Learner(dts, NamingScheme("ancestor", 1, 1))
    for raw in (b"<r><f>5</f></r>", b"<r><f>900</f></r>", b"<r><f>x y z</f></r>",
                b"<r><f>p!q r</f></r>", b"<r><f>false</f></r>"):
        learner.learn(ev.parse_document(raw))
    snap = learner.vpa.trimmed(dts)
    for src, dt in learner.vpa.ints:
        if (src, dt) in snap.ints:
            continue
        kept = internal_datatypes(snap, src)
        assert any(lex_lt(dt, other) for other in kept), (dt, kept)


# -- table shape under every mutator ---------------------------------------------

_DOCUMENTS = st.lists(_TREES, max_size=3).map(lambda body: ev.stream_from_events(
    [ev.start("r")] + [e for kid in body for e in _tree_events(kid)] + [ev.end("r")],
    reindex=True))


@given(st.sampled_from([NamingScheme("ancestor", 1, 1), NamingScheme("ancestor", 1, 2),
                        NamingScheme(ANCESTOR_SIBLING, 1, 2), NamingScheme(ANCESTOR_SIBLING, 2, 2)]),
       st.lists(_DOCUMENTS, min_size=1, max_size=3),
       st.lists(st.tuples(st.sampled_from(["learn", "learn", "unlearn", "sanitize", "reload"]),
                          st.integers(0, 2)), max_size=10))
@settings(max_examples=150, deadline=None)
def test_tables_hold_counts_and_named_targets(dts, scheme, docs, steps):
    """After every learn, unlearn, sanitize and state-file round trip, each
    stored count is at least 1, each transition's target is the one its
    key names, and each return pops a counted state; an unsanitized model
    reaches all its finals."""
    learner = Learner(dts, scheme)
    for op, i in steps:
        d = docs[i % len(docs)]
        if op == "learn":
            learner.learn(d)
        elif op == "unlearn":
            try:
                learner.unlearn(d)
            except LearnerError:
                pass
        elif op == "sanitize":
            learner.sanitize()
        else:
            learner = parse_state(dump_state(learner), dts)
        v = learner.vpa
        assert min([*v.states.values(), *v.finals.values()], default=1) >= 1
        named = ((v.calls, lambda key: call_name(scheme, key[0], key[1])),
                 (v.ints, lambda key: int_name(scheme, key[0])),
                 (v.rets, lambda key: ret_name(scheme, key[0], key[2], key[1])))
        for table, name in named:
            for key, (dst, w) in table.items():
                assert w >= 1 and dst == name(key), key
        assert all(popped in v.states or popped == START_STATE for _x, _c, popped in v.rets)
        if not learner.sanitized:
            assert set(v.finals) <= _matched_reach(v.calls, v.ints, v.rets)[START_STATE]
