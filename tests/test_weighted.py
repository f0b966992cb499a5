"""Weighted automaton: trim semantics and snapshot summaries."""

from xvpa import events as ev
from xvpa.learner import Learner, NamingScheme
from xvpa.weighted import START_STATE, WeightedVpa


def internal_datatypes(vpa, src):
    """Datatypes with positive weight on the text transition from ``src``."""
    return frozenset(dt for (s, dt), w in vpa.w_int.items() if s == src and w > 0)


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
    assert learner.vpa.states == {START_STATE, (("a",), ()), ((), ("a",))}
    first_total = stats.total_weight
    learner.learn(doc)
    again = learner.vpa.stats()
    assert (again.states, again.transitions, again.finals) == (3, 2, 1)
    assert again.total_weight == 2 * first_total


def test_trim_all_zero_keeps_only_start(dts):
    vpa = WeightedVpa()
    vpa.states.add((("a",), ()))
    vpa.w_state[(("a",), ())] = 0
    vpa.call_to[(START_STATE, "a")] = (("a",), ())
    vpa.w_call[(START_STATE, "a")] = 0
    snap = vpa.trimmed(dts)
    assert snap.states == {START_STATE}
    assert not snap.w_call and not snap.finals


def test_trim_keeps_only_lexically_maximal_datatypes(dts):
    vpa = WeightedVpa()
    src, dst = (("m",), ()), (("m",), ("$",))
    vpa.states.update({src, dst})
    vpa.w_state[src] = 1
    vpa.w_state[dst] = 4
    vpa.int_to[src] = dst
    vpa.w_int[(src, "byte")] = 3
    vpa.w_int[(src, "short")] = 1
    snap = vpa.trimmed(dts)
    assert internal_datatypes(snap, src) == {"short"}
    assert snap.w_int == {(src, "short"): 1}
    # incomparable datatypes both survive
    vpa.w_int[(src, "boolean")] = 2
    snap2 = vpa.trimmed(dts)
    assert internal_datatypes(snap2, src) == {"short", "boolean"}
    # the raw automaton is untouched
    assert vpa.w_int[(src, "byte")] == 3


def test_trim_after_learning_is_the_learned_part(dts):
    learner = Learner(dts, NamingScheme("ancestor", 1, 1))
    learner.learn(ev.parse_document(b"<r><a>5</a></r>"))
    snap = learner.vpa.trimmed(dts)
    assert snap == learner.vpa.trimmed(dts)
    assert snap.states == learner.vpa.states
    assert snap.w_call == learner.vpa.w_call
    assert snap.w_ret == learner.vpa.w_ret


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
    assert set(snap.w_call) == set(learner.vpa.w_call)
    assert set(snap.w_ret) == set(learner.vpa.w_ret)
    assert set(snap.w_state) == {q for q, w in learner.vpa.w_state.items() if w > 0}


def test_datatype_cover_monotonicity(dts):
    """A datatype transition is only missing from a snapshot when a
    covering (lexically larger) datatype survives between the same
    states."""
    learner = Learner(dts, NamingScheme("ancestor", 1, 1))
    for raw in (b"<r><f>5</f></r>", b"<r><f>900</f></r>", b"<r><f>x y z</f></r>",
                b"<r><f>p!q r</f></r>", b"<r><f>false</f></r>"):
        learner.learn(ev.parse_document(raw))
    snap = learner.vpa.trimmed(dts)
    for (src, dt), w in learner.vpa.w_int.items():
        if w <= 0:
            continue
        if (src, dt) in snap.w_int:
            continue
        kept = internal_datatypes(snap, src)
        assert any(dts.lex_lt(dt, other) for other in kept), (dt, kept)
