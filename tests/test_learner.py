"""State naming, incremental learning, unlearning, and sanitization."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xvpa import events as ev
from xvpa.automata import build_xvpa, compile_cxvpa, validate
from xvpa.learner import (ANCESTOR_SIBLING, CounterUnderflowError, Learner,
                          MissingTransitionError, NamingScheme,
                          SanitizedStateError, call_name, int_name, ret_name)
from xvpa.persistence import dump_state
from xvpa.weighted import START_STATE

from .oracles import accepted_witness, structure
from .samplers import sample
from .test_automata import _load_benchmark_workloads, _tree_events

A11 = NamingScheme("ancestor", 1, 1)
A12 = NamingScheme("ancestor", 1, 2)


def doc(raw: bytes):
    return ev.parse_document(raw)


# -- naming functions --------------------------------------------------------

def test_call_name_ancestor():
    assert call_name(A11, (("a",), ("x",)), "b") == (("b",), ())
    assert call_name(A12, (("dealer", "newcars"), ()), "ad") == (("newcars", "ad"), ())
    assert call_name(A12, ((), ()), "dealer") == (("dealer",), ())


def test_call_name_ancestor_sibling():
    als = NamingScheme(ANCESTOR_SIBLING, 1, 1)
    q = ((("r",),), ("m",))
    assert call_name(als, q, "year") == ((("r",), ("year",)), ())
    als22 = NamingScheme(ANCESTOR_SIBLING, 2, 2)
    q2 = ((("a",), ("b", "c")), ("x", "y"))
    assert call_name(als22, q2, "z") == ((("a",), ("b", "c"), ("y", "z")), ())


def test_int_name():
    assert int_name(A11, (("m",), ("a",))) == (("m",), ("$",))
    assert int_name(NamingScheme("ancestor", 2, 1), (("m",), ())) == (("m",), ("$",))
    q = (("m",), ("a",))
    assert int_name(A11, int_name(A11, q)) == int_name(A11, q)


def test_ret_name():
    assert ret_name(A11, None, (("dealer",), ()), "newcars") == (("dealer",), ("newcars",))
    assert ret_name(A11, None, (("dealer",), ("newcars",)), "usedcars") == (("dealer",), ("usedcars",))
    assert ret_name(NamingScheme("ancestor", 2, 1), None, (("m",), ("a",)), "b") == (("m",), ("a", "b"))


def test_scheme_validation():
    with pytest.raises(ValueError):
        NamingScheme("parental", 1, 1)
    with pytest.raises(ValueError):
        NamingScheme("ancestor", 0, 1)


# -- learning ------------------------------------------------------------------

def test_learn_single_empty_element_mind_changes(dts):
    learner = Learner(dts, A11)
    assert learner.learn(doc(b"<a/>")) == 5
    assert learner.learn(doc(b"<a/>")) == 0
    assert learner.mind_change_series() == [5, 0]
    assert learner.documents_learned == 2


def test_learn_boolean_internal_transition(dts):
    learner = Learner(dts, A11)
    learner.learn(doc(b"<m>false</m>"))
    assert learner.vpa.ints == {((("m",), ()), "boolean"): ((("m",), ("$",)), 1)}


def test_learn_requires_stream(dts):
    learner = Learner(dts, A11)
    with pytest.raises(TypeError):
        learner.learn([ev.start("a"), ev.end("a")])


def test_mind_changes_zero_iff_nothing_new(dts):
    learner = Learner(dts, A12)
    d1 = doc(b"<r><a>5</a></r>")
    first = learner.learn(d1)
    assert first > 0
    before = dump_state(learner)
    assert learner.learn(d1) == 0
    # counters moved but the trimmed snapshot is unchanged
    assert structure(learner.snapshot()) == structure(learner.vpa.trimmed(dts))
    assert dump_state(learner) != before  # weights doubled


def test_fresh_state_has_empty_series(dts):
    assert Learner(dts, A11).mind_change_series() == []


def test_zero_mind_change_window_means_stable_snapshot(dts):
    learner = Learner(dts, A12)
    docs = [doc(b"<r><a>5</a></r>"), doc(b"<r><a>9</a></r>"), doc(b"<r><a>2</a></r>")]
    snaps = []
    for d in docs:
        learner.learn(d)
        snaps.append(structure(learner.snapshot()))
    series = learner.mind_change_series()
    assert series[1:] == [0, 0]
    for i in range(1, len(docs)):
        if series[i] == 0:
            assert snaps[i] == snaps[i - 1]


# -- unlearning ------------------------------------------------------------------

def test_learn_unlearn_restores_fresh_state(dts):
    learner = Learner(dts, A11)
    d = doc(b"<r><x>5</x><y>hi there</y></r>")
    learner.learn(d)
    learner.unlearn(d)
    fresh = Learner(dts, A11)
    assert dump_state(learner) == dump_state(fresh)
    assert learner.vpa == fresh.vpa


def test_unlearn_is_order_insensitive_on_counters(dts):
    d1 = doc(b"<r><x>5</x></r>")
    d2 = doc(b"<r><x>false</x></r>")
    d3 = doc(b"<r><x>5</x><x>7</x></r>")

    first = Learner(dts, A11)
    for d in (d2, d1, d3):
        first.learn(d)
    first.unlearn(d2)

    second = Learner(dts, A11)
    for d in (d1, d3):
        second.learn(d)
    assert first.vpa == second.vpa


def test_unlearn_never_learned_fails_without_mutation(dts):
    learner = Learner(dts, A11)
    learner.learn(doc(b"<r><x>5</x></r>"))
    before = dump_state(learner)
    with pytest.raises(MissingTransitionError) as failure:
        learner.unlearn(doc(b"<r><zzz/></r>"))
    assert failure.value.index == 1  # the start of zzz
    assert dump_state(learner) == before


def test_unlearn_underflow_fails_without_mutation(dts):
    learner = Learner(dts, A11)
    learner.learn(doc(b"<r><x>5</x></r>"))
    learner.unlearn(doc(b"<r><x>5</x></r>"))
    before = dump_state(learner)
    with pytest.raises((MissingTransitionError, CounterUnderflowError)):
        learner.unlearn(doc(b"<r><x>5</x></r>"))
    assert dump_state(learner) == before


def test_unlearn_counts_repeated_traversals(dts):
    learner = Learner(dts, A11)
    d = doc(b"<r><x>5</x><x>5</x></r>")
    learner.learn(d)
    learner.unlearn(d)
    assert dump_state(learner) == dump_state(Learner(dts, A11))


def test_unlearn_datatype_sets_must_match(dts):
    learner = Learner(dts, A11)
    learner.learn(doc(b"<r><x>cc</x></r>"))  # hexBinary-free text: NCName/language
    with pytest.raises(MissingTransitionError) as failure:
        learner.unlearn(doc(b"<r><x>12</x></r>"))  # infers unsigned chain
    assert failure.value.index == 2  # the text


def test_unlearn_refused_after_sanitize(dts):
    learner = Learner(dts, A11)
    d = doc(b"<r><x>5</x></r>")
    for _ in range(3):
        learner.learn(d)
    assert learner.sanitize() is True
    with pytest.raises(SanitizedStateError):
        learner.unlearn(d)


# -- sanitization ------------------------------------------------------------------

def test_sanitize_uniform_decrement_keeps_language(dts):
    learner = Learner(dts, A11)
    d1 = doc(b"<r><x>5</x></r>")
    d2 = doc(b"<r><x>5</x><x>7</x></r>")
    for _ in range(3):
        learner.learn(d1)
        learner.learn(d2)
    before = structure(learner.snapshot())
    before_calls = dict(learner.vpa.calls)
    assert learner.sanitize() is True
    assert structure(learner.snapshot()) == before
    for key, (dst, weight) in learner.vpa.calls.items():
        assert (dst, weight + 1) == before_calls[key]
    assert learner.sanitized


def test_sanitize_single_document_reverts(dts):
    learner = Learner(dts, A11)
    learner.learn(doc(b"<r><x>5</x></r>"))
    before = dump_state(learner)
    assert learner.sanitize() is False
    assert dump_state(learner) == before
    assert not learner.sanitized


def test_sanitize_removes_rare_disjoint_branch(dts):
    learner = Learner(dts, A11)
    a = doc(b"<r><x>5</x></r>")
    b = doc(b"<r><evil>payload()</evil></r>")
    for _ in range(99):
        learner.learn(a)
    learner.learn(b)
    assert learner.sanitize() is True
    reference = Learner(dts, A11)
    reference.learn(a)
    assert structure(learner.vpa) == structure(reference.snapshot())


def test_sanitize_keeps_frequent_branches(dts):
    learner = Learner(dts, A11)
    a = doc(b"<r><x>5</x></r>")
    b = doc(b"<r><y>false</y></r>")
    for _ in range(5):
        learner.learn(a)
        learner.learn(b)
    both = structure(learner.snapshot())
    assert learner.sanitize() is True
    assert structure(learner.vpa) == both


def test_sanitize_not_applicable_when_result_accepts_nothing(dts):
    """Final states that survive the decrement but that no run from the
    start reaches with its stack matched do not make sanitize applicable:
    the trimmed model would accept no document, so nothing changes."""
    learner = Learner(dts, A12)
    for raw in (b"<r><c><a>x y</a><a>5</a></c><c><a><c><a>x y</a></c><c><a/></c></a></c></r>",
                b"<r><c><a/><a>5</a></c><c><a><c/></a></c></r>"):
        learner.learn(doc(raw))
    before = dump_state(learner)
    assert learner.sanitize() is False
    assert dump_state(learner) == before
    assert not learner.sanitized


def sanitize_checked(dts, learner) -> bool:
    """Sanitize, and check both outcomes: an applied result generates a
    model that accepts some document; a refused one changes nothing."""
    before = dump_state(learner)
    if not learner.sanitize():
        assert dump_state(learner) == before and not learner.sanitized
        return False
    model = compile_cxvpa(build_xvpa(learner.snapshot(), dts))
    witness = accepted_witness(model, dts)
    assert witness is not None and validate(model, witness).accepted
    return True


# every call into module ``a`` is decremented away, while returns still
# reach some of its states
_NO_ENTRY = (b"<r><c/></r>",
             b"<r><b><a><c>x y</c></a><b><a><c>5</c><c>x y</c></a></b></b><c><a>x y</a></c></r>",
             b"<r><c/><b>x y</b></r>")


def test_sanitize_drops_modules_no_run_enters(dts):
    """A module that no run enters goes as a whole, so the sanitized model
    has no module without its entry."""
    learner = Learner(dts, A11)
    for raw in _NO_ENTRY:
        learner.learn(doc(raw))
    assert sanitize_checked(dts, learner) is True
    assert not any(q[0] == ("a",) for q in learner.vpa.states)


def test_sanitize_decides_on_the_generated_model(dts):
    """The weighted automaton's sanitized language is empty here, but the
    generated model's is not: its exits share one return table per
    module, so ``<r><b>5</b></r>`` closes through the return that pops the
    state before ``b``."""
    learner = Learner(dts, A11)
    for raw in (b"<r><a/></r>", b"<r><a><b><a>x y</a><b/></b></a></r>",
                b"<r><b><c><b/><b>x y</b></c><b>x y</b></b><b>5</b></r>",
                b"<r><b><c>5</c><c>5</c></b></r>", b"<r><c>x y</c></r>",
                b"<r><b><c><c><a>5</a><c>5</c></c></c><c>x y</c></b><b>5</b></r>"):
        learner.learn(doc(raw))
    assert sanitize_checked(dts, learner) is True
    model = compile_cxvpa(build_xvpa(learner.snapshot(), dts))
    assert validate(model, doc(b"<r><b>5</b></r>")).accepted


def test_sanitize_recursive_grammar_builds(dts):
    train, _mutants = _load_benchmark_workloads().recursive(1, 4, 3, 40, wrapped=0)
    learner = Learner(dts, NamingScheme(ANCESTOR_SIBLING, 2, 2))
    for raw in train:
        learner.learn(doc(raw))
    assert sanitize_checked(dts, learner) is True


_SMALL_TREES = st.recursive(
    st.tuples(st.sampled_from("abc"), st.sampled_from(["", "5", "x y"])),
    lambda kids: st.tuples(st.sampled_from("abc"), st.lists(kids, min_size=1, max_size=3)),
    max_leaves=8)
_SMALL_DOCUMENTS = st.lists(_SMALL_TREES, max_size=3).map(lambda body: ev.stream_from_events(
    [ev.start("r")] + [e for kid in body for e in _tree_events(kid)] + [ev.end("r")],
    reindex=True))


@given(st.sampled_from([A11, A12, NamingScheme(ANCESTOR_SIBLING, 1, 2),
                        NamingScheme(ANCESTOR_SIBLING, 2, 2)]),
       st.lists(_SMALL_DOCUMENTS, min_size=1, max_size=4),
       st.lists(st.integers(0, 3), min_size=2, max_size=14))
@example(A11, [doc(raw) for raw in _NO_ENTRY], [0, 1, 2])
@settings(max_examples=150, deadline=None)
def test_sanitize_applied_builds_and_refused_changes_nothing(dts, scheme, pool, picks):
    """Random learners, trained with repeats so that some structure
    survives the decrement."""
    learner = Learner(dts, scheme)
    for i in picks:
        learner.learn(pool[i % len(pool)])
    sanitize_checked(dts, learner)


def test_datatype_hash_guard(dts):
    learner = Learner(dts, A11)
    learner.dts_hash = "0" * 64
    from xvpa.learner import DatatypeMismatchError
    with pytest.raises(DatatypeMismatchError):
        learner.learn(doc(b"<a/>"))


# -- counter consistency against a replayed learn log ---------------------------

def test_counters_match_independent_replay_of_learn_log(dts, master_seed):
    """Every counter equals the number of traversals, recomputed by an
    independent replay over the recorded sequence of learned documents."""
    from xvpa.harness import cardealer_grammar, generate
    scheme = A12
    docs = generate(cardealer_grammar(), 15, master_seed + 30)
    log = docs + [docs[0], docs[3], docs[3]]  # repetitions included
    learner = Learner(dts, scheme)
    for d in log:
        learner.learn(d)

    def tally(table, key):
        table[key] = table.get(key, 0) + 1

    calls, rets, ints, states, finals = {}, {}, {}, {}, {}
    for d in log:
        q, stack = START_STATE, []
        for e in d:
            if e.kind == ev.START:
                c = e.label.render()
                q2 = call_name(scheme, q, c)
                tally(calls, (q, c))
                tally(states, q2)
                stack.append(q)
                q = q2
            elif e.kind == ev.END:
                c = e.label.render()
                p = stack.pop()
                q2 = ret_name(scheme, q, p, c)
                tally(rets, (q, c, p))
                tally(states, q2)
                q = q2
            else:
                q2 = int_name(scheme, q)
                for dt in dts.infer(e.label):
                    tally(ints, (q, dt))
                tally(states, q2)
                q = q2
        tally(finals, q)

    def counts(table):
        return {key: w for key, (_dst, w) in table.items()}

    assert counts(learner.vpa.calls) == calls
    assert counts(learner.vpa.rets) == rets
    assert counts(learner.vpa.ints) == ints
    assert learner.vpa.states == states
    assert learner.vpa.finals == finals


# -- randomized inverse property ----------------------------------------------

def test_learn_unlearn_inverse_randomized(dts, master_seed):
    rng = random.Random(master_seed + 10)
    schemes = [A11, A12, NamingScheme(ANCESTOR_SIBLING, 1, 1),
               NamingScheme(ANCESTOR_SIBLING, 2, 2)]
    for trial in range(40):
        scheme = schemes[trial % len(schemes)]
        docs = [_random_doc(rng) for _ in range(rng.randint(1, 5))]
        learner = Learner(dts, scheme)
        for d in docs:
            learner.learn(d)
        serialized = dump_state(learner)
        extra = _random_doc(rng)
        learner.learn(extra)
        learner.unlearn(extra)
        assert dump_state(learner) == serialized
        never = Learner(dts, scheme)
        for d in docs:
            never.learn(d)
        assert learner.vpa == never.vpa


def _random_doc(rng):
    labels = ["a", "b", "c"]
    texts = ["5", "false", "x y", "2015Z", "P1Y"]
    events = [ev.start("r")]
    for _ in range(rng.randint(0, 4)):
        lab = rng.choice(labels)
        events.append(ev.start(lab))
        if rng.random() < 0.7:
            events.append(ev.text(rng.choice(texts)))
        events.append(ev.end(lab))
    events.append(ev.end("r"))
    return ev.stream_from_events(events)
