"""State naming, incremental learning, unlearning, and sanitization."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xvpa import events as ev
from xvpa import learner as learner_module
from xvpa.automata import build_xvpa, compile_cxvpa, validate
from xvpa.learner import (ANCESTOR_SIBLING, CounterUnderflowError, Learner,
                          MissingTransitionError, NamingScheme,
                          SanitizedStateError, call_name, int_name, ret_name)
from xvpa.persistence import dump_state
from xvpa.weighted import START_STATE

from .oracles import accepted_witness, reference_run, structure, unchecked_stream
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
    assert learner.mind_changes == [5, 0]
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
    assert Learner(dts, A11).mind_changes == []


def test_zero_mind_change_window_means_stable_snapshot(dts):
    learner = Learner(dts, A12)
    docs = [doc(b"<r><a>5</a></r>"), doc(b"<r><a>9</a></r>"), doc(b"<r><a>2</a></r>")]
    snaps = []
    for d in docs:
        learner.learn(d)
        snaps.append(structure(learner.snapshot()))
    series = learner.mind_changes
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


def test_renumbered_stream_learns_alike_and_fails_at_the_event_position(dts):
    """An event's index is its position: events carrying other indices are
    refused unless renumbered, a renumbered stream learns the same state,
    and an unlearn failure names the failing event's position."""
    def gapped(raw):
        return [ev.Event(e.kind, e.label, 10 * e.index + 7) for e in doc(raw)]

    with pytest.raises(ev.InvariantViolation):
        ev.stream_from_events(gapped(b"<r><x>5</x></r>"))
    learner = Learner(dts, A11)
    learner.learn(ev.stream_from_events(gapped(b"<r><x>5</x></r>"), reindex=True))
    plain = Learner(dts, A11)
    plain.learn(doc(b"<r><x>5</x></r>"))
    assert dump_state(learner) == dump_state(plain)
    with pytest.raises(MissingTransitionError) as failure:
        learner.unlearn(ev.stream_from_events(gapped(b"<r><zzz/></r>"), reindex=True))
    assert failure.value.index == 1  # the start of zzz
    with pytest.raises(MissingTransitionError) as failure:
        learner.unlearn(ev.stream_from_events(gapped(b"<r><x>cc</x></r>"), reindex=True))
    assert failure.value.index == 2  # the text


def test_unlearn_underflow_fails_without_mutation(dts):
    learner = Learner(dts, A11)
    learner.learn(doc(b"<r><x>5</x></r>"))
    learner.unlearn(doc(b"<r><x>5</x></r>"))
    before = dump_state(learner)
    with pytest.raises((MissingTransitionError, CounterUnderflowError)):
        learner.unlearn(doc(b"<r><x>5</x></r>"))
    assert dump_state(learner) == before


def test_unlearn_past_a_counter_raises_underflow(dts):
    """Under ancestor 1/1 a third ``a`` takes the transitions the second
    one made, once more than they were learned: CounterUnderflowError, and
    the learner is unchanged."""
    learner = Learner(dts, A11)
    learner.learn(doc(b"<r><a/><a/></r>"))
    before = dump_state(learner)
    with pytest.raises(CounterUnderflowError):
        learner.unlearn(doc(b"<r><a/><a/><a/></r>"))
    assert dump_state(learner) == before


def test_failed_unlearn_restores_the_keys_it_zeroed_in_place(dts):
    """The run zeroes the calls on r and x before it finds no call on y:
    the error names event 4, and every table holds its values in its key
    order as before."""
    learner = Learner(dts, A11)
    learner.learn(doc(b"<r><x>5</x></r>"))
    before = tables(learner)
    with pytest.raises(MissingTransitionError) as failure:
        learner.unlearn(doc(b"<r><x>5</x><y/></r>"))
    assert (failure.value.index, str(failure.value)) == (4, "run leaves the automaton at event 4 (no call on y)")
    assert tables(learner) == before


def test_unlearn_counts_a_text_key_over_the_whole_run(dts):
    """Under ancestor 1/1 both texts take the unsignedByte key of ``a``,
    learned once: the run counted per key underflows it.  A check per
    text would find the key gone at the second text (event 5) and report
    a missing transition instead."""
    learner = Learner(dts, A11)
    learner.learn(doc(b"<r><a>5</a><a>x</a></r>"))
    before = tables(learner)
    with pytest.raises(CounterUnderflowError) as failure:
        learner.unlearn(doc(b"<r><a>5</a><a>6</a></r>"))
    assert str(failure.value) == "counter for ((('a',), ()), 'unsignedByte') would underflow"
    assert tables(learner) == before


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


def test_sanitize_takes_a_roots_return_from_any_exit(dts):
    """No return that pops the start state survives the decrement in
    ``c2``'s module, but the compiled model takes a root's return from any
    exit of the root's module, and ``c2``'s entry is one (it returns from
    the inner ``c2``): the model accepts ``<c2/>``, so sanitize applies."""
    learner = Learner(dts, A11)
    for raw in (b"<c1><a/>5</c1>", b"<c1><b/>5</c1>", b"<c2><c2/></c2>", b"<c2><c2/><x/></c2>"):
        learner.learn(doc(raw))
    assert sanitize_checked(dts, learner) is True
    model = compile_cxvpa(build_xvpa(learner.snapshot(), dts))
    assert validate(model, doc(b"<c2/>")).accepted


def test_sanitize_needs_no_final_state_left(dts):
    """The decrement leaves no final state, since each ``c2`` document
    ends in a different one, but ``c2``'s entry is still an exit of the
    root's module: the model builds, accepts ``<c2/>`` and ends a document
    nowhere else."""
    learner = Learner(dts, A11)
    for raw in (b"<c2><c2/></c2>", b"<c2><c2/><x/></c2>"):
        learner.learn(doc(raw))
    assert sanitize_checked(dts, learner) is True and not learner.vpa.finals
    model = compile_cxvpa(build_xvpa(learner.snapshot(), dts))
    assert validate(model, doc(b"<c2/>")).accepted
    verdict = validate(model, doc(b"<c2><c2/></c2>"))
    assert (verdict.accepted, verdict.reason, verdict.event_index) == (False, "unexpected-end", 3)


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
_SMALL_DOCUMENTS = st.tuples(st.sampled_from("ra"), st.lists(_SMALL_TREES, max_size=3)).map(
    lambda drawn: ev.stream_from_events(
        [ev.start(drawn[0])] + [e for kid in drawn[1] for e in _tree_events(kid)]
        + [ev.end(drawn[0])], reindex=True))


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


# -- the shape memo against the reference run -----------------------------------

class ReferenceLearner(Learner):
    """A learner whose every run is the reference walk, named event by
    event for every document."""

    def _run(self, stream, admit):
        return [[(key, *value) for key, value in taken.items()] for taken in reference_run(self, stream)]


def run_lists(run):
    """A run counted per key: lists of ``(key, (count, target, first
    index))``, in the order the run first takes the keys.  A key that the
    run takes more than once has one target."""
    lists = []
    for taken in run:
        counted: dict = {}
        for key, count, target, index in taken:
            value = counted.setdefault(key, [0, target, index])
            assert value[1] == target
            value[0] += count
        lists.append([(key, tuple(value)) for key, value in counted.items()])
    return lists


def tables(learner):
    """The learner's counter tables with their keys in insertion order."""
    return [list(table.items()) for table in learner._tables()]


def outcome(step):
    """What a learner operation returned, or the unlearn error it raised."""
    try:
        return step()
    except MissingTransitionError as error:
        return MissingTransitionError, error.index, str(error)
    except CounterUnderflowError as error:
        return CounterUnderflowError, str(error)


_SKELETONS = st.recursive(
    st.tuples(st.sampled_from("abc"), st.none()),
    lambda kids: st.tuples(st.sampled_from("abc"), st.lists(kids, min_size=1, max_size=3)),
    max_leaves=6)
# "" leaves its element empty, so a few documents change shape
_FILLS = ["5", "12", "false", "x y", "cc", "P1Y", "2015Z", "-3.5", ""]


def _filled(tree, texts):
    """``tree``'s events, each leaf holding the next of ``texts``."""
    label, kids = tree
    if kids is None:
        text = next(texts)
        return [ev.start(label)] + ([ev.text(text)] if text else []) + [ev.end(label)]
    return [ev.start(label)] + [e for kid in kids for e in _filled(kid, texts)] + [ev.end(label)]


@given(st.sampled_from([A11, A12, NamingScheme("ancestor", 2, 3),
                        NamingScheme(ANCESTOR_SIBLING, 1, 2), NamingScheme(ANCESTOR_SIBLING, 2, 2)]),
       st.lists(_SKELETONS, min_size=1, max_size=3), st.data())
@settings(max_examples=120, deadline=None)
def test_shape_memo_runs_equal_the_reference(dts, scheme, skeletons, data):
    """Corpora that repeat a few shapes with other texts: every run has the
    reference's keys, counts, targets and first indices in its order, and
    learning and unlearning give the reference's mind changes, state
    files, table orders and unlearn errors."""
    def document():
        tree = data.draw(st.sampled_from(skeletons))
        texts = itertools.cycle(data.draw(st.lists(st.sampled_from(_FILLS), min_size=1, max_size=6)))
        return ev.stream_from_events([ev.start("r")] + _filled(tree, texts) + [ev.end("r")])

    learner, reference = Learner(dts, scheme), ReferenceLearner(dts, scheme)
    learned = []
    for _ in range(data.draw(st.integers(1, 12))):
        stream = document()
        want = run_lists(reference._run(stream, admit=True))
        assert run_lists(learner._run(stream, admit=True)) == want
        assert learner.learn(stream) == reference.learn(stream)
        learned.append(stream)
        assert tables(learner) == tables(reference)
    assert learner.mind_changes == reference.mind_changes
    assert dump_state(learner) == dump_state(reference)
    # learned documents, some more often than learned, and documents of a
    # learned shape whose texts take transitions never learned
    for _ in range(data.draw(st.integers(1, 12))):
        stream = data.draw(st.sampled_from(learned)) if data.draw(st.booleans()) else document()
        assert outcome(lambda: learner.unlearn(stream)) == outcome(lambda: reference.unlearn(stream))
        assert tables(learner) == tables(reference)
        assert dump_state(learner) == dump_state(reference)


_SHAPES = [b"<r><x>5</x></r>", b"<r><x>cc</x><y>7</y></r>", b"<r><y><x>1</x></y></r>",
           b"<r><x>9</x><x>false</x></r>"]
_SAME_SHAPES = [b"<r><x>8</x></r>", b"<r><x>P1Y</x><y>x y</y></r>", b"<r><y><x>cc</x></y></r>",
                b"<r><x>2</x><x>3</x></r>"]


def test_shape_memo_cleared_past_its_bound(dts, monkeypatch):
    """With room for two of the four shapes, keeping a third clears the
    memo, and the state files are those of the reference walk and of a
    learner under the memo's own bounds."""
    steps = ([("learn", raw) for raw in _SHAPES + _SHAPES + _SAME_SHAPES + _SAME_SHAPES]
             + [("unlearn", raw) for raw in _SAME_SHAPES + _SHAPES])
    unbounded = Learner(dts, A12)
    states = []
    for name, raw in steps:
        getattr(unbounded, name)(doc(raw))
        states.append(dump_state(unbounded))
    assert len(unbounded._memo) == 4
    monkeypatch.setattr(learner_module, "SHAPE_MEMO_MAX", 15)
    learner, reference = Learner(dts, A12), ReferenceLearner(dts, A12)
    sizes = []
    for (name, raw), state in zip(steps, states):
        assert getattr(learner, name)(doc(raw)) == getattr(reference, name)(doc(raw))
        assert learner._memo_events <= 15
        sizes.append(len(learner._memo))
        assert dump_state(learner) == dump_state(reference) == state
    assert max(sizes) == 2 and any(b < a for a, b in zip(sizes, sizes[1:]))  # cleared


def test_document_over_the_shape_bound_is_walked_not_kept(dts, monkeypatch):
    monkeypatch.setattr(learner_module, "SHAPE_DOC_MAX", 7)
    learner, reference = Learner(dts, A12), ReferenceLearner(dts, A12)
    for raw in [b"<r><x>5</x><y>7</y></r>"] * 3 + [b"<r><x>5</x></r>"] * 3:
        assert learner.learn(doc(raw)) == reference.learn(doc(raw))
    # the 8-event shape was never even counted as sighted; the 5-event one was kept
    assert [len(shape[0]) for shape in learner._memo] == [5] and len(learner._seen) == 1
    assert dump_state(learner) == dump_state(reference)


def test_unlearn_neither_sights_nor_keeps_a_shape(dts):
    """Only ``learn`` counts a sighting: a shape learned once and then
    unlearned is not kept, and learning it again keeps it."""
    learner, reference = Learner(dts, A12), ReferenceLearner(dts, A12)
    for step, kept in (("learn", 0), ("unlearn", 0), ("learn", 1)):
        getattr(learner, step)(doc(b"<r><x>5</x></r>"))
        getattr(reference, step)(doc(b"<r><x>5</x></r>"))
        assert len(learner._memo) == kept
        assert dump_state(learner) == dump_state(reference)


_UNCHECKED = {
    "text label on a start": [ev.Event(ev.START, "r"), ev.end("r")],
    "name label on a text": [ev.start("r"), ev.Event(ev.CHARS, ev.QName("", "x")), ev.end("r")],
    "number label on a text": [ev.start("r"), ev.Event(ev.CHARS, 5), ev.end("r")],
    "unmatched end": [ev.start("r"), ev.end("r"), ev.end("r")],
}


@pytest.mark.parametrize("case", sorted(_UNCHECKED))
def test_unchecked_stream_raises_as_the_reference_walk(dts, case):
    """An unchecked stream the walk cannot name raises what the reference
    walk raises, also once every shape near it is kept, and changes
    nothing."""
    bad = unchecked_stream(_UNCHECKED[case])
    with pytest.raises(Exception) as expected:
        reference_run(Learner(dts, A11), bad)
    learner = Learner(dts, A11)
    for raw in (b"<r/>", b"<r>5</r>") * 2:
        learner.learn(doc(raw))
    assert len(learner._memo) == 2
    before = dump_state(learner)
    for step in (learner.learn, learner.unlearn, learner.learn):
        with pytest.raises(expected.type):
            step(bad)
        assert dump_state(learner) == before
