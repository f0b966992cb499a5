"""dXVPA generation, module folding, text-mask compilation, validation."""

import gc
import importlib.util
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xvpa import events as ev
from xvpa import cli, persistence
from xvpa.automata import (DATATYPE_MISMATCH, PREMATURE_EOF, TRAILING_CONTENT,
                           UNEXPECTED_ELEMENT, UNEXPECTED_END,
                           AutomatonStructureError, EmptyLanguageError,
                           Validator, build_xvpa, compile_cxvpa, minimize, to_dot, validate)
from xvpa.datatypes import DEFAULT_PATH, load_datatype_system
from xvpa.harness import (STRUCTURAL_WRAPPING, InapplicableAttackError, cardealer_grammar,
                          generate, inject_attack)
from xvpa.learner import Learner, NamingScheme
from xvpa.persistence import StateFileError, dump_state, parse_state

from .oracles import (enumerate_streams, member_accepts, minimize_pairwise, sample_string,
                      unchecked_stream, validate_dxvpa)
from .samplers import mixed_corpus, sample

A11 = NamingScheme("ancestor", 1, 1)
A12 = NamingScheme("ancestor", 1, 2)
A13 = NamingScheme("ancestor", 1, 3)
AS12 = NamingScheme("ancestor-sibling", 1, 2)
AS22 = NamingScheme("ancestor-sibling", 2, 2)


def learn_corpus(dts, scheme, docs):
    learner = Learner(dts, scheme)
    for d in docs:
        learner.learn(d)
    return learner


@pytest.fixture(scope="module")
def cardealer(dts, master_seed):
    docs = generate(cardealer_grammar(), 50, master_seed)
    learner = learn_corpus(dts, A12, docs)
    dxvpa = build_xvpa(learner.snapshot(), dts)
    return docs, dxvpa, compile_cxvpa(dxvpa)


# -- generation ----------------------------------------------------------------

def test_cardealer_golden_modules(cardealer):
    _docs, dxvpa, _cx = cardealer
    module_names = sorted(" ".join(key) for key in dxvpa.modules)
    assert module_names == ["ad model", "ad year", "dealer", "dealer newcars",
                            "dealer usedcars", "newcars ad", "usedcars ad"]
    assert len(dxvpa.modules) == 7
    assert dxvpa.roots == {"dealer": ("dealer",)}
    # the model module is shared: called from both ad modules
    callers = {key for key, mod in dxvpa.modules.items()
               for (_q, c), callee in mod.calls.items() if callee == ("ad", "model")}
    assert callers == {("newcars", "ad"), ("usedcars", "ad")}


def test_cardealer_year_datatype_choice(cardealer):
    _docs, dxvpa, _cx = cardealer
    year = dxvpa.modules[("ad", "year")]
    (dtset,) = {frozenset(dts) for _dst, dts in year.internals.values()}
    assert dtset == {"gYear", "gYearMonth"}


def test_single_element_module(dts):
    learner = learn_corpus(dts, A11, [ev.parse_document(b"<a/>")])
    dxvpa = build_xvpa(learner.snapshot(), dts)
    assert len(dxvpa.modules) == 1
    mod = dxvpa.modules[("a",)]
    assert mod.entry in mod.exits
    cx = compile_cxvpa(dxvpa)
    assert validate(cx, ev.parse_document(b"<a/>")).accepted
    assert not validate(cx, ev.parse_document(b"<a><b/></a>")).accepted


def test_empty_language_raises(dts):
    learner = Learner(dts, A11)
    with pytest.raises(EmptyLanguageError):
        build_xvpa(learner.snapshot(), dts)


_REQ, _RESP = b"<req><id>12</id></req>", b"<resp><ok>true</ok></resp>"


def _verdicts(dxvpa, documents):
    """``(accepted, reason, index)`` of each document on the batch route,
    asserted equal to the push route's."""
    model = compile_cxvpa(dxvpa)
    got = []
    for raw in documents:
        batch = validate(model, ev.parse_document(raw))
        validator = Validator(model)
        validator.feed(raw)
        push = validator.close()
        assert batch == push, raw
        got.append((batch.accepted, batch.reason, batch.event_index))
    return got


@pytest.mark.parametrize("scheme", [A12, A11, AS22], ids=["a12", "a11", "as22"])
def test_two_roots(dts, scheme, tmp_path, capsys):
    """A protocol with two message roots: the start state calls each, and
    each module it calls is a start module.  Both routes accept each root's
    documents and reject a root holding the other root's content;
    unlearning one root's documents gives the other's one-root model; and
    sanitize, stats and export-dot work on it."""
    learner = learn_corpus(dts, scheme, [ev.parse_document(raw) for raw in (_REQ, _RESP) * 2])
    dxvpa = build_xvpa(learner.snapshot(), dts)
    assert sorted(dxvpa.roots) == ["req", "resp"]
    assert to_dot(dxvpa).count("(start)") == 2
    foreign = [b"<req><ok>true</ok></req>", b"<resp><id>12</id></resp>", b"<other/>"]
    assert _verdicts(dxvpa, [_REQ, _RESP] + foreign) == [(True, None, None)] * 2 + [
        (False, UNEXPECTED_ELEMENT, 1), (False, UNEXPECTED_ELEMENT, 1),
        (False, UNEXPECTED_ELEMENT, 0)]

    state = str(tmp_path / "state.txt")
    persistence.save_state(learner, state)
    capsys.readouterr()
    assert cli.main(["stats", state]) == cli.EXIT_OK
    assert "modules\t4\n" in capsys.readouterr().out
    assert cli.main(["export-dot", state]) == cli.EXIT_OK
    assert capsys.readouterr().out == to_dot(dxvpa)

    # unlearning every <resp> document leaves the one-root model
    one = learn_corpus(dts, scheme, [ev.parse_document(_REQ)] * 2)
    unlearned = parse_state(dump_state(learner), dts)
    for _ in range(2):
        unlearned.unlearn(ev.parse_document(_RESP))
    for compiled in (False, True):
        assert to_dot(build_xvpa(unlearned.snapshot(), dts), compiled) == \
            to_dot(build_xvpa(one.snapshot(), dts), compiled)

    # sanitize keeps both roots seen twice, and trims a root seen once
    assert learner.sanitize() is True
    kept = build_xvpa(learner.snapshot(), dts)
    assert _verdicts(kept, [_REQ, _RESP]) == [(True, None, None)] * 2
    rare = learn_corpus(dts, scheme, [ev.parse_document(raw) for raw in [_REQ] * 5 + [_RESP]])
    assert sorted(build_xvpa(rare.snapshot(), dts).roots) == ["req", "resp"]
    assert rare.sanitize() is True
    trimmed = build_xvpa(rare.snapshot(), dts)
    assert list(trimmed.roots) == ["req"]
    assert _verdicts(trimmed, [_REQ, _RESP]) == [(True, None, None),
                                                 (False, UNEXPECTED_ELEMENT, 0)]


def test_transition_outside_every_module_rejected(dts):
    """An edited state file whose call leaves from the state after the root
    (a state of no module) is a structure error, not a bare KeyError."""
    learner = learn_corpus(dts, A11, [ev.parse_document(b"<r><x>5</x></r>")])
    edited = parse_state(dump_state(learner) + "call |r x x| 1\n", dts)
    with pytest.raises(AutomatonStructureError):
        build_xvpa(edited.snapshot(), dts)


def test_return_in_two_modules_rejected(dts):
    """A return on one (popped state, element) that sources in two modules
    take cannot live in one module's return table: a structure error."""
    learner = learn_corpus(dts, A11, [ev.parse_document(b"<r><x>5</x></r>")])
    edited = parse_state(dump_state(learner) + "ret r| x r| r|x 1\n", dts)
    with pytest.raises(AutomatonStructureError):
        build_xvpa(edited.snapshot(), dts)


def test_crossed_return_rejected(dts):
    """With the calls into p,a and q,a swapped, each module's return pops
    a state whose call enters the other module.  No run takes such a
    return, and folding the two modules would bring it alive: a structure
    error, not a model."""
    state = dump_state(learn_corpus(
        dts, A12, [ev.parse_document(SCHEME_CORPORA["a12-shared-callee"][1][0])]))
    edited = (state.replace("call root,p| a p,a|", "call root,p| a q,a|")
              .replace("call root,q| a q,a|", "call root,q| a p,a|"))
    assert edited != state
    with pytest.raises(AutomatonStructureError, match="outside its callee"):
        build_xvpa(parse_state(edited, dts).snapshot(), dts, False)


def test_return_with_two_targets_in_one_module_rejected(dts):
    """One module's return table holds one target per (popped state,
    element); a second target for the same key is a structure error, not a
    silent overwrite."""
    learner = learn_corpus(dts, A11, [ev.parse_document(b"<r><x>5</x><x/></r>")])
    state = dump_state(learner)
    edited = state.replace("ret x| x r|x r|x 1\n", "ret x| x r| r| 1\n")
    assert edited != state
    with pytest.raises(AutomatonStructureError):
        build_xvpa(parse_state(edited, dts).snapshot(), dts)


@pytest.mark.parametrize("line, edited", [
    ("int a| unsignedByte a|%24 1", "int a| unsignedByte a|zz 1"),
    ("ret a|%24 a r| r|a 1", "ret a|%24 a r| r|zz 1"),
    ("int a| unsignedByte a|%24 1", "int a|zz unsignedByte a|%24 1"),
    ("call r| a a| 1", "call r|zz a a| 1"),
    ("ret a|%24 a r| r|a 1", "ret a|zz a r| r|a 1"),
    ("ret a|%24 a r| r|a 1", "ret a|%24 a r|zz r|a 1"),
])
def test_target_that_is_no_state_rejected(dts, line, edited):
    """A text or return target, a call, text or return source, or a popped
    state, in the right module that is no state of it is a structure
    error, folded or not, where compile_cxvpa would fail to number it.  The
    untrimmed model is built, since a snapshot drops such a transition."""
    state = dump_state(learn_corpus(dts, A11, [ev.parse_document(b"<r><a>5</a></r>")]))
    assert line in state.splitlines()
    learner = parse_state(state.replace(line, edited), dts)
    for minimize_modules in (True, False):
        with pytest.raises(AutomatonStructureError, match="leaves its modules"):
            build_xvpa(learner.vpa, dts, minimize_modules)


def test_model_steps_leave_the_collector_as_they_found_it(dts, monkeypatch):
    """Loading a state file and the steps to a compiled model run with the
    cyclic garbage collector paused, and leave it on or off as it was, also
    when they raise."""
    state = dump_state(learn_corpus(dts, A11, [ev.parse_document(b"<r><a>5</a></r>")]))
    seen = []
    decode = persistence.decode_state
    monkeypatch.setattr(persistence, "decode_state",
                        lambda *a: seen.append(gc.isenabled()) or decode(*a))
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            learner = parse_state(state, dts)
            compile_cxvpa(minimize(build_xvpa(learner.snapshot(), dts, False)))
            assert gc.isenabled() is enabled
            with pytest.raises(StateFileError):
                parse_state("xvpa-state 1\nk 1\n", dts)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)


def test_sanitized_model_folds_like_unminimized(dts):
    """A sanitized model that still accepts documents folds, and the
    minimized model's verdicts equal the unminimized model's."""
    learner = Learner(dts, A12)
    for raw in (b"<r><a>x y</a><c><a>x y</a></c></r>", b"<r><a>x y</a></r>",
                b"<r><a><c/></a></r>", b"<r><a><c>5</c></a><c>x y</c></r>"):
        learner.learn(ev.parse_document(raw))
    assert learner.sanitize() is True
    _assert_folds_like_unminimized(learner.snapshot(), dts, accepts_some=True)


# sanitized by an earlier rule that applied whenever a final state survived:
# it keeps a return whose call it trimmed, and accepts no document
_SANITIZED_EMPTY = """xvpa-state 1
mode ancestor
k 1
l 2
datatypes {hash}
sanitized 1
documents 2
mindchanges 31,2
call a,c| a c,a| 1
call c,a| c a,c| 1
call r,c| a c,a| 3
call r,c|a a c,a| 1
call r| c r,c| 1
call r|c c r,c| 1
call | r r| 1
final |r 1
int c,a| NMTOKENS c,a|%24 1
ret c,a|%24 a r,c|a r,c|a 1
ret r,c|a c r| r|c 1
ret r,c|a c r|c r|c 1
ret r|c r | |r 1
state a,c| 1
state c,a| 5
state c,a|%24 2
state r,c| 2
state r,c|a 2
state r| 1
state r|c 2
state |r 1
"""


def test_fold_drops_returns_the_folded_module_never_takes(dts):
    """A return whose popped state the folded module never reaches from its
    entry is dropped by the fold."""
    learner = parse_state(_SANITIZED_EMPTY.format(hash=dts.content_hash), dts)
    _assert_folds_like_unminimized(learner.snapshot(), dts, accepts_some=False)


def _assert_folds_like_unminimized(snapshot, dts, accepts_some):
    folded_dx = build_xvpa(snapshot, dts)
    full_dx = build_xvpa(snapshot, dts, minimize_modules=False)
    assert len(folded_dx.modules) < len(full_dx.modules)
    bodies = list(enumerate_streams(["c", "a"], ["x y", "5"], depth=4, width=1))
    bodies += enumerate_streams(["c", "a"], ["x y", "5"], depth=3, width=2)
    streams = [ev.stream_from_events([ev.start("r"), *body, ev.end("r")], reindex=True)
               for body in bodies]
    assert bool(_same_verdicts(folded_dx, full_dx, streams)) == accepts_some


def _same_verdicts(left_dx, right_dx, streams) -> int:
    """Assert that the compiled models give each stream the same verdict,
    reason and event index; the number of streams they accept."""
    left_cx, right_cx = compile_cxvpa(left_dx), compile_cxvpa(right_dx)
    accepted = 0
    for stream in streams:
        left, right = validate(left_cx, stream), validate(right_cx, stream)
        assert (left.accepted, left.reason, left.event_index) == \
            (right.accepted, right.reason, right.event_index), stream.debug_lines()
        accepted += left.accepted
    return accepted


def test_structural_invariants_hold(cardealer, dts):
    _docs, dxvpa, _cx = cardealer
    # re-runs the constructor checks (entry states, mixed content)
    type(dxvpa)(dxvpa.modules, dxvpa.roots, dts)
    for mod in dxvpa.modules.values():
        internal_successors = {dst for dst, _ in mod.internals.values()}
        for src, (dst, _dts) in mod.internals.items():
            assert dst in mod.states and src in mod.states
        for other in dxvpa.modules.values():
            for target in other.returns.values():
                assert target not in internal_successors


# -- minimization ----------------------------------------------------------------

def test_minimize_folds_equivalent_modules(dts, master_seed):
    docs = generate(cardealer_grammar(), 40, master_seed + 7)
    learner = learn_corpus(dts, NamingScheme("ancestor", 1, 3), docs)
    raw = build_xvpa(learner.snapshot(), dts, minimize_modules=False)
    folded = build_xvpa(learner.snapshot(), dts)
    assert len(raw.modules) == 8   # two structurally equal model modules
    assert len(folded.modules) == 7
    cx = compile_cxvpa(folded)
    for d in docs:
        assert validate(cx, d).accepted


def test_minimize_ancestor_sibling_scheme(dts, master_seed):
    docs = generate(cardealer_grammar(), 40, master_seed + 8)
    learner = learn_corpus(dts, NamingScheme("ancestor-sibling", 1, 2), docs)
    raw = build_xvpa(learner.snapshot(), dts, minimize_modules=False)
    folded = build_xvpa(learner.snapshot(), dts)
    assert len(raw.modules) - len(folded.modules) == 1
    cx = compile_cxvpa(folded)
    for d in docs:
        assert validate(cx, d).accepted


def test_minimize_rewrites_shared_callee_returns(dts):
    """Folding modules that call into a shared submodule must redirect the
    submodule's returns through the state pairing."""
    doc = ev.parse_document(
        b"<root><p><a><b>5</b></a></p><q><a><b>7</b></a></q></root>")
    learner = learn_corpus(dts, A12, [doc])
    raw = build_xvpa(learner.snapshot(), dts, minimize_modules=False)
    folded = build_xvpa(learner.snapshot(), dts)
    assert len(raw.modules) == 6 and len(folded.modules) == 5
    assert ("q", "a") not in folded.modules
    cx = compile_cxvpa(folded)
    assert validate(cx, doc).accepted
    assert validate(cx, ev.parse_document(
        b"<root><p><a><b>1</b></a></p><q><a><b>0</b></a></q></root>")).accepted
    assert not validate(cx, ev.parse_document(
        b"<root><p><a><b>5</b></a></p></root>")).accepted
    assert not validate(cx, ev.parse_document(
        b"<root><p><a><b>x</b></a></p><q><a><b>7</b></a></q></root>")).accepted


def test_minimize_cascades_over_module_triples(dts):
    doc = ev.parse_document(
        b"<root><x><leaf>5</leaf></x><y><leaf>7</leaf></y><z><leaf>9</leaf></z></root>")
    learner = learn_corpus(dts, A12, [doc])
    raw = build_xvpa(learner.snapshot(), dts, minimize_modules=False)
    folded = build_xvpa(learner.snapshot(), dts)
    assert len(raw.modules) == 7 and len(folded.modules) == 5  # two folds
    assert validate(compile_cxvpa(folded), doc).accepted


def test_minimize_is_fixed_point_on_minimal_automata(cardealer, dts):
    _docs, dxvpa, _cx = cardealer
    from xvpa.automata import minimize
    again = minimize(dxvpa)
    assert set(again.modules) == set(dxvpa.modules)
    for key in dxvpa.modules:
        assert again.modules[key].returns == dxvpa.modules[key].returns
        assert again.modules[key].calls == dxvpa.modules[key].calls


def test_minimize_preserves_language(dts, master_seed):
    docs = generate(cardealer_grammar(), 30, master_seed + 9)
    learner = learn_corpus(dts, NamingScheme("ancestor", 1, 3), docs)
    raw = build_xvpa(learner.snapshot(), dts, minimize_modules=False)
    folded = build_xvpa(learner.snapshot(), dts)
    cx_raw = compile_cxvpa(raw)
    cx_folded = compile_cxvpa(folded)
    probes = list(docs)
    probes += generate(cardealer_grammar(), 30, master_seed + 10)
    probes += [
        ev.parse_document(b"<dealer><newcars/><usedcars/></dealer>"),
        ev.parse_document(b"<dealer><usedcars/><newcars/></dealer>"),
        ev.parse_document(b"<dealer><newcars><ad><model>M</model>"
                          b"<year>2001Z</year></ad></newcars><usedcars/></dealer>"),
    ]
    for stream in probes:
        assert validate(cx_raw, stream).accepted == validate(cx_folded, stream).accepted


def assert_same_automaton(got, want):
    assert list(got.modules) == list(want.modules)
    assert got.roots == want.roots
    for key, mod in want.modules.items():
        assert got.modules[key] == mod, key
    assert to_dot(got) == to_dot(want)
    assert to_dot(got, compiled=True) == to_dot(want, compiled=True)


def assert_minimize_matches_pairwise(dts, scheme, docs):
    assert_learner_minimizes_pairwise(dts, learn_corpus(dts, scheme, docs))


def assert_learner_minimizes_pairwise(dts, learner):
    raw = build_xvpa(learner.snapshot(), dts, minimize_modules=False)
    assert_same_automaton(minimize(raw), minimize_pairwise(raw))


def _load_benchmark_workloads():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCHEME_CORPORA = {
    "a11-small": (A11, [b"<a><b>5</b></a>", b"<a><b>false</b><b>7</b>tail x</a>", b"<a/>"]),
    "a12-shared-callee": (A12, [b"<root><p><a><b>5</b></a></p><q><a><b>7</b></a></q></root>"]),
    "a12-triples": (A12, [b"<root><x><leaf>5</leaf></x><y><leaf>7</leaf></y>"
                          b"<z><leaf>9</leaf></z></root>"]),
}


@pytest.mark.parametrize("name", sorted(SCHEME_CORPORA))
def test_minimize_matches_pairwise_on_small_corpora(dts, name):
    scheme, raws = SCHEME_CORPORA[name]
    assert_minimize_matches_pairwise(dts, scheme, [ev.parse_document(r) for r in raws])


@pytest.mark.parametrize("scheme, count, offset", [(A12, 50, 0), (A13, 40, 7), (AS12, 40, 8),
                                                   (A13, 30, 9)])
def test_minimize_matches_pairwise_on_cardealer(dts, master_seed, scheme, count, offset):
    assert_minimize_matches_pairwise(
        dts, scheme, generate(cardealer_grammar(), count, master_seed + offset))


@pytest.mark.parametrize("scheme", [A12, AS22], ids=["ancestor", "ancestor-sibling-k2"])
@pytest.mark.parametrize("depth, width, count", [(3, 2, 30), (4, 2, 60), (4, 3, 80), (5, 3, 200)])
def test_minimize_matches_pairwise_on_recursive_grammar(dts, scheme, depth, width, count):
    workloads = _load_benchmark_workloads()
    train, _mutants = workloads.recursive(1, depth, width, count, wrapped=0)
    assert_minimize_matches_pairwise(dts, scheme, [ev.parse_document(r) for r in train])


@pytest.mark.parametrize("scheme", [A11, A12], ids=["ancestor-l1", "ancestor-l2"])
def test_minimize_matches_pairwise_on_idlog(dts, scheme):
    """No element of the log grammar has two modules, so minimize skips
    refinement; the result must still be the pairwise scan's."""
    docs = _load_benchmark_workloads().IdlogSource(1).batch(200)
    learner = learn_corpus(dts, scheme, [ev.parse_document(r) for r in docs])
    raw = build_xvpa(learner.snapshot(), dts, minimize_modules=False)
    elements = [mod.element for mod in raw.modules.values()]
    assert len(set(elements)) == len(elements) > 1
    assert_same_automaton(minimize(raw), minimize_pairwise(raw))


def _tree_events(tree):
    label, body = tree
    out = [ev.start(label)]
    if isinstance(body, str):
        if body:
            out.append(ev.text(body))
    else:
        for kid in body:
            out.extend(_tree_events(kid))
    out.append(ev.end(label))
    return out


_TREES = st.recursive(
    st.tuples(st.sampled_from("abc"), st.sampled_from(["", "5", "true", "x y"])),
    lambda kids: st.tuples(st.sampled_from("abc"), st.lists(kids, min_size=1, max_size=3)),
    max_leaves=10)


@given(st.lists(st.lists(_TREES, max_size=4), min_size=1, max_size=5),
       st.sampled_from([A11, A12, AS12, AS22]))
@settings(max_examples=150, deadline=None)
def test_minimize_matches_pairwise_on_random_corpora(dts, bodies, scheme):
    docs = [ev.stream_from_events(
        [ev.start("r")] + [e for kid in body for e in _tree_events(kid)] + [ev.end("r")],
        reindex=True) for body in bodies]
    learner = learn_corpus(dts, scheme, docs)
    assert_learner_minimizes_pairwise(dts, learner)
    if learner.sanitize():
        assert_learner_minimizes_pairwise(dts, learner)


@pytest.fixture(scope="module")
def learned_states(dts):
    """State files of learners whose modules fold, each with the documents
    behind it and every stream of depth 2 and width 2 over its model's
    elements: the small corpora and the recursive grammar under both
    naming schemes."""
    corpora = [(scheme, [ev.parse_document(r) for r in raws])
               for scheme, raws in SCHEME_CORPORA.values()]
    train, _mutants = _load_benchmark_workloads().recursive(1, 3, 2, 30, wrapped=0)
    docs = [ev.parse_document(r) for r in train]
    corpora += [(A12, docs), (AS22, docs)]
    states = []
    for scheme, corpus in corpora:
        learner = learn_corpus(dts, scheme, corpus)
        raw = build_xvpa(learner.snapshot(), dts, False)
        elements = sorted({mod.element for mod in raw.modules.values()})
        streams = list(enumerate_streams(elements, ["5", "false", "red"], depth=2, width=2))
        states.append((dump_state(learner), corpus + streams))
    return states


_LINE_EDITS = st.tuples(st.sampled_from(["delete", "duplicate", "swap", "count"]),
                        st.integers(min_value=0), st.integers(min_value=0),
                        st.sampled_from([1, 2, 7]))


@given(st.integers(min_value=0), st.lists(_LINE_EDITS, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_minimize_matches_pairwise_on_edited_state_files(dts, learned_states, pick, edits):
    """Edit the entry lines of a learned state file: delete or duplicate a
    line, swap the target states of two lines, or set a counter to 1, 2 or
    7.  Whenever the edited file still builds, minimize folds it as the
    pairwise scan does, and the folded model gives the unminimized model's
    verdicts on the documents behind the file and on every stream of depth
    2 and width 2 over the learned model's elements."""
    state, streams = learned_states[pick % len(learned_states)]
    lines = state.splitlines()
    head, body = lines[:8], lines[8:]
    for kind, at, other, count in edits:
        if not body:
            break
        i = at % len(body)
        if kind == "delete":
            del body[i]
        elif kind == "duplicate":
            body.insert(i, body[i])
        else:
            parts = body[i].split(" ")
            if kind == "count":
                parts[-1] = str(count)
            else:
                j = other % len(body)
                others = body[j].split(" ")
                parts[-2], others[-2] = others[-2], parts[-2]
                body[j] = " ".join(others)
            body[i] = " ".join(parts)
    try:
        raw = build_xvpa(parse_state("\n".join(head + body) + "\n", dts).snapshot(), dts, False)
    except (StateFileError, AutomatonStructureError, EmptyLanguageError):
        return
    folded = minimize(raw)
    assert_same_automaton(folded, minimize_pairwise(raw))
    _same_verdicts(folded, raw, streams)


def test_minimize_folds_a_class_without_bijective_pairing(dts):
    """p,a and q,a each call x and then y.  The edited return makes q,a
    resume in the same state after both calls; every resume state is a bare
    exit, so refinement puts p,a and q,a in one class although no bijection
    pairs their states.  Both modules accept the same language, and q,a
    folds into p,a as the pairwise scan folds it.  With the p subtree fixed,
    every body of depth 3 and width 2 in q's place gets the same verdict
    from the folded and the unminimized model."""
    doc = ev.parse_document(b"<r><p><a><x/></a><a><y/></a></p><q><a><x/></a><a><y/></a></q></r>")
    state = dump_state(learn_corpus(dts, A12, [doc]))
    edited = state.replace("ret a,y| y q,a| q,a|y 1\n", "ret a,y| y q,a| q,a|x 1\n")
    assert edited != state
    raw = build_xvpa(parse_state(edited, dts).snapshot(), dts, False)
    folded = minimize(raw)
    assert_same_automaton(folded, minimize_pairwise(raw))
    assert len(raw.modules) == 7 and set(raw.modules) - set(folded.modules) == {("q", "a")}
    prefix = list(ev.parse_document(b"<r><p><a><x/></a><a><y/></a></p></r>"))[:-1]
    streams = (ev.stream_from_events([*prefix, *body, ev.end("r")], reindex=True)
               for body in enumerate_streams("qaxy", [], depth=3, width=2))
    assert _same_verdicts(folded, raw, streams)


def test_fold_of_self_calling_module_rewrites_its_returns(dts):
    """A module that calls itself keeps returns popping its own states.
    Folded into its class's survivor, its returns move to the survivor's
    table, those popping its own states are dropped, and no return names a
    state of the removed module."""
    deep = ("b", [("b", [("b", [("b", "5"), ("b", "")])])])
    docs = [ev.stream_from_events(
        [ev.start("r")] + [e for kid in body for e in _tree_events(kid)] + [ev.end("r")],
        reindex=True) for body in [[deep, deep, ("b", [("b", [("b", "5")])])]]]
    assert_minimize_matches_pairwise(dts, AS22, docs)
    folded = minimize(build_xvpa(learn_corpus(dts, AS22, docs).snapshot(), dts, False))
    states = {q for mod in folded.modules.values() for q in mod.states}
    for mod in folded.modules.values():
        assert {popped for popped, _c in mod.returns} <= states
        assert set(mod.returns.values()) <= states


def test_fold_leaves_no_return_naming_a_removed_state(dts):
    """Two returns no run takes.  One pops a name of q,a that is no state:
    the snapshot trims it, and the untrimmed model is refused as a
    transition that leaves its modules, so it never reaches minimize.  The
    other pops a state of q,a that makes no call on its element, from a
    module q,a never calls: folding q,a into p,a drops it, as it drops
    every return that pops a state of q,a, so no return names a removed
    state."""
    learner = learn_corpus(dts, A12, [ev.parse_document(SCHEME_CORPORA["a12-shared-callee"][1][0])])
    edited = parse_state(dump_state(learner) + "ret root,q|a x q,a|b q,a|b 1\n"
                         "ret a,b|%24 b q,a|zz q,a|b 1\n", dts)
    nameless = ((("a", "b"), ("$",)), "b", (("q", "a"), ("zz",)))
    kept = ((("root", "q"), ("a",)), "x", (("q", "a"), ("b",)))
    assert nameless in edited.vpa.rets and kept in edited.vpa.rets
    snapshot = edited.snapshot()
    assert nameless not in snapshot.rets and kept in snapshot.rets
    with pytest.raises(AutomatonStructureError, match=r"\('zz',\).* leaves its modules"):
        build_xvpa(edited.vpa, dts, False)
    raw = build_xvpa(snapshot, dts, False)
    assert kept[2] in {popped for mod in raw.modules.values() for popped, _c in mod.returns}
    folded = minimize(raw)
    assert_same_automaton(folded, minimize_pairwise(raw))
    assert ("q", "a") not in folded.modules
    assert list(folded.modules[("root", "q")].returns) == [((("root",), ("p",)), "q")]
    assert all(popped[0] != ("q", "a") for popped, _c in folded.modules[("a", "b")].returns)


# -- compilation ----------------------------------------------------------------

def test_year_predicate_accepts_both_members(cardealer, dts):
    _docs, _dx, cx = cardealer
    key = frozenset({"gYear", "gYearMonth"})
    mask = cx.predicates[key]
    for text in ("2015", "0999", "2015Z", "2015-09", "1999-01Z", "-2015"):
        assert cx.accept_mask(text, mask) & mask, text
    for text in ("20x5", "2015-13", "15", "", "x"):
        assert not cx.accept_mask(text, mask) & mask, text


def test_single_datatype_predicate_equals_member(dts, master_seed):
    """A one-member mask selects that member's bit alone and its check
    agrees with the member's DFA on its own strings and on every other
    kind."""
    learner = learn_corpus(dts, A11, [ev.parse_document(b"<m>false</m>")])
    cx = compile_cxvpa(build_xvpa(learner.snapshot(), dts))
    (key,) = cx.predicates
    assert key == frozenset({"boolean"})
    mask = cx.predicates[key]
    assert mask == 1 << list(dts.datatypes).index("boolean")
    rng = random.Random(master_seed + 12)
    boolean = dts.datatypes["boolean"].dfa
    texts = [sample_string(boolean, rng) for _ in range(50)]
    texts += mixed_corpus(rng, 300) + ["", "tru", "True", "1 ", "false0"]
    assert any(member_accepts(dts, "boolean", t) for t in texts)
    assert not all(member_accepts(dts, "boolean", t) for t in texts)
    for text in texts:
        assert bool(cx.accept_mask(text, mask) & mask) == boolean.accepts(text), text


def test_predicate_membership_cross_check(cardealer, dts, master_seed):
    """1000 random strings: a mask's check accepts iff at least one member
    datatype accepts."""
    _docs, _dx, cx = cardealer
    rng = random.Random(master_seed + 11)
    pool = sorted(dts.datatypes)
    for key, mask in cx.predicates.items():
        for _ in range(1000 // max(1, len(cx.predicates))):
            name = rng.choice(pool)
            text = sample(name, rng)
            expected = any(member_accepts(dts, member, text) for member in key)
            assert bool(cx.accept_mask(text, mask) & mask) == expected, (key, text)


# -- validation ----------------------------------------------------------------

def test_validate_used_ad_with_plain_year(cardealer):
    _docs, _dx, cx = cardealer
    good = ev.parse_document(
        b"<dealer><newcars/><usedcars><ad><model>Astra</model>"
        b"<year>2015</year></ad></usedcars></dealer>")
    assert validate(cx, good).accepted


def test_validate_datatype_mismatch(cardealer):
    _docs, _dx, cx = cardealer
    bad = ev.parse_document(
        b"<dealer><newcars/><usedcars><ad><model>Astra</model>"
        b"<year>20x5</year></ad></usedcars></dealer>")
    verdict = validate(cx, bad)
    assert not verdict.accepted
    assert verdict.reason == DATATYPE_MISMATCH
    assert bad.events[verdict.event_index].kind == ev.CHARS


def test_validate_unexpected_element(cardealer):
    _docs, _dx, cx = cardealer
    bad = ev.parse_document(b"<dealer><surprise/><newcars/><usedcars/></dealer>")
    verdict = validate(cx, bad)
    assert verdict.reason == UNEXPECTED_ELEMENT and verdict.event_index == 1


def test_validate_wrong_root(cardealer):
    _docs, _dx, cx = cardealer
    verdict = validate(cx, ev.parse_document(b"<garage/>"))
    assert verdict.reason == UNEXPECTED_ELEMENT and verdict.event_index == 0


def test_validate_raw_event_sequences(cardealer):
    """The root is the run's first call: each edge of the root gets the
    verdict of an ordinary call or return, at the event that breaks it."""
    _docs, _dx, cx = cardealer
    cases = [
        # text before the root: the start state has no text transition
        ([ev.text("5"), ev.start("dealer")], DATATYPE_MISMATCH, 0),
        # an end before the root: nothing to pop
        ([ev.end("dealer")], UNEXPECTED_END, 0),
        # a root other than the learned one
        ([ev.start("newcars")], UNEXPECTED_ELEMENT, 0),
        # the root closed from its entry, which is not a final state
        ([ev.start("dealer"), ev.end("dealer")], UNEXPECTED_END, 1),
        # the empty stream and an unclosed document: premature end of stream
        ([], PREMATURE_EOF, -1),
        ([ev.start("dealer"), ev.start("newcars")], PREMATURE_EOF, 1),
        # events after the root closes
        ([ev.start("dealer"), ev.start("newcars"), ev.end("newcars"),
          ev.start("usedcars"), ev.end("usedcars"), ev.end("dealer"),
          ev.start("dealer")], TRAILING_CONTENT, 6),
        # an end with no matching open
        ([ev.start("dealer"), ev.start("newcars"), ev.end("dealer")], UNEXPECTED_END, 2),
    ]
    for events, reason, index in cases:
        verdict = validate(cx, unchecked_stream(events))
        assert (verdict.accepted, verdict.reason, verdict.event_index) == (False, reason, index)
    closed = [ev.start("dealer"), ev.start("newcars"), ev.end("newcars"),
              ev.start("usedcars"), ev.end("usedcars"), ev.end("dealer")]
    assert validate(cx, unchecked_stream(closed)).accepted
    # labels that are not names and texts: a name's label as its string, a
    # text as a number
    named = [ev.Event(e.kind, e.label.render()) for e in closed]
    year = [ev.Event(e.kind, e.label) for e in ev.parse_document(
        b"<dealer><newcars/><usedcars><ad><model>m</model><year>1999</year></ad>"
        b"</usedcars></dealer>")]
    numeric = [ev.Event(ev.CHARS, 1999) if e.label == "1999" else e for e in year]
    for events in (named, numeric):
        with pytest.raises(TypeError):
            validate(cx, unchecked_stream(events))


def test_validate_reads_only_streams(cardealer, master_seed):
    """A list or an iterator of events raises TypeError.  On parsed corpus
    documents, structural-wrapping mutants and truncated event prefixes, a
    prefix is rejected where its whole stream is, or else runs out at its
    last event."""
    docs, _dx, cx = cardealer
    rng = random.Random(master_seed + 71)
    parsed = [ev.parse_document(ev.serialize_xml(d).encode()) for d in docs]
    mutants = []
    for seed, stream in enumerate(parsed):
        try:
            mutant = inject_attack(stream, STRUCTURAL_WRAPPING, seed)
        except InapplicableAttackError:
            continue
        mutants.append(ev.parse_document(ev.serialize_xml(mutant).encode()))
    reasons = set()
    for stream in parsed + mutants:
        verdict = validate(cx, stream)
        reasons.add(verdict.reason)
        events = list(stream)
        for form in (events, iter(stream)):
            with pytest.raises(TypeError):
                validate(cx, form)
        for cut in rng.sample(range(len(events)), 4):
            prefix = validate(cx, unchecked_stream(events[:cut]))
            if not verdict.accepted and verdict.event_index < cut:
                assert prefix == verdict
            else:
                assert (prefix.reason, prefix.event_index) == (PREMATURE_EOF, cut - 1)
            reasons.add(prefix.reason)
    assert {None, UNEXPECTED_ELEMENT, PREMATURE_EOF} <= reasons


def test_validate_reports_the_event_position(cardealer):
    """An event's index is its position: events carrying other indices are
    refused unless renumbered, and a rejection names the rejected event's
    position in every stream that holds it."""
    _docs, _dx, cx = cardealer
    stream = ev.parse_document(b"<dealer><newcars/><usedcars><ad><model>Astra</model>"
                               b"<year>20x5</year></ad></usedcars></dealer>")
    position = stream.labels.index("20x5")
    verdict = validate(cx, stream)
    assert (verdict.reason, verdict.event_index) == (DATATYPE_MISMATCH, position)
    gapped = [ev.Event(e.kind, e.label, 3 * e.index + 2) for e in stream]
    with pytest.raises(ev.InvariantViolation) as info:
        ev.stream_from_events(gapped)
    assert info.value.index == 0
    renumbered = ev.stream_from_events(gapped, reindex=True)
    assert renumbered == stream and validate(cx, renumbered) == verdict
    # an unchecked stream places each event at its position too
    assert validate(cx, unchecked_stream(gapped)) == verdict
    truncated = validate(cx, unchecked_stream(gapped[:position]))
    assert (truncated.reason, truncated.event_index) == (PREMATURE_EOF, position - 1)
    unknown = unchecked_stream([ev.Event(ev.START, ev.QName("", "dealer"), 5),
                                      ev.start("garage")])
    assert validate(cx, unknown).event_index == 1


def test_validate_is_deterministic(cardealer):
    docs, _dx, cx = cardealer
    for d in docs[:10]:
        assert validate(cx, d) == validate(cx, d)


def test_dxvpa_route_agrees_on_corpus(cardealer):
    docs, dx, cx = cardealer
    for d in docs:
        assert validate_dxvpa(dx, d).accepted == validate(cx, d).accepted


def test_equivalence_on_small_stream_enumeration(dts):
    """Exhaustive depth<=2/width<=2 streams: datatype-set semantics and
    compiled-mask semantics agree everywhere (the acceptance suite runs the
    full depth-3/width-3 enumeration)."""
    train = [
        ev.parse_document(b"<a><b>5</b></a>"),
        ev.parse_document(b"<a><b>false</b><b>7</b>tail x</a>"),
        ev.parse_document(b"<a/>"),
    ]
    learner = learn_corpus(dts, A11, train)
    dx = build_xvpa(learner.snapshot(), dts)
    cx = compile_cxvpa(dx)
    texts = ["5", "false", "x y", "##"]
    count = accepted = 0
    for stream in enumerate_streams(["a", "b"], texts, depth=2, width=2):
        left = validate_dxvpa(dx, stream).accepted
        right = validate(cx, stream).accepted
        assert left == right, stream.debug_lines()
        count += 1
        accepted += left
    assert count >= 40 and 0 < accepted < count


def test_validator_total_over_random_event_sequences(cardealer, master_seed):
    """Arbitrary raw event sequences always produce a verdict."""
    import random
    _docs, _dx, cx = cardealer
    rng = random.Random(master_seed + 61)
    makers = [lambda r: ev.start(r.choice(["dealer", "ad", "x"])),
              lambda r: ev.end(r.choice(["dealer", "ad", "x"])),
              lambda r: ev.text(r.choice(["5", "", "1999Z"]))]
    for _ in range(1500):
        events = [rng.choice(makers)(rng) for _ in range(rng.randint(0, 12))]
        verdict = validate(cx, unchecked_stream(events))
        assert isinstance(verdict.accepted, bool)
        if not verdict.accepted:
            assert verdict.reason is not None


def test_validator_is_reentrant_across_threads(cardealer):
    import threading
    docs, _dx, cx = cardealer
    errors = []

    def worker():
        try:
            for d in docs[:20]:
                assert validate(cx, d).accepted
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


# -- DOT export ----------------------------------------------------------------

def test_dot_export_structure(cardealer):
    _docs, dx, _cx = cardealer
    dot = to_dot(dx)
    assert dot.startswith("digraph xvpa {")
    assert dot.count("subgraph cluster_") == 7
    assert 'label="dealer (start)"' in dot
    assert 'label="gYear, gYearMonth"' in dot
    assert to_dot(dx) == dot  # deterministic
    compiled = to_dot(dx, compiled=True)
    assert 'label="p0"' in compiled


def test_compiled_dot_independent_of_hash_seed(dts, tmp_path):
    """Predicate numbers follow the sorted edges, not the order of a set of
    state names, so two string hash seeds render the same text."""
    train, _mutants = _load_benchmark_workloads().recursive(1, 4, 3, 80, wrapped=0)
    learner = learn_corpus(dts, AS22, [ev.parse_document(r) for r in train])
    state = tmp_path / "state.txt"
    state.write_text(dump_state(learner), encoding="utf-8")
    script = ("import sys\n"
              "from xvpa import build_xvpa, default_system, parse_state, to_dot\n"
              "dts = default_system()\n"
              "learner = parse_state(open(sys.argv[1], encoding='utf-8').read(), dts)\n"
              "sys.stdout.write(to_dot(build_xvpa(learner.snapshot(), dts), compiled=True))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    renderings = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script, str(state)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        renderings.append(done.stdout)
    assert 'label="p1"' in renderings[0]
    assert renderings[0] == renderings[1]


def test_dot_golden_small(dts):
    learner = learn_corpus(dts, A11, [ev.parse_document(b"<m>false</m>")])
    dot = to_dot(build_xvpa(learner.snapshot(), dts))
    assert dot == (
        'digraph xvpa {\n'
        '  rankdir=LR;\n'
        '  node [shape=circle fontsize=10];\n'
        '  subgraph cluster_0 {\n'
        '    label="m (start)";\n'
        '    s0 [shape=doublecircle label="x"];\n'
        '    s1 [shape=circle style=bold label="e"];\n'
        '  }\n'
        '  s1 -> s0 [label="boolean"];\n'
        '}\n'
    )


# a fold, a module with two exits (``a`` closes empty or after ``b``) and a
# callee shared by two callers; every exit is drawn with every return of
# its module, so ``a``'s four returns give eight dotted edges
_GOLDEN_MULTI_EXIT_DOT = (
    'digraph xvpa {\n'
    '  rankdir=LR;\n'
    '  node [shape=circle fontsize=10];\n'
    '  subgraph cluster_0 {\n'
    '    label="b";\n'
    '    s0 [shape=doublecircle label="x"];\n'
    '    s1 [shape=circle style=bold label="e"];\n'
    '  }\n'
    '  subgraph cluster_1 {\n'
    '    label="a";\n'
    '    s2 [shape=doublecircle label="x"];\n'
    '    s3 [shape=doublecircle style=bold label="e"];\n'
    '  }\n'
    '  subgraph cluster_2 {\n'
    '    label="p";\n'
    '    s4 [shape=doublecircle label="x"];\n'
    '    s5 [shape=circle style=bold label="e"];\n'
    '  }\n'
    '  subgraph cluster_3 {\n'
    '    label="q";\n'
    '    s6 [shape=doublecircle label="x"];\n'
    '    s7 [shape=circle style=bold label="e"];\n'
    '  }\n'
    '  subgraph cluster_4 {\n'
    '    label="root (start)";\n'
    '    s8 [shape=circle label="q"];\n'
    '    s9 [shape=doublecircle label="x"];\n'
    '    s10 [shape=circle style=bold label="e"];\n'
    '  }\n'
    '  s1 -> s0 [label="unsignedByte"];\n'
    '  s0 -> s2 [label="/b" style=dotted];\n'
    '  s3 -> s1 [label="b" style=dashed];\n'
    '  s2 -> s4 [label="/a" style=dotted];\n'
    '  s2 -> s4 [label="/a" style=dotted];\n'
    '  s2 -> s6 [label="/a" style=dotted];\n'
    '  s2 -> s6 [label="/a" style=dotted];\n'
    '  s3 -> s4 [label="/a" style=dotted];\n'
    '  s3 -> s4 [label="/a" style=dotted];\n'
    '  s3 -> s6 [label="/a" style=dotted];\n'
    '  s3 -> s6 [label="/a" style=dotted];\n'
    '  s4 -> s3 [label="a" style=dashed];\n'
    '  s5 -> s3 [label="a" style=dashed];\n'
    '  s4 -> s8 [label="/p" style=dotted];\n'
    '  s6 -> s3 [label="a" style=dashed];\n'
    '  s7 -> s3 [label="a" style=dashed];\n'
    '  s6 -> s9 [label="/q" style=dotted];\n'
    '  s8 -> s7 [label="q" style=dashed];\n'
    '  s10 -> s5 [label="p" style=dashed];\n'
    '}\n'
)


def test_dot_golden_multi_exit_shared_callee(dts):
    doc = ev.parse_document(b"<root><p><a><b>5</b></a><a/></p><q><a><b>7</b></a><a/></q></root>")
    dxvpa = build_xvpa(learn_corpus(dts, A12, [doc]).snapshot(), dts)
    assert len(dxvpa.modules[("p", "a")].exits) == 2
    assert to_dot(dxvpa) == _GOLDEN_MULTI_EXIT_DOT
    assert to_dot(dxvpa, compiled=True) == _GOLDEN_MULTI_EXIT_DOT.replace(
        'label="unsignedByte"', 'label="p0"')


def test_dot_datatype_labels_escape_quotes_and_backslashes(tmp_path):
    """A datatype name holding ``"`` and ``\\`` is escaped in a text
    edge's label, as element names are in the others."""
    with open(DEFAULT_PATH, encoding="utf-8") as fh:
        definitions = re.sub(r"\bboolean\b", lambda _m: 'b"o\\ol', fh.read())
    path = tmp_path / "dts.txt"
    path.write_text(definitions, encoding="utf-8")
    renamed = load_datatype_system(str(path))
    learner = learn_corpus(renamed, A11, [ev.parse_document(b"<m>false</m>")])
    dot = to_dot(build_xvpa(learner.snapshot(), renamed))
    assert '  s1 -> s0 [label="b\\"o\\\\ol"];\n' in dot
    labels = re.findall(r'label=("(?:[^"\\]|\\.)*")(?=[ \];])', dot)
    assert len(labels) == dot.count("label=")


def test_dot_labels_escape_quotes_and_backslashes(dts):
    """Element names taking ``"`` or ``\\`` from their namespace are
    escaped, so every label is one well-formed quoted DOT string."""
    raw = b'<r xmlns:p="a&quot;b\\c"><p:x>5</p:x><p:x/></r>'
    dxvpa = build_xvpa(learn_corpus(dts, A11, [ev.parse_document(raw)]).snapshot(), dts)
    for compiled in (False, True):
        dot = to_dot(dxvpa, compiled=compiled)
        labels = re.findall(r'label=("(?:[^"\\]|\\.)*")(?=[ \];])', dot)
        assert len(labels) == dot.count("label=")
        assert r'"{a\"b\\c}x"' in labels
        assert r'"/{a\"b\\c}x"' in labels
