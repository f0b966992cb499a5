"""dXVPA generation, module folding, predicate compilation, validation."""

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
from xvpa.automata import (DATATYPE_MISMATCH, PREMATURE_EOF, TRAILING_CONTENT,
                           UNEXPECTED_ELEMENT, UNEXPECTED_END,
                           AutomatonStructureError, EmptyLanguageError,
                           build_xvpa, compile_cxvpa, minimize, to_dot, validate)
from xvpa.harness import cardealer_grammar, generate
from xvpa.learner import Learner, NamingScheme
from xvpa.persistence import dump_state, parse_state

from .oracles import enumerate_streams, minimize_pairwise, sample_string, validate_dxvpa
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
    assert dxvpa.root_element == "dealer"
    assert dxvpa.m0 == ("dealer",)
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


def test_multiple_roots_rejected(dts):
    learner = learn_corpus(dts, A11, [ev.parse_document(b"<a/>"), ev.parse_document(b"<b/>")])
    with pytest.raises(AutomatonStructureError):
        build_xvpa(learner.snapshot(), dts)


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
    entry is dropped by the fold, not mapped through the pairing."""
    learner = parse_state(_SANITIZED_EMPTY.format(hash=dts.content_hash), dts)
    _assert_folds_like_unminimized(learner.snapshot(), dts, accepts_some=False)


def _assert_folds_like_unminimized(snapshot, dts, accepts_some):
    folded_dx = build_xvpa(snapshot, dts)
    full_dx = build_xvpa(snapshot, dts, minimize_modules=False)
    assert len(folded_dx.modules) < len(full_dx.modules)
    folded, full = compile_cxvpa(folded_dx), compile_cxvpa(full_dx)
    bodies = list(enumerate_streams(["c", "a"], ["x y", "5"], depth=4, width=1))
    bodies += enumerate_streams(["c", "a"], ["x y", "5"], depth=3, width=2)
    accepted = 0
    for body in bodies:
        stream = ev.stream_from_events([ev.start("r"), *body, ev.end("r")], reindex=True)
        left, right = validate(folded, stream), validate(full, stream)
        assert (left.accepted, left.reason, left.event_index) == \
            (right.accepted, right.reason, right.event_index), stream.debug_lines()
        accepted += left.accepted
    assert bool(accepted) == accepts_some


def test_structural_invariants_hold(cardealer, dts):
    _docs, dxvpa, _cx = cardealer
    # re-runs the constructor checks (entry states, mixed content)
    type(dxvpa)(dxvpa.modules, dxvpa.m0, dxvpa.root_element, dts)
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
    assert got.m0 == want.m0
    for key, mod in want.modules.items():
        assert got.modules[key] == mod, key
    assert to_dot(got) == to_dot(want)
    assert to_dot(got, compiled=True) == to_dot(want, compiled=True)


def assert_minimize_matches_pairwise(dts, scheme, docs):
    raw = build_xvpa(learn_corpus(dts, scheme, docs).snapshot(), dts, minimize_modules=False)
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
    assert_minimize_matches_pairwise(dts, scheme, docs)


def test_fold_of_self_calling_module_rewrites_its_returns(dts):
    """A module that calls itself keeps returns popping its own states;
    folded into its caller, they are rewritten onto the caller's states
    instead of naming states of the removed module."""
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


# -- compilation ----------------------------------------------------------------

def test_year_predicate_accepts_both_members(cardealer, dts):
    _docs, _dx, cx = cardealer
    key = frozenset({"gYear", "gYearMonth"})
    predicate = cx.predicates[key]
    for text in ("2015", "0999", "2015Z", "2015-09", "1999-01Z", "-2015"):
        assert predicate.accepts(text), text
    for text in ("20x5", "2015-13", "15", "", "x"):
        assert not predicate.accepts(text), text


def test_single_datatype_predicate_equals_member(dts, master_seed):
    """A one-member predicate selects that member's bit alone and agrees
    with the member's DFA on its own strings and on every other kind."""
    learner = learn_corpus(dts, A11, [ev.parse_document(b"<m>false</m>")])
    cx = compile_cxvpa(build_xvpa(learner.snapshot(), dts))
    (key,) = cx.predicates
    assert key == frozenset({"boolean"})
    predicate = cx.predicates[key]
    assert predicate.mask == 1 << dts.names().index("boolean")
    rng = random.Random(master_seed + 12)
    boolean = dts.datatypes["boolean"].dfa
    texts = [sample_string(boolean, rng) for _ in range(50)]
    texts += mixed_corpus(rng, 300) + ["", "tru", "True", "1 ", "false0"]
    assert any(dts.accepts("boolean", t) for t in texts)
    assert not all(dts.accepts("boolean", t) for t in texts)
    for text in texts:
        assert predicate.accepts(text) == boolean.accepts(text), text


def test_predicate_membership_cross_check(cardealer, dts, master_seed):
    """1000 random strings: predicate acceptance iff acceptance by at
    least one member datatype."""
    _docs, _dx, cx = cardealer
    rng = random.Random(master_seed + 11)
    pool = sorted(dts.names())
    for key, predicate in cx.predicates.items():
        for _ in range(1000 // max(1, len(cx.predicates))):
            name = rng.choice(pool)
            text = sample(name, rng)
            expected = any(dts.accepts(member, text) for member in key)
            assert predicate.accepts(text) == expected, (key, text)


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
    _docs, _dx, cx = cardealer
    # unclosed document: premature end of stream
    partial = [ev.start("dealer"), ev.start("newcars")]
    assert validate(cx, partial).reason == PREMATURE_EOF
    # events after the root closes
    trailing = [ev.start("dealer"), ev.start("newcars"), ev.end("newcars"),
                ev.start("usedcars"), ev.end("usedcars"), ev.end("dealer"),
                ev.start("dealer")]
    assert validate(cx, trailing).reason == TRAILING_CONTENT
    # an end with no matching open
    stray = [ev.start("dealer"), ev.start("newcars"), ev.end("dealer")]
    assert validate(cx, stray).reason == UNEXPECTED_END


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
    predicate semantics agree everywhere (the acceptance suite runs the
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
        verdict = validate(cx, events)
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
