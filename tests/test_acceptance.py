"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  All randomness is anchored at the fixed master seed.
"""

import gc
import random
import re
import time

import pytest

from xvpa import events as ev
from xvpa.automata import build_xvpa, compile_cxvpa, validate
from xvpa.datatypes import load_datatype_system
from xvpa.harness import (CDATA_SCRIPT_INJECTION, HIGH_NODE_COUNT,
                          STRUCTURAL_ATTACK_KINDS, build_cardealer_scenario,
                          cardealer_grammar, evaluate, generate)
from xvpa.learner import Learner, NamingScheme
from xvpa.persistence import dump_state

from .conftest import MASTER_SEED
from .oracles import (brute_force_minimal, enumerate_streams, is_antichain, member_accepts,
                      sample_accepted_stream, sample_string, structure, validate_dxvpa)
from .samplers import mixed_corpus

A11 = NamingScheme("ancestor", 1, 1)
A12 = NamingScheme("ancestor", 1, 2)
ALS11 = NamingScheme("ancestor-sibling", 1, 1)
ALS22 = NamingScheme("ancestor-sibling", 2, 2)


def _report(number, name):
    def wrap(fn):
        import functools

        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.monotonic()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"\n[criterion {number}] {name}: FAIL ({exc})")
                raise
            elapsed = time.monotonic() - started
            suffix = f" - {detail}" if detail else ""
            print(f"\n[criterion {number}] {name}: PASS ({elapsed:.2f}s){suffix}")
        return run
    return wrap


def _learn_all(dts, scheme, docs):
    learner = Learner(dts, scheme)
    for d in docs:
        learner.learn(d)
    return learner


def _model_of(dts, learner):
    return compile_cxvpa(build_xvpa(learner.snapshot(), dts))


@_report(1, "datatype pipeline point values")
def test_criterion_1_datatype_point_values():
    started = time.monotonic()
    fresh = load_datatype_system()  # include a cold load in the budget
    assert fresh.minimal_datatypes("false") == {"language", "boolean", "NCName"}
    folded = None
    for text in ["1", "0", "true", "33"]:
        inferred = fresh.infer(text)
        folded = inferred if folded is None else fresh.maxima(folded | inferred)
    assert folded == {"boolean", "unsignedByte"}
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    return f"minLex(false) and folded minReq exact, {elapsed * 1000:.0f}ms"


@_report(2, "cardealer golden automaton")
def test_criterion_2_cardealer_golden(dts):
    started = time.monotonic()
    docs = generate(cardealer_grammar(), 40, MASTER_SEED)
    assert len(docs) >= 30
    # the corpus covers all productions: empty and repeated ad lists on
    # both branches, and both temporal datatypes
    def ad_counts(d, branch):
        out, depth_in = [], None
        count = 0
        for e in d:
            if e.kind == ev.START and e.label.local == branch:
                count = 0
            elif e.kind == ev.START and e.label.local == "ad":
                count += 1
            elif e.kind == ev.END and e.label.local == branch:
                out.append(count)
        return out
    for branch in ("newcars", "usedcars"):
        counts = [c for d in docs for c in ad_counts(d, branch)]
        assert 0 in counts and max(counts) >= 2, branch
    year_texts = [str(e.label) for d in docs for e in d if e.kind == ev.CHARS]
    assert any(member_accepts(dts, "gYear", t) for t in year_texts)
    assert any(member_accepts(dts, "gYearMonth", t) for t in year_texts)
    learner = _learn_all(dts, A12, docs)
    dxvpa = build_xvpa(learner.snapshot(), dts)
    names = sorted(" ".join(k) for k in dxvpa.modules)
    assert len(dxvpa.modules) == 7, names
    assert names == ["ad model", "ad year", "dealer", "dealer newcars",
                     "dealer usedcars", "newcars ad", "usedcars ad"]
    model_callers = {key for key, mod in dxvpa.modules.items()
                     for (_q, _c), callee in mod.calls.items() if callee == ("ad", "model")}
    assert model_callers == {("newcars", "ad"), ("usedcars", "ad")}
    year = dxvpa.modules[("ad", "year")]
    datatype_sets = {frozenset(d) for _dst, d in year.internals.values()}
    assert datatype_sets == {frozenset({"gYear", "gYearMonth"})}
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    return "7 modules, shared model module, year = {gYear, gYearMonth}"


@_report(3, "detection on the bundled scenario")
def test_criterion_3_detection(dts):
    started = time.monotonic()
    corpus = build_cardealer_scenario(MASTER_SEED, train_count=50, normal_count=1000)
    total_attacks = sum(len(v) for v in corpus.test_attacks.values())
    assert len(corpus.train) == 50 and len(corpus.test_normal) == 1000
    structural_and_datatype = sum(
        len(v) for k, v in corpus.test_attacks.items() if k != HIGH_NODE_COUNT)
    assert structural_and_datatype >= 15
    learner = _learn_all(dts, A12, corpus.train)
    model = _model_of(dts, learner)
    report = evaluate(model, corpus)
    assert report.precision == 1.0, report.summary()
    assert report.fpr == 0.0, report.summary()
    assert report.structural_recall() == 1.0, report.summary()
    for kind in STRUCTURAL_ATTACK_KINDS:
        assert report.kind_recall(kind) == 1.0
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    return (f"Pr=100% FPR=0% structural Re=100% on "
            f"{len(corpus.test_normal)} normals / {total_attacks} attacks")


@_report(4, "documented limitation: script injection pinned as a miss")
def test_criterion_4_script_injection_miss(dts):
    corpus = build_cardealer_scenario(MASTER_SEED, train_count=50, normal_count=10)
    learner = _learn_all(dts, A12, corpus.train)
    dxvpa = build_xvpa(learner.snapshot(), dts)
    model_field = dxvpa.modules[("ad", "model")]
    (dtset,) = {frozenset(d) for _dst, d in model_field.internals.values()}
    assert dtset == {"normalizedString"}, dtset
    model = _model_of(dts, learner)
    misses = corpus.test_attacks[CDATA_SCRIPT_INJECTION]
    assert misses
    for stream in misses:
        assert validate(model, stream).accepted  # expected miss
    return f"{len(misses)} CDATA payloads accepted by the normalizedString field"


# ---------------------------------------------------------------------------
# criterion 5: the property suite (>= 200 randomized cases each)

@_report(5, "property: consistency, all trained documents accepted")
def test_criterion_5a_consistency(dts):
    rng = random.Random(MASTER_SEED + 50)
    total = 0
    for trial, scheme in enumerate([A11, A12, ALS11, ALS22] * 3):
        docs = generate(cardealer_grammar(), 20, rng.getrandbits(32))
        learner = _learn_all(dts, scheme, docs)
        model = _model_of(dts, learner)
        for d in docs:
            assert validate(model, d).accepted, (scheme, d.debug_lines())
        total += len(docs)
    assert total >= 200
    return f"{total} learned documents revalidated across 4 schemes"


@_report(5, "property: permutation invariance of trimmed snapshots")
def test_criterion_5b_permutation_invariance(dts):
    rng = random.Random(MASTER_SEED + 51)
    cases = 0
    for corpus_round in range(40):
        scheme = [A11, A12, ALS11, ALS22][corpus_round % 4]
        docs = generate(cardealer_grammar(), 8, rng.getrandbits(32))
        baseline = None
        for _ in range(5):
            order = list(docs)
            rng.shuffle(order)
            learner = _learn_all(dts, scheme, order)
            # the series is order-dependent by design
            text = re.sub("(?m)^mindchanges .*\n", "", dump_state(learner))
            baseline = baseline or text
            assert text == baseline
            cases += 1
    assert cases >= 200
    return f"{cases} shuffled learning orders, identical serialized automata"


@_report(5, "property: strong monotonicity under additional learning")
def test_criterion_5c_strong_monotonicity(dts):
    rng = random.Random(MASTER_SEED + 52)
    checked = 0
    for round_ in range(10):
        scheme = [A11, A12][round_ % 2]
        docs = generate(cardealer_grammar(), 24, rng.getrandbits(32))
        learner = _learn_all(dts, scheme, docs[:12])
        model = _model_of(dts, learner)
        samples = [sample_accepted_stream(model, dts, rng, sample_string) for _ in range(20)]
        for s in samples:
            assert validate(model, s).accepted
        for d in docs[12:]:
            learner.learn(d)
        grown = _model_of(dts, learner)
        for s in samples:
            assert validate(grown, s).accepted, s.debug_lines()
        checked += len(samples)
    assert checked >= 200
    return f"{checked} sampled accepted streams stay accepted"


@_report(5, "property: learn/unlearn byte-identical inverse")
def test_criterion_5d_unlearn_inverse(dts):
    rng = random.Random(MASTER_SEED + 53)
    cases = 0
    for round_ in range(80):
        scheme = [A11, A12, ALS11, ALS22][round_ % 4]
        docs = generate(cardealer_grammar(), rng.randint(1, 6), rng.getrandbits(32))
        learner = _learn_all(dts, scheme, docs[:-1])
        serialized = dump_state(learner)
        learner.learn(docs[-1])
        learner.unlearn(docs[-1])
        assert dump_state(learner) == serialized
        # and all the way down to the fresh state
        for d in reversed(docs[:-1]):
            learner.unlearn(d)
        assert dump_state(learner) == dump_state(Learner(dts, scheme))
        cases += len(docs)
    assert cases >= 200
    return f"{cases} documents unlearned back to byte-identical states"


@_report(5, "property: trim idempotence")
def test_criterion_5e_trim_idempotence(dts):
    rng = random.Random(MASTER_SEED + 54)
    cases = 0
    for round_ in range(200):
        scheme = [A11, A12, ALS11, ALS22][round_ % 4]
        docs = generate(cardealer_grammar(), rng.randint(1, 4), rng.getrandbits(32))
        learner = _learn_all(dts, scheme, docs)
        if rng.random() < 0.3 and len(docs) > 1:
            learner.unlearn(docs[-1])
        snap = learner.vpa.trimmed(dts)
        assert snap.trimmed(dts) == snap
        cases += 1
    assert cases >= 200
    return f"{cases} snapshots, trim(trim(A)) == trim(A)"


@_report(5, "property: minimal-datatype antichain + brute-force equivalence")
def test_criterion_5f_minlex_oracle(dts):
    rng = random.Random(MASTER_SEED + 55)
    corpus = mixed_corpus(rng, 300)
    for text in corpus:
        fast = dts.minimal_datatypes(text)
        assert fast == brute_force_minimal(dts, text), text
        assert fast and is_antichain(fast)
    assert len(corpus) >= 200
    return f"{len(corpus)} strings, pruning == brute force"


@_report(5, "property: aggregate idempotence and commutativity")
def test_criterion_5g_aggregate_laws(dts):
    rng = random.Random(MASTER_SEED + 56)
    sets = [dts.infer(t) for t in mixed_corpus(rng, 150)]
    cases = 0
    for _ in range(200):
        a, b = rng.choice(sets), rng.choice(sets)
        assert dts.maxima(a | b) == dts.maxima(b | a)
        assert dts.maxima(a | a) == a
        assert is_antichain(dts.maxima(a | b))
        cases += 1
    return f"{cases} pairs"


@_report(5, "property: dXVPA/cXVPA equivalence on exhaustive small streams")
def test_criterion_5h_equivalence_enumeration(dts):
    train = [
        ev.parse_document(b"<a/>"),
        ev.parse_document(b"<a>5</a>"),
        ev.parse_document(b"<a><b>5</b><b>false</b><b>7</b></a>"),
        ev.parse_document(b"<a><a>2001Z</a><b>5</b></a>"),
    ]
    learner = _learn_all(dts, A11, train)
    dxvpa = build_xvpa(learner.snapshot(), dts)
    model = compile_cxvpa(dxvpa)
    total = accepted = 0
    for stream in enumerate_streams(["a", "b"], ["5", "2001Z"], depth=3, width=3):
        reference = validate_dxvpa(dxvpa, stream).accepted
        compiled = validate(model, stream).accepted
        assert reference == compiled, stream.debug_lines()
        total += 1
        accepted += reference
    assert total > 100_000 and 0 < accepted < total
    return f"{total} streams enumerated, {accepted} accepted, routes agree"


@_report(6, "sanitization removes the poisoned branch / reverts when thin")
def test_criterion_6_sanitize(dts):
    doc_a = ev.parse_document(b"<r><x>5</x></r>")
    doc_b = ev.parse_document(b"<r><intruder>drop it</intruder></r>")
    learner = Learner(dts, A11)
    for _ in range(99):
        learner.learn(doc_a)
    learner.learn(doc_b)
    poisoned_model = _model_of(dts, learner)
    assert validate(poisoned_model, doc_b).accepted
    assert learner.sanitize() is True
    reference = Learner(dts, A11)
    reference.learn(doc_a)
    assert structure(learner.vpa) == structure(reference.snapshot())
    cleaned = _model_of(dts, learner)
    assert validate(cleaned, doc_a).accepted
    assert not validate(cleaned, doc_b).accepted

    single = Learner(dts, A11)
    single.learn(doc_a)
    before = dump_state(single)
    assert single.sanitize() is False
    assert dump_state(single) == before
    return "poisoned branch removed; single-document state reverted"


@_report(7, "mind-change convergence on the bundled scenario")
def test_criterion_7_mind_changes(dts):
    corpus = build_cardealer_scenario(MASTER_SEED, train_count=50, normal_count=10)
    for trial in range(15):
        rng = random.Random(MASTER_SEED * 7_654_321 + trial)
        order = list(corpus.train)
        rng.shuffle(order)
        learner = Learner(dts, A12)
        series = [learner.learn(d) for d in order]
        half = len(series) // 2
        assert series[0] == max(series), series
        assert all(m == 0 for m in series[half:]), series
    return "15 trials: first step maximal, final 50% of steps all zero"


@_report(8, "validation cost scales linearly with event count")
def test_criterion_8_streaming_cost(dts):
    unit = b"<i>5</i>"
    small = ev.parse_document(b"<root>" + unit * 12_500 + b"</root>")   # 50k events
    large = ev.parse_document(b"<root>" + unit * 25_000 + b"</root>")   # 100k events
    learner = _learn_all(dts, A11, [ev.parse_document(b"<root><i>5</i><i>6</i></root>")])
    model = _model_of(dts, learner)

    def timed(stream):
        t0 = time.process_time()
        verdict = validate(model, stream)
        elapsed = time.process_time() - t0
        assert verdict.accepted
        return elapsed

    # interleaved, so a slow spell of the machine hits both sizes alike, and
    # with the collector idle, so neither size pays for the other's garbage
    gc.collect()
    gc.disable()
    try:
        pairs = [(timed(small), timed(large)) for _ in range(5)]
    finally:
        gc.enable()
    t_small = min(p[0] for p in pairs)
    t_large = min(p[1] for p in pairs)
    ratio = t_large / t_small
    assert ratio <= 3.0, f"ratio {ratio:.2f}"
    return f"2x events -> {ratio:.2f}x process time ({t_small * 1000:.0f}ms vs {t_large * 1000:.0f}ms)"
