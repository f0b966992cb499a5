"""The learner's whole lifecycle as one stateful property test: learn,
unlearn, sanitize, save and load, and compile, interleaved in any order,
with the invariants that each operation keeps checked after every step."""

from hypothesis import seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule, run_state_machine_as_test)

from xvpa.automata import build_xvpa, compile_cxvpa, minimize, validate
from xvpa.events import CHARS, DocumentEventStream, parse_document, serialize_xml
from xvpa.harness import cardealer_grammar, generate
from xvpa.learner import (ANCESTOR, ANCESTOR_SIBLING, Learner, MissingTransitionError,
                          NamingScheme, SanitizedStateError)
from xvpa.persistence import dump_state, parse_state

from .conftest import MASTER_SEED
from .oracles import minimize_pairwise, reference_run, validate_dxvpa
from .test_automata import _load_benchmark_workloads, assert_same_automaton
from .test_learner import run_lists
from .test_validator import batch, outcome, push, split

# texts that keep a document's shape in place of its own: no whitespace at
# either end, no markup
VARIANT_TEXTS = ["7", "12", "true", "x y", "cc", "P1Y", "2015-01-01", "-3.5", "caf\u00e9"]

ATTRIBUTES = [b'<a xmlns:p="urn:p" p:z="1" id="7"><b>x</b></a>',
              b'<a id="8"><b>5</b><b k="no">y z</b></a>',
              b'<a xmlns:p="urn:p" id="9" p:z="true"><b/></a>',
              b'<a><b>12</b></a>']


def _families():
    """Document pools, one root element each, so every pool makes a model."""
    cardealer = [serialize_xml(d).encode() for d in
                 generate(cardealer_grammar(), 6, MASTER_SEED + 61)]
    recursive, _mutants = _load_benchmark_workloads().recursive(MASTER_SEED, 3, 2, 6, wrapped=0)
    return {"cardealer": cardealer, "recursive": recursive, "attributes": ATTRIBUTES}


FAMILIES = _families()


def _foreign(pool):
    """Documents no learner of ``pool`` has seen: a foreign root, and a
    foreign element first under the pool's root."""
    foreign = [b"<zz><y>5</y></zz>", pool[0].replace(b">", b"><zz>5</zz>", 1)]
    for raw in foreign:
        parse_document(raw)  # well-formed
    return foreign


class Lifecycle(RuleBasedStateMachine):
    def __init__(self, dts):
        super().__init__()
        self.dts = dts
        # the documents learned and not unlearned, in order, each with the
        # state's bytes before it was learned, or None once unlearning a
        # document below it has made those bytes unreachable
        self.learned: list[tuple[bytes, str | None]] = []
        self.sanitized = False

    @initialize(family=st.sampled_from(sorted(FAMILIES)),
                scheme=st.sampled_from([NamingScheme(ANCESTOR, 1, 1), NamingScheme(ANCESTOR, 1, 2),
                                        NamingScheme(ANCESTOR_SIBLING, 2, 2)]))
    def start(self, family, scheme):
        self.pool = FAMILIES[family]
        self.foreign = _foreign(self.pool)
        self.learner = Learner(self.dts, scheme)

    @rule(data=st.data())
    def learn(self, data):
        for raw in data.draw(st.lists(st.sampled_from(self.pool), min_size=1, max_size=3)):
            before = dump_state(self.learner)
            changes = self.learner.learn(parse_document(raw))
            assert self.learner.mind_changes[-1] == changes
            self.learned.append((raw, before))

    @precondition(lambda self: self.learned)
    @rule(data=st.data())
    def learn_variant(self, data):
        """A learned document with other texts: the same shape, so its run
        comes from the shape memo once the shape is kept, with text keys
        that may be new."""
        raw, _before = data.draw(st.sampled_from(self.learned))
        stream = parse_document(raw)
        texts = iter(data.draw(st.lists(st.sampled_from(VARIANT_TEXTS),
                                        min_size=stream.kinds.count(CHARS),
                                        max_size=stream.kinds.count(CHARS))))
        labels = tuple(next(texts) if kind == CHARS else label
                       for kind, label in zip(stream.kinds, stream.labels))
        variant = serialize_xml(DocumentEventStream(stream.kinds, labels)).encode()
        kinds, stream = stream.kinds, parse_document(variant)
        assert (stream.kinds, stream.labels) == (kinds, labels)
        want = run_lists([(key, *value) for key, value in taken.items()]
                         for taken in reference_run(self.learner, stream))
        assert run_lists(self.learner._run(stream, admit=True)) == want
        before = dump_state(self.learner)
        changes = self.learner.learn(stream)
        assert self.learner.mind_changes[-1] == changes
        self.learned.append((variant, before))

    @precondition(lambda self: self.learned and not self.sanitized)
    @rule()
    def unlearn_last(self):
        raw, before = self.learned.pop()
        self.learner.unlearn(parse_document(raw))
        if before is not None:
            assert dump_state(self.learner) == before

    @precondition(lambda self: self.learned and not self.sanitized)
    @rule(data=st.data())
    def unlearn_any(self, data):
        at = data.draw(st.integers(0, len(self.learned) - 1))
        self.learner.unlearn(parse_document(self.learned.pop(at)[0]))
        # the series drops its last entry, not this document's
        self.learned[at:] = [(raw, None) for raw, _before in self.learned[at:]]

    @precondition(lambda self: self.learned)
    @rule(data=st.data())
    def unlearn_never_learned(self, data):
        raw = data.draw(st.sampled_from(self.foreign))
        self._refused(raw, SanitizedStateError if self.sanitized else MissingTransitionError)

    @precondition(lambda self: len(self.learned) > 2)
    @rule()
    def sanitize(self):
        before = dump_state(self.learner)
        if not self.learner.sanitize():
            assert dump_state(self.learner) == before
            return
        self.sanitized = True
        self.learned = [(raw, None) for raw, _before in self.learned]
        for raw in [raw for raw, _before in self.learned[-1:]] + self.foreign:
            self._refused(raw, SanitizedStateError)

    @rule()
    def save_and_load(self):
        text = dump_state(self.learner)
        self.learner = parse_state(text, self.dts)
        assert self.learner.sanitized == self.sanitized

    @precondition(lambda self: self.learned)
    @rule(data=st.data())
    def compile_and_validate(self, data):
        dxvpa = build_xvpa(self.learner.snapshot(), self.dts)
        model = compile_cxvpa(dxvpa)
        for raw, _before in self.learned:
            assert self.sanitized or validate(model, parse_document(raw)).accepted
        for raw in self.pool + self.foreign:
            stream = parse_document(raw)
            want = outcome(validate(model, stream))
            assert want == outcome(validate_dxvpa(dxvpa, stream))
            assert batch(model, raw) == want
            cuts = data.draw(st.lists(st.integers(0, len(raw)), max_size=3))
            assert push(model, split(raw, cuts)) == want, cuts
        raw_dxvpa = build_xvpa(self.learner.snapshot(), self.dts, minimize_modules=False)
        assert_same_automaton(minimize(raw_dxvpa), minimize_pairwise(raw_dxvpa))

    def _refused(self, raw, error):
        """Unlearning ``raw`` raises ``error`` and changes nothing."""
        before = dump_state(self.learner)
        try:
            self.learner.unlearn(parse_document(raw))
        except error:
            pass
        else:
            raise AssertionError(f"unlearn of {raw[:40]!r} did not raise {error.__name__}")
        assert dump_state(self.learner) == before

    @invariant()
    def round_trip_is_byte_identical(self):
        text = dump_state(self.learner)
        assert dump_state(parse_state(text, self.dts)) == text

    @invariant()
    def series_counts_the_documents(self):
        assert self.learner.documents_learned == len(self.learner.mind_changes) == len(self.learned)


def test_learner_lifecycle(dts, master_seed):
    run_state_machine_as_test(
        seed(master_seed)(lambda: Lifecycle(dts)),
        settings=settings(max_examples=60, stateful_step_count=25, deadline=None))
