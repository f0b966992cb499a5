"""Corpus generation, attack injection, and detection metrics.

Replaces external dataset tooling with deterministic generators: a typed
grammar (sequence, optional, choice, bounded repetition; text samplers on
simple types) produces conforming documents, mutation operators turn
normal documents into the classic XML attack classes, and the evaluator
tallies detection performance of a compiled validator against a labeled
corpus.

All randomness flows from explicit seeds; a scenario regenerated with the
same seed is byte-identical after serialization.  Trials are independent
and may run in parallel, each owning its learner state.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from random import Random

from . import events as ev
from .automata import build_xvpa, compile_cxvpa, validate
from .events import CHARS, END, START, DocumentEventStream, Event
from .learner import Learner, NamingScheme

HIGH_NODE_COUNT = "high-node-count"
COERCIVE_PARSING = "coercive-parsing"
OVERSIZED_PAYLOAD = "oversized-payload"
CDATA_SCRIPT_INJECTION = "cdata-script-injection"
SQL_INJECTION_TEXT = "sql-injection-text"
STRUCTURAL_WRAPPING = "structural-wrapping"

ATTACK_KINDS = (HIGH_NODE_COUNT, COERCIVE_PARSING, OVERSIZED_PAYLOAD,
                CDATA_SCRIPT_INJECTION, SQL_INJECTION_TEXT, STRUCTURAL_WRAPPING)

# attacks whose signature is out-of-language document structure
STRUCTURAL_ATTACK_KINDS = frozenset({STRUCTURAL_WRAPPING, COERCIVE_PARSING})


class InvalidGrammarError(ValueError):
    pass


class InapplicableAttackError(ValueError):
    """The document lacks the feature this mutation needs."""


# ---------------------------------------------------------------------------
# generator grammar

@dataclass(frozen=True)
class Seq:
    items: tuple


@dataclass(frozen=True)
class Choice:
    options: tuple


@dataclass(frozen=True)
class Opt:
    item: object
    p: float = 0.5


@dataclass(frozen=True)
class Rep:
    item: object
    lo: int
    hi: int


@dataclass(frozen=True)
class Ref:
    type_name: str


@dataclass(frozen=True)
class TextSampler:
    name: str
    draw: object  # Callable[[Random], str]


@dataclass(frozen=True)
class TypeDef:
    element: str
    content: object = None          # complex types
    text: TextSampler | None = None  # simple types


@dataclass(frozen=True)
class GeneratorGrammar:
    root: str
    types: dict

    def __post_init__(self):
        if self.root not in self.types:
            raise InvalidGrammarError(f"root type {self.root!r} is undefined")
        for name, tdef in self.types.items():
            if (tdef.content is None) == (tdef.text is None):
                raise InvalidGrammarError(
                    f"type {name!r} must have either content or a text sampler")
            if tdef.content is not None:
                self._check(tdef.content, name)

    def _check(self, node, owner):
        if isinstance(node, Seq):
            for item in node.items:
                self._check(item, owner)
        elif isinstance(node, Choice):
            if not node.options:
                raise InvalidGrammarError(f"empty choice in {owner!r}")
            for item in node.options:
                self._check(item, owner)
        elif isinstance(node, Opt):
            self._check(node.item, owner)
        elif isinstance(node, Rep):
            if node.lo < 0 or node.hi < node.lo:
                raise InvalidGrammarError(f"bad repetition bounds in {owner!r}")
            self._check(node.item, owner)
        elif isinstance(node, Ref):
            if node.type_name not in self.types:
                raise InvalidGrammarError(f"{owner!r} references unknown type {node.type_name!r}")
        else:
            raise InvalidGrammarError(f"unknown content node {node!r} in {owner!r}")


def generate(grammar: GeneratorGrammar, n: int, seed: int) -> list[DocumentEventStream]:
    """n conforming documents; deterministic for a fixed seed, and document
    i depends only on (seed, i)."""
    if n < 1:
        raise InvalidGrammarError("n must be >= 1")
    return [generate_one(grammar, seed * 1_000_003 + i) for i in range(n)]


def generate_one(grammar: GeneratorGrammar, doc_seed: int) -> DocumentEventStream:
    rng = Random(doc_seed)
    out: list[Event] = []

    def emit(type_name: str):
        tdef = grammar.types[type_name]
        out.append(ev.start(tdef.element))
        if tdef.text is not None:
            out.append(ev.text(tdef.text.draw(rng)))
        else:
            walk(tdef.content)
        out.append(ev.end(tdef.element))

    def walk(node):
        if isinstance(node, Seq):
            for item in node.items:
                walk(item)
        elif isinstance(node, Choice):
            walk(rng.choice(node.options))
        elif isinstance(node, Opt):
            if rng.random() < node.p:
                walk(node.item)
        elif isinstance(node, Rep):
            count = rng.randint(node.lo, node.hi)
            for _ in range(count):
                walk(node.item)
        else:
            emit(node.type_name)

    emit(grammar.root)
    return ev.stream_from_events(out)


# ---------------------------------------------------------------------------
# the cardealer grammar (two ad types sharing one element name, a simple
# free-text type, and a temporal type with a datatype choice)

_MODELS = ["Astra", "Corsa", "Vectra", "Kadett", "Manta", "Omega", "Tigra", "Zafira"]
_TRIMS = ["Caravan", "GSi", "Sport", "Edition", "Turbo"]


def _model_text(rng: Random) -> str:
    form = rng.randrange(4)
    base = rng.choice(_MODELS)
    if form == 0:
        return base
    if form == 1:
        return f"{base} {rng.choice(_TRIMS)}"
    if form == 2:
        return f"{base}  {rng.choice(_TRIMS)}"  # double space: plain string-ish
    return f"{base} {rng.randint(1, 3)}.{rng.randint(0, 9)}, {rng.choice(_TRIMS)}"


def _year_text(rng: Random) -> str:
    year = rng.randint(1960, 2025)
    form = rng.randrange(4)
    if form == 0:
        return f"{year}Z"
    if form == 1:
        return f"{year}+{rng.randint(0, 13):02d}:00"
    if form == 2:
        return f"{year}-{rng.randint(1, 12):02d}"
    return f"{year}-{rng.randint(1, 12):02d}Z"


def cardealer_grammar() -> GeneratorGrammar:
    """Car dealer listings: new ads hold a model, used ads a model and a
    year.  The ad element gets a different type depending on context."""
    return GeneratorGrammar(
        root="dealer",
        types={
            "dealer": TypeDef("dealer", content=Seq((Ref("newcars"), Ref("usedcars")))),
            "newcars": TypeDef("newcars", content=Rep(Ref("ad_new"), 0, 4)),
            "usedcars": TypeDef("usedcars", content=Rep(Ref("ad_used"), 0, 4)),
            "ad_new": TypeDef("ad", content=Seq((Ref("model"),))),
            "ad_used": TypeDef("ad", content=Seq((Ref("model"), Ref("year")))),
            "model": TypeDef("model", text=TextSampler("model-text", _model_text)),
            "year": TypeDef("year", text=TextSampler("year-text", _year_text)),
        },
    )


# ---------------------------------------------------------------------------
# attack injection

_VALUE_LIKE = re.compile(r"[0-9:+\-Z. ]+")

_SQL_PAYLOADS = ["' OR '1'='1", "1' UNION SELECT password FROM users --",
                 "2015'; DROP TABLE ads; --"]
_SCRIPT_PAYLOADS = ["<script>alert('pwned')</script>",
                    "<script src='http://evil.example/x.js'></script>",
                    "left\"><img src=x onerror=alert(1)>"]
_TAMPER_YEARS = ["1937Z", "2084Z", "1000-01"]


def _value_like(text: str) -> bool:
    return bool(_VALUE_LIKE.fullmatch(text)) and any(c.isdigit() for c in text)


def _free_text(text: str) -> bool:
    return any(c.isalpha() for c in text) and not _value_like(text)


def _element_spans(evts, skip_root=True):
    """(start, end) index pairs of element subtrees, ends inclusive."""
    spans = []
    stack = []
    for i, e in enumerate(evts):
        if e.kind == START:
            stack.append(i)
        elif e.kind == END:
            j = stack.pop()
            if not (skip_root and not stack):
                spans.append((j, i))
    return sorted(spans)


def _chars_positions(evts, predicate):
    return [i for i, e in enumerate(evts) if e.kind == CHARS and predicate(str(e.label))]


def inject_attack(doc: DocumentEventStream, kind: str, seed: int) -> DocumentEventStream:
    """A mutated, still well-formed stream embodying the attack class.

    Raises InapplicableAttackError when the document lacks the needed
    feature (e.g. wrapping on a document without a target subtree).
    """
    rng = Random(seed)
    evts = list(doc)
    if kind == STRUCTURAL_WRAPPING:
        return _wrap(evts, rng)
    if kind == COERCIVE_PARSING:
        depth = rng.randint(48, 64)
        chain = [ev.start("x")] * depth + [ev.end("x")] * depth
        return _rebuild(evts[:1] + chain + evts[1:])
    if kind == HIGH_NODE_COUNT:
        return _node_flood(evts, rng)
    if kind == OVERSIZED_PAYLOAD:
        spots = _chars_positions(evts, _value_like)
        if not spots:
            raise InapplicableAttackError("no value-like text to oversize")
        blob = "A" * rng.randint(30_000, 60_000)
        return _replace_text(evts, rng.choice(spots), blob)
    if kind == SQL_INJECTION_TEXT:
        spots = _chars_positions(evts, _value_like)
        if not spots:
            raise InapplicableAttackError("no value-like text for SQL injection")
        return _replace_text(evts, rng.choice(spots), rng.choice(_SQL_PAYLOADS))
    if kind == CDATA_SCRIPT_INJECTION:
        spots = _chars_positions(evts, _free_text)
        if not spots:
            raise InapplicableAttackError("no free-text field for script injection")
        return _replace_text(evts, rng.choice(spots), rng.choice(_SCRIPT_PAYLOADS))
    raise ValueError(f"unknown attack kind {kind!r}")


def _rebuild(evts) -> DocumentEventStream:
    return ev.stream_from_events(
        [Event(e.kind, e.label, -1) for e in evts], reindex=True)


def _replace_text(evts, position, new_text) -> DocumentEventStream:
    evts = list(evts)
    evts[position] = Event(CHARS, new_text, -1)
    return _rebuild(evts)


def _wrap(evts, rng: Random) -> DocumentEventStream:
    """Relocate a subtree behind a fresh wrapper element and leave a
    tampered duplicate at the original location."""
    spans = [(i, j) for i, j in _element_spans(evts) if j > i + 1]
    if not spans:
        raise InapplicableAttackError("no subtree to wrap")
    i, j = rng.choice(spans)
    original = evts[i:j + 1]
    tampered = list(original)
    for pos, e in enumerate(tampered):
        if e.kind == CHARS:
            tampered[pos] = Event(CHARS, rng.choice(_TAMPER_YEARS), -1)
            break
    # wrapper with the authentic subtree goes right after the root start
    # (past any attribute triples), the tampered copy replaces the original
    insert_at = 1
    while insert_at + 2 < len(evts) and evts[insert_at].kind == START \
            and isinstance(evts[insert_at].label, ev.QName) and evts[insert_at].label.is_attr:
        insert_at += 3
    wrapper = [ev.start("Wrapper")] + original + [ev.end("Wrapper")]
    out = evts[:insert_at] + wrapper + evts[insert_at:i] + tampered + evts[j + 1:]
    return _rebuild(out)


def _node_flood(evts, rng: Random, copies: int = 1200) -> DocumentEventStream:
    """Duplicate an already repeated subtree until the node count explodes.

    Targets subtrees whose element repeats among its siblings, i.e. exactly
    the repetitions a learned model does not bound."""
    spans = _element_spans(evts)
    repeated = []
    for i, j in spans:
        label = evts[i].label
        before = i - 1
        after = j + 1
        if after < len(evts) and evts[after].kind == START and evts[after].label == label:
            repeated.append((i, j))
        elif before >= 0 and evts[before].kind == END and evts[before].label == label:
            repeated.append((i, j))
    if not repeated:
        raise InapplicableAttackError("no repeated sibling subtree to flood")
    i, j = rng.choice(repeated)
    block = evts[i:j + 1]
    out = evts[:j + 1] + block * (copies - 1) + evts[j + 1:]
    return _rebuild(out)


# ---------------------------------------------------------------------------
# labeled corpora and evaluation

@dataclass
class LabeledCorpus:
    train: list
    test_normal: list
    test_attacks: dict  # kind -> list of streams


@dataclass
class DetectionReport:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    per_kind: dict = field(default_factory=dict)  # kind -> [detected, total]

    @property
    def precision(self):
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else None

    @property
    def recall(self):
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else None

    @property
    def fpr(self):
        return self.fp / (self.fp + self.tn) if self.fp + self.tn else None

    @property
    def f1(self):
        p, r = self.precision, self.recall
        if p is None or r is None or p + r == 0:
            return None
        return 2 * p * r / (p + r)

    def kind_recall(self, kind: str):
        detected, total = self.per_kind.get(kind, (0, 0))
        return detected / total if total else None

    def structural_recall(self):
        detected = sum(d for k, (d, _t) in self.per_kind.items()
                       if k in STRUCTURAL_ATTACK_KINDS)
        total = sum(t for k, (_d, t) in self.per_kind.items()
                    if k in STRUCTURAL_ATTACK_KINDS)
        return detected / total if total else None

    def to_tsv(self) -> str:
        def cell(x):
            return "undef" if x is None else f"{x:.4f}"
        lines = ["section\tkind\tdetected\ttotal\trecall"]
        for kind in sorted(self.per_kind):
            d, t = self.per_kind[kind]
            lines.append(f"attack\t{kind}\t{d}\t{t}\t{cell(d / t if t else None)}")
        lines.append(f"normal\t-\t{self.fp}\t{self.fp + self.tn}\t-")
        lines.append("metric\tprecision\trecall\tfpr\tf1")
        lines.append("values\t%s\t%s\t%s\t%s" % (cell(self.precision), cell(self.recall),
                                                 cell(self.fpr), cell(self.f1)))
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        def pct(x):
            return "undef" if x is None else f"{100 * x:.2f}%"
        lines = [
            f"normals accepted {self.tn}/{self.tn + self.fp}, "
            f"attacks detected {self.tp}/{self.tp + self.fn}",
            f"precision {pct(self.precision)}  recall {pct(self.recall)}  "
            f"FPR {pct(self.fpr)}  F1 {pct(self.f1)}",
        ]
        for kind in sorted(self.per_kind):
            d, t = self.per_kind[kind]
            lines.append(f"  {kind}: {d}/{t}")
        return "\n".join(lines)


def evaluate(model, corpus: LabeledCorpus) -> DetectionReport:
    """Validate every test stream and tally verdicts against labels."""
    report = DetectionReport()
    for stream in corpus.test_normal:
        if validate(model, stream).accepted:
            report.tn += 1
        else:
            report.fp += 1
    for kind, streams in corpus.test_attacks.items():
        detected, total = 0, 0
        for stream in streams:
            total += 1
            if not validate(model, stream).accepted:
                detected += 1
        report.per_kind[kind] = [detected, total]
        report.tp += detected
        report.fn += total - detected
    return report


def build_cardealer_scenario(seed: int, train_count: int = 50,
                             normal_count: int = 1000) -> LabeledCorpus:
    """The bundled deterministic detection scenario.

    Training and normal test documents come from the cardealer grammar;
    the attack set mixes structural kinds (wrapping, coercive parsing),
    datatype kinds (SQL injection and oversized payloads into the temporal
    field), and the two documented misses (CDATA script injection into the
    free-text field, node flooding of an unbounded repetition).
    """
    grammar = cardealer_grammar()
    train = generate(grammar, train_count, seed)
    normals = generate(grammar, normal_count, seed + 1)
    sources = generate(grammar, 200, seed + 2)
    rng = Random(seed + 3)

    plan = [(STRUCTURAL_WRAPPING, 4), (COERCIVE_PARSING, 3),
            (SQL_INJECTION_TEXT, 3), (OVERSIZED_PAYLOAD, 3),
            (CDATA_SCRIPT_INJECTION, 2), (HIGH_NODE_COUNT, 2)]
    attacks: dict[str, list] = {kind: [] for kind, _ in plan}
    cursor = 0
    for kind, count in plan:
        made = 0
        while made < count:
            source = sources[cursor % len(sources)]
            cursor += 1
            try:
                attacks[kind].append(inject_attack(source, kind, rng.getrandbits(32)))
            except InapplicableAttackError:
                continue
            made += 1
    return LabeledCorpus(train=train, test_normal=normals, test_attacks=attacks)


# ---------------------------------------------------------------------------
# learning curves

@dataclass
class TrialCurve:
    mind_changes: list
    f1: list
    fpr: list


@dataclass
class LearningCurve:
    trials: list

    def mean(self, attr: str) -> list:
        series = [getattr(t, attr) for t in self.trials]
        return [sum(step) / len(step) for step in zip(*series)]

    def envelope(self, attr: str):
        series = [getattr(t, attr) for t in self.trials]
        lo = [min(step) for step in zip(*series)]
        hi = [max(step) for step in zip(*series)]
        return lo, hi

    def to_tsv(self) -> str:
        lines = ["step\tmc_mean\tmc_min\tmc_max\tf1_mean\tf1_min\tf1_max\tfpr_mean\tfpr_min\tfpr_max"]
        mc_m, (mc_lo, mc_hi) = self.mean("mind_changes"), self.envelope("mind_changes")
        f1_m, (f1_lo, f1_hi) = self.mean("f1"), self.envelope("f1")
        fp_m, (fp_lo, fp_hi) = self.mean("fpr"), self.envelope("fpr")
        for step in range(len(mc_m)):
            lines.append("\t".join(
                [str(step + 1),
                 f"{mc_m[step]:.2f}", str(mc_lo[step]), str(mc_hi[step]),
                 f"{f1_m[step]:.4f}", f"{f1_lo[step]:.4f}", f"{f1_hi[step]:.4f}",
                 f"{fp_m[step]:.4f}", f"{fp_lo[step]:.4f}", f"{fp_hi[step]:.4f}"]))
        return "\n".join(lines) + "\n"


def learning_curve(dts, corpus: LabeledCorpus, scheme: NamingScheme,
                   trials: int, seed: int, normal_sample: int | None = None) -> LearningCurve:
    """Per-step detection performance over randomized learning orders.

    Each trial shuffles the training set (drawing without replacement),
    learns one document per step, and evaluates after every step.
    ``normal_sample`` caps the normal test documents used per step (the
    attack set is always evaluated in full).  Trial seeds derive from the
    master seed, and undefined F1 values aggregate as zero.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    out = []
    for trial in range(trials):
        rng = Random(seed * 7_654_321 + trial)
        order = list(corpus.train)
        rng.shuffle(order)
        normals = corpus.test_normal
        if normal_sample is not None and normal_sample < len(normals):
            normals = rng.sample(normals, normal_sample)
        eval_corpus = LabeledCorpus([], normals, corpus.test_attacks)
        learner = Learner(dts, scheme)
        curve = TrialCurve([], [], [])
        for doc in order:
            curve.mind_changes.append(learner.learn(doc))
            model = compile_cxvpa(build_xvpa(learner.snapshot(), dts))
            report = evaluate(model, eval_corpus)
            curve.f1.append(report.f1 if report.f1 is not None else 0.0)
            curve.fpr.append(report.fpr if report.fpr is not None else 0.0)
        out.append(curve)
    return LearningCurve(out)


# ---------------------------------------------------------------------------
# corpus directory layout

def write_corpus(corpus: LabeledCorpus, directory: str) -> None:
    """Materialize a corpus as train/, test/normal/, test/attack/<kind>/."""
    def write(path, stream):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ev.serialize_xml(stream, declaration=True))
            fh.write("\n")

    train_dir = os.path.join(directory, "train")
    normal_dir = os.path.join(directory, "test", "normal")
    os.makedirs(train_dir, exist_ok=True)
    os.makedirs(normal_dir, exist_ok=True)
    for i, stream in enumerate(corpus.train):
        write(os.path.join(train_dir, f"train-{i:04d}.xml"), stream)
    for i, stream in enumerate(corpus.test_normal):
        write(os.path.join(normal_dir, f"normal-{i:04d}.xml"), stream)
    for kind, streams in sorted(corpus.test_attacks.items()):
        kind_dir = os.path.join(directory, "test", "attack", kind)
        os.makedirs(kind_dir, exist_ok=True)
        for i, stream in enumerate(streams):
            write(os.path.join(kind_dir, f"{kind}-{i:02d}.xml"), stream)


def read_corpus(directory: str) -> LabeledCorpus:
    """Load a corpus directory written by :func:`write_corpus` (or by hand).

    A document that fails to parse raises ``MalformedXmlError`` with its
    path at the head of the message."""
    def read_dir(path):
        if not os.path.isdir(path):
            return []
        out = []
        for name in sorted(os.listdir(path)):
            if name.endswith(".xml"):
                doc = os.path.join(path, name)
                with open(doc, "rb") as fh:
                    data = fh.read()
                try:
                    out.append(ev.parse_document(data))
                except ev.MalformedXmlError as exc:
                    raise ev.MalformedXmlError(f"{doc}: {exc}") from exc
        return out

    train = read_dir(os.path.join(directory, "train"))
    normal = read_dir(os.path.join(directory, "test", "normal"))
    attacks = {}
    attack_root = os.path.join(directory, "test", "attack")
    if os.path.isdir(attack_root):
        for kind in sorted(os.listdir(attack_root)):
            kind_dir = os.path.join(attack_root, kind)
            if os.path.isdir(kind_dir):
                attacks[kind] = read_dir(kind_dir)
    return LabeledCorpus(train=train, test_normal=normal, test_attacks=attacks)
