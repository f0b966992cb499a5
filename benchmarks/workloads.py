"""Seeded input generators for the benchmark workloads.

Every generator is driven by the run's seed alone and returns serialized
documents: the program under test receives only bytes.  Inputs come from
the public corpus tools of ``xvpa.harness``; nothing here reaches into the
program's internals.
"""

from __future__ import annotations

import base64
import calendar
import itertools
import time
from random import Random

from xvpa import Event, serialize_xml, stream_from_events
from xvpa.events import CHARS
from xvpa.harness import (CDATA_SCRIPT_INJECTION, HIGH_NODE_COUNT, STRUCTURAL_WRAPPING,
                          Choice, GeneratorGrammar, InapplicableAttackError, Opt, Ref,
                          Rep, Seq, TextSampler, TypeDef, build_cardealer_scenario,
                          cardealer_grammar, generate, inject_attack)

# attack kinds the cardealer model is documented to accept
CARDEALER_MISSES = frozenset({CDATA_SCRIPT_INJECTION, HIGH_NODE_COUNT})


def to_bytes(stream) -> bytes:
    return serialize_xml(stream).encode("utf-8")


# ---------------------------------------------------------------------------
# cardealer: the paper's detection scenario

# The training set, and so the model, is the same for every seed; the seed
# draws the test stream.  The cost of unlearning the 50 training documents
# differed by a quarter between seeds' training sets, which across seeds
# would drown a change in the code under test.
TRAIN_SEED = 0


def cardealer(seed: int, normals: int = 1000):
    """Training documents and the labelled test stream of the scenario.

    Returns ``(train, stream)``: ``train`` is the training set of the
    scenario of TRAIN_SEED, and ``stream`` holds ``(document, expected
    acceptance)`` pairs, the normals and the 17 attacks of the scenario of
    ``seed`` shuffled together.
    """
    train = generate(cardealer_grammar(), 50, TRAIN_SEED)
    scenario = build_cardealer_scenario(seed, train_count=1, normal_count=normals)
    stream = [(to_bytes(s), True) for s in scenario.test_normal]
    for kind, streams in sorted(scenario.test_attacks.items()):
        stream.extend((to_bytes(s), kind in CARDEALER_MISSES) for s in streams)
    Random(seed).shuffle(stream)
    return [to_bytes(s) for s in train], stream


# ---------------------------------------------------------------------------
# recursive: many typing contexts that minimization folds together

_LEAVES = (
    ("num", lambda rng: str(rng.randint(2, 99))),
    ("flag", lambda rng: rng.choice(("true", "false"))),
    ("tag", lambda rng: rng.choice(("red", "green", "amber"))),
    ("ratio", lambda rng: f"{rng.randint(1, 9)}.{rng.randint(1, 9)}"),
)


def recursive_grammar(depth: int, width: int) -> GeneratorGrammar:
    """Nested ``sec`` elements, ``depth`` levels deep.

    Each section holds a ``tag`` and 1..``width`` children, drawn from
    ``width`` leaf kinds and, above the bottom level, as often from a deeper
    section.  Every level reuses the element names and every leaf kind keeps
    one datatype, so the sibling-aware naming scheme splits one element into
    many typing contexts that minimization later folds back together.
    """
    types = {name: TypeDef(name, text=TextSampler(name, draw)) for name, draw in _LEAVES}
    for level in range(depth):
        kids = [Ref(_LEAVES[i % len(_LEAVES)][0]) for i in range(width)]
        if level + 1 < depth:
            kids += [Ref(f"sec{level + 1}")] * width
        types[f"sec{level}"] = TypeDef(
            "sec", content=Seq((Ref("tag"), Rep(Choice(tuple(kids)), 1, width))))
    return GeneratorGrammar(root="sec0", types=types)


# The documents' shape is fixed; the seed draws only their texts.  Every
# leaf kind keeps one datatype whatever text it gets, so every seed learns
# the same model.  Minimization's cost swings several-fold between shapes of
# the same size (scan order decides how often its pairwise search restarts),
# which across seeds would drown any change in the code under test.
SHAPE_SEED = 0


def recursive(seed: int, depth: int = 5, width: int = 3, count: int = 200, wrapped: int = 20):
    """``(train, mutants)``: training documents of the recursive grammar and
    structural-wrapping mutations of the first ``wrapped`` of them."""
    draw = dict(_LEAVES)
    rng = Random(seed)
    streams = []
    for shape in generate(recursive_grammar(depth, width), count, SHAPE_SEED):
        events = list(shape)
        for i, event in enumerate(events):
            if event.kind == CHARS:
                events[i] = Event(CHARS, draw[events[i - 1].label.local](rng), -1)
        streams.append(stream_from_events(
            [Event(e.kind, e.label, -1) for e in events], reindex=True))
    mutants = []
    for stream in streams:
        if len(mutants) == wrapped:
            break
        try:
            mutants.append(to_bytes(inject_attack(stream, STRUCTURAL_WRAPPING, rng.getrandbits(32))))
        except InapplicableAttackError:
            continue
    return [to_bytes(s) for s in streams], mutants


# ---------------------------------------------------------------------------
# idlog: a log protocol whose texts never repeat

class IdlogSource:
    """Batches of log documents whose texts never repeat within one source.

    Every text embeds a fresh value of one shared counter (the hex ID is
    the counter times an odd constant modulo 2**64, a bijection) or, for
    timestamps, a clock that only moves forward; the five fields have
    disjoint shapes.  So no text is ever seen twice, and inferring its
    datatypes misses the cache the first time.
    """

    _EPOCH_US = calendar.timegm((2024, 1, 1, 0, 0, 0)) * 1_000_000

    def __init__(self, seed: int):
        self.seed = seed
        self.batches = 0
        self._counter = itertools.count()
        self._clock_us = self._EPOCH_US + seed * 1_000_000_000
        self.grammar = GeneratorGrammar(root="log", types={
            "log": TypeDef("log", content=Rep(Ref("entry"), 1, 4)),
            "entry": TypeDef("entry", content=Seq((Ref("id"), Ref("ts"), Ref("amount"),
                                                   Ref("digest"), Opt(Ref("note"))))),
            "id": TypeDef("id", text=TextSampler("hex-id", self._hex_id)),
            "ts": TypeDef("ts", text=TextSampler("timestamp", self._timestamp)),
            "amount": TypeDef("amount", text=TextSampler("decimal", self._amount)),
            "digest": TypeDef("digest", text=TextSampler("base64", self._digest)),
            "note": TypeDef("note", text=TextSampler("note", self._note)),
        })

    def batch(self, count: int) -> list[bytes]:
        docs = generate(self.grammar, count, self.seed * 100_003 + self.batches)
        self.batches += 1
        return [to_bytes(s) for s in docs]

    def _hex_id(self, rng: Random) -> str:
        return f"{(next(self._counter) * 0x9E3779B97F4A7C15) % (1 << 64):016x}"

    def _timestamp(self, rng: Random) -> str:
        self._clock_us += rng.randint(1, 5_000_000)
        seconds, micros = divmod(self._clock_us, 1_000_000)
        return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + f".{micros:06d}Z"

    def _amount(self, rng: Random) -> str:
        return f"{next(self._counter)}.{rng.randint(0, 99):02d}"

    def _digest(self, rng: Random) -> str:
        raw = next(self._counter).to_bytes(6, "big") + rng.randbytes(12)
        return base64.b64encode(raw).decode("ascii")

    def _note(self, rng: Random) -> str:
        level = rng.choice(("info", "warn", "audit"))
        return f"[{level}] request {next(self._counter)} from node-{rng.randint(1, 64)}"


# ---------------------------------------------------------------------------
# hostile documents against the cardealer model

# full sizes; the smoke test divides them
HOSTILE_SIZES = {"deep": 200_000, "oversize": 50_000_000, "longtext": 2_000_000, "flood": 50_000}

# (accepted, reason, event index); None matches any value
HOSTILE_VERDICTS = {
    "deep": (False, "unexpected-element", 1),
    "oversize": (False, "datatype-mismatch", None),
    "longtext": (True, None, None),
    "flood": (True, None, None),
}

# an accepted cardealer document: a learned new-car ad, and a used-car ad
# whose year the payloads replace.  It is the same for every seed, so every
# seed measures the same hostile work.
HOSTILE_HOST = (b"<dealer><newcars><ad><model>Astra</model></ad></newcars>"
                b"<usedcars><ad><model>Astra</model><year>1999Z</year></ad></usedcars></dealer>")
FLOOD_AD = b"<ad><model>Astra</model></ad>"


def hostile(kind: str, size: int) -> bytes:
    """One hostile document: ``HOSTILE_HOST`` with

    * ``deep``: ``size`` levels of a foreign element right inside the root;
    * ``oversize``: a non-numeric year of ``size`` bytes;
    * ``longtext``: an all-digit year of ``size`` digits;
    * ``flood``: ``size`` extra copies of the learned new-car ad.
    """
    host = HOSTILE_HOST
    if kind == "deep":
        at = host.index(b">") + 1
        return b"".join((host[:at], b"<x>" * size, b"</x>" * size, host[at:]))
    if kind in ("oversize", "longtext"):
        at = host.index(b"<year>") + len(b"<year>")
        end = host.index(b"</year>", at)
        payload = b"A" * size if kind == "oversize" else b"1" + b"9" * (size - 1)
        return b"".join((host[:at], payload, host[end:]))
    if kind == "flood":
        at = host.index(b"<newcars>") + len(b"<newcars>")
        return b"".join((host[:at], FLOOD_AD * size, host[at:]))
    raise ValueError(f"unknown hostile kind {kind!r}")
