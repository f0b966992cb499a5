"""State files: canonical serialization, round trips, corruption handling."""

import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xvpa import events as ev
from xvpa import persistence
from xvpa.harness import cardealer_grammar, generate
from xvpa.learner import ANCESTOR, ANCESTOR_SIBLING, Learner, NamingScheme
from xvpa.persistence import (StateFileError, StateLock, dump_state, load_state,
                              parse_state, save_state)
from xvpa.weighted import WeightedVpa

from .oracles import reference_dump

A12 = NamingScheme("ancestor", 1, 2)


def trained_learner(dts, scheme=A12, n=10, seed=99):
    learner = Learner(dts, scheme)
    for d in generate(cardealer_grammar(), n, seed):
        learner.learn(d)
    return learner


def test_dump_parse_round_trip(dts):
    learner = trained_learner(dts)
    text = dump_state(learner)
    loaded = parse_state(text, dts)
    assert loaded.vpa == learner.vpa
    assert loaded.scheme == learner.scheme
    assert loaded.documents_learned == learner.documents_learned
    assert loaded.mind_changes == learner.mind_changes
    assert dump_state(loaded) == text


def test_round_trip_for_ancestor_sibling_names(dts):
    learner = trained_learner(dts, NamingScheme(ANCESTOR_SIBLING, 2, 2), n=6)
    text = dump_state(learner)
    assert dump_state(parse_state(text, dts)) == text


# tokens that need escaping in a state file, and two that do not
_TOKENS = st.sampled_from(["a", "b", ",", "#", "|", "%", " ", "$", "@a", "{urn:x}y", "é", "a/b"])
_SIBLINGS = st.lists(_TOKENS, max_size=2).map(tuple)


@st.composite
def _tables(draw, mode, datatypes):
    """Tables over a few state names, each with a ``state`` line, so every
    transition repeats names that another line already refers to."""
    token_lists = st.lists(_TOKENS, max_size=3) if mode == ANCESTOR else st.lists(
        st.lists(_TOKENS, min_size=1, max_size=3).map(tuple), max_size=3)
    names = draw(st.lists(st.tuples(token_lists.map(tuple), _SIBLINGS),
                          min_size=1, max_size=6, unique=True))
    name, count = st.sampled_from(names), st.integers(1, 10**20)
    states = {q: draw(count) for q in names}
    finals = draw(st.dictionaries(name, count))
    calls = draw(st.dictionaries(st.tuples(name, _TOKENS), st.tuples(name, count), min_size=1))
    ints = {(src, dt): (dst, draw(count)) for src, dst in draw(st.dictionaries(name, name)).items()
            for dt in draw(st.sets(st.sampled_from(datatypes), min_size=1, max_size=3))}
    rets = draw(st.dictionaries(st.tuples(name, _TOKENS, name), st.tuples(name, count)))
    return WeightedVpa(states, finals, calls, ints, rets)


@pytest.mark.parametrize("mode", [ANCESTOR, ANCESTOR_SIBLING])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_dump_matches_the_reference_writer(dts, mode, data):
    """Encoding each distinct name once writes the file that encoding every
    reference wrote, and loading it gives back the same tables."""
    learner = Learner(dts, NamingScheme(mode, 2, 2))
    learner.vpa = data.draw(_tables(mode, sorted(dts.datatypes)))
    text = dump_state(learner)
    assert text == reference_dump(learner)
    assert parse_state(text, dts).vpa == learner.vpa


@pytest.mark.parametrize("scheme", [A12, NamingScheme(ANCESTOR_SIBLING, 2, 2)])
def test_dump_encodes_each_distinct_token_once(dts, scheme, monkeypatch):
    learner = trained_learner(dts, scheme, n=6)
    v = learner.vpa
    names = {*v.states, *v.finals, *(q for key, (dst, _w) in v.calls.items() for q in (key[0], dst)),
             *(q for key, (dst, _w) in v.ints.items() for q in (key[0], dst)),
             *(q for key, (dst, _w) in v.rets.items() for q in (key[0], key[2], dst))}
    segments = [ctx for ctx, _sibs in names] if scheme.mode == ANCESTOR else [
        seg for ctx, _sibs in names for seg in ctx]
    tokens = {*(t for seg in segments for t in seg), *(t for _ctx, sibs in names for t in sibs),
              *(key[1] for key in v.calls), *(key[1] for key in v.rets)}
    calls = []
    quote = persistence.quote
    monkeypatch.setattr(persistence, "quote", lambda t, **kw: calls.append(t) or quote(t, **kw))
    assert dump_state(learner) == reference_dump(learner)
    assert sorted(calls) == sorted(tokens)


def test_save_load_save_byte_identical(dts, tmp_path):
    learner = trained_learner(dts)
    path = str(tmp_path / "state.txt")
    save_state(learner, path)
    with open(path, "rb") as fh:
        first = fh.read()
    save_state(load_state(path, dts), path)
    with open(path, "rb") as fh:
        assert fh.read() == first


def test_namespaced_and_attribute_tokens_survive(dts, tmp_path):
    learner = Learner(dts, A12)
    learner.learn(ev.parse_document(
        b'<p:root xmlns:p="urn:a b" p:x="1"><p:kid/></p:root>'))
    path = str(tmp_path / "s.txt")
    save_state(learner, path)
    loaded = load_state(path, dts)
    assert loaded.vpa == learner.vpa


def test_fresh_state_round_trip_is_minimal(dts):
    fresh = Learner(dts, A12)
    text = dump_state(fresh)
    # only the implicit start state exists: no entry lines at all
    assert not [l for l in text.splitlines() if l.startswith(("state ", "call ", "ret ", "int "))]
    loaded = parse_state(text, dts)
    assert dump_state(loaded) == text
    assert loaded.vpa == fresh.vpa


def test_unlearn_of_last_document_restores_file(dts, tmp_path):
    learner = trained_learner(dts, n=5)
    before = dump_state(learner)
    extra = generate(cardealer_grammar(), 1, 12321)[0]
    learner.learn(extra)
    assert dump_state(learner) != before
    learner.unlearn(extra)
    assert dump_state(learner) == before


def test_hash_mismatch_blocks_load(dts):
    learner = trained_learner(dts, n=2)
    text = dump_state(learner).replace(dts.content_hash, "f" * 64)
    with pytest.raises(StateFileError):
        parse_state(text, dts)
    # non-mutating callers may bypass the guard
    loaded = parse_state(text, dts, require_hash=False)
    assert loaded.dts_hash == "f" * 64


def _with_counter(tag, value):
    """Set the counter of every ``tag`` line to ``value``."""
    return lambda t: "\n".join(l.rsplit(" ", 1)[0] + f" {value}" if l.startswith(tag + " ") else l
                               for l in t.split("\n"))


@pytest.mark.parametrize("mutate", [
    lambda t: "garbage\n" + t,
    lambda t: t.replace("xvpa-state 1", "xvpa-state 9"),
    lambda t: t + "wat is this\n",
    lambda t: t.replace("mode ancestor", "mode sideways"),
    lambda t: t.replace(" 1\n", " x\n", 1),
    lambda t: "\n".join(l for l in t.split("\n") if not l.startswith("datatypes ")),
    lambda t: "\n".join("documents x" if l.startswith("documents ") else l
                        for l in t.split("\n")),
    lambda t: "\n".join("mindchanges x,1" if l.startswith("mindchanges ") else l
                        for l in t.split("\n")),
    lambda t: t.replace("xvpa-state 1", "xvpa-state "),
    # the header's counts disagree: a negative document count, a negative
    # mind change, more mind changes than documents
    lambda t: "\n".join("documents -4" if l.startswith("documents ") else l
                        for l in t.split("\n")),
    lambda t: "\n".join("mindchanges -3,1" if l.startswith("mindchanges ") else l
                        for l in t.split("\n")),
    lambda t: "\n".join("mindchanges 3,4,5" if l.startswith("mindchanges ") else l
                        for l in t.split("\n")),
    _with_counter("state", -3),
    _with_counter("ret", 0),
    # series tokens dump_state never writes, several of which int() accepts
    *(lambda t, series=series: "\n".join(f"mindchanges {series}" if l.startswith("mindchanges ")
                                          else l for l in t.split("\n"))
      for series in ["01,1", "+1,1", "1, 1", "1,,1", "1,", ",1", "1_0,1", "\u0661,1", "", "-"]),
    # header values dump_state never writes: a sanitized flag other than 0
    # or 1, and counts that int() reads but that are not canonical decimal
    *(lambda t, line=line: "\n".join(line if l.split(" ", 1)[0] == line.split(" ", 1)[0] else l
                                      for l in t.split("\n"))
      for line in ["sanitized 1 ", "sanitized yes", "sanitized 2", "sanitized ",
                   "k 01", "k +1", "k  1", "k 1 ", "l 02", "documents 02", "documents \uff12"]),
    # body lines dump_state never writes: counters that int() reads but
    # that are not canonical decimal, and more or fewer fields than a tag takes
    *(_with_counter(tag, value) for tag, value in [
        ("state", "+1"), ("final", "01"), ("int", "1_0"), ("call", "\u0663"), ("ret", "\uff11"),
        ("call", "1,1"), ("state", ""), ("call", "1 trailing junk"), ("ret", "1 1"),
        ("state", "1 "), ("int", "1 ")]),
    lambda t: "\n".join(l.rsplit(" ", 1)[0] if l.startswith("final ") else l
                        for l in t.split("\n")),
    # header lines out of their dump_state positions: a repeated line (the
    # first of two sanitized lines set, a second k line), a missing
    # sanitized or documents line, and the k and l lines swapped
    lambda t: t.replace("\nsanitized 0\n", "\nsanitized 1\nsanitized 0\n"),
    lambda t: t.replace("\nk 1\n", "\nk 1\nk 2\n"),
    *(lambda t, key=key: "\n".join(l for l in t.split("\n") if not l.startswith(key + " "))
      for key in ("sanitized", "documents")),
    lambda t: "\n".join(t.split("\n")[i] for i in (0, 1, 3, 2, *range(4, t.count("\n") + 1))),
])
def test_corrupt_states_rejected(dts, mutate):
    text = dump_state(trained_learner(dts, n=2))
    with pytest.raises(StateFileError):
        parse_state(mutate(text), dts)


@pytest.mark.parametrize("tag", ["call", "ret"])
def test_repeated_transition_lines(dts, tag):
    """A call or return key given twice is corrupt, whether its target
    agrees or differs: dump_state writes each key once."""
    text = dump_state(trained_learner(dts, n=2))
    entries = [l.split(" ") for l in text.splitlines() if l.startswith(tag + " ")]
    first = entries[0]
    other = next(e[-2] for e in entries if e[-2] != first[-2])
    for repeat in (first[:-1] + ["7"], first[:-2] + [other, "7"]):
        with pytest.raises(StateFileError, match="a key given twice"):
            parse_state(text + " ".join(repeat) + "\n", dts)


def test_every_repeated_body_line_is_refused(dts):
    """Appending any body line of a saved file again, or a state line again
    with another counter, is refused: the count does not silently change."""
    text = dump_state(trained_learner(dts, n=1))
    body = text.splitlines()[8:]
    assert body
    for line in body:
        with pytest.raises(StateFileError, match="a key given twice"):
            parse_state(text + line + "\n", dts)
    state = next(l for l in body if l.startswith("state "))
    with pytest.raises(StateFileError, match="a key given twice"):
        parse_state(text + state.rsplit(" ", 1)[0] + " 5\n", dts)


@pytest.mark.parametrize("line, message", [
    ("bogus 1", "unknown entry 'bogus 1'"),
    ("int r| bogus r|a 1", "unknown datatype 'bogus' in state file"),
    ("state r|", "corrupt state entry: not enough values to unpack (expected 3, got 2)"),
])
def test_body_errors_are_wrapped_once(dts, line, message):
    """A body line's own StateFileError passes unchanged; only a failed
    field unpacking or counter is wrapped as a corrupt entry."""
    text = dump_state(trained_learner(dts, n=1))
    with pytest.raises(StateFileError) as caught:
        parse_state(text + line + "\n", dts)
    assert str(caught.value) == message


def test_loaded_series_is_parsed_on_first_use(dts):
    """A long series is checked on load and kept as text: an untouched
    learner saves it back byte-identically, learning appends one entry and
    unlearning drops the last one, past the loaded entries too, and only a
    read of ``mind_changes`` parses it."""
    learner = trained_learner(dts, n=2)
    trained = generate(cardealer_grammar(), 2, 99)
    doc = ev.parse_document(b"<dealer/>")
    series = [i % 97 for i in range(100_000)]

    def state(entries):
        return dump_state(learner).replace(
            "documents 2\n", f"documents {len(entries)}\n").replace(
            "mindchanges " + ",".join(map(str, learner.mind_changes)),
            "mindchanges " + ",".join(map(str, entries)))

    text = state(series)
    loaded = parse_state(text, dts)
    assert dump_state(loaded) == text
    changes = [loaded.learn(doc), loaded.learn(doc)]
    assert loaded.mind_changes == series + changes
    loaded.unlearn(doc)
    loaded.unlearn(doc)
    assert loaded.mind_changes == series
    assert dump_state(loaded) == text
    loaded.unlearn(trained[1])
    assert loaded.mind_changes == series[:-1]
    loaded.learn(doc)
    assert loaded.mind_changes == series[:-1] + changes[:1]
    loaded.unlearn(doc)
    loaded.unlearn(trained[0])
    assert dump_state(loaded).splitlines()[5:8] == state(series[:-2]).splitlines()[5:8]


_EDITS = st.tuples(st.sampled_from(["delete", "duplicate", "alter"]),
                   st.integers(min_value=0), st.text(max_size=12))


@pytest.fixture(scope="module")
def sibling_state(dts):
    return dump_state(trained_learner(dts, NamingScheme(ANCESTOR_SIBLING, 2, 2), n=2))


@given(st.lists(_EDITS, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_edited_state_files_load_or_raise_state_errors(dts, sibling_state, edits):
    """Deleting, duplicating or altering lines of a valid state file gives
    either a learner that saves again or a StateFileError, never another
    exception."""
    lines = sibling_state.split("\n")
    for kind, at, text in edits:
        i = at % len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            cut = at % (len(lines[i]) + 1)
            lines[i] = lines[i][:cut] + text + lines[i][cut + len(text):]
        if not lines:
            lines = [""]
    try:
        learner = parse_state("\n".join(lines), dts)
    except StateFileError:
        return
    dump_state(learner)


def test_unknown_datatype_in_state_rejected(dts):
    learner = Learner(dts, A12)
    learner.learn(ev.parse_document(b"<m>false</m>"))
    text = dump_state(learner).replace(" boolean ", " booleon ")
    with pytest.raises(StateFileError):
        parse_state(text, dts)


def test_atomic_save_replaces_not_truncates(dts, tmp_path):
    path = str(tmp_path / "state.txt")
    learner = trained_learner(dts, n=3)
    save_state(learner, path)
    inode_before = os.stat(path).st_ino
    learner.learn(generate(cardealer_grammar(), 1, 777)[0])
    save_state(learner, path)
    assert os.stat(path).st_ino != inode_before  # rename, not in-place write
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".xvpa-state-")]


def test_save_into_missing_directory_is_state_error(dts, tmp_path):
    with pytest.raises(StateFileError, match="cannot write state file"):
        save_state(trained_learner(dts, n=1), str(tmp_path / "missing" / "state.txt"))


def test_state_lock_creates_lockfile(tmp_path):
    path = str(tmp_path / "state.txt")
    with StateLock(path):
        pass
    assert os.path.exists(path + ".lock")


def test_set_drivenness_via_serialization(dts, master_seed):
    """Permutations of the same training multiset serialize identically."""
    import random
    docs = generate(cardealer_grammar(), 8, master_seed + 20)
    baseline = None
    rng = random.Random(master_seed)
    for _ in range(5):
        order = list(docs)
        rng.shuffle(order)
        learner = Learner(dts, A12)
        for d in order:
            learner.learn(d)
        # mind-change history depends on the order; the automaton does not
        text = re.sub("(?m)^mindchanges .*\n", "", dump_state(learner))
        if baseline is None:
            baseline = text
        assert text == baseline
