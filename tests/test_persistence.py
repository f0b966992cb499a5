"""State files: canonical serialization, round trips, corruption handling."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xvpa import events as ev
from xvpa.harness import cardealer_grammar, generate
from xvpa.learner import ANCESTOR_SIBLING, Learner, NamingScheme
from xvpa.persistence import (StateFileError, StateLock, dump_state, load_state,
                              parse_state, save_state)

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
    _with_counter("state", -3),
    _with_counter("ret", 0),
])
def test_corrupt_states_rejected(dts, mutate):
    text = dump_state(trained_learner(dts, n=2))
    with pytest.raises(StateFileError):
        parse_state(mutate(text), dts)


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
        learner.mind_changes = []
        text = dump_state(learner)
        if baseline is None:
            baseline = text
        assert text == baseline
