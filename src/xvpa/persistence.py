"""Durable learner state: a canonical, versioned, line-oriented text file.

Layout: a fixed header (format version, naming scheme, datatype-file hash,
sanitized flag, document count, mind-change series) followed by sorted
``state`` / ``final`` / ``call`` / ``int`` / ``ret`` lines with their
counters.  Zero-weight entries are not written, so saving is canonical:
save-load-save is byte-identical, and unlearning the most recent document
restores the previous file exactly.

State names serialize with percent-encoded tokens; ``,`` joins tokens,
``#`` joins ancestor-sibling segments, ``|`` separates the typing context
from the left-sibling string.

Writes go through a temp file and an atomic rename; mutating commands take
an advisory lock next to the state file.
"""

from __future__ import annotations

import os
import tempfile
from urllib.parse import quote, unquote

from .learner import ANCESTOR, Learner, NamingScheme
from .weighted import START_STATE

FORMAT_NAME = "xvpa-state"
FORMAT_VERSION = "1"


class StateFileError(ValueError):
    """Unreadable, corrupt, or incompatible state file."""


def _encode_token(token: str) -> str:
    return quote(token, safe="")


def _encode_context(ctx, mode: str) -> str:
    if mode == ANCESTOR:
        return ",".join(_encode_token(t) for t in ctx)
    return "#".join(",".join(_encode_token(t) for t in seg) for seg in ctx)


def _decode_token(token: str) -> str:
    return unquote(token) if "%" in token else token


def _decode_context(text: str, mode: str):
    if not text:
        return ()
    if mode == ANCESTOR:
        return tuple(_decode_token(t) for t in text.split(","))
    return tuple(tuple(_decode_token(t) for t in seg.split(",")) for seg in text.split("#"))


def encode_state(state, mode: str) -> str:
    ctx, sibs = state
    return _encode_context(ctx, mode) + "|" + ",".join(_encode_token(t) for t in sibs)


def decode_state(text: str, mode: str):
    ctx_text, _, sib_text = text.partition("|")
    sibs = tuple(_decode_token(t) for t in sib_text.split(",")) if sib_text else ()
    return (_decode_context(ctx_text, mode), sibs)


def dump_state(learner: Learner) -> str:
    """Canonical text form of a learner (header plus sorted entry lines)."""
    mode = learner.scheme.mode
    enc = lambda q: encode_state(q, mode)
    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        f"mode {mode}",
        f"k {learner.scheme.k}",
        f"l {learner.scheme.l}",
        f"datatypes {learner.dts_hash}",
        f"sanitized {1 if learner.sanitized else 0}",
        f"documents {learner.documents_learned}",
        "mindchanges " + (",".join(str(m) for m in learner.mind_changes) or "-"),
    ]
    v = learner.vpa
    body = []
    body.extend(f"state {enc(q)} {w}" for q, w in v.w_state.items() if w > 0)
    body.extend(f"final {enc(q)} {w}" for q, w in v.w_final.items() if w > 0)
    body.extend(
        f"call {enc(src)} {_encode_token(label)} {enc(v.call_to[(src, label)])} {w}"
        for (src, label), w in v.w_call.items() if w > 0)
    body.extend(
        f"int {enc(src)} {dt} {enc(v.int_to[src])} {w}"
        for (src, dt), w in v.w_int.items() if w > 0)
    body.extend(
        f"ret {enc(src)} {_encode_token(label)} {enc(popped)} {enc(v.ret_to[(src, label, popped)])} {w}"
        for (src, label, popped), w in v.w_ret.items() if w > 0)
    return "\n".join(lines + sorted(body)) + "\n"


def parse_state(text: str, dts, require_hash: bool = True) -> Learner:
    lines = text.splitlines()
    if not lines or not lines[0].startswith(FORMAT_NAME + " "):
        raise StateFileError("not a state file")
    version = lines[0].split()[1:2]
    if version != [FORMAT_VERSION]:
        raise StateFileError(f"unsupported state format {lines[0]!r}")

    header: dict[str, str] = {}
    body_at = len(lines)
    for i, line in enumerate(lines[1:], 1):
        key, _, rest = line.partition(" ")
        if key in ("mode", "k", "l", "datatypes", "sanitized", "documents", "mindchanges"):
            header[key] = rest
        else:
            body_at = i
            break
    try:
        mode = header["mode"]
        scheme = NamingScheme(mode, int(header["k"]), int(header["l"]))
        dts_hash = header["datatypes"]
        documents = int(header.get("documents", "0"))
        mc = header.get("mindchanges", "-")
        mind_changes = [] if mc == "-" else [int(x) for x in mc.split(",")]
    except KeyError as exc:
        raise StateFileError(f"bad state header: no {exc} line") from None
    except ValueError as exc:
        raise StateFileError(f"bad state header: {exc}") from None
    if dts_hash != dts.content_hash:
        if require_hash:
            raise StateFileError(
                "state was created with a different datatype definition file "
                f"({dts_hash[:12]}... vs {dts.content_hash[:12]}...)")

    learner = Learner(dts, scheme)
    learner.dts_hash = dts_hash
    learner.sanitized = header.get("sanitized", "0") == "1"
    learner.documents_learned = documents
    learner.mind_changes = mind_changes

    v = learner.vpa
    decoded: dict[str, tuple] = {}

    def dec(token):
        q = decoded.get(token)
        if q is None:
            q = decoded[token] = decode_state(token, mode)
        return q

    try:
        for line in lines[body_at:]:
            if not line:
                continue
            fields = line.split(" ")
            tag = fields[0]
            if tag == "state":
                q, w = dec(fields[1]), _counter(fields[2])
                v.states.add(q)
                v.w_state[q] = w
            elif tag == "final":
                q, w = dec(fields[1]), _counter(fields[2])
                v.finals.add(q)
                v.w_final[q] = w
            elif tag == "call":
                src, label, dst, w = dec(fields[1]), _decode_token(fields[2]), dec(fields[3]), _counter(fields[4])
                key = (src, label)
                if v.call_to.get(key, dst) != dst:
                    raise StateFileError(f"conflicting call transition {line!r}")
                v.call_to[key] = dst
                v.w_call[key] = w
            elif tag == "int":
                src, dt, dst, w = dec(fields[1]), fields[2], dec(fields[3]), _counter(fields[4])
                if v.int_to.get(src, dst) != dst:
                    raise StateFileError(f"conflicting text transition {line!r}")
                if dt not in dts:
                    raise StateFileError(f"unknown datatype {dt!r} in state file")
                v.int_to[src] = dst
                v.w_int[(src, dt)] = w
            elif tag == "ret":
                src, label, popped, dst = dec(fields[1]), _decode_token(fields[2]), dec(fields[3]), dec(fields[4])
                w = _counter(fields[5])
                key = (src, label, popped)
                if v.ret_to.get(key, dst) != dst:
                    raise StateFileError(f"conflicting return transition {line!r}")
                v.ret_to[key] = dst
                v.w_ret[key] = w
            else:
                raise StateFileError(f"unknown entry {line!r}")
    except (IndexError, ValueError) as exc:
        raise StateFileError(f"corrupt state entry: {exc}") from None

    for key, dst in list(v.call_to.items()):
        v.states.add(key[0])
        v.states.add(dst)
    for key, dst in list(v.ret_to.items()):
        v.states.update((key[0], key[2], dst))
    for src, dst in v.int_to.items():
        v.states.update((src, dst))
    v.states.add(START_STATE)
    for q in v.w_state:
        v.states.add(q)
    return learner


def _counter(token: str) -> int:
    """A counter field; ``dump_state`` writes none below 1."""
    w = int(token)
    if w < 1:
        raise ValueError(f"counter {w} below 1")
    return w


def save_state(learner: Learner, path: str) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".xvpa-state-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(dump_state(learner))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_state(path: str, dts, require_hash: bool = True) -> Learner:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StateFileError(f"cannot read state file: {exc}") from None
    return parse_state(text, dts, require_hash=require_hash)


class StateLock:
    """Advisory lock for one mutating command per state file."""

    def __init__(self, path: str):
        self.path = path + ".lock"
        self._fd = None

    def __enter__(self):
        import fcntl
        self._fd = open(self.path, "w")
        fcntl.flock(self._fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        import fcntl
        fcntl.flock(self._fd, fcntl.LOCK_UN)
        self._fd.close()
        return False
