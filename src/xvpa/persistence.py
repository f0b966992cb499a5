"""Durable learner state: a canonical, versioned, line-oriented text file.

Layout: a fixed header (format version, naming scheme, datatype-file hash,
sanitized flag, document count, mind-change series) followed by sorted
``state`` / ``final`` / ``call`` / ``int`` / ``ret`` lines with their
counters.  No counter below 1 is stored or written, so saving is canonical:
save-load-save is byte-identical, and unlearning the most recent document
restores the previous file exactly.  Loading refuses every value
``dump_state`` never writes: a header line missing, repeated or out of
its place, a ``sanitized`` flag other than 0 or 1, a count, series token
or counter that is not canonical ASCII decimal, an entry line with the
wrong number of fields, and a key given twice (exit 4 at the command
line).  It checks the mind-change series and the counters in one pass
each, and hands the series' text to the learner, which parses it only
when something reads it.

State names serialize with percent-encoded tokens; ``,`` joins tokens,
``#`` joins ancestor-sibling segments, ``|`` separates the typing context
from the left-sibling string.  A dump encodes each distinct state name,
and each distinct token, once, however many lines refer to it; a load
decodes each distinct name once.

Writes go through a temp file and an atomic rename; mutating commands take
an advisory lock next to the state file.
"""

from __future__ import annotations

import os
import re
import tempfile
from urllib.parse import quote, unquote

from .automata import _gc_paused
from .learner import ANCESTOR, Learner, NamingScheme

FORMAT_NAME = "xvpa-state"
FORMAT_VERSION = "1"
_COUNT = re.compile("0|[1-9][0-9]*")  # a count as dump_state writes it
_HEADER = ("mode", "k", "l", "datatypes", "sanitized", "documents", "mindchanges")


class StateFileError(ValueError):
    """Unreadable, corrupt, or incompatible state file."""


def _decode_tokens(text: str) -> tuple:
    """The comma-separated tokens of ``text``, unescaped."""
    tokens = text.split(",")
    return tuple(map(unquote, tokens)) if "%" in text else tuple(tokens)


def _decode_context(text: str, mode: str):
    if not text:
        return ()
    if mode == ANCESTOR:
        return _decode_tokens(text)
    return tuple(map(_decode_tokens, text.split("#")))


def decode_state(text: str, mode: str):
    ctx_text, _, sib_text = text.partition("|")
    return (_decode_context(ctx_text, mode), _decode_tokens(sib_text) if sib_text else ())


def dump_state(learner: Learner) -> str:
    """Canonical text form of a learner (header plus sorted entry lines)."""
    mode = learner.scheme.mode
    tokens: dict[str, str] = {}  # a token, percent-encoded: tok(t) or etok(t)
    tok, etok = tokens.get, lambda t: tokens.setdefault(t, quote(t, safe=""))
    seg = lambda s: ",".join([tok(t) or etok(t) for t in s])
    names: dict[tuple, str] = {}  # a state's encoding: get(q) or enc(q)
    get, enc = names.get, lambda q: names.setdefault(q, (
        seg(q[0]) if mode == ANCESTOR else "#".join(map(seg, q[0]))) + "|" + seg(q[1]))
    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        f"mode {mode}",
        f"k {learner.scheme.k}",
        f"l {learner.scheme.l}",
        f"datatypes {learner.dts_hash}",
        f"sanitized {1 if learner.sanitized else 0}",
        f"documents {learner.documents_learned}",
        "mindchanges " + (learner.mind_change_text() or "-"),
    ]
    v = learner.vpa
    body = []
    body.extend(f"state {get(q) or enc(q)} {w}" for q, w in v.states.items())
    body.extend(f"final {get(q) or enc(q)} {w}" for q, w in v.finals.items())
    body.extend(
        f"call {get(src) or enc(src)} {tok(c) or etok(c)} {get(dst) or enc(dst)} {w}"
        for (src, c), (dst, w) in v.calls.items())
    body.extend(
        f"int {get(src) or enc(src)} {dt} {get(dst) or enc(dst)} {w}"
        for (src, dt), (dst, w) in v.ints.items())
    body.extend(
        f"ret {get(src) or enc(src)} {tok(c) or etok(c)} {get(p) or enc(p)} {get(dst) or enc(dst)} {w}"
        for (src, c, p), (dst, w) in v.rets.items())
    return "\n".join(lines + sorted(body)) + "\n"


@_gc_paused
def parse_state(text: str, dts, require_hash: bool = True) -> Learner:
    lines = text.splitlines()
    if not lines or not lines[0].startswith(FORMAT_NAME + " "):
        raise StateFileError("not a state file")
    version = lines[0].split()[1:2]
    if version != [FORMAT_VERSION]:
        raise StateFileError(f"unsupported state format {lines[0]!r}")

    # the header lines, each once and at its dump_state position
    header = dict(line.partition(" ")[::2] for line in lines[1:len(_HEADER) + 1])
    if tuple(header) != _HEADER:
        raise StateFileError(f"bad state header: lines 2-8 are not {' '.join(_HEADER)}")
    for key in ("k", "l", "documents", "sanitized"):  # only values dump_state writes
        value = header[key]
        if not (value in ("0", "1") if key == "sanitized" else _COUNT.fullmatch(value)):
            raise StateFileError(f"bad state header: {key} {value!r}")
    mode, mc = header["mode"], header["mindchanges"]
    try:
        scheme = NamingScheme(mode, int(header["k"]), int(header["l"]))
    except ValueError as exc:
        raise StateFileError(f"bad state header: {exc}") from None
    dts_hash = header["datatypes"]
    documents = int(header["documents"])
    if not (documents == 0 if mc == "-" else _canonical_series("," + mc, documents)):
        raise StateFileError(f"bad state header: documents {documents} with mindchanges {mc!r:.40}")
    if dts_hash != dts.content_hash:
        if require_hash:
            raise StateFileError(
                "state was created with a different datatype definition file "
                f"({dts_hash[:12]}... vs {dts.content_hash[:12]}...)")

    learner = Learner(dts, scheme, "" if mc == "-" else mc)
    learner.dts_hash = dts_hash
    learner.sanitized = header["sanitized"] == "1"

    v = learner.vpa
    decoded: dict[str, tuple] = {}  # a state token's name: get(token) or dec(token)
    get, dec = decoded.get, lambda t: decoded.setdefault(t, decode_state(t, mode))

    int_to: dict[tuple, tuple] = {}  # the shared target of a text source
    counters = [""]  # each line's counter, checked at once after the loop
    try:
        for line in lines[len(_HEADER) + 1:]:
            if not line:
                continue
            fields = line.split(" ")
            tag = fields[0]
            # each unpacking refuses a line with more or fewer fields than its tag takes
            if tag == "state" or tag == "final":
                _, q, w = fields
                (v.states if tag == "state" else v.finals)[get(q) or dec(q)] = int(w)
            elif tag == "int":
                _, src, dt, dst, w = fields
                src, dst = get(src) or dec(src), get(dst) or dec(dst)
                if int_to.setdefault(src, dst) != dst:
                    raise StateFileError(f"conflicting text transition {line!r}")
                if dt not in dts:
                    raise StateFileError(f"unknown datatype {dt!r} in state file")
                v.ints[(src, dt)] = (dst, int(w))
            elif tag == "call" or tag == "ret":
                if tag == "call":
                    _, src, label, dst, w = fields
                    table, key = v.calls, (get(src) or dec(src), label)
                else:
                    _, src, label, popped, dst, w = fields
                    table, key = v.rets, (get(src) or dec(src), label, get(popped) or dec(popped))
                if "%" in label:
                    key = (key[0], unquote(label)) + key[2:]
                table[key] = (get(dst) or dec(dst), int(w))
            else:
                raise StateFileError(f"unknown entry {line!r}")
            counters.append(w)
    except StateFileError:
        raise
    except ValueError as exc:  # a line's fields do not unpack, or a counter is no int
        raise StateFileError(f"corrupt state entry: {exc}") from None
    # dump_state writes each key once: a repeated line left fewer entries than lines
    if len(counters) - 1 != sum(map(len, (v.states, v.finals, v.calls, v.ints, v.rets))):
        raise StateFileError("corrupt state entry: a key given twice")
    # dump_state writes every counter in canonical ASCII decimal, none below 1
    joined = ",".join(counters)
    if not _canonical_series(joined, len(counters) - 1) or ",0" in joined:
        raise StateFileError("corrupt state entry: a counter dump_state never writes")
    return learner


def _canonical_series(text: str, count: int) -> bool:
    """Whether ``text`` is ``count`` comma-led integers as ``dump_state``
    writes them: ASCII digits, no empty token, no leading zero.  One pass at
    C speed; no object per entry."""
    return (text.isascii() and not text.encode().translate(None, b"0123456789,")
            and ",," not in text and not text.endswith(",")
            and re.search(",0[0-9]", text) is None and text.count(",") == count)


def save_state(learner: Learner, path: str) -> None:
    """Atomic write: temp file in the target directory, then rename.  An
    operating-system failure raises ``StateFileError``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
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
    except OSError as exc:
        raise StateFileError(f"cannot write state file: {exc}") from None


def load_state(path: str, dts, require_hash: bool = True) -> Learner:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StateFileError(f"cannot read state file: {exc}") from None
    return parse_state(text, dts, require_hash=require_hash)


class StateLock:
    """Advisory lock for one mutating command per state file.  A lock file
    that cannot be opened raises ``StateFileError``."""

    def __init__(self, path: str):
        self.path = path + ".lock"
        self._fd = None

    def __enter__(self):
        import fcntl
        try:
            self._fd = open(self.path, "w")
        except OSError as exc:
            raise StateFileError(f"cannot lock state file: {exc}") from None
        fcntl.flock(self._fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        import fcntl
        fcntl.flock(self._fd, fcntl.LOCK_UN)
        self._fd.close()
        return False
