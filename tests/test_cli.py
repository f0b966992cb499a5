"""Command-line behavior: flows, verdict lines, exit codes."""

import io
import os
import subprocess
import sys
import time

import pytest

from xvpa import cli
from xvpa.cli import CHUNK_BYTES, EXIT_OK, EXIT_PARSE, EXIT_REJECT, EXIT_STATE, main
from xvpa.events import parse_document
from xvpa.harness import build_cardealer_scenario, write_corpus
from xvpa.learner import Learner, NamingScheme

from .test_datatypes import CORRUPT_TABLES, MALFORMED_DEFINITIONS

DOC_OK = (b"<dealer><newcars><ad><model>Astra</model></ad></newcars>"
          b"<usedcars><ad><model>Corsa  GSi</model><year>1999Z</year></ad></usedcars></dealer>")
DOC_OK2 = (b"<dealer><newcars/><usedcars><ad><model>Kadett E</model>"
           b"<year>2003-05</year></ad></usedcars></dealer>")
DOC_BAD = b"<dealer><pwned/><newcars/><usedcars/></dealer>"
DOC_MALFORMED = b"<dealer><oops></dealer>"


@pytest.fixture()
def workdir(tmp_path):
    files = {}
    for name, payload in [("ok1.xml", DOC_OK), ("ok2.xml", DOC_OK2),
                          ("bad.xml", DOC_BAD), ("broken.xml", DOC_MALFORMED)]:
        path = tmp_path / name
        path.write_bytes(payload)
        files[name] = str(path)
    files["state"] = str(tmp_path / "state.txt")
    files["dir"] = tmp_path
    return files


def run(args):
    return main(args)


def test_validate_folds_a_class_without_bijective_pairing(workdir, capsys):
    """A state file whose refinement class pairs no states bijectively
    still folds, its modules accepting one language: validate accepts the
    document it was learned from."""
    doc = workdir["dir"] / "twins.xml"
    doc.write_bytes(b"<r><p><a><x/></a><a><y/></a></p><q><a><x/></a><a><y/></a></q></r>")
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2", str(doc)])
    with open(workdir["state"], encoding="utf-8") as fh:
        state = fh.read()
    edited = state.replace("ret a,y| y q,a| q,a|y 1\n", "ret a,y| y q,a| q,a|x 1\n")
    assert edited != state
    with open(workdir["state"], "w", encoding="utf-8") as fh:
        fh.write(edited)
    capsys.readouterr()
    code = run(["validate", workdir["state"], str(doc)])
    captured = capsys.readouterr()
    assert code == EXIT_OK and captured.out == f"{doc}\tACCEPT\t-\t-\n"


def test_learn_init_and_relearn(workdir, capsys):
    code = run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2",
                workdir["ok1.xml"], workdir["ok2.xml"]])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "MC=" in out
    assert os.path.exists(workdir["state"])
    code = run(["learn", workdir["state"], workdir["ok1.xml"]])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "MC=0" in out
    # --init refuses to clobber an existing state file
    code = run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2",
                workdir["ok1.xml"]])
    capsys.readouterr()
    assert code == EXIT_STATE


def test_validate_verdict_lines(workdir, capsys):
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2",
         workdir["ok1.xml"], workdir["ok2.xml"]])
    capsys.readouterr()
    code = run(["validate", workdir["state"], workdir["ok1.xml"], workdir["ok2.xml"]])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_OK
    assert all(line.split("\t")[1] == "ACCEPT" for line in lines)
    code = run(["validate", workdir["state"], workdir["bad.xml"]])
    line = capsys.readouterr().out.strip()
    path, verdict, reason, index = line.split("\t")
    assert code == EXIT_REJECT and verdict == "REJECT"
    assert reason == "unexpected-element" and index == "1"


def test_validate_empty_state_rejects_all(workdir, capsys):
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=1",
         workdir["ok1.xml"]])
    run(["unlearn", workdir["state"], workdir["ok1.xml"]])
    capsys.readouterr()
    code = run(["validate", workdir["state"], workdir["ok1.xml"]])
    out = capsys.readouterr().out
    assert code == EXIT_REJECT and "empty-language" in out
    # inputs are still parsed: a parse failure exits 3, as for any model
    missing = str(workdir["dir"] / "missing.xml")
    code = run(["validate", workdir["state"], workdir["ok1.xml"], workdir["broken.xml"], missing])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_PARSE
    assert lines == [f"{workdir['ok1.xml']}\tREJECT\tempty-language\t-",
                     f"{workdir['broken.xml']}\tREJECT\tmalformed-xml\t-",
                     f"{missing}\tREJECT\tmalformed-xml\t-"]


def test_validate_refused_model_is_state_error(workdir, capsys):
    """A state file that model generation refuses is corrupt: validate
    exits 4 with a state error, like export-dot, and prints no verdict."""
    nested = workdir["dir"] / "nested.xml"
    nested.write_bytes(b"<r><x>5</x><x/></r>")
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=1", str(nested)])
    with open(workdir["state"], encoding="utf-8") as fh:
        state = fh.read()
    capsys.readouterr()
    # a call from the state after the root; a return that two modules take;
    # a return with two targets in one module
    two_targets = state.replace("ret x| x r|x r|x 1\n", "ret x| x r| r| 1\n")
    assert two_targets != state
    for edited in (state + "call |r x x| 1\n", state + "ret r| x r| r|x 1\n", two_targets):
        with open(workdir["state"], "w", encoding="utf-8") as fh:
            fh.write(edited)
        code = run(["validate", workdir["state"], str(nested)])
        captured = capsys.readouterr()
        assert code == EXIT_STATE and captured.out == "", edited
        assert "state error" in captured.err
        assert run(["export-dot", workdir["state"]]) == EXIT_STATE
        capsys.readouterr()


def test_parse_error_exit_codes(workdir, capsys):
    code = run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=1",
                workdir["ok1.xml"], workdir["broken.xml"]])
    capsys.readouterr()
    assert code == EXIT_PARSE
    assert os.path.exists(workdir["state"])  # good documents still learned
    # malformed before any event is rejected: a parse error
    early = workdir["dir"] / "early.xml"
    early.write_bytes(b"<dealer><newcars></dealer><pwned/>")
    code = run(["validate", workdir["state"], str(early)])
    out = capsys.readouterr().out
    assert code == EXIT_PARSE and out == f"{early}\tREJECT\tmalformed-xml\t-\n"
    # the first rejection ends the document: <oops/> is rejected at event 1,
    # before the mismatched end tag
    code = run(["validate", workdir["state"], workdir["broken.xml"]])
    out = capsys.readouterr().out
    assert code == EXIT_REJECT
    assert out == f"{workdir['broken.xml']}\tREJECT\tunexpected-element\t1\n"


def test_validate_reads_documents_larger_than_one_chunk(workdir, capsys):
    """A document spans several 64 KiB chunks; a rejection in the first
    one ends it."""
    ad = b"<ad><model>Astra</model></ad>"
    two = workdir["dir"] / "two.xml"
    two.write_bytes(DOC_OK.replace(b"<newcars>", b"<newcars>" + ad))
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2",
         workdir["ok1.xml"], str(two)])
    large = workdir["dir"] / "large.xml"
    large.write_bytes(DOC_OK.replace(b"<newcars>", b"<newcars>" + ad * 10_000))
    cut = workdir["dir"] / "cut.xml"
    cut.write_bytes(b"<dealer><pwned/>" + ad * 10_000)  # never closed
    capsys.readouterr()
    code = run(["validate", workdir["state"], str(large), str(cut)])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_REJECT
    assert lines == [f"{large}\tACCEPT\t-\t-", f"{cut}\tREJECT\tunexpected-element\t1"]


def test_validate_document_shorter_than_its_held_head(workdir, capsys):
    """A document of fewer than four bytes is parsed, with the end of the
    input, in one final parse: a verdict line, not a traceback."""
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2", workdir["ok1.xml"]])
    tiny = workdir["dir"] / "t.xml"
    tiny.write_bytes(b"<x>")
    capsys.readouterr()
    code = run(["validate", workdir["state"], str(tiny)])
    assert code == EXIT_REJECT
    assert capsys.readouterr().out == f"{tiny}\tREJECT\tunexpected-element\t0\n"


class _CountingFile(io.FileIO):
    """A binary file that adds up the bytes read from it."""

    read_bytes = 0

    def read(self, size=-1):
        data = super().read(size)
        self.read_bytes += len(data)
        return data


def test_validate_stops_reading_at_the_first_rejection(workdir, capsys, monkeypatch):
    """A 200,000-deep foreign nesting is rejected at event 1, in the first
    chunk, and validate reads no further chunk of it."""
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2", workdir["ok1.xml"]])
    deep = workdir["dir"] / "deep.xml"
    deep.write_bytes(b"<dealer>" + b"<x>" * 200_000 + b"</x>" * 200_000 + b"</dealer>")
    opened = []

    def counting_open(path, mode):
        opened.append(_CountingFile(path, mode))
        return opened[-1]

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    capsys.readouterr()
    code = run(["validate", workdir["state"], str(deep)])
    assert code == EXIT_REJECT
    assert capsys.readouterr().out == f"{deep}\tREJECT\tunexpected-element\t1\n"
    assert [f.read_bytes for f in opened] == [CHUNK_BYTES] and opened[0].closed


def test_validate_refuses_a_return_into_a_text_successor(workdir, capsys):
    """Mixed content: a state file whose text transition targets the state a
    return resumes in is corrupt (exit 4)."""
    doc = workdir["dir"] / "d1.xml"
    doc.write_bytes(b"<r><a>5</a></r>")
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2", str(doc)])
    with open(workdir["state"], "a", encoding="utf-8") as fh:
        fh.write("int r| string r|a 1\n")
    capsys.readouterr()
    code = run(["validate", workdir["state"], str(doc)])
    captured = capsys.readouterr()
    assert code == EXIT_STATE and captured.out == ""
    assert captured.err == "state error: return transition targets a datatype-choice successor\n"


def test_state_errors(workdir, capsys):
    code = run(["validate", workdir["state"], workdir["ok1.xml"]])
    capsys.readouterr()
    assert code == EXIT_STATE
    (workdir["dir"] / "junk.txt").write_text("not a state file\n")
    assert run(["stats", str(workdir["dir"] / "junk.txt")]) == EXIT_STATE
    capsys.readouterr()


def test_non_utf8_state_file_is_state_error(workdir, capsys):
    """A state file that does not decode as UTF-8 is corrupt: validate and
    stats exit 4 with a message, not a traceback."""
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2",
         workdir["ok1.xml"]])
    with open(workdir["state"], "ab") as fh:
        fh.write(b"state \xff| 1\n")
    capsys.readouterr()
    assert run(["validate", workdir["state"], workdir["ok1.xml"]]) == EXIT_STATE
    assert run(["stats", workdir["state"]]) == EXIT_STATE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("state error: cannot read state file") == 2


@pytest.mark.parametrize("header", ["documents -4", "mindchanges 3,4,5", "mindchanges 1,-2"])
def test_inconsistent_state_header_is_state_error(workdir, capsys, header):
    """A document count or mind-change series that no learner writes exits
    4: stats prints nothing, and unlearn leaves the file as it was."""
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2",
         workdir["ok1.xml"], workdir["ok2.xml"]])
    with open(workdir["state"], encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    key = header.split()[0]
    edited = "\n".join(header if line.startswith(key + " ") else line for line in lines)
    with open(workdir["state"], "w", encoding="utf-8") as fh:
        fh.write(edited)
    capsys.readouterr()
    assert run(["stats", workdir["state"]]) == EXIT_STATE
    assert run(["unlearn", workdir["state"], workdir["ok2.xml"]]) == EXIT_STATE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("state error: bad state header") == 2
    with open(workdir["state"], encoding="utf-8") as fh:
        assert fh.read() == edited


def test_state_path_in_missing_directory_is_state_error(workdir, capsys):
    """learn, unlearn and sanitize lock the state file first; in a directory
    that does not exist that fails, and each exits 4."""
    state = str(workdir["dir"] / "missing" / "state.txt")
    for args in (["learn", state, "--init", "mode=ancestor", "k=1", "l=2", workdir["ok1.xml"]],
                 ["unlearn", state, workdir["ok1.xml"]],
                 ["sanitize", state]):
        assert run(args) == EXIT_STATE, args
    captured = capsys.readouterr()
    assert captured.err.count("state error: cannot lock state file") == 3
    assert not (workdir["dir"] / "missing").exists()


def test_learn_unlearn_restores_file_bytes(workdir, capsys):
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2",
         workdir["ok1.xml"]])
    with open(workdir["state"], "rb") as fh:
        before = fh.read()
    run(["learn", workdir["state"], workdir["ok2.xml"]])
    run(["unlearn", workdir["state"], workdir["ok2.xml"]])
    capsys.readouterr()
    with open(workdir["state"], "rb") as fh:
        assert fh.read() == before


def test_unlearn_reports_only_what_it_saved(workdir, capsys):
    """Unlearning a document that was never learned fails the whole command:
    the state file is unchanged, no document is reported unlearned, and the
    error names the failing path."""
    never = workdir["dir"] / "never.xml"
    never.write_bytes(b"<dealer><newcars/><usedcars/></dealer>")
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2",
         workdir["ok1.xml"], workdir["ok2.xml"]])
    with open(workdir["state"], "rb") as fh:
        before = fh.read()
    capsys.readouterr()
    code = run(["unlearn", workdir["state"], workdir["ok1.xml"], str(never)])
    captured = capsys.readouterr()
    assert code == EXIT_STATE
    assert captured.out == ""
    assert captured.err.startswith(f"error: {never}: ")
    with open(workdir["state"], "rb") as fh:
        assert fh.read() == before
    assert run(["unlearn", workdir["state"], workdir["ok1.xml"]]) == EXIT_OK
    assert capsys.readouterr().out == f"{workdir['ok1.xml']}\tunlearned\n"


def test_unlearn_refuses_a_corrupt_sanitized_flag(workdir, capsys):
    """A ``sanitized`` value that ``dump_state`` never writes is a corrupt
    state, not an unsanitized one: unlearn exits 4 and changes nothing."""
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2",
         workdir["ok1.xml"], workdir["ok2.xml"]])
    with open(workdir["state"], encoding="utf-8") as fh:
        edited = fh.read().replace("sanitized 0\n", "sanitized 1 \n")
    assert "sanitized 1 \n" in edited
    with open(workdir["state"], "w", encoding="utf-8") as fh:
        fh.write(edited)
    capsys.readouterr()
    assert run(["unlearn", workdir["state"], workdir["ok2.xml"]]) == EXIT_STATE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "state error: bad state header: sanitized '1 '\n"
    with open(workdir["state"], encoding="utf-8") as fh:
        assert fh.read() == edited


def test_sanitize_reporting(workdir, capsys):
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2",
         workdir["ok1.xml"]])
    capsys.readouterr()
    with open(workdir["state"], "rb") as fh:
        before = fh.read()
    assert run(["sanitize", workdir["state"]]) == EXIT_OK
    assert "not-applicable" in capsys.readouterr().out
    with open(workdir["state"], "rb") as fh:
        assert fh.read() == before
    for _ in range(3):
        run(["learn", workdir["state"], workdir["ok1.xml"], workdir["ok2.xml"]])
    capsys.readouterr()
    assert run(["sanitize", workdir["state"]]) == EXIT_OK
    assert "applied" in capsys.readouterr().out


def test_sanitize_refused_model_is_not_applicable(workdir, capsys):
    """Sanitize decides on the generated model, so a state file that model
    generation refuses is not applicable and stays byte-identical."""
    nested = str(workdir["dir"] / "nested.xml")
    with open(nested, "wb") as fh:
        fh.write(b"<r><x>5</x><x/></r>")
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=1", nested, nested, nested])
    with open(workdir["state"], encoding="utf-8") as fh:
        state = fh.read()
    # a call from the state after the root; a return that two modules take;
    # a return with two targets in one module
    two_targets = state.replace("ret x| x r|x r|x 3\n", "ret x| x r| r| 3\n")
    assert two_targets != state
    for edited in (state + "call |r x x| 3\n", state + "ret r| x r| r|x 3\n", two_targets):
        with open(workdir["state"], "w", encoding="utf-8") as fh:
            fh.write(edited)
        capsys.readouterr()
        assert run(["sanitize", workdir["state"]]) == EXIT_OK
        assert capsys.readouterr().out == "sanitize: not-applicable\n"
        with open(workdir["state"], encoding="utf-8") as fh:
            assert fh.read() == edited


def test_stats_reports_modules(workdir, capsys, dts):
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2",
         workdir["ok1.xml"], workdir["ok2.xml"]])
    capsys.readouterr()
    assert run(["stats", workdir["state"]]) == EXIT_OK
    out = capsys.readouterr().out
    assert "modules\t7" in out
    assert "documents-learned\t2" in out
    learner = Learner(dts, NamingScheme("ancestor", 1, 2))
    first, second = (learner.learn(parse_document(raw)) for raw in (DOC_OK, DOC_OK2))
    assert f"mind-changes\t{first},{second}\n" in out
    run(["unlearn", workdir["state"], workdir["ok2.xml"]])
    run(["unlearn", workdir["state"], workdir["ok1.xml"]])
    capsys.readouterr()
    assert run(["stats", workdir["state"]]) == EXIT_OK
    assert "mind-changes\t-\n" in capsys.readouterr().out


def test_stats_after_learning_fifty_generated_documents(tmp_path, capsys, master_seed):
    from xvpa.harness import cardealer_grammar, generate
    from xvpa.events import serialize_xml
    paths = []
    for i, stream in enumerate(generate(cardealer_grammar(), 50, master_seed)):
        path = tmp_path / f"doc-{i:02d}.xml"
        path.write_text(serialize_xml(stream), encoding="utf-8")
        paths.append(str(path))
    state = str(tmp_path / "state.txt")
    assert run(["learn", state, "--init", "mode=ancestor", "k=1", "l=2"] + paths) == EXIT_OK
    capsys.readouterr()
    assert run(["stats", state]) == EXIT_OK
    out = capsys.readouterr().out
    assert "modules\t7" in out
    assert "documents-learned\t50" in out


def test_export_dot(workdir, capsys, tmp_path):
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2",
         workdir["ok1.xml"]])
    capsys.readouterr()
    target = str(tmp_path / "graph.dot")
    assert run(["export-dot", workdir["state"], "--out", target]) == EXIT_OK
    with open(target) as fh:
        assert fh.read().startswith("digraph xvpa {")
    assert run(["export-dot", workdir["state"], "--compiled"]) == EXIT_OK
    assert "digraph" in capsys.readouterr().out


def test_eval_command(tmp_path, capsys, master_seed):
    corpus = build_cardealer_scenario(master_seed, train_count=20, normal_count=40)
    corpus_dir = str(tmp_path / "corpus")
    write_corpus(corpus, corpus_dir)
    report_path = str(tmp_path / "report.tsv")
    code = run(["eval", corpus_dir, "--mode", "ancestor", "-k", "1", "-l", "2",
                "--report", report_path])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "FPR 0.00%" in out
    with open(report_path) as fh:
        assert "structural-wrapping" in fh.read()


def _corpus(tmp_path, train):
    directory = tmp_path / "corpus"
    (directory / "train").mkdir(parents=True)
    for i, payload in enumerate(train, 1):
        (directory / "train" / f"{i}.xml").write_bytes(payload)
    return str(directory)


def test_eval_two_roots_evaluate(tmp_path, capsys):
    """Two root elements make one model with two start modules: eval
    accepts each root's normals, detects a root holding the other root's
    content, and exits 0."""
    corpus = _corpus(tmp_path, [b"<a>5</a>", b"<b>5</b>"])
    for sub, name, payload in [("normal", "a.xml", b"<a>7</a>"), ("normal", "b.xml", b"<b>9</b>"),
                               ("attack/nested", "ab.xml", b"<a><b>5</b></a>")]:
        (tmp_path / "corpus" / "test" / sub).mkdir(parents=True, exist_ok=True)
        (tmp_path / "corpus" / "test" / sub / name).write_bytes(payload)
    assert run(["eval", corpus]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("normals accepted 2/2, attacks detected 1/1\n")


def test_eval_malformed_training_document_is_parse_error(tmp_path, capsys):
    corpus = _corpus(tmp_path, [b"<a>5"])
    code = run(["eval", corpus])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert os.path.join(corpus, "train", "1.xml") in err


def test_eval_unreadable_document_is_parse_error(tmp_path, capsys):
    """A corpus document that cannot be read (here a directory) exits 3
    with a message, not a traceback and the "rejected" code."""
    corpus = _corpus(tmp_path, [b"<a>5</a>"])
    os.mkdir(os.path.join(corpus, "train", "x.xml"))
    code = run(["eval", corpus])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.startswith("parse error: ") and os.path.join(corpus, "train", "x.xml") in err


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "xvpa.cli", *args],
                          capture_output=True, text=True, timeout=60)


def test_cli_import_leaves_the_harness_unloaded():
    """Only eval reads the harness, so importing the command line in a
    fresh interpreter, as every command does, leaves it unloaded."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, xvpa.cli; print('xvpa.harness' in sys.modules)"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


@pytest.mark.parametrize("option", ["-k", "-l"])
def test_eval_scheme_bound_below_one_is_usage_error(tmp_path, option):
    """-k 0 or -l 0 names no scheme: argparse's usage error (exit 2), not a
    traceback and the "rejected" code."""
    proc = _cli("eval", _corpus(tmp_path, [b"<a>5</a>"]), option, "0")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        f"xvpa eval: error: argument {option}: '0' is not a positive integer")
    assert "Traceback" not in proc.stderr


def test_eval_report_in_missing_directory_is_output_error(tmp_path):
    target = tmp_path / "missing" / "r.tsv"
    proc = _cli("eval", _corpus(tmp_path, [b"<a>5</a>"]), "--report", str(target))
    assert proc.returncode == EXIT_STATE
    assert proc.stderr == f"error: cannot write {target}: No such file or directory\n"


def test_export_dot_to_missing_directory_is_output_error(workdir, tmp_path):
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2",
         workdir["ok1.xml"]])
    target = tmp_path / "missing" / "x.dot"
    proc = _cli("export-dot", workdir["state"], "--out", str(target))
    assert proc.returncode == EXIT_STATE
    assert proc.stderr == f"error: cannot write {target}: No such file or directory\n"


def test_huge_repetition_in_datatype_file_exits_4_at_once(tmp_path):
    """A repetition count that would unroll to a huge automaton is refused
    while the file is read, so the command exits 4 within seconds."""
    bad = tmp_path / "dts.txt"
    bad.write_bytes(b"version 1\ndatatype top topKind .*\ndatatype d k (a{1000}){1000}\n"
                    b"lexorder d top\n")
    doc = tmp_path / "d.xml"
    doc.write_bytes(DOC_OK)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "xvpa.cli", "--datatypes", str(bad), "learn",
         str(tmp_path / "s.txt"), "--init", "mode=ancestor", str(doc)],
        capture_output=True, text=True, timeout=60)
    assert time.monotonic() - start < 30
    assert proc.returncode == EXIT_STATE
    assert proc.stderr.startswith("error: cannot load datatype definitions: line 3: ")
    assert "more than 1000 atoms" in proc.stderr


def test_exponential_determinization_in_datatype_file_exits_4_at_once(tmp_path):
    """A short pattern whose DFA has 2**26 states is refused once subset
    construction passes its state cap, so the command exits 4 within
    seconds."""
    bad = tmp_path / "dts.txt"
    bad.write_bytes(b"version 1\ndatatype top topKind .*\ndatatype d k (a|b)*a(a|b){25}\n"
                    b"lexorder d top\n")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "xvpa.cli", "--datatypes", str(bad), "stats",
         str(tmp_path / "s.txt")],
        capture_output=True, text=True, timeout=60)
    assert time.monotonic() - start < 10
    assert proc.returncode == EXIT_STATE
    assert proc.stderr.startswith("error: cannot load datatype definitions: line 3: ")
    assert "more than 4096 states" in proc.stderr


def test_scattered_class_in_datatype_file_loads_quickly(tmp_path):
    """A star over a large scattered character class determinizes in time
    linear in its intervals: 400 codepoints 7 apart under a star, then a
    2,048-state suffix, load well within seconds."""
    scattered = "".join("\\u{%x}" % (0x100 + 7 * i) for i in range(400))
    path = tmp_path / "dts.txt"
    path.write_text("version 1\ndatatype top topKind .*\n"
                    f"datatype d k (.|[{scattered}])*a(a|b){{10}}\nlexorder d top\n")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "xvpa.cli", "--datatypes", str(path), "stats",
         str(tmp_path / "missing.txt")],
        capture_output=True, text=True, timeout=120)
    assert time.monotonic() - start < 15
    # the definitions loaded; the missing state file is the only error
    assert proc.returncode == EXIT_STATE
    assert proc.stderr.startswith("state error: "), proc.stderr


def test_console_entry_point(tmp_path):
    doc = tmp_path / "d.xml"
    doc.write_bytes(DOC_OK)
    state = str(tmp_path / "s.txt")
    proc = subprocess.run(
        [sys.executable, "-m", "xvpa.cli", "learn", state, "--init",
         "mode=ancestor", "k=1", "l=2", str(doc)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "xvpa.cli", "validate", state, str(doc)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ACCEPT" in proc.stdout


def test_datatype_override_via_environment(tmp_path, workdir, monkeypatch):
    from xvpa.datatypes import DEFAULT_PATH
    copy = tmp_path / "dts.txt"
    with open(DEFAULT_PATH, "rb") as fh:
        payload = fh.read()
    copy.write_bytes(payload + b"\n# local note\n")
    monkeypatch.setenv("XVPA_DATATYPES", str(copy))
    assert run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=1",
                workdir["ok1.xml"]]) == EXIT_OK
    # the default file now has a different hash: mutating commands refuse
    monkeypatch.delenv("XVPA_DATATYPES")
    assert run(["learn", workdir["state"], workdir["ok1.xml"]]) == EXIT_STATE


@pytest.mark.parametrize("name", sorted(MALFORMED_DEFINITIONS))
def test_malformed_datatype_file_is_state_error(tmp_path, workdir, capsys, name):
    payload, message = MALFORMED_DEFINITIONS[name]
    path = tmp_path / "dts.txt"
    path.write_bytes(payload)
    code = run(["--datatypes", str(path), "learn", workdir["state"], "--init", "mode=ancestor",
                workdir["ok1.xml"]])
    assert code == EXIT_STATE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load datatype definitions: ") and message in err
    assert "Traceback" not in err and not os.path.exists(workdir["state"])


@pytest.mark.parametrize("name", ["edited-row", "renamed-datatype"])
def test_corrupt_dfa_table_is_state_error(tmp_path, workdir, capsys, monkeypatch, name):
    """A packaged DFA table derived from the definition file in use but
    corrupt since is refused like a malformed definition file."""
    table = tmp_path / "table.txt"
    table.write_bytes(CORRUPT_TABLES[name])
    monkeypatch.setattr("xvpa.datatypes.DFA_TABLE_PATH", str(table))
    code = run(["learn", workdir["state"], "--init", "mode=ancestor", workdir["ok1.xml"]])
    assert code == EXIT_STATE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load datatype definitions: ") and "DFA table" in err
    assert "Traceback" not in err and not os.path.exists(workdir["state"])


@pytest.mark.parametrize("value, message", [
    ("k=0", "locality bounds k and l must be >= 1"),
    ("mode=bogus", "unknown naming mode 'bogus'"),
    ("k=x", "invalid literal for int() with base 10: 'x'"),
], ids=["k=0", "mode=bogus", "k=x"])
def test_learn_bad_init_value_is_usage_error(workdir, value, message):
    """A bad --init value names no scheme: argparse's usage error (exit 2),
    raised before the state file is locked, so no file is left behind."""
    proc = _cli("learn", workdir["state"], "--init", value, workdir["ok1.xml"])
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        f"xvpa learn: error: argument --init: bad value: {message}")
    assert "Traceback" not in proc.stderr
    assert sorted(os.listdir(workdir["dir"])) == ["bad.xml", "broken.xml", "ok1.xml", "ok2.xml"]
