"""Command-line behavior: flows, verdict lines, exit codes."""

import os
import subprocess
import sys

import pytest

from xvpa.cli import EXIT_OK, EXIT_PARSE, EXIT_REJECT, EXIT_STATE, main
from xvpa.harness import build_cardealer_scenario, write_corpus

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
    code = run(["validate", workdir["state"], workdir["broken.xml"]])
    out = capsys.readouterr().out
    assert code == EXIT_PARSE and "malformed-xml" in out


def test_state_errors(workdir, capsys):
    code = run(["validate", workdir["state"], workdir["ok1.xml"]])
    capsys.readouterr()
    assert code == EXIT_STATE
    (workdir["dir"] / "junk.txt").write_text("not a state file\n")
    assert run(["stats", str(workdir["dir"] / "junk.txt")]) == EXIT_STATE
    capsys.readouterr()


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


def test_stats_reports_modules(workdir, capsys):
    run(["learn", workdir["state"], "--init", "mode=ancestor", "k=1", "l=2",
         workdir["ok1.xml"], workdir["ok2.xml"]])
    capsys.readouterr()
    assert run(["stats", workdir["state"]]) == EXIT_OK
    out = capsys.readouterr().out
    assert "modules\t7" in out
    assert "documents-learned\t2" in out


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


def test_eval_structure_error_is_state_error(tmp_path, capsys):
    """Two root elements make no model: a message and exit 4, not a
    traceback and the "rejected" code."""
    code = run(["eval", _corpus(tmp_path, [b"<a>5</a>", b"<b>5</b>"])])
    err = capsys.readouterr().err
    assert code == EXIT_STATE
    assert err.startswith("error: ") and "multiple root elements" in err


def test_eval_malformed_training_document_is_parse_error(tmp_path, capsys):
    corpus = _corpus(tmp_path, [b"<a>5"])
    code = run(["eval", corpus])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert os.path.join(corpus, "train", "1.xml") in err


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
