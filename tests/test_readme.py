"""The README's library quickstart runs as documented."""

import re
from pathlib import Path

from xvpa.events import serialize_xml
from xvpa.harness import SQL_INJECTION_TEXT, STRUCTURAL_WRAPPING, build_cardealer_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart_blocks():
    """The Python blocks of the README's library quickstart section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_quickstart_runs_on_cardealer_documents(capsys):
    """Both blocks run with ``training_documents``, ``incoming`` and
    ``chunks`` bound to cardealer documents: a normal document is accepted,
    an attack is rejected and reported, and the push route's verdict on the
    chunks equals the batch verdict on the same bytes."""
    blocks = _quickstart_blocks()
    assert len(blocks) == 2
    scenario = build_cardealer_scenario(7, train_count=50, normal_count=1)
    training_documents = [serialize_xml(s).encode() for s in scenario.train]
    documents = [scenario.test_normal[0], scenario.test_attacks[STRUCTURAL_WRAPPING][0],
                 scenario.test_attacks[SQL_INJECTION_TEXT][0]]
    verdicts = []
    for stream in documents:
        raw = serialize_xml(stream).encode()
        namespace = {"training_documents": training_documents, "incoming": raw,
                     "chunks": [raw[i:i + 7] for i in range(0, len(raw), 7)]}
        exec(blocks[0], namespace)
        batch = namespace["verdict"]
        exec(blocks[1], namespace)
        assert namespace["verdict"] == batch
        verdicts.append(batch)
    assert [v.accepted for v in verdicts] == [True, False, False]
    printed = capsys.readouterr().out.splitlines()
    assert printed == [f"{v.reason} at event {v.event_index}" for v in verdicts[1:]]
