"""Anomaly detection for XML streams via learned visibly pushdown automata.

Learn the language of an XML-based protocol from example documents and
validate further documents against it in one pass.  The learned automaton
has no extension points: anything outside the observed structure and text
shapes, including content smuggled behind wrapper elements, is rejected.
"""

__version__ = "0.1.0"

from .automata import (Cxvpa, Dxvpa, EmptyLanguageError, Validator, Verdict, build_xvpa,
                       compile_cxvpa, minimize, to_dot, validate)
from .datatypes import (LexicalDatatypeSystem, default_system, load_datatype_system)
from .events import (DocumentEventStream, Event, InvariantViolation,
                     MalformedXmlError, QName, parse_document, serialize_xml,
                     stream_from_events)
from .learner import (ANCESTOR, ANCESTOR_SIBLING, Learner, NamingScheme,
                      call_name, int_name, ret_name)
from .persistence import dump_state, load_state, parse_state, save_state
from .weighted import START_STATE, SnapshotStats, WeightedVpa

__all__ = [
    "ANCESTOR", "ANCESTOR_SIBLING", "Cxvpa", "DocumentEventStream", "Dxvpa",
    "EmptyLanguageError", "Event", "InvariantViolation", "Learner",
    "LexicalDatatypeSystem", "MalformedXmlError", "NamingScheme", "QName",
    "START_STATE", "SnapshotStats", "Validator", "Verdict", "WeightedVpa", "build_xvpa",
    "call_name", "compile_cxvpa", "default_system", "dump_state", "int_name",
    "load_datatype_system", "load_state", "minimize", "parse_document",
    "parse_state", "ret_name", "save_state", "serialize_xml",
    "stream_from_events", "to_dot", "validate",
]
