"""Command-line surface: batch learning, validation, and state upkeep.

Commands operate on a durable state file.  Exit codes: 0 on success (and
all documents accepted for ``validate``), 1 when a validation rejected a
document, 3 when an input document failed to parse, 4 for state-file
problems (missing, corrupt, scheme or datatype-hash mismatch).  Argument
errors use argparse's conventional exit code 2.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .automata import (EMPTY_LANGUAGE, AutomatonStructureError, EmptyLanguageError,
                       build_xvpa, compile_cxvpa, to_dot, validate)
from .datatypes import load_datatype_system
from .events import MalformedXmlError, parse_document
from .harness import evaluate, read_corpus
from .learner import Learner, LearnerError, NamingScheme
from .persistence import StateFileError, StateLock, load_state, save_state

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_PARSE = 3
EXIT_STATE = 4


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        dts = load_datatype_system(args.datatypes)
    except OSError as exc:
        print(f"error: cannot load datatype definitions: {exc}", file=sys.stderr)
        return EXIT_STATE
    try:
        return args.func(args, dts)
    except StateFileError as exc:
        print(f"state error: {exc}", file=sys.stderr)
        return EXIT_STATE
    except LearnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xvpa",
        description="Anomaly detection for XML: learn an automaton from "
                    "example documents and validate streams against it.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--datatypes", metavar="FILE", default=None,
                        help="datatype definition file (default: packaged file, "
                             "or the XVPA_DATATYPES environment variable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn documents into a state file")
    p.add_argument("state")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--init", nargs="+", metavar="KEY=VALUE", default=None,
                   help="create the state file first; keys: mode=<ancestor|"
                        "ancestor-sibling> k=<int> l=<int>")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("validate", help="validate documents against the learned language")
    p.add_argument("state")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("unlearn", help="reverse previously learned documents")
    p.add_argument("state")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=cmd_unlearn)

    p = sub.add_parser("sanitize", help="trim low-frequency states and transitions")
    p.add_argument("state")
    p.set_defaults(func=cmd_sanitize)

    p = sub.add_parser("stats", help="summarize a state file")
    p.add_argument("state")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export-dot", help="write the generated automaton as Graphviz DOT")
    p.add_argument("state")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--compiled", action="store_true",
                   help="label internal edges with predicate ids instead of datatypes")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("eval", help="learn a corpus directory and report detection metrics")
    p.add_argument("corpus", help="directory with train/, test/normal/, test/attack/<kind>/")
    p.add_argument("--mode", choices=["ancestor", "ancestor-sibling"], default="ancestor")
    p.add_argument("-k", type=int, default=1)
    p.add_argument("-l", type=int, default=2)
    p.add_argument("--report", default=None, help="write the TSV report here")
    p.set_defaults(func=cmd_eval)
    return parser


def _parse_init(tokens):
    """Split --init tokens into a scheme and spilled-over input paths.

    argparse's greedy nargs would otherwise swallow the input files that
    follow ``--init mode=... k=... l=...`` on the command line.
    """
    options = {"mode": "ancestor", "k": "1", "l": "1"}
    spill = []
    for token in tokens:
        key, sep, value = token.partition("=")
        if not spill and sep and key in options:
            options[key] = value
        else:
            spill.append(token)
    try:
        return NamingScheme(options["mode"], int(options["k"]), int(options["l"])), spill
    except ValueError as exc:
        raise StateFileError(f"bad --init options: {exc}") from None


def _load_inputs(paths):
    """Parse each path; yields (path, stream-or-None).  Parse failures are
    reported and yielded as None."""
    for path in paths:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            yield path, parse_document(data)
        except (OSError, MalformedXmlError) as exc:
            print(f"{path}: parse error: {exc}", file=sys.stderr)
            yield path, None


def cmd_learn(args, dts) -> int:
    import os
    inputs = list(args.inputs)
    with StateLock(args.state):
        if args.init is not None:
            if os.path.exists(args.state):
                raise StateFileError(
                    f"{args.state} already exists; --init would discard it")
            scheme, spill = _parse_init(args.init)
            inputs = spill + inputs
            learner = Learner(dts, scheme)
        else:
            learner = load_state(args.state, dts)
        if not inputs:
            print("error: no input documents", file=sys.stderr)
            return EXIT_STATE
        had_parse_error = False
        for path, stream in _load_inputs(inputs):
            if stream is None:
                had_parse_error = True
                continue
            changes = learner.learn(stream)
            print(f"{path}\tMC={changes}")
        save_state(learner, args.state)
    return EXIT_PARSE if had_parse_error else EXIT_OK


def cmd_validate(args, dts) -> int:
    learner = load_state(args.state, dts, require_hash=False)
    if learner.dts_hash != dts.content_hash:
        print("warning: datatype definitions differ from learning time", file=sys.stderr)
    try:
        model = compile_cxvpa(build_xvpa(learner.snapshot(), dts))
    except EmptyLanguageError:
        model = None  # every parsed input is rejected
    except AutomatonStructureError as exc:
        print(f"state error: {exc}", file=sys.stderr)
        return EXIT_STATE
    rejected = False
    had_parse_error = False
    for path, stream in _load_inputs(args.inputs):
        if stream is None:
            had_parse_error = True
            reason, index = "malformed-xml", "-"
        elif model is None:
            reason, index = EMPTY_LANGUAGE, "-"
        else:
            verdict = validate(model, stream)
            if verdict.accepted:
                print(f"{path}\tACCEPT\t-\t-")
                continue
            reason, index = verdict.reason, verdict.event_index
        rejected = True
        print(f"{path}\tREJECT\t{reason}\t{index}")
    if had_parse_error:
        return EXIT_PARSE
    return EXIT_REJECT if rejected else EXIT_OK


def cmd_unlearn(args, dts) -> int:
    with StateLock(args.state):
        learner = load_state(args.state, dts)
        had_parse_error = False
        for path, stream in _load_inputs(args.inputs):
            if stream is None:
                had_parse_error = True
                continue
            learner.unlearn(stream)
            print(f"{path}\tunlearned")
        save_state(learner, args.state)
    return EXIT_PARSE if had_parse_error else EXIT_OK


def cmd_sanitize(args, dts) -> int:
    with StateLock(args.state):
        learner = load_state(args.state, dts)
        applied = learner.sanitize()
        if applied:
            save_state(learner, args.state)
            print("sanitize: applied")
        else:
            print("sanitize: not-applicable")
    return EXIT_OK


def cmd_stats(args, dts) -> int:
    learner = load_state(args.state, dts, require_hash=False)
    stats = learner.vpa.stats()
    print(f"scheme\t{learner.scheme.mode} k={learner.scheme.k} l={learner.scheme.l}")
    print(f"documents-learned\t{learner.documents_learned}")
    print(f"sanitized\t{'yes' if learner.sanitized else 'no'}")
    print(f"states\t{stats.states}")
    print(f"transitions\t{stats.transitions}")
    print(f"finals\t{stats.finals}")
    print(f"total-weight\t{stats.total_weight}")
    series = learner.mind_change_series()
    print("mind-changes\t" + (",".join(map(str, series)) if series else "-"))
    try:
        dxvpa = build_xvpa(learner.snapshot(), dts)
        print(f"modules\t{len(dxvpa.modules)}")
    except (EmptyLanguageError, AutomatonStructureError) as exc:
        print(f"modules\t- ({exc})")
    return EXIT_OK


def cmd_export_dot(args, dts) -> int:
    learner = load_state(args.state, dts, require_hash=False)
    try:
        dxvpa = build_xvpa(learner.snapshot(), dts)
    except (EmptyLanguageError, AutomatonStructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATE
    dot = to_dot(dxvpa, compiled=args.compiled)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    return EXIT_OK


def cmd_eval(args, dts) -> int:
    try:
        corpus = read_corpus(args.corpus)
    except MalformedXmlError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if not corpus.train:
        print("error: corpus has no training documents", file=sys.stderr)
        return EXIT_STATE
    learner = Learner(dts, NamingScheme(args.mode, args.k, args.l))
    for stream in corpus.train:
        learner.learn(stream)
    try:
        model = compile_cxvpa(build_xvpa(learner.snapshot(), dts))
    except (EmptyLanguageError, AutomatonStructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATE
    report = evaluate(model, corpus)
    print(report.summary())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_tsv())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
