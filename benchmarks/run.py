"""One seeded benchmark run of the xvpa pipeline, from bytes to verdict.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the program is imported from its
``src/`` directory and nowhere else.  Each workload is a closed loop: one
caller in one process, and the next document goes in only after the
previous result is out.  Every output is checked; the last line of standard
output is a JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` the workload runs twice in the process,
untraced and then traced, for half the seconds each, and the metrics are
the per-layer ones from the traced pass plus the tracing overhead; the
spans are written to ``.bench_out/`` in the checkout.  README.md in this directory lists the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from html.parser import HTMLParser
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cardealer-stream", "recursive-model", "idlog-learn", "hostile")

# set-ups per run; their median is setup_s
SETUPS = 5
# fewest samples of a measurement taken between windows
MIN_SIDE = 5
# a sample of model_s or unlearn_docs_s repeats its work for at least this
# long, so that one garbage collection more or less does not decide it ...
SAMPLE_SECONDS = 0.25
# ... and for at least this share of the latest window's time
SAMPLE_SHARE = 0.1
# the reference loop runs between operations at least this often, in
# seconds of processor time ...
CALIBRATE_S = 0.1
# ... a timing is scaled by the median of the NEAREST times around it ...
NEAREST = 3
# ... to the speed at which the loop takes REF_S of processor time,
# about its time on a two-processor x86-64 virtual machine with Python
# 3.11.7 at the faster of the speeds that machine alternates between
REF_S = {"text": 0.0008, "table": 0.0032}
# what the text loop parses ...
REF_TEXT = "".join(f'<ad id="{i}"><model>Astra {i}</model><year>19{i % 100:02d}</year>'
                   f'<note>used &amp; fine</note></ad>' for i in range(25))
# ... and the keys the table loop stores in a dict and looks up: with the
# keys, about 4 MB, more than a processor's second-level cache holds
REF_KEYS = [(f"k{i * 7919 % 1_000_003:07d}", i) for i in range(20_000)]
# the reference loop of each workload: the one whose speed followed the
# workload's own most closely (README.md)
REFERENCE = {"cardealer-stream": "text", "recursive-model": "table",
             "idlog-learn": "text", "hostile": "text"}


@dataclass(frozen=True)
class Size:
    normals: int          # cardealer normal test documents
    depth: int            # recursive grammar depth
    width: int            # recursive grammar width
    docs: int             # recursive training documents
    wrapped: int          # structural-wrapping mutants of them
    idlog_batch: int      # idlog documents learned per window
    hostile_div: int      # divisor of the hostile sizes of the ROADMAP


SIZES = {
    "full": Size(normals=4000, depth=5, width=3, docs=200, wrapped=20,
                 idlog_batch=1000, hostile_div=4),
    # for the smoke test: every path in about a second
    "tiny": Size(normals=20, depth=3, width=2, docs=20, wrapped=4,
                 idlog_batch=40, hostile_div=1000),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "xvpa" / "__init__.py").is_file():
        print(f"run.py: the program's source is missing ({src / 'xvpa'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import xvpa
    if Path(xvpa.__file__).resolve().parent != (src / "xvpa").resolve():
        print(f"run.py: imported xvpa from {xvpa.__file__}, not from {src}", file=sys.stderr)
        return 2
    from spans import Calls, NullTracer, Tracer

    size = SIZES[args.size]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} size {args.size}")
    print(f"# python {platform.python_version()} nproc {len(os.sched_getaffinity(0))} "
          f"platform {platform.platform()}")

    seconds = args.seconds / 2 if args.trace else args.seconds
    reference = REFERENCE[args.workload]
    plain = Run(Calls(NullTracer()), NullTracer(), seconds, reference)
    RUNNERS[args.workload](plain, args.seed, size)
    print("# windows " + json.dumps(plain.window_values()))
    if plain.kind_s:
        print("# median seconds per document kind, at reference speed " + json.dumps(
            {kind: statistics.median(times) for kind, times in plain.kind_s.items()}))
    refs = statistics.quantiles(plain.speed.times, n=4)
    print(f"# wall clock: {sum(w.docs for w in plain.windows) / sum(w.wall_s for w in plain.windows):.6g} docs/s; "
          f"reference loop {len(plain.speed.times)} times, quartiles "
          + " ".join(f"{q * 1e3:.3f}" for q in refs) + " ms")
    if not args.trace:
        metrics = plain.end_to_end()
        attempted, failed = plain.attempted, plain.failed
    else:
        tracer = Tracer()
        traced = Run(Calls(tracer), tracer, seconds, reference)
        with tracer.patched():
            RUNNERS[args.workload](traced, args.seed, size)
        overhead = plain.docs_s() / traced.docs_s() - 1
        metrics = per_layer(tracer, overhead)
        attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        stem = out / f"trace-{args.workload}-seed{args.seed}"
        tracer.write(stem, {"workload": args.workload, "seed": args.seed,
                            "overhead": overhead, "untraced": plain.end_to_end()})
        print_phases(tracer)
        print(f"# spans written to {stem}.tsv, summary to {stem}.json")

    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


class Speed:
    """The processor's speed over a run, from a fixed reference loop.

    Every time in a run is processor time of the run's own process
    (``process_time``), so time the process spends waiting for a processor
    that another process holds is not counted: with a second process busy
    on the same processor, throughput per window of cardealer-stream at
    reference speed, timed on the wall clock, went from 3000 to 6400 docs/s
    within one run.  The same work still runs at different speeds, up to
    twice apart, for a few to tens of seconds at a time, on a machine whose
    processors are shared with other virtual machines.  A reference loop
    does work of the kind the program does, in code the program does not
    contain: the ``text`` loop tokenizes a fixed XML text with the standard
    library's pure-Python ``HTMLParser``, and the ``table`` loop stores
    20,000 keys in a dict and looks each up, in a table larger than a
    processor's cache.  ``at_reference()`` turns processor seconds into
    seconds at reference speed once the run is over: measured seconds
    times REF_S over the median of the NEAREST reference times around the
    operation's midpoint, before and after it.
    """

    def __init__(self, loop):
        self.loop = loop                 # "text" or "table"
        self.stamps = []                 # wall-clock midpoint of each reference run
        self.times = []                  # its processor time, seconds
        self._last = 0.0
        self._factors = None
        self.measure()

    def measure(self):
        wall, start = perf_counter(), process_time()
        if self.loop == "text":
            parser = _RefParser()
            parser.feed(REF_TEXT)
            parser.close()
        else:
            table, found = {}, 0
            for key in REF_KEYS:
                table[key] = key
            for key in REF_KEYS:
                found += key in table
        self._last = process_time()
        self.stamps.append((wall + perf_counter()) / 2)
        self.times.append(self._last - start)

    def tick(self):
        """Run the reference loop if it has not run for CALIBRATE_S."""
        if process_time() - self._last >= CALIBRATE_S:
            self.measure()

    def at_reference(self, timing) -> float:
        """Seconds at reference speed of ``timing``, a pair of wall-clock
        midpoint and processor seconds; every reference run is done."""
        if self._factors is None:
            # the factor for a timing between reference runs i-1 and i
            count = len(self.times)
            self._factors = []
            for i in range(count + 1):
                lo = max(0, min(i - NEAREST // 2, count - NEAREST))
                self._factors.append(REF_S[self.loop]
                                     / statistics.median(self.times[lo:lo + NEAREST]))
        at, seconds = timing
        return seconds * self._factors[bisect.bisect(self.stamps, at)]


class _RefParser(HTMLParser):
    def __init__(self):
        super().__init__()
        self.seen = 0

    def handle_starttag(self, tag, attrs):
        self.seen += 1

    def handle_data(self, data):
        self.seen += len(data)


class Window:
    """One unit of the timed loop: the same amount of work every time."""

    __slots__ = ("timings", "cpu_s", "wall_s", "bytes", "docs", "seconds", "latencies")

    def __init__(self):
        self.timings = []      # per operation, (wall-clock midpoint, processor seconds)
        self.cpu_s = 0.0       # processor time
        self.wall_s = 0.0      # wall clock
        self.bytes = 0
        self.docs = 0
        self.seconds = 0.0     # at reference speed, once the run is over
        self.latencies = []    # per document, bytes to result, at reference speed


class Run:
    """One pass of a workload: its timings, counts and check outcomes.

    After one untimed warm-up window, the timed loop runs windows, each the
    same amount of work (one pass over the workload's inputs), and between
    windows takes one sample of each measurement made outside the loop
    (``model_s``, ``unlearn_docs_s``, further set-ups), until the run's
    seconds have passed on the wall clock.  A throughput is the work of the
    whole run over the time it took, and a per-document latency the median
    over windows of each window's median.  On a machine whose processors are
    shared, the same work can run at two speeds, 1.5 times apart, each for
    a few to tens of seconds at a time; figures over the whole run average
    the two, where a median over windows or samples would jump between
    them from run to run.
    """

    def __init__(self, calls, tracer, seconds, reference):
        self.calls = calls
        self.tracer = tracer
        self.seconds = seconds
        self.phase = "setup"
        self.speed = Speed(reference)
        self.attempted = 0
        self.failed = 0
        # the timings below are (wall-clock midpoint, processor seconds)
        # until the run is over, and seconds at reference speed after it
        self.setup_s = []
        self.windows = []
        self.model_s = []      # state text to validator: builds per sample
        self.unlearns = []     # documents unlearned per sample
        self.kind_s = {}       # per labelled document kind
        self.peak_kib = 0      # ru_maxrss after MIN_SIDE turns of the loop
        self._build = None     # the workload's set-up, repeated between windows

    # -- phases ---------------------------------------------------------------

    def setup(self, build):
        """Build the workload's environment, timing it; the set-up is
        repeated between windows until there are SETUPS samples."""
        self._build = build
        return self._set_up()

    def _set_up(self):
        """One set-up, timed from a collected heap."""
        self._enter("setup")
        gc.collect()
        self.speed.measure()
        wall, start = perf_counter(), process_time()
        env = self._build()
        self.setup_s.append(((wall + perf_counter()) / 2, process_time() - start))
        self.speed.measure()
        return env

    def loop(self, window, side):
        """One warm-up ``window()``, then ``window()`` and ``side()`` in
        turn, with a further set-up between them while there are fewer than
        SETUPS, until the run's seconds have passed and there have been at
        least MIN_SIDE turns.  The peak memory is read after MIN_SIDE turns,
        the same work in every run: the infer cache, for one, grows with
        every window until it is cleared."""
        self._enter("warmup")
        window()
        start, turns = perf_counter(), 0
        while perf_counter() - start < self.seconds or turns < MIN_SIDE:
            self._enter("timed")
            self.windows.append(Window())
            window()
            self._enter("side")
            side()
            turns += 1
            if len(self.setup_s) < SETUPS:
                self._set_up()
            if turns == MIN_SIDE:
                self.peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        while len(self.setup_s) < SETUPS:
            self._set_up()
        self._enter("side")
        self._settle()

    def _settle(self):
        """Turn every timing of the run into seconds at reference speed."""
        ref = self.speed.at_reference
        for w in self.windows:
            w.seconds = sum(ref(t) for t in w.timings)
            w.latencies = [ref(t) for t in w.latencies]
        self.setup_s = [ref(t) for t in self.setup_s]
        self.model_s = [statistics.mean(ref(t) for t in builds) for builds in self.model_s]
        self.unlearns = [(len(docs), sum(ref(t) for t in docs)) for docs in self.unlearns]
        self.kind_s = {kind: [ref(t) for t in times] for kind, times in self.kind_s.items()}

    def _enter(self, phase):
        self.phase = self.tracer.phase = self.tracer.label = phase

    # -- operations -----------------------------------------------------------

    def op(self, fn, nbytes, expect, what, doc=True, kind=None):
        """Time ``fn()``, one closed-loop operation; ``expect(result)`` says
        whether its output is right.  In the timed phase the operation
        counts toward the current window and, if ``doc``, its latencies.
        Returns ``(result, timing)``, the timing as (wall-clock midpoint,
        processor seconds)."""
        self.tracer.op += 1
        self.tracer.label = what
        self.attempted += 1
        self.speed.tick()
        wall, start = perf_counter(), process_time()
        try:
            result = fn()
        except Exception:
            wall, seconds = perf_counter() - wall, process_time() - start
            result = None
            self.failed += 1
            print(f"error in {what}:", file=sys.stderr)
            traceback.print_exc()
        else:
            wall, seconds = perf_counter() - wall, process_time() - start
            if not expect(result):
                self.failed += 1
                print(f"wrong output from {what}: {result!r:.200}", file=sys.stderr)
        timing = (perf_counter() - wall / 2, seconds)
        self.speed.tick()
        if self.phase == "timed":
            window = self.windows[-1]
            window.timings.append(timing)
            window.cpu_s += seconds
            window.wall_s += wall
            window.bytes += nbytes
            if doc:
                window.docs += 1
                window.latencies.append(timing)
            if kind is not None:
                self.kind_s.setdefault(kind, []).append(timing)
        return result, timing

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def build_model(self, state, dts):
        """State-file text to a compiled validator, once; in the timed loop
        that is a ``model_s`` sample."""
        calls = self.calls
        model, timing = self.op(lambda: calls.model(state, dts), len(state),
                                lambda m: m is not None, "model", doc=False)
        if self.phase == "timed":
            self.model_s.append([timing])
        return model, timing

    def sample_seconds(self) -> float:
        """How long a sample between windows repeats its work."""
        return max(SAMPLE_SECONDS, SAMPLE_SHARE * self.windows[-1].cpu_s)

    def sample_model(self, state, dts):
        """A ``model_s`` sample between windows: the mean of repeated builds.
        Like every sample, it starts after a full garbage collection,
        outside its time, so that whether a collection of the whole heap
        falls into it does not depend on what ran before it."""
        gc.collect()
        builds, least = [], self.sample_seconds()
        while not builds or sum(s for _, s in builds) < least:
            builds.append(self.build_model(state, dts)[1])
        self.model_s.append(builds)

    def unlearn_pass(self, learner, docs) -> list:
        """Unlearn ``docs`` from bytes, last first; returns their timings."""
        calls, timings = self.calls, []
        for raw in reversed(docs):
            _, timing = self.op(lambda: calls.unlearn(learner, calls.parse(raw)), len(raw),
                                lambda r: r is None, "unlearn")
            timings.append(timing)
        return timings

    def sample_unlearn(self, learner, docs, empty_state):
        """An ``unlearn_docs_s`` sample between windows: unlearn every
        learned document, check that the state is empty, learn them again,
        and repeat that for ``sample_seconds()`` of unlearning."""
        gc.collect()
        calls, timings, least = self.calls, [], self.sample_seconds()
        while not timings or sum(s for _, s in timings) < least:
            timings += self.unlearn_pass(learner, docs)
            with self.tracer.paused():
                self.check(calls.dump_state(learner) == empty_state,
                           "unlearning every learned document leaves an empty state")
                for raw in docs:
                    calls.learn(learner, calls.parse(raw))
        self.unlearns.append(timings)

    # -- results --------------------------------------------------------------

    def docs_s(self) -> float:
        return sum(w.docs for w in self.windows) / sum(w.seconds for w in self.windows)

    def end_to_end(self) -> dict:
        seconds = sum(w.seconds for w in self.windows)
        # median over windows of each window's median document time
        p50 = statistics.median(statistics.median(w.latencies)
                                for w in self.windows if w.latencies)
        values = {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "mb_s": (sum(w.bytes for w in self.windows) / seconds / 1e6, "MB/s"),
            "docs_s": (self.docs_s(), "docs/s"),
            "doc_p50_ms": (p50 * 1e3, "ms"),
            "model_s": (statistics.median(self.model_s), "s"),
            "unlearn_docs_s": (statistics.median(n / s for n, s in self.unlearns), "docs/s"),
            "peak_rss_mb": (self.peak_kib / 1024, "MB"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def window_values(self) -> dict:
        """Every window's and sample's figures, for judging the run's noise."""
        return {
            "mb_s": [w.bytes / w.seconds / 1e6 for w in self.windows],
            "docs_s": [w.docs / w.seconds for w in self.windows if w.docs],
            "wall_docs_s": [w.docs / w.wall_s for w in self.windows if w.docs],
            "doc_p50_ms": [statistics.median(w.latencies) * 1e3
                           for w in self.windows if w.latencies],
            "setup_s": self.setup_s,
            "model_s": self.model_s,
            "unlearn_docs_s": [n / s for n, s in self.unlearns],
        }


# ---------------------------------------------------------------------------
# workloads

def cardealer_env(calls, seed, normals):
    """The detection scenario with its model learned and compiled: the
    set-up of cardealer-stream and, with a single normal, of hostile."""
    import workloads
    from xvpa import Learner, NamingScheme

    dts = calls.load_datatypes()
    train, stream = workloads.cardealer(seed, normals)
    learner = Learner(dts, NamingScheme("ancestor", k=1, l=2))
    for raw in train:
        calls.learn(learner, calls.parse(raw))
    state = calls.dump_state(learner)
    return {"dts": dts, "train": train, "stream": stream, "learner": learner,
            "state": state, "model": calls.model(state, dts),
            "empty": calls.dump_state(Learner(dts, learner.scheme))}


def cardealer_side(run, env):
    """Between windows: rebuild the model from its state file, and unlearn
    the training set."""
    def side():
        run.sample_model(env["state"], env["dts"])
        run.sample_unlearn(env["learner"], env["train"], env["empty"])
    return side


def cardealer_stream(run, seed, size):
    """The read path: parse and validate the scenario's normals and attacks."""
    env = run.setup(lambda: cardealer_env(run.calls, seed, size.normals))
    calls, model = run.calls, env["model"]

    def window():
        for raw, accepted in env["stream"]:
            run.op(lambda: calls.validate(model, calls.parse(raw)), len(raw),
                   lambda v: v.accepted == accepted, "cardealer verdict")

    run.loop(window, cardealer_side(run, env))


def recursive_model(run, seed, size):
    """State-file text to a validator, then validation of the training
    documents and their structural-wrapping mutants."""
    import workloads
    from xvpa import Learner, NamingScheme

    calls = run.calls

    def build():
        dts = calls.load_datatypes()
        train, mutants = workloads.recursive(seed, size.depth, size.width, size.docs,
                                             size.wrapped)
        learner = Learner(dts, NamingScheme("ancestor-sibling", k=2, l=2))
        for raw in train:
            calls.learn(learner, calls.parse(raw))
        return {"dts": dts, "learner": learner, "state": calls.dump_state(learner),
                "empty": calls.dump_state(Learner(dts, learner.scheme)),
                "docs": [(raw, True) for raw in train] + [(raw, False) for raw in mutants],
                "train": train}

    env = run.setup(build)

    def window():
        model, _ = run.build_model(env["state"], env["dts"])
        if model is None:
            return
        for raw, accepted in env["docs"]:
            run.op(lambda: calls.validate(model, calls.parse(raw)), len(raw),
                   lambda v: v.accepted == accepted, "recursive verdict")

    run.loop(window, lambda: run.sample_unlearn(env["learner"], env["train"], env["empty"]))


def idlog_learn(run, seed, size):
    """Learning documents whose texts never repeat, then unlearning the last
    tenth of them; each window starts a fresh learner on a fresh batch."""
    import workloads
    from xvpa import Learner, NamingScheme

    calls = run.calls
    scheme = NamingScheme("ancestor", k=1, l=2)
    env = run.setup(lambda: {"dts": calls.load_datatypes(),
                             "source": workloads.IdlogSource(seed)})
    dts, source = env["dts"], env["source"]
    last = {}

    def check_window():
        """The warm-up and the last window's outputs are checked in full."""
        with run.tracer.paused():
            reference = Learner(dts, scheme)
            for raw in last["kept"]:
                calls.learn(reference, calls.parse(raw))
            text = last["state"]
            run.check(text == calls.dump_state(reference),
                      "unlearning the last tenth equals learning only the rest")
            run.check(calls.dump_state(calls.parse_state(text, dts)) == text,
                      "the state file round-trips byte-identically")
            model = calls.model(text, dts)
            run.check(all(calls.validate(model, calls.parse(raw)).accepted
                          for raw in last["kept"]),
                      "the learned model accepts every kept document")

    def window():
        with run.tracer.paused():
            docs = source.batch(size.idlog_batch)
        kept = docs[:len(docs) - len(docs) // 10]
        learner = Learner(dts, scheme)
        for raw in docs:
            run.op(lambda: calls.learn(learner, calls.parse(raw)), len(raw),
                   lambda changes: changes >= 0, "idlog learn")
        unlearned = docs[len(kept):]
        timings = run.unlearn_pass(learner, unlearned)
        if run.phase == "timed":
            run.unlearns.append(timings)
        last.update(state=calls.dump_state(learner), kept=kept)
        if run.phase == "warmup":
            check_window()

    run.loop(window, lambda: run.sample_model(last["state"], dts))
    check_window()


def hostile(run, seed, size):
    """The four hostile documents in turn, against the cardealer model.

    A document's time includes a full garbage collection after its
    verdict: the deep and flooding documents leave hundreds of thousands of
    objects in reference cycles, whose collection would otherwise fall into
    whichever operation comes next."""
    import workloads

    def build():
        env = cardealer_env(run.calls, seed, 1)
        env["docs"] = [(kind, workloads.hostile(kind, full // size.hostile_div))
                       for kind, full in workloads.HOSTILE_SIZES.items()]
        return env

    env = run.setup(build)
    calls, model = run.calls, env["model"]
    with run.tracer.paused():
        run.check(calls.validate(model, calls.parse(workloads.HOSTILE_HOST)).accepted,
                  "the model accepts the hostile documents' host")

    def expect(kind):
        want = workloads.HOSTILE_VERDICTS[kind]
        return lambda v: all(w is None or w == g for w, g in
                             zip(want, (v.accepted, v.reason, v.event_index)))

    def verdict(raw):
        result = calls.validate(model, calls.parse(raw))
        gc.collect()
        return result

    def window():
        for kind, raw in env["docs"]:
            run.op(lambda: verdict(raw), len(raw), expect(kind),
                   f"hostile {kind} verdict", kind=kind)

    run.loop(window, cardealer_side(run, env))


RUNNERS = {
    "cardealer-stream": cardealer_stream,
    "recursive-model": recursive_model,
    "idlog-learn": idlog_learn,
    "hostile": hostile,
}


# ---------------------------------------------------------------------------
# per-layer metrics of the traced pass

def per_layer(tracer, overhead) -> dict:
    """Self time and counters per layer, summed over the set-ups, the timed
    loop and the samples between windows; output checks are not traced."""
    t, c = tracer.self_s, tracer.counts
    infer_calls = tracer.calls_of("datatypes.infer")
    infer_misses = tracer.calls_of("datatypes.minimal_datatypes")
    values = {
        "events.parse_s": (t("events.parse_document"), "s"),
        "events.events": (c["events.events"], "count"),
        "events.bytes": (c["events.bytes"], "bytes"),
        "datatypes.load_s": (t("datatypes.load_datatype_system"), "s"),
        "datatypes.infer_calls": (infer_calls, "count"),
        "datatypes.infer_misses": (infer_misses, "count"),
        "datatypes.infer_hit_ratio": (1 - infer_misses / infer_calls if infer_calls else 0.0,
                                      "ratio"),
        "datatypes.infer_s": (t("datatypes.infer", "datatypes.minimal_datatypes"), "s"),
        "dfa.accept_calls": (tracer.calls_of("dfa.accepts"), "count"),
        "dfa.chars": (c["dfa.chars"], "count"),
        "dfa.accept_s": (t("dfa.accepts"), "s"),
        "learner.learn_s": (t("learner.learn"), "s"),
        "learner.unlearn_s": (t("learner.unlearn"), "s"),
        "learner.mind_changes": (c["learner.mind_changes"], "count"),
        "weighted.snapshot_s": (t("weighted.snapshot"), "s"),
        "weighted.states": (c["weighted.states"], "count"),
        "weighted.transitions": (c["weighted.transitions"], "count"),
        "automata.build_s": (t("automata.build_xvpa"), "s"),
        "automata.modules_built": (c["automata.modules_built"], "count"),
        "automata.minimize_s": (t("automata.minimize"), "s"),
        "automata.modules_minimized": (c["automata.modules_minimized"], "count"),
        "automata.compile_s": (t("automata.compile_cxvpa"), "s"),
        "automata.predicates": (c["automata.predicates"], "count"),
        "automata.validate_s": (t("automata.validate"), "s"),
        "automata.rejects": (c["automata.rejects"], "count"),
        "persistence.dump_s": (t("persistence.dump_state"), "s"),
        "persistence.parse_s": (t("persistence.parse_state"), "s"),
        "persistence.state_bytes": (c["persistence.state_bytes"], "bytes"),
        "trace.overhead": (overhead, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def print_phases(tracer):
    """Self time per span name and phase, largest first."""
    for phase, rows in tracer.summary().items():
        print(f"# phase {phase}: span, calls, self s, total s")
        for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"#   {name:32s} {row['calls']:9d} {row['self_s']:10.4f} {row['total_s']:10.4f}")


if __name__ == "__main__":
    sys.exit(main())
