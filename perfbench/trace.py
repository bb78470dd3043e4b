"""Run one pipeline stage in this interpreter with timing wrappers on the
program's public functions, and write what they recorded as JSON.

usage: python trace.py OUT.json STAGE ARGS...

STAGE is a `cxgcorpus` CLI subcommand, run through `cli.main`. The
wrappers replace module attributes before the stage starts. The CLI calls the program through
its modules (`ingest.read_annotated`, `matcher.match_corpus`, ...) and
the modules call each other through their globals, so the wrappers see
every call made in this process. Pool workers forked by `match --jobs`
inherit the wrappers, but their spans stay in the workers: only this
process's spans are written.

Spans nest per thread. A span's self time is its duration minus the
time its child spans cover. A generator function is timed only inside
each `next()`, so the consumer's work between items is not charged to
it. Spans are aggregated in memory by their path from the root span and
written once, when the stage ends.
"""

import functools
import inspect
import json
import os
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = {}  # path -> [calls, total_s, self_s]
        self.counts = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name):
        stack = self._stack()
        path = f"{stack[-1][0]}/{name}" if stack else name
        stack.append([path, time.perf_counter(), 0.0])

    def exit(self):
        stack = self._stack()
        path, start, children = stack.pop()
        duration = time.perf_counter() - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            record = self.spans.setdefault(path, [0, 0.0, 0.0])
            record[0] += 1
            record[1] += duration
            record[2] += duration - children

    def count(self, name, value):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def record(self, name, value):
        with self._lock:
            self.counts[name] = value

    def call(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result
        return wrapper

    def generator(self, name, fn, on_item=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    self.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                    if on_item is not None:
                        on_item(item)
                    yield item
            return steps()
        return wrapper


def install(tracer):
    """Replace the program's public functions with timing wrappers, and
    attach the deterministic counts of each layer."""
    from cxgcorpus import baseline, cli, corpus_builder, ingest, inventory, matcher, pair_sampler

    count = tracer.count

    def annotated(sentence):
        count("ingest.sentences", 1)
        count("ingest.tokens", len(sentence.tokens))

    def matched(table, *args, **kwargs):
        count("matcher.matched_sentences", len(table.reverse))
        count("matcher.discarded_sentences", len(table.discarded))
        count("matcher.occurrences", sum(len(s) for s in table.forward.values()))

    def built(result, *args, **kwargs):
        manifest = result[1]
        if manifest.variant == "cxg":
            count("corpus_builder.occurrences", manifest.total_occurrences)
        else:
            count("corpus_builder.base_documents", manifest.n_documents)
            count("corpus_builder.copies", manifest.copies)

    def sampled(result, *args, **kwargs):
        delivered = len(result.train) + len(result.dev) + len(result.test)
        count("pair_sampler.pairs_delivered", delivered)
        count("pair_sampler.pairs_requested",
              delivered + sum(s.requested - s.delivered for s in result.shortfalls))
        count("pair_sampler.shortfalls", len(result.shortfalls))

    # span -> hook, called with each item of a generator, or with the
    # result and the arguments of a call
    hooks = {
        "ingest.annotate_corpus": annotated,
        "ingest.write_annotated": lambda _, sentences, path: count(
            "ingest.annotated_bytes", os.path.getsize(path)),
        "inventory.load_inventory": lambda inv, *a, **k: count("inventory.constructions", len(inv)),
        "matcher.match_corpus": matched,
        "matcher.match_sentence": lambda *a, **k: count("matcher.match_sentence_calls", 1),
        "corpus_builder.build_cxg_corpus": built,
        "corpus_builder.build_base_clone": built,
        "corpus_builder.write_pretraining_file": lambda _, docs, texts, path: count(
            "corpus_builder.bytes_written", os.path.getsize(path)),
        "pair_sampler.sample_pairs": sampled,
        "baseline.train": lambda _, pairs, *a, **k: count("baseline.train_pairs", len(pairs)),
        "baseline.evaluate": lambda result, *a, **k: tracer.record(
            "baseline.test_accuracy", result.accuracy),
    }
    functions = {
        ingest: ("annotate_corpus", "read_annotated", "scan_annotated", "write_annotated"),
        inventory: ("load_inventory", "write_inventory", "induce_inventory"),
        matcher: ("build_index", "match_corpus", "match_sentence"),
        corpus_builder: ("build_cxg_corpus", "build_base_clone", "build_random",
                         "write_pretraining_file", "verify_multiset"),
        pair_sampler: ("sample_pairs", "audit_pairs", "write_pairs",
                       "make_inoculation_subsets", "read_pairs"),
        baseline: ("featurize_pair", "train", "evaluate", "save_model"),
    }
    for module, names in functions.items():
        layer = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            fn = getattr(module, name)
            span = f"{layer}.{name}"
            wrap = tracer.generator if inspect.isgeneratorfunction(fn) else tracer.call
            setattr(module, name, wrap(span, fn, hooks.get(span)))
    # methods, and the two workspace functions that cli imports by name
    for owner, name, span in (
        (matcher.MatchIndex, "token_facet_ids", "matcher.token_facet_ids"),
        (matcher.OccurrenceTable, "write", "matcher.table_write"),
        (cli, "check_sidecar", "workspace.sidecar"),
        (cli, "write_sidecar", "workspace.sidecar"),
    ):
        setattr(owner, name, tracer.call(span, getattr(owner, name)))
    matcher.OccurrenceTable.read = staticmethod(
        tracer.call("matcher.table_read", matcher.OccurrenceTable.read))


def main(argv) -> int:
    out, command = argv[0], argv[1:]
    before = time.perf_counter()
    import cxgcorpus.cli
    import_s = time.perf_counter() - before
    tracer = Tracer()
    install(tracer)
    tracer.enter("cli.self")
    try:
        code = cxgcorpus.cli.main(command)
    finally:
        tracer.exit()
    report = {"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
