"""Benchmark of the `cxgcorpus` pipeline, one workload per invocation.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from
`src/`, and working files go to `.perfbench-work/`. Each pass runs the
five CLI stages one after another as subprocesses of this script
(closed loop, one pass at a time, one process computing at a time):

  annotate -> match -> build -> pairs -> baseline

Each stage's wall time is taken around its process, and its CPU time
and peak RSS from `os.wait4` on that process, which would also count
any pool workers it reaped.

With --trace 0 the script generates the inputs from the seed and runs
passes (at least two) while the next one is expected to end within S
seconds. After each stage it times `steps.py calibrate`, a fixed piece
of work that no change to the program can alter, and after every
second pass one set-up probe (steps.py setup on the workload's
inventory), so calibration and set-up are sampled across the run as the
stages are.

The speed of the shared 2-core machine the benchmark was written on
drifts by 20% and more within seconds and between minutes, and every
stage slows with it. So times are reported in reference seconds: each
pass's times (and the probe after it) are scaled by
REFERENCE_CALIBRATION_S / the median of that pass's calibration times,
which gives what they would be at the speed where the calibration takes
REFERENCE_CALIBRATION_S, and each time metric is the median over
passes (over probes for `setup_s`). The raw medians and every sample
are printed and kept in the results file. `peak_rss_mb` is not scaled.

With --trace 1 it runs one
untraced pass and then at least two passes whose stages run under
trace.py, and prints the per-layer metrics: the median over traced
passes of each span's self time, the counts, and the tracing overhead
per stage (traced wall time minus the untraced one).

Checked on every invocation: every stage exits 0 (build verifies its
multisets, exit 4, and pairs audits its pairs, exit 3); every pass's
output tree equals the first untraced pass's tree byte for byte, so
traced trees are compared with untraced ones; `match --jobs 2` on the
first pass's inputs, run once outside the timed passes, writes the same
files as the serial match; counts repeat exactly across traced passes;
and `brute_force_match` agrees with the written table on a seeded
sample of sentences. The last line of output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the full record,
with the sha256 of every generated input, goes to
`.perfbench-work/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
STEPS = str(HERE / "steps.py")
TRACE = str(HERE / "trace.py")
WORK = Path(".perfbench-work")

STAGES = ("annotate", "match", "build", "pairs", "baseline")
MIN_PASSES = 2  # so that every run compares trees (and counts) across passes
SETUP_EVERY = 2  # a set-up probe after every second untraced pass
REFERENCE_CALIBRATION_S = 0.2  # about `steps.py calibrate`'s time on a quiet 2-core Xeon
STAGE_LIMIT_S = 170.0  # a stage still running after this is killed
RUN_LIMIT_S = 150.0  # no pass starts that is expected to end later


@dataclass(frozen=True)
class Workload:
    corpus: str  # "desk" (gen.write_desk) or "throughput" (gen.write_throughput)
    seed: int  # generator seed; the benchmark's --seed picks the relabeling (gen.py)
    size: tuple  # the generator's arguments after the seed


# Why each workload exists is recorded in BENCHMARK.json. Single stage
# runs of 0.3-2 s vary by 20% and more on a shared 2-core machine, so a
# run is long (58 s) and holds eight or more passes of 4-5 s, and the
# benchmark has two workloads, so that a set of 22 runs of each fits in
# under an hour. A 100k-sentence desk corpus (about 21 s a pass) would
# allow too few passes a run.
WORKLOADS = {
    "desk-10k": Workload("desk", 29, (10000, 200, 40)),
    "inventory-20k": Workload("throughput", 4242, (20000, 5000, 20)),
}

END_TO_END = (
    ("pipeline_s", "s"), ("annotate_s", "s"), ("match_s", "s"),
    ("build_s", "s"), ("pairs_s", "s"), ("baseline_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)

# Per-layer metrics of the traced run: name, unit, the end-to-end metrics
# a change in it should move ("exact" for counts that must not change),
# and the workload on which it matters most. `<stage>.<module>.<fn>_s`
# is the self time of that function's spans in that stage,
# `<stage>.<module>_s` the self time of all the module's spans there.
LAYERS = (
    ("annotate.ingest.annotate_corpus_s", "s", "annotate_s", "desk-10k"),
    ("annotate.ingest.write_annotated_s", "s", "annotate_s", "desk-10k"),
    ("match.ingest.read_annotated_s", "s", "match_s", "desk-10k, inventory-20k"),
    ("build.ingest.scan_annotated_s", "s", "build_s", "desk-10k"),
    ("pairs.ingest.scan_annotated_s", "s", "pairs_s", "desk-10k"),
    ("ingest.sentences", "count", "exact", "all"),
    ("ingest.tokens", "count", "exact", "all"),
    ("ingest.annotated_bytes", "B", "exact", "all"),
    ("match.inventory.load_inventory_s", "s", "setup_s match_s", "inventory-20k"),
    ("inventory.constructions", "count", "exact", "all"),
    ("match.matcher_s", "s", "match_s", "inventory-20k"),
    ("match.matcher.build_index_s", "s", "setup_s match_s", "inventory-20k"),
    ("match.matcher.token_facet_ids_s", "s", "match_s", "inventory-20k"),
    ("match.matcher.match_sentence_s", "s", "match_s", "desk-10k, inventory-20k"),
    ("match.matcher.match_corpus_s", "s", "match_s", "inventory-20k"),
    ("match.matcher.table_write_s", "s", "match_s", "desk-10k"),
    ("build.matcher.table_read_s", "s", "build_s", "desk-10k"),
    ("pairs.matcher.table_read_s", "s", "pairs_s", "desk-10k"),
    ("matcher.match_sentence_calls", "count", "exact", "all"),
    ("matcher.matched_sentences", "count", "exact", "all"),
    ("matcher.discarded_sentences", "count", "exact", "all"),
    ("matcher.occurrences", "count", "exact", "all"),
    ("matcher.matched_ratio", "ratio", "exact", "all"),
    ("build.corpus_builder.build_cxg_corpus_s", "s", "build_s", "desk-10k"),
    ("build.corpus_builder.build_base_clone_s", "s", "build_s", "desk-10k"),
    ("build.corpus_builder.build_random_s", "s", "build_s", "desk-10k"),
    ("build.corpus_builder.write_pretraining_file_s", "s", "build_s", "desk-10k"),
    ("build.corpus_builder.verify_multiset_s", "s", "build_s", "desk-10k"),
    ("corpus_builder.occurrences", "count", "exact", "all"),
    ("corpus_builder.base_documents", "count", "exact", "all"),
    ("corpus_builder.copies", "count", "exact", "all"),
    ("corpus_builder.bytes_written", "B", "exact", "all"),
    ("pairs.pair_sampler.sample_pairs_s", "s", "pairs_s", "inventory-20k"),
    ("pairs.pair_sampler.audit_pairs_s", "s", "pairs_s", "inventory-20k"),
    ("pairs.pair_sampler.write_pairs_s", "s", "pairs_s", "inventory-20k"),
    ("pairs.pair_sampler.make_inoculation_subsets_s", "s", "pairs_s", "inventory-20k"),
    ("pair_sampler.pairs_delivered", "count", "exact", "all"),
    ("pair_sampler.pairs_requested", "count", "exact", "all"),
    ("pair_sampler.delivered_ratio", "ratio", "exact", "all"),
    ("pair_sampler.shortfalls", "count", "exact", "all"),
    ("baseline.pair_sampler.read_pairs_s", "s", "baseline_s", "inventory-20k"),
    ("baseline.baseline.featurize_pair_s", "s", "baseline_s", "inventory-20k"),
    ("baseline.baseline.train_s", "s", "baseline_s", "inventory-20k"),
    ("baseline.baseline.evaluate_s", "s", "baseline_s", "inventory-20k"),
    ("baseline.baseline.save_model_s", "s", "baseline_s", "inventory-20k"),
    ("baseline.train_pairs", "count", "exact", "all"),
    ("baseline.test_accuracy", "ratio", "exact", "all"),
) + tuple(
    (f"{stage}.workspace.sidecar_s", "s", f"{stage}_s", "all")
    for stage in STAGES
) + tuple(
    (f"{stage}.cli.{part}_s", "s", f"setup_s {stage}_s", "desk-10k baseline")
    for stage in STAGES
    for part in ("import", "self")
) + tuple(
    (f"overhead.{stage}_s", "s", "none: traced minus untraced wall time", "all")
    for stage in STAGES
)


@dataclass
class StageRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    trace: dict | None = None


@dataclass
class Pass:
    label: str
    root: Path
    stages: dict[str, StageRun] = field(default_factory=dict)
    digest: str = ""
    setup_s: float | None = None  # the set-up probe run after this pass
    calibration_s: list[float] = field(default_factory=list)  # one after each stage

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.stages.values())


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(bytes.fromhex(sha256_file(path)))
    return h.hexdigest()


def settle(root: Path) -> None:
    """Write this pass's files to disk now, so that their writeback does
    not fall into a later stage's time."""
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def median(values):
    return statistics.median(values) if values else 0.0


def generate(workload: Workload, root: Path, seed: int) -> dict[str, Path]:
    writer = gen.write_desk if workload.corpus == "desk" else gen.write_throughput
    return writer(root, workload.seed, seed, *workload.size)


class Bench:
    def __init__(self, workload: Workload, inputs: dict[str, Path], work: Path):
        self.workload = workload
        self.inputs = {k: str(v) for k, v in inputs.items()}
        self.work = work
        (work / "logs").mkdir()
        (work / "traces").mkdir()
        self.env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def process(self, argv: list[str], log: Path) -> StageRun:
        """Run one process to completion; its CPU time and peak RSS come
        from wait4, so they cover it and every child it reaped."""
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, start_new_session=True)
            killer = threading.Timer(STAGE_LIMIT_S, os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return StageRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                        proc.returncode)

    def commands(self, root: Path) -> list[list[str]]:
        i, w = self.inputs, self.workload
        cfg = ["--config", i["config"]]
        ann = str(root / "annotated.tsv")
        table = str(root / "match" / "table.tsv")
        if w.corpus == "desk":
            annotate = ["annotate", i["corpus"], ann, "--mode", "pre-split",
                        "--lexicon", i["lexicon"], "--suffixes", i["suffixes"],
                        "--clusters", i["clusters"]]
        else:
            annotate = ["annotate", i["annotated"], ann, "--mode", "pre-annotated"]
        return [
            annotate + cfg,
            ["match", ann, i["inventory"], str(root / "match")] + cfg,
            ["build", ann, table, str(root / "build"), "--variant", "all"] + cfg,
            ["pairs", ann, table, str(root / "pairs"), "--inoculation-sizes", "8,16"] + cfg,
            ["baseline", str(root / "pairs" / "train.tsv"), str(root / "pairs" / "test.tsv"),
             str(root / "baseline"), "--epochs", "3"] + cfg,
        ]

    def run_pass(self, label: str, traced: bool) -> Pass | None:
        """One pass over every stage; None when a stage fails."""
        result = Pass(label, self.work / label)
        result.root.mkdir()
        for command in self.commands(result.root):
            stage = command[0]
            log = self.work / "logs" / f"{label}-{stage}.log"
            trace_path = self.work / "traces" / f"{label}-{stage}.json"
            if traced:
                argv = [sys.executable, TRACE, str(trace_path)] + command
            else:
                argv = [sys.executable, "-m", "cxgcorpus.cli"] + command
            run = self.process(argv, log)
            if not self.check(run.returncode == 0, f"{label}: {stage} exited {run.returncode}"):
                return None
            if traced:
                run.trace = json.loads(trace_path.read_text("utf-8"))
            else:
                self.calibrate(result)
            result.stages[stage] = run
        settle(result.root)
        result.digest = tree_digest(result.root)
        return result

    def calibrate(self, p: Pass) -> None:
        run = self.process([sys.executable, STEPS, "calibrate", str(self.work / "calibration.tsv")],
                           self.work / "logs" / f"{p.label}-calibrate.log")
        if self.check(run.returncode == 0, f"{p.label}: calibration exited {run.returncode}"):
            p.calibration_s.append(run.wall_s)

    def setup_probe(self, p: Pass) -> None:
        probe = self.process([sys.executable, STEPS, "setup", self.inputs["inventory"]],
                             self.work / "logs" / f"{p.label}-setup.log")
        if self.check(probe.returncode == 0, f"{p.label}: setup probe exited {probe.returncode}"):
            p.setup_s = probe.wall_s

    def passes(self, seconds: float, started: float, traced: bool, probe: bool,
               at_least: int, reference: Pass | None) -> tuple[list[Pass], Pass | None]:
        """Passes until the next one is expected to end after `seconds`,
        each followed by a set-up probe when `probe` is set; each is
        compared with the reference, which the first pass becomes when
        there is none. Trees are kept until the run ends, so that no
        deletion falls into a later stage's time."""
        done: list[Pass] = []
        begin = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            p = self.run_pass(f"{'traced' if traced else 'pass'}{len(done)}", traced)
            if p is None:
                break
            if probe and len(done) % SETUP_EVERY == 0:
                self.setup_probe(p)
            done.append(p)
            if reference is None:
                reference = p
            else:
                self.check(p.digest == reference.digest,
                           f"{p.label}: output tree differs from {reference.label}")
            now = time.perf_counter()
            last = now - round_start
            if len(done) >= at_least and (
                now - begin + last > seconds or now - started + last > RUN_LIMIT_S
            ):
                break
        return done, reference


def stage_summary(passes: list[Pass]) -> dict:
    """Per-pass values of every end-to-end quantity a pass yields."""
    values = {f"{stage}_s": [p.stages[stage].wall_s for p in passes] for stage in STAGES}
    values["pipeline_s"] = [p.wall_s for p in passes]
    values["cpu_s"] = [sum(s.cpu_s for s in p.stages.values()) for p in passes]
    values["peak_rss_mb"] = [max(s.rss_mb for s in p.stages.values()) for p in passes]
    values["setup_s"] = [p.setup_s for p in passes if p.setup_s is not None]
    values["calibration_s"] = [median(p.calibration_s) for p in passes if p.calibration_s]
    return values


def reference_values(passes: list[Pass]) -> dict:
    """`stage_summary` of the calibrated passes, with every time scaled
    by REFERENCE_CALIBRATION_S / the pass's median calibration time."""
    calibrated = [p for p in passes if p.calibration_s]
    values = stage_summary(calibrated)
    factors = [REFERENCE_CALIBRATION_S / median(p.calibration_s) for p in calibrated]
    probed = [f for p, f in zip(calibrated, factors) if p.setup_s is not None]
    for name, unit in END_TO_END:
        if unit == "s":
            values[name] = [v * f for v, f in
                            zip(values[name], probed if name == "setup_s" else factors)]
    return values


def layer_values(p: Pass) -> dict[str, float]:
    """Self time per `<stage>.<span>_s` and `<stage>.<module>_s`, plus
    the counts, for one traced pass."""
    out: dict[str, float] = {}
    for stage, run in p.stages.items():
        trace = run.trace
        out[f"{stage}.cli.import_s"] = trace["import_s"]
        for path, (_, _, self_s) in trace["spans"].items():
            leaf = path.rsplit("/", 1)[-1]
            module = leaf.split(".", 1)[0]
            for key in (f"{stage}.{leaf}_s", f"{stage}.{module}_s"):
                out[key] = out.get(key, 0.0) + self_s
        for name, value in trace["counts"].items():
            out[name] = value
    matched = out.get("matcher.matched_sentences", 0)
    total = matched + out.get("matcher.discarded_sentences", 0)
    out["matcher.matched_ratio"] = matched / total if total else 0.0
    requested = out.get("pair_sampler.pairs_requested", 0)
    out["pair_sampler.delivered_ratio"] = (
        out.get("pair_sampler.pairs_delivered", 0) / requested if requested else 0.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not Path("src/cxgcorpus/cli.py").is_file():
        print("error: run from the root of a cxgcorpus checkout (src/cxgcorpus not found)",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / "runs" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, workload, work, tag, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload: Workload, work: Path, tag: str, started: float) -> int:
    inputs = generate(workload, work / "inputs", args.seed)
    bench = Bench(workload, inputs, work)
    untraced, reference = bench.passes(
        0 if args.trace else args.seconds, started, traced=False,
        probe=not args.trace, at_least=1 if args.trace else MIN_PASSES, reference=None,
    )
    traced: list[Pass] = []
    if args.trace and untraced:
        traced, reference = bench.passes(
            args.seconds, started, traced=True, probe=False,
            at_least=MIN_PASSES, reference=reference,
        )

    layers: list[dict] = []
    if reference is not None:
        ref = reference.root
        parallel = work / "parallel-match"
        run = bench.process(
            [sys.executable, "-m", "cxgcorpus.cli", "match", str(ref / "annotated.tsv"),
             str(inputs["inventory"]), str(parallel), "--jobs", "2", "--config", str(inputs["config"])],
            work / "logs" / "parallel-match.log",
        )
        bench.check(run.returncode == 0 and tree_digest(parallel) == tree_digest(ref / "match"),
                    "match --jobs 2 differs from the serial match")
        oracle = bench.process(
            [sys.executable, STEPS, "oracle", str(ref / "annotated.tsv"), str(inputs["inventory"]),
             str(ref / "match"), "--config", str(inputs["config"]), "--seed", str(args.seed)],
            work / "logs" / "oracle.log",
        )
        bench.check(oracle.returncode == 0, "brute_force_match disagrees with the table")
    if traced:
        layers = [layer_values(p) for p in traced]
        counts = {k: v for k, v in layers[0].items() if not k.endswith("_s")}
        for p, values in zip(traced[1:], layers[1:]):
            bench.check({k: v for k, v in values.items() if not k.endswith("_s")} == counts,
                        f"{p.label}: counts differ from {traced[0].label}")
        untraced_wall = stage_summary(untraced)
        for stage in STAGES:
            overhead = [p.stages[stage].wall_s - median(untraced_wall[f"{stage}_s"])
                        for p in traced]
            for values, o in zip(layers, overhead):
                values[f"overhead.{stage}_s"] = o
    values = {"raw": stage_summary(untraced), "reference": reference_values(untraced)}
    return report(args, bench, tag, inputs, values, layers, started)


def report(args, bench: Bench, tag: str, inputs: dict[str, Path], values: dict,
           layers: list[dict], started: float) -> int:
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256": {name: sha256_file(path) for name, path in sorted(inputs.items())},
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "failures": bench.failures,
    }
    if args.trace:
        every = sorted({k for values in layers for k in values})
        # times are medians over traced passes; counts repeat exactly, so
        # the first pass's are reported
        detail = {k: median([v.get(k, 0.0) for v in layers]) if k.endswith("_s")
                  else layers[0].get(k, 0) for k in every}
        record["per_pass"] = layers
        metrics = {name: {"value": detail.get(name, 0.0), "unit": unit} for name, unit, _, _ in LAYERS}
        print(f"{tag}: {len(layers)} traced passes; every span (median self s) and count:")
        for k in every:
            print(f"  {k:<52} {detail[k]:.6g}")
    else:
        raw, scaled = values["raw"], values["reference"]
        record["per_pass"] = raw
        record["per_pass_reference"] = scaled
        metrics = {name: {"value": median(scaled.get(name, [])), "unit": unit}
                   for name, unit in END_TO_END}
        print(f"{tag}: median over samples, times in reference seconds; then the raw"
              " median (samples; raw min..max). Fewer than 11 samples, so no tail percentile.")
        for name, unit in END_TO_END:
            v = raw.get(name, [])
            if v:
                print(f"  {name:<14} {metrics[name]['value']:10.4f} {unit:<3} {median(v):10.4f}"
                      f" (n={len(v)}; {min(v):.4f}..{max(v):.4f})")
        print(f"  calibration    {median(raw['calibration_s']):10.4f} s   per-pass medians"
              f" (n={len(raw['calibration_s'])}); reference {REFERENCE_CALIBRATION_S} s")
    failed = len(bench.failures)
    attempted = max(bench.attempted, 1)
    print(f"  checks: {attempted} attempted, {failed} failed, failed_frac={failed / attempted:.4f}")
    for failure in bench.failures:
        print(f"  FAILED {failure}")
    print("  inputs sha256: " + ", ".join(f"{k}={v[:16]}" for k, v in record["inputs_sha256"].items()))
    record["elapsed_s"] = time.perf_counter() - started
    record["metrics"] = metrics
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True), "utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
