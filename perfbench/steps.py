"""Program steps the benchmark runs that the `cxgcorpus` CLI has no
subcommand for. Each runs in a fresh interpreter:

  steps.py setup INVENTORY
      Import the CLI, load the inventory and build the match index:
      the set-up every match pays before its first sentence.
  steps.py calibrate SCRATCH
      A fixed piece of work of the kind the stages do (build tab-separated
      lines, count their fields in a dict, sort, format, write and read
      back a file) that no change to the program can alter; the benchmark
      times it between stages to gauge the machine's current speed.
  steps.py oracle ANNOTATED INVENTORY MATCHDIR --config CFG --seed N
      Compare `brute_force_match`, with the max_gap that `match` reads
      from CFG, with the written occurrence table and discard list on
      ORACLE_SENTENCES sentences drawn with seed N. Exit 1 on a
      mismatch.
"""

import argparse
import sys

ORACLE_SENTENCES = 5  # brute force costs about 0.2 s a sentence on 20k constructions


def setup_step(args) -> int:
    import cxgcorpus.cli  # noqa: F401  (every stage pays this import)
    from cxgcorpus import inventory as inv
    from cxgcorpus import matcher

    index = matcher.build_index(inv.load_inventory(args.inventory))
    print(f"index over {index.size} constructions")
    return 0


def calibrate_step(args) -> int:
    import random

    rng = random.Random(5)
    words = [f"w{i:05d}" for i in range(20000)]
    lines = ["\t".join(rng.choice(words) for _ in range(12)) for _ in range(4000)]
    counts = {}
    for line in lines:
        for w in line.split("\t"):
            counts[w] = counts.get(w, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    with open(args.scratch, "w", encoding="utf-8") as fh:
        for w, n in ranked:
            fh.write(f"{w}\t{n}\n")
    with open(args.scratch, encoding="utf-8") as fh:
        total = sum(int(line.rsplit("\t", 1)[1]) for line in fh)
    return 0 if total == 12 * len(lines) else 1


def oracle_step(args) -> int:
    import random
    from pathlib import Path

    from cxgcorpus import ingest, matcher
    from cxgcorpus import inventory as inv
    from cxgcorpus.workspace import EffectiveConfig

    max_gap = EffectiveConfig.from_sources(args.config, {}).max_gap
    table = matcher.OccurrenceTable.read(Path(args.matchdir) / "table.tsv")
    discarded = {
        int(line) for line in
        (Path(args.matchdir) / "discards.txt").read_text("utf-8").split()
    }
    n_sentences = len(table.reverse) + len(discarded)
    count = min(ORACLE_SENTENCES, n_sentences)
    wanted = set(random.Random(args.seed).sample(range(n_sentences), count))
    inventory = inv.load_inventory(args.inventory)
    wanted_ids = {str(sid) for sid in wanted}
    rows = []  # the sampled sentences' TSV rows, blank-line separated
    with open(args.annotated, encoding="utf-8") as fh:
        last = None
        for line in fh:
            head = line.split("\t", 1)[0]
            if head in wanted_ids:
                if last is not None and head != last:
                    rows.append("\n")
                rows.append(line)
                last = head
    mismatches = 0
    for sentence in ingest.read_annotated(rows):
        sid = sentence.sentence_id
        expected = [m.cxg_id for m in matcher.brute_force_match(inventory, sentence, max_gap)]
        if expected != table.constructions_of(sid) or (not expected) != (sid in discarded):
            mismatches += 1
            print(f"sentence {sid}: brute force {expected}, table {table.constructions_of(sid)}")
        wanted.discard(sid)
    mismatches += len(wanted)  # sampled ids the annotated file does not hold
    print(f"oracle: {count} sentences, {mismatches} mismatches")
    return 1 if mismatches else 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="steps.py")
    sub = parser.add_subparsers(dest="step", required=True)
    p = sub.add_parser("setup")
    p.add_argument("inventory")
    p.set_defaults(func=setup_step)
    p = sub.add_parser("calibrate")
    p.add_argument("scratch")
    p.set_defaults(func=calibrate_step)
    p = sub.add_parser("oracle")
    p.add_argument("annotated")
    p.add_argument("inventory")
    p.add_argument("matchdir")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=oracle_step)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
