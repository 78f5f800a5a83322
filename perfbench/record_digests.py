#!/usr/bin/env python3
"""Record the expected records digest of a workload for a range of seeds.

    python3 perfbench/record_digests.py --workload memory --seeds 0-63

Runs one 1-worker and one 2-worker pass per seed, requires them to agree
and to pass every output check, and writes the digest into
perfbench/digests.json, which `run.py` checks every later pass against.
Re-record only when a change is meant to alter simulated statistics.
"""

import argparse
import json
import sys

import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=run.WORKLOADS, required=True)
    ap.add_argument("--seeds", default=str(run.DEFAULT_SEED), help="N or FIRST-LAST")
    args = ap.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if args.workload == "paper":
        seeds = [run.DEFAULT_SEED]

    binary = run.build()
    workdir = run.ROOT / ".perfbench" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    path = run.HERE / "digests.json"
    digests = json.loads(path.read_text())
    for seed in seeds:
        spec = None
        if args.workload != "paper":
            make = run.structural_spec if args.workload == "structural" else run.memory_spec
            spec = workdir / "spec.json"
            spec.write_text(json.dumps(make(seed), indent=1))
        found = set()
        for threads in (1, 2):
            doc, err = run.run_pass(binary, args.workload, spec, workdir / "store.jsonl",
                                    threads, seed)
            if doc is None or doc["failed"]:
                sys.exit(f"seed {seed}: {err or doc['failures']}")
            found.add(doc["records_digest"])
        if len(found) != 1:
            sys.exit(f"seed {seed}: 1- and 2-worker passes disagree: {found}")
        key = "any" if args.workload == "paper" else str(seed)
        digests.setdefault(args.workload, {})[key] = found.pop()
        print(f"{args.workload} seed {key}: {digests[args.workload][key]}", file=sys.stderr)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
