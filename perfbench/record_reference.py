"""Record the reference tags that later runs of the benchmark must reproduce.

    python3 perfbench/record_reference.py --seeds 0-49 [--workload NAME]

For each workload and seed it generates the inputs, trains, and runs the
correctness gate without a reference; it then stores the digest of every
method's tags (ties included) in reference.json beside this file.  Run it
only on the commit whose outputs define "correct"; any independent-check
failure of that commit is printed, not hidden.
"""

import argparse
import json
import shutil
import sys

import run

import checks
import workloads


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-49")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    sp = run.import_statpos()
    try:
        table = json.loads(checks.REFERENCE_FILE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        table = {}
    names = [args.workload] if args.workload else sorted(workloads.WORKLOADS)
    failed = 0
    for name in names:
        for seed in parse_seeds(args.seeds):
            workdir = run.HERE / "work" / f"record-{name}-{seed}"
            try:
                wl = workloads.generate(name, seed, workdir)
                bench = run.Bench(sp, wl, workdir, 0)
                bench.prepare(reference=None)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            failures = bench.ledger.failures
            failed += len(failures)
            for op, reason in failures:
                print(f"{name} seed {seed}: {op}: {reason}", file=sys.stderr)
            table.setdefault(name, {})[str(seed)] = bench.gate.record()
            print(f"{name} seed {seed}: {len(failures)} failures", flush=True)
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    checks.REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
