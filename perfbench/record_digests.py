#!/usr/bin/env python3
"""Record the stdout digest of every instance of the default seed's batches.

    python3 perfbench/record_digests.py

Writes digests.json, which run.py checks on the default seed.  Each output
must pass its reference check before its digest is recorded; rerun this
only for a change that is meant to alter the CLI's output bytes.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads


def main():
    record = {"seed": run.DEFAULT_SEED, "workloads": {}}
    for workload in sorted(workloads.WORKLOADS):
        directory = run.WORK / f"digests-{workload}"
        try:
            cli, batch, argvs = run.set_up(workload, run.DEFAULT_SEED, directory)
            results = run.run_pass(cli.main, argvs)
            checker = checks.Checker(
                workload, batch, argvs, lambda a: run.run_cli(cli.main, a)[:2]
            )
            for k, (rc, out, *_) in enumerate(results):
                why = checker.problem(k, rc, out)
                if why is not None:
                    sys.exit(f"{batch[k].name}: {why}; nothing recorded")
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        record["workloads"][workload] = [checks.digest(r[1]) for r in results]
    checks.DIGESTS.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
