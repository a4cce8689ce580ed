"""Record the default-seed reference outputs the correctness gate compares to.

    python3 perfbench/record_reference.py

Runs every operation of every workload once at the default seed and
writes ``reference.json``.  Re-record only when a change is meant to alter
results; the gate exists to catch changes that are not.
"""

import json
import os
import sys

import run  # sets the bytecode cache prefix before the imports below
import worker
import workloads


def main() -> int:
    os.environ.update(run.child_env())
    sys.path.insert(0, str(run.ROOT / "src"))
    references = {}
    for name in workloads.WORKLOADS:
        workdir = run.WORK / "reference"
        ops = workloads.generate(name, workloads.DEFAULT_SEED)
        workload = worker.WORKLOAD_CLASSES[name](ops, workdir, {})
        workload.setup()
        workload.prepare()
        references[name] = {}
        for op in ops:
            _, out = workload.run(op)
            references[name][op["key"]] = workload.observe(op, out)
    worker.REFERENCE_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                                     encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
