"""Record reference.json: the summary output of every pool op of every
workload at the current commit.  Run from the repository root:

    python3 benchmarks/record_reference.py

Regenerate it only when a change alters results on purpose, and say so.
"""

import json
import sys

import run


def main() -> int:
    run.pin_blas()
    sys.path.insert(0, str(run.SRC))
    import workloads

    doc = {"fingerprint": run.fingerprint(), "ops": {}}
    for name, (pool, _warm_up) in workloads.WORKLOADS.items():
        doc["ops"][name] = {op.key: op.summary(op.call()) for op in pool()}
        print(f"{name}: {len(doc['ops'][name])} ops recorded", flush=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
