"""Write oracle_reference.json: (trk, witness) of every oracle item of the default seed.

Run from the repository root:  python3 perfbench/make_oracle_reference.py

The oracle workload compares its outputs for the default seed with this
file, which pins the lexicographically-least-witness contract.  Regenerate
it only when the workload's inputs change, never to absorb a change in the
library's answers.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402


def main():
    reference = {}
    for pass_index in range(workloads.CHUNKS):
        oracle = workloads.Oracle(workloads.DEFAULT_SEED, pass_index)
        for item in oracle.items:
            if item[0] not in reference:
                trk, witness = oracle.run(item)
                reference[item[0]] = [trk, [workloads.rows_of(A) for A in witness.matrices]]
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(reference.items())]
    with open(workloads.ORACLE_REFERENCE, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(reference)} items to {workloads.ORACLE_REFERENCE}")


if __name__ == "__main__":
    main()
