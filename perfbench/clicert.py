"""The cli-certify workload: cold-start `perfbase` command-line processes.

Each item is one CLI process, run to completion before the next starts
(through cli_child.py, which stands in for `python -m perfbase`):
`verify` on every shipped fixture (expected exit 0), `verify` on tampered
copies that the independent checker proves invalid (expected exit 1 with
all_rank_one false), and `construct` for the four fixtures the CLI can
rebuild (expected output byte-identical to the fixture).  This module does
not import perfbase, so the workload process itself stays light.

Tampering only breaks rank-one-ness of one base member, which the checker
proves with a nonzero 2x2 minor.  A certificate whose code space differs
from its target is deliberately not an input (see README.md).
"""

import json
import os
import random
import subprocess
import sys
import time

import checker

HERE = os.path.dirname(os.path.abspath(__file__))

# fixture file -> `perfbase construct` arguments that rebuild it byte for byte
CONSTRUCT = {
    "dual_powers_f5_m4_s3.cert.json":
        ["dual-powers", "--p", "5", "--m", "4", "--s", "3", "--bottom", "1,0,0,0"],
    "gabidulin_dual_f3_m3_n3.cert.json":
        ["gabidulin-dual-mtr", "--p", "3", "--m", "3", "--n", "3"],
    "inverse_family_f7_m5.cert.json":
        ["inverse-family", "--p", "7", "--bottom", "3,6,0,0,0"],
    "rect_family_f7_m5_n3.cert.json":
        ["rect-small-n", "--p", "7", "--n", "3", "--bottom", "6,5,5,2,4"],
}
TAMPERED_PER_FIXTURE = 2
CHILD_TIMEOUT_S = 60


def independent_verdict(cert):
    """The checker's own re-check of a prime-field certificate: problem list."""
    p = cert["field"]["p"]
    if cert["field"].get("deg", 1) != 1:
        return ["not a prime-field certificate"]
    base = [A["entries"] for A in cert["base"]]
    target = [checker.flat(B["entries"]) for B in cert["target_basis"]]
    problems = checker.check_base(base, target, p)
    code = cert.get("code")
    if code is not None and not problems:
        space = [B["entries"] for B in code["space_basis"]]
        if checker.rank([checker.flat(B) for B in space], p) != code["k"]:
            problems.append("code dimension differs from the claim")
        elif checker.min_rank(space, p) != code["d"]:
            problems.append("code distance differs from the claim")
    return problems


class CliCertify:
    name = "cli-certify"

    def __init__(self, seed, root, workdir, trace):
        self.root = root
        self.workdir = workdir
        self.trace = trace
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0")
        fixdir = os.path.join(root, "fixtures")
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        self.fixtures = {}
        for fname in sorted(os.listdir(fixdir)):
            if not fname.endswith(".cert.json"):
                continue
            path = os.path.join(fixdir, fname)
            with open(path, "rb") as fh:
                raw = fh.read()
            cert = json.loads(raw)
            self.fixtures[fname] = (raw, cert)
            items.append(("verify", fname, path))
            for t in range(TAMPERED_PER_FIXTURE):
                bad = json.loads(raw)
                idx = rng.randrange(len(bad["base"]))
                member = bad["base"][idx]
                member["entries"] = checker.tamper(
                    member["entries"], cert["field"]["p"], rng)
                tpath = os.path.join(workdir, f"tampered-{t}-{fname}")
                with open(tpath, "w") as fh:
                    json.dump(bad, fh, sort_keys=True, indent=1)
                items.append(("tampered", fname, tpath))
            if fname in CONSTRUCT:
                items.append(("construct", fname,
                              os.path.join(workdir, f"built-{fname}")))
        rng.shuffle(items)
        self.items = items
        self.spawned = []

    def label(self, item):
        return f"{item[0]} {item[1]}"

    def argv(self, item):
        if item[0] == "construct":
            return ["construct", *CONSTRUCT[item[1]], "--out", item[2]]
        return ["verify", item[2]]

    def run(self, item):
        record = self.record_path(len(self.spawned))
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"),
               "trace" if self.trace else "run", record, *self.argv(item)]
        self.spawned.append(time.monotonic())
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def record_path(self, i):
        return os.path.join(self.workdir, f"child-{i}.json")

    def check(self, item, out):
        kind, fname = item[0], item[1]
        code, stdout, stderr = out
        lines = stdout.strip().splitlines()
        try:
            verdict = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return [f"{kind} {fname}: no JSON verdict (exit {code}): {stderr[-200:]}"]
        raw, cert = self.fixtures[fname]
        if kind == "tampered":
            if code != 1 or verdict.get("checks", {}).get("all_rank_one") is not False:
                return [f"tampered {fname}: exit {code}, verdict {lines[-1][:200]}"]
            return []
        problems = independent_verdict(cert)
        if problems:
            return [f"{fname}: checker rejects the fixture: {problems[0]}"]
        if code != 0 or verdict.get("ok") is not True:
            return [f"{kind} {fname}: exit {code}, verdict {lines[-1][:200]}"]
        if kind == "construct":
            with open(item[2], "rb") as fh:
                if fh.read() != raw:
                    return [f"construct {fname}: output differs from the fixture"]
        return []

    def child_records(self):
        """What each CLI process wrote (see cli_child.py), in item order.

        None stands for a process that wrote nothing; a traced record gets
        the time from spawning the process to its first statement.
        """
        out = []
        for i, spawned in enumerate(self.spawned):
            try:
                with open(self.record_path(i)) as fh:
                    record = json.load(fh)
            except (OSError, ValueError):
                record = None
            if record and "started" in record:
                record["interp_start_s"] = record.pop("started") - spawned
            out.append(record)
        return out
