#!/usr/bin/env python3
"""Self-test of mrlr_benchmark (registered with ctest as benchmark_selftest).

    python3 benchmark/selftest.py PATH/TO/mrlr_benchmark PATH/TO/BENCHMARK.json

Runs every workload of BENCHMARK.json at the tiny --selftest sizes, traced
and untraced, and checks that the last stdout line reports every
end-to-end (resp. per-layer) metric by name with its unit, that every
check passed, and that the results file is marked non-comparable. Then
the negative cases: with forged reference fingerprints every checked job
must fail (failed_frac = 1) and the exit status must be non-zero; a
missing --out is a usage error (exit 2).
"""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path


def run(binary, args):
    p = subprocess.run([binary, *args], capture_output=True, text=True,
                       timeout=300)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stdout + p.stderr


def main():
    binary, bench = sys.argv[1], json.loads(Path(sys.argv[2]).read_text())
    errors = []

    def expect(cond, what):
        if not cond:
            errors.append(what)

    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for w in bench["workloads"]:
            for trace, defs in (("0", bench["end_to_end"]),
                                ("1", bench["per_layer"])):
                out = Path(tmp) / f"{w['name']}-{trace}.json"
                rc, res, log = run(binary, [
                    "--selftest", "--workload", w["name"], "--seconds",
                    "0.5", "--trace", trace, "--out", str(out)])
                tag = f"{w['name']} trace={trace}"
                expect(rc == 0, f"{tag}: exit {rc}\n{log}")
                if res is None:
                    errors.append(f"{tag}: no result line")
                    continue
                expect(res["correct"] and res["failed"] == 0 and
                       res["attempted"] >= 1, f"{tag}: checks failed {res}")
                got = res["metrics"]
                for d in defs:
                    m = got.get(d["name"])
                    expect(m is not None, f"{tag}: missing {d['name']}")
                    if m is not None:
                        expect(m["unit"] == d["unit"],
                               f"{tag}: {d['name']} unit {m['unit']}")
                        expect(math.isfinite(m["value"]),
                               f"{tag}: {d['name']} not finite")
                expect(len(got) == len(defs), f"{tag}: extra metrics")
                doc = json.loads(out.read_text())
                expect(doc["comparable"] is False, f"{tag}: comparable")
                expect("nproc" in doc["provenance"], f"{tag}: provenance")

        out = Path(tmp) / "forged.json"
        rc, res, log = run(binary, ["--selftest", "--forge-reference",
                                    "--seconds", "0.5", "--out", str(out)])
        expect(rc == 1, f"forged: exit {rc}\n{log}")
        for w in json.loads(out.read_text())["workloads"]:
            expect(w["failed_frac"] == 1.0 and not w["correct"],
                   f"forged {w['name']}: failed_frac {w['failed_frac']}")
        expect(res is not None and not res["correct"], "forged: correct")

        rc, _, _ = run(binary, ["--selftest"])
        expect(rc == 2, f"missing --out: exit {rc}")

    for e in errors:
        print("FAIL:", e)
    print("benchmark_selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
