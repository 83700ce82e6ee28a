#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, in short mode with tiny sizes.

    python3 perfbench/selftest.py

For every workload, runs the benchmark untraced and traced with --short and
checks that the result line has exactly the keys correct, attempted,
failed and metrics; that every metric BENCHMARK.json names for that mode
is printed with its unit, and no other; and that the run passed its
output checks. Then runs each workload with --corrupt-truth (a wrong
ground-truth expectation) and checks that the run fails. Exits 0 when
every check passed.
"""

import json
import os
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py)

SECONDS = "2"


def expected_metrics(mode):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[mode]}


def result_line(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    if not run.build():
        print("FAIL: build")
        return 1
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for workload in run.WORKLOADS:
        for trace, mode in (("0", "end_to_end"), ("1", "per_layer")):
            name = "%s trace=%s" % (workload, trace)
            code, out = run.run_bench(["--workload", workload, "--seed", "1",
                                       "--seconds", SECONDS, "--trace", trace,
                                       "--short"])
            try:
                res = result_line(out)
            except ValueError:
                res = None
            check(isinstance(res, dict), name + ": last line is a JSON object")
            if not isinstance(res, dict):
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  name + ": result keys")
            check(code == 0 and res.get("correct") is True,
                  name + ": output checks pass (exit %d)" % code)
            check(res.get("failed") == 0 and res.get("attempted", 0) >= 1,
                  name + ": no failed command")
            want = expected_metrics(mode)
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            check(got == want, name + ": every %s metric with its unit" % mode)
            check(all(isinstance(v.get("value"), (int, float))
                      for v in res.get("metrics", {}).values()),
                  name + ": numeric values")

        code, out = run.run_bench(["--workload", workload, "--seed", "1",
                                   "--seconds", SECONDS, "--trace", "0",
                                   "--short", "--corrupt-truth"])
        try:
            res = result_line(out)
        except ValueError:
            res = None
        check(code != 0 and isinstance(res, dict) and res.get("correct") is False,
              workload + ": a wrong ground truth fails the run")

    print("selftest: %s" % ("PASS" if not failures else
                            "%d FAILED" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
