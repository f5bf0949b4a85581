"""Record the per-variant references that the gates and err_vs_ref compare against.

    python3 perfbench/make_refs.py [--workload NAME ...]

Runs each workload's op once on every input variant and writes refs.json:
the error measure for the field and CLI workloads, the per-decade probe
ratios for each rbound family.  The references belong to one commit (the
one that added the benchmark); regenerate them only when the benchmark's
inputs change, never to make a failing gate pass.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from run import ROOT, cap_threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    refs = workloads.load_refs()
    refs["variants"] = workloads.VARIANTS
    names = args.workload or list(workloads.WORKLOADS)
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        for name in names:
            workload = workloads.create(name, scratch)
            table = {}
            for variant in range(workloads.VARIANTS):
                items = workload.build(variant)
                if name == "rbound_reduced":
                    entry = {}
                    for item in items:
                        report = workload.run(item)
                        entry[item["kind"]] = list(report.decade_ratios.values())
                else:
                    (item,) = items
                    check = workload.check(item, workload.run(item), None)
                    if not check.ok:
                        raise SystemExit(f"{name} variant {variant}: gates failed {check.failed}")
                    entry = check.error
                table[str(variant)] = entry
                print(name, variant, entry, flush=True)
            refs[name] = table
            with open(workloads.REFS_PATH, "w") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
