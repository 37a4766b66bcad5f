"""Write reference.json: the outputs of every job any seed can draw.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known good; the benchmark
fails every job whose outputs differ from these afterwards.
"""

from __future__ import annotations

import json
import sys
import tempfile

import workloads as wl


def main() -> int:
    sys.path.insert(0, str(wl.SRC))
    import fundom

    reference = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in wl.WORKLOADS:
            reference[workload] = {}
            for job in wl.all_reference_jobs(workload):
                result = wl.run_job(job, fundom, tmp=tmp)
                if result["problems"]:
                    print(f"{job['key']}: {result['problems']}",
                          file=sys.stderr)
                    return 1
                reference[workload][job["key"]] = result["fp"]
                print(f"{workload} {job['key']} {result['latency']:.3f}s")
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
