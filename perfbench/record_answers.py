"""Record the answer of every corpus item, for the workers to compare with.

Run from the repository root on the commit whose answers are the reference:

    PYTHONPATH=src python3 perfbench/record_answers.py [workload ...]

Writes perfbench/answers/<workload>.json.  Stops at the first item that
raises: a corpus on which an operation fails is not a benchmark corpus.
"""

import json
import sys

import workloads


def main(names):
    workloads.ANSWERS_DIR.mkdir(exist_ok=True)
    for name in names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]()
        entries = [{"key": item["key"], "answer": workload.run(item)}
                   for item in workload.items]
        path = workloads.ANSWERS_DIR / f"{name}.json"
        with path.open("w") as fh:
            json.dump(entries, fh, indent=1, ensure_ascii=False)
            fh.write("\n")
        print(f"{name}: {len(entries)} answers -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
