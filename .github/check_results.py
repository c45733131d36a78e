"""The CI gate on a perfbench/run.py run: check its result lines.

    python .github/check_results.py RESULTS COUNT [CONDITION ...]

RESULTS is a file of run.py's stdout, whose lines that start with "{" are
its JSON results. run.py exits 0 whatever its checks find, so this reads
them. It exits 0 when there are exactly COUNT results and each one has
correct true, failed 0, attempted above 0 and every CONDITION met; each
CONDITION is NAME==VALUE or NAME>VALUE on the value of one of the result's
metrics, such as 'fractal.box_count.calls>0'. Otherwise it exits 1 and
names each condition that failed.
"""

import json
import operator
import re
import sys

_OPS = {"==": operator.eq, ">": operator.gt}
_CONDITION = re.compile(r"([\w.-]+)(==|>)(.+)")


def parse(condition: str) -> tuple[str, str, float]:
    """A NAME==VALUE or NAME>VALUE condition as (name, op, value)."""
    match = _CONDITION.fullmatch(condition)
    if match is None:
        raise ValueError(f"not a NAME==VALUE or NAME>VALUE condition: "
                         f"{condition!r}")
    name, op, value = match.groups()
    return name, op, float(value)


def problems(results: list[dict], count: int,
             conditions: list[tuple[str, str, float]]) -> list[str]:
    """What the results break, in words; empty if they pass."""
    found = [] if len(results) == count \
        else [f"{len(results)} results, expected {count}"]
    for i, result in enumerate(results):
        if result["correct"] is not True:
            found.append(f"result {i}: correct is {result['correct']!r}")
        values = {name: metric["value"]
                  for name, metric in result["metrics"].items()}
        values.update(failed=result["failed"], attempted=result["attempted"])
        for name, op, want in [("failed", "==", 0), ("attempted", ">", 0),
                               *conditions]:
            got = values.get(name)
            if got is None or not _OPS[op](got, want):
                found.append(f"result {i}: {name} is {got!r}, expected "
                             f"{op} {want:g}")
    return found


def main(argv: list[str]) -> None:
    path, count, *conditions = argv
    with open(path) as fh:
        results = [json.loads(line) for line in fh if line.startswith("{")]
    found = problems(results, int(count), [parse(c) for c in conditions])
    if found:
        sys.exit(f"{path} failed its checks: " + "; ".join(found))


if __name__ == "__main__":
    main(sys.argv[1:])
