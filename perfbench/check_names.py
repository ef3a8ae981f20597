"""Regenerate check_names.json: the check names run_checks reports per suite group.

    python3 perfbench/check_names.py

The names depend on the group only (groups with two or more cyclic factors
add the product-structure checks), so one pair per group is run. The
suite-verify workload compares every pair's names with this file, which
guards against a check being dropped silently.
"""

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from wehrl.verify import run_checks, suite_pairs  # noqa: E402

from perfbench.workloads import CHECK_NAMES_FILE  # noqa: E402


def main() -> None:
    names: dict[str, list[str]] = {}
    for group, subgroup in suite_pairs():
        if str(group) not in names:
            results = run_checks(group, subgroup, seed=0, rho_samples=200)
            names[str(group)] = [r.name for r in results]
    CHECK_NAMES_FILE.write_text(json.dumps(names, indent=1) + "\n")


if __name__ == "__main__":
    main()
