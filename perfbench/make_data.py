"""Regenerate data/standard_bases.json: sympy's reduced grevlex bases of the
fixed systems of the groebner workload (katsura-4/5, cyclic-5).

    python3 perfbench/make_data.py
"""

import json

from oracles import DATA, make_standard_bases

if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as handle:
        json.dump(make_standard_bases(), handle, sort_keys=True)
        handle.write("\n")
