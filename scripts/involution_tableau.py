#!/usr/bin/env python3
"""Print the pairing tableau of D(n) for every modulus N up to n.

For each N the members of the window class are listed with their images;
pairs cancel in the signed count and the lone fixed point appears exactly
when N divides n.

Usage:
    python scripts/involution_tableau.py [n]
"""

import sys

from pie.involution import class_members, pair
from pie.partitions import class_sum


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    for N in range(1, n + 1):
        members = list(class_members(n, N))
        print(f"n={n}  N={N}  ({len(members)} in class, class_sum={class_sum(n, N)})")
        seen = set()
        for p in members:
            if p.parts in seen:
                continue
            tr = pair(p, N)
            if tr.is_fixed:
                print(f"    {p}  [fixed]")
                seen.add(p.parts)
            else:
                print(f"    {p}  <->  {tr.output}   ({tr.case})")
                seen.add(p.parts)
                seen.add(tr.output.parts)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
