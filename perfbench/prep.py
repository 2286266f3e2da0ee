"""Input preparation that runs in a child process.

``python3 perfbench/prep.py --entities N --seed S --out DIR`` builds the
seeded synthetic database of ``N`` entities (two subjective attributes of
16 markers each, marker words ``word000`` ... ``word031``) and saves it
to ``DIR`` with the storage tier.  Running it out of process keeps the
build out of the measured process's peak memory.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entities", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.testing import build_synthetic_columnar_database

    database = build_synthetic_columnar_database(num_entities=args.entities, seed=args.seed)
    database.save(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
