#!/usr/bin/env python3
"""Why one expected value is as hard as the whole lottery.

Give each agent powers-of-two payoffs arranged so that the integer
n! * E[objective] stores every ordering count in its own block of bits.
Anyone who can compute that single expected value can read the entire
assignment lottery back out of its binary representation, so the expected
value inherits the lottery's #P-hardness.  This demo builds the encoding
for a 3-agent instance, decodes it, and checks the decode against full
enumeration.
"""

from rsdlab import (
    AssignmentInstance,
    block_bits,
    build_artifact,
    random_abstract,
    round_trip_matches,
)


def main():
    source = AssignmentInstance.from_rankings([(2, 1, 3), (2, 3, 1), (1, 2, 3)])
    n = source.n
    q = block_bits(n)
    print(f"source rankings (agent: items best-first): "
          f"{ {i: source.ranking(i) for i in range(1, n + 1)} }")
    print(f"n! = 6, so each count needs q = {q} bits per block")
    print()

    for setting in ("value", "metric"):
        artifact = build_artifact(source, setting)
        print(f"--- {setting} encoding ---")
        # every payoff is an integer, so the stored table holds them over denom 1
        print("payoff matrix (entries are sums of powers of two):")
        for row in artifact.built.table:
            print("   " + "  ".join(f"{t:>10}" for t in row))
        total = artifact.scaled_total
        print(f"n! * E[objective] = {total}")
        print(f"                  = {total:b} (binary)")
        print("decoded per-(agent, rank) ordering counts:")
        for row in artifact.counts:
            print(f"   {row}")
        if artifact.top_block is not None:
            print(f"bits above position n^2*q hold {artifact.top_block} "
                  f"(= n * n! = {n} * 6, reported but never decoded from)")
        print(f"matches full enumeration: {round_trip_matches(artifact)}")
        print()

    print("the same round trip on a random 4-agent profile, both settings:")
    source = random_abstract(4, seed=99)
    for setting in ("value", "metric"):
        artifact = build_artifact(source, setting)
        digits = len(str(artifact.scaled_total))
        print(f"  {setting:<7}: scaled total has {digits} decimal digits; "
              f"decode matches enumeration = {round_trip_matches(artifact)}")


if __name__ == "__main__":
    main()
