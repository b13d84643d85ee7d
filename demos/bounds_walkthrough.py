"""Generator-count bounds from the binomial calculus.

For an Artinian algebra of multiplicity e and embedding dimension h, the
number of generators of the defining ideal is pinned between
C(h+2,2) - e and a Macaulay-type upper bound. This script tabulates the
bounds and shows the lex-segment ideal realizing a given Hilbert
function.
"""

from artinlocal import (
    bound_report,
    build_quotient,
    lex_segment,
    min_gens,
)


def main():
    print("Bounds for small (e, h):")
    print("| e | h | t | r | lower | upper |")
    print("|---|---|---|---|-------|-------|")
    for h in (2, 3, 4):
        for e in range(h + 1, h + 6):
            print(bound_report(e, h).markdown_row())

    print()
    print("Lex-segment ideals pin the upper end of the generator count")
    for hf in [(1, 2, 1, 1), (1, 2, 2, 1), (1, 3, 2, 1)]:
        p = lex_segment(hf)
        gens = ", ".join(repr(g) for g in p.gens)
        print(f"  HF {hf}: lex ideal ({gens})")
        print(f"    check: HF = {build_quotient(p).hf}, v = {min_gens(p)}")


if __name__ == "__main__":
    main()
