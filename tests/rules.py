"""Rule tables shared by the test modules."""

from fractions import Fraction

from abmv import core

# pairwise coprime denominators 3, 7, 5, 6 and 11: the integer ω table's
# scale is their lcm 2,310, so scoring over any smaller scale goes wrong
COPRIME_THIELE = core.thiele(
    [0, 1, Fraction(4, 3), Fraction(11, 7), Fraction(9, 5), 2, Fraction(13, 6), Fraction(24, 11)]
)
