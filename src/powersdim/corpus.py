"""Built-in regression corpus: every method ladder must agree on all of these."""

__all__ = ["CORPUS_SPECS"]

CORPUS_SPECS = [
    # cyclic
    "Z2", "Z3", "Z4", "Z6", "Z8", "Z12", "Z15", "Z16", "Z24", "Z30", "Z36", "Z60",
    # dihedral (order 2n)
    "D6", "D8", "D10", "D12", "D16", "D20", "D24", "D40",
    # generalized quaternion (order 4n)
    "Q8", "Q12", "Q16", "Q20", "Q24", "Q32", "Q48",
    # elementary abelian
    "E2^2", "E2^3", "E2^4", "E3^2", "E5^2",
    # abelian by invariant factors
    "Ab[2,4]", "Ab[2,8]", "Ab[4,4]", "Ab[3,9]", "Ab[2,6]", "Ab[2,12]", "Ab[2,2,6]",
    # permutation groups
    "S3", "S4", "S5", "A4", "A5",
    # direct products
    "Z3xQ8", "Z2xA4",
]
