"""Exact classification of mod-l Galois image types for elliptic curves over Q.

The package computes, for an elliptic curve over Q and small primes l, a
label identifying the image of the mod-l Galois representation up to
conjugacy in GL_2(F_l), using exact rational arithmetic throughout.

Layout:

    exactmath   integer and rational helpers (primality, factoring, the
                quadratic character by Euler's criterion)
    polyq       dense polynomials over Q and their rational roots
    gl2         subgroups of GL_2(F_l), invariants, fingerprint tests
    ec          Weierstrass curves, twists, point counts, division polys
    tables      the classification data: covers, families, group generators
    classifier  the decision procedure producing labelled verdicts
    cli         command line entry point
"""

__version__ = "0.1.0"
