"""Exact-arithmetic invariants of multifiltered vector spaces.

Layers, bottom up: Q(i) values (exactfield), row-reduction linear algebra
(linalg), single decreasing filtrations (filtration), triples of filtrations
with dimension tables and morphisms (multifilt), Chern and K-theoretic
invariants (invariants), mixed Hodge structures with their canonical
bigrading (mhs), seeded random generators (sampling), the splitting defect
of punctured genus 0 and 1 curves as a count of unbalanced rows (curves),
and parameter families with stratification reports (families).  ``cli`` exposes the whole stack as a
command line tool.
"""

from mixedhodge.exactfield import Fraction, GaussianRational, gauss

__all__ = ["Fraction", "GaussianRational", "gauss"]

__version__ = "0.1.0"
