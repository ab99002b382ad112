"""Test settings and strategies shared by every module.

Property tests run exact arithmetic, whose cost varies a lot between
examples, and must repeat from run to run: one hypothesis profile makes them
derandomized, keeps no example database and sets no deadline.

``hypergeometric_points`` draws the tame points whose verdict is known in
closed form: the monodromy pair of the generalised hypergeometric equation.
"""

from hypothesis import settings
from hypothesis import strategies as st

from wildcat.engine import FramedPoint
from wildcat.linalg import Grading
from wildcat.scalars import Scalar

from oracles import build, plain, zero, zeta

settings.register_profile("exact", derandomize=True, database=None, deadline=None)
settings.load_profile("exact")


def companion(exponents, m: int):
    """The companion matrix of prod (x - zeta_m^a) over the exponents a: ones
    below the diagonal and the negated low coefficients in the last column."""
    coeffs = [Scalar.one(m)]  # low -> high
    for a in exponents:
        root = zeta(m, a)
        coeffs = [(coeffs[k - 1] if k else zero(m)) - (root * coeffs[k] if k < len(coeffs) else 0)
                  for k in range(len(coeffs) + 1)]
    n = len(exponents)
    return build([[int(i == j + 1) for j in range(n - 1)] + [-coeffs[i]] for i in range(n)], m)


@st.composite
def hypergeometric_points(draw):
    """(point, alpha, beta): two plain loops, the companion matrices A and B
    of prod (x - zeta_m^alpha_j) and prod (x - zeta_m^beta_k), with the
    trivial grading.  A - B has rank 1, and the pair is irreducible over C
    iff no alpha_j = beta_k (Levelt; Beukers-Heckman, Invent. Math. 1989,
    section 3); a coinciding eigenvalue lies in K = Q(zeta_m) and gives a
    K-rational invariant line or hyperplane.  Uniform draws mostly
    coincide, so half the draws take alpha and beta from the two sides of
    a cut of Z/m, and the other half force a coincidence."""
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    n = draw(st.integers(2, 5))
    if m > 1 and draw(st.booleans()):
        order = draw(st.permutations(range(m)))
        cut = draw(st.integers(1, m - 1))
        alpha = draw(st.lists(st.sampled_from(order[:cut]), min_size=n, max_size=n))
        beta = draw(st.lists(st.sampled_from(order[cut:]), min_size=n, max_size=n))
    else:
        residues = st.integers(0, m - 1)
        alpha = draw(st.lists(residues, min_size=n, max_size=n))
        beta = draw(st.lists(residues, min_size=n - 1, max_size=n - 1))
        beta.insert(draw(st.integers(0, n - 1)), draw(st.sampled_from(alpha)))
    loops = [plain(companion(exponents, m)) for exponents in (alpha, beta)]
    return FramedPoint(n, [Grading.trivial(n, m)], [], loops), alpha, beta
