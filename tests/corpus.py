"""Fifty expressions drawn from the relation zoo, used for the
parser round-trip suite."""

CORPUS = [
    # q-Weyl relations, one per index
    "q*x0*x1 - q^-1*x1*x0 - (q - q^-1)*c0",
    "q*x1*x2 - q^-1*x2*x1 - (q - q^-1)*c1",
    "q*x2*x3 - q^-1*x3*x2 - (q - q^-1)*c2",
    "q*x3*x0 - q^-1*x0*x3 - (q - q^-1)*c3",
    # the four reduction rules
    "x1*x0 - q^2*x0*x1 - (1 - q^2)*c0",
    "x1*x2 - q^-2*x2*x1 - (1 - q^-2)*c1",
    "x3*x2 - q^2*x2*x3 - (1 - q^2)*c2",
    "x3*x0 - q^-2*x0*x3 - (1 - q^-2)*c3",
    # degree-4 combinations
    "x0^3*x2 - qint(3)*x0^2*x2*x0 + qint(3)*x0*x2*x0^2 - x2*x0^3",
    "x1^3*x3 - qint(3)*x1^2*x3*x1 + qint(3)*x1*x3*x1^2 - x3*x1^3",
    "x2^3*x0 - qint(3)*x2^2*x0*x2 + qint(3)*x2*x0*x2^2 - x0*x2^3",
    "x3^3*x1 - qint(3)*x3^2*x1*x3 + qint(3)*x3*x1*x3^2 - x1*x3^3",
    # commutation of the combinations past neighbours
    "x1*(x0^3*x2 - qint(3)*x0^2*x2*x0 + qint(3)*x0*x2*x0^2 - x2*x0^3)",
    "(x0^3*x2 - qint(3)*x0^2*x2*x0 + qint(3)*x0*x2*x0^2 - x2*x0^3)*x1",
    "x3*(x0^3*x2 - qint(3)*x0^2*x2*x0 + qint(3)*x0*x2*x0^2 - x2*x0^3)",
    "(x0^3*x2 - qint(3)*x0^2*x2*x0 + qint(3)*x0*x2*x0^2 - x2*x0^3)*x3",
    # two-letter products and their stated expansions
    "(x0 + x1)^2",
    "x0^2 + (1 + q^2)*x0*x1 + x1^2 + (1 - q^2)*c0",
    "(x0 + x1)*(x2 + x3)",
    "x0*x2 + x0*x3 + q^-2*x2*x1 + x1*x3 + (1 - q^-2)*c1",
    "(x2 + x3)*(x0 + x1)",
    "x2*x0 + q^-2*x0*x3 + x2*x1 + x3*x1 + (1 - q^-2)*c3",
    # auxiliary three- and four-letter products
    "x1*x0*x2",
    "x0*x2*x1 + (q^2 - 1)*x0*c1 + (1 - q^2)*x2*c0",
    "x1^2*x0",
    "x1^2*x2",
    "x1*x2*x0",
    "x1*x3*x0",
    "x1*x0^2",
    "x3*x0^2",
    "x3*x1*x0",
    "x1^2*x0*x2",
    "x1^2*x2*x0",
    "x1*x3*x0^2",
    "x3*x1*x0^2",
    # the q-Dolan/Grady combination and its error terms
    "(x0 + x1)^3*(x2 + x3) - qint(3)*(x0 + x1)^2*(x2 + x3)*(x0 + x1)"
    " + qint(3)*(x0 + x1)*(x2 + x3)*(x0 + x1)^2 - (x2 + x3)*(x0 + x1)^3",
    "(q^2 - q^-2)^2*c0*((x0 + x1)*(x2 + x3) - (x2 + x3)*(x0 + x1))",
    "(q^2 - q^-2)^2*c2*((x2 + x3)*(x0 + x1) - (x0 + x1)*(x2 + x3))",
    # scaled generators and monomial coefficients
    "a*x0 + a^-1*x1",
    "b*x2 + b^-1*x3",
    "a^3*b*x0*x2*c0^-1",
    "(a - a^-1)*x1 + (b - b^-1)*x3",
    "q^2*a*b^-1*c1^2*x2*x1",
    # central monomials and inverses
    "c0*c1*c2*c3",
    "c0^-3*c2^-1",
    # normal-form monomial atoms
    "[x0.x2 | x1 | c0^2]",
    "[- | x1.x3 | -]",
    "[x0.x0 | - | c3^-1]",
    "q^2 * [x0 | x1 | -] + (1 - q^2) * [- | - | c0]",
    # assorted sums with integer scalars
    "2*x0*x1 - 3*c0 + qint(-2)*x2*x3",
]

assert len(CORPUS) == 50
