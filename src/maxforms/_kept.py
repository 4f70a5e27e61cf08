"""One get-or-make rule for the values a process keeps.

A kept value depends only on its key and on the store's owner, so a race
changes no result, only which work is done twice.  Nothing is evicted: a
store grows with the distinct keys asked for.  The stores (key -> value):

- spectrum2d._EIGENFORMS: (q, n, m, role) -> the label's immutable mode.
- spectrum2d._RADIAL_VALUES: (angular term, M, bc, j) -> eigenvalue j of
  that radial operator, from its own index-selected bisection; read by
  radial_spectrum, zaremba2d_eigensolve and radial_eigensolve.
- PolarScalar._memo, per scalar: ("partial", axis) -> a Cartesian partial,
  "exponent" -> the leading exponent, ("projection", letter, orders, M_phi)
  -> an angular projection, "ring products" -> the shells' Gram matrix.
- _AffineMap._store, per map: degree q -> the compound of its Jacobian,
  "oriented" -> its orientation verdict; any other SmoothMap keeps nothing.

Kept apart, each for a reason:

- bessel._TABLES, (kind, n) -> a zero table: the longest wins, since a
  short table is a bit-identical prefix of a long one.
- spectrum2d._LAST_BATCH and _Pullback.last, the slot of a pullback's
  chain-rule evaluator (tau(v), the leaf partial values and the coefficient
  rows of every derivative asked for at v): one slot each; the last point
  batch wins.
- ScalarField._cache, axis -> partial, lazy on the node algebra's hot path:
  a lost race costs nothing, since no code relies on which partial object
  it gets back.
- functools.cache and cached_property: pure functions of small arguments
  (index tables, the CLI parser, quadrature rules, a mode's components).
"""

import numpy as np


def kept(store: dict, key, make, *args):
    """store[key], made by make(*args) and stored on its first use.

    The first value stored wins (`dict.setdefault` is atomic), and an ndarray
    is made read-only before it is stored, since every caller shares it.  A
    miss is a value of None, so False and 0.0 are kept; a make that raises
    stores nothing.
    """
    value = store.get(key)
    if value is None:
        value = make(*args)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        value = store.setdefault(key, value)
    return value
