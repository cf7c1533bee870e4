"""Brute-force reference searches, kept apart from the package for cross-checks.

These are the exhaustive subset loops the package's pruned depth-first search
replaced: every combination of candidates is tried, by size, in
``itertools.combinations`` order, and kept when it sums to the module and
passes a boolean minimality test written here from the definitions.  They
share only the submodule arithmetic (``sum_all``, ``profile``) with the code
under test, not the search or the minimality test.
"""

import itertools

from hollowlat.modules import find_second_submodules, sum_all, whole_module
from hollowlat.pshollow import find_ps_hollow_submodules, profile


def _irredundant(module, combo) -> bool:
    return not any(combo[j].le(sum_all(module, combo[:j] + combo[j + 1:]))
                   for j in range(len(combo)))


def _hulls_pairwise_incomparable(combo) -> bool:
    hulls = [profile(s).hull for s in combo]
    return not any(a.le(b) or b.le(a) for a, b in itertools.combinations(hulls, 2))


def _search(module, candidates, keep, cap):
    whole = whole_module(module)
    out = []
    for size in range(1, cap + 1):
        for combo in itertools.combinations(candidates, size):
            if sum_all(module, combo).members == whole.members and keep(combo):
                out.append(combo)
    return out


def minimal_representation_families(module, max_terms=None):
    """Summand tuples of all minimal hollow representations, as the search lists them."""
    hollows = [s for s, _ in find_ps_hollow_submodules(module)]
    cap = len(hollows) if max_terms is None else min(max_terms, len(hollows))
    return _search(module, hollows,
                   lambda c: _hulls_pairwise_incomparable(c) and _irredundant(module, c),
                   cap)


def minimal_second_families(module):
    """All irredundant families of second submodules summing to the module."""
    seconds = find_second_submodules(module)
    return _search(module, seconds, lambda c: _irredundant(module, c), len(seconds))
