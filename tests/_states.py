"""Read a package state back as label-pair terms, the form the oracle takes."""
from loqec import ModeLabel, Polarization


def pair_terms(state):
    """Nonzero normalized-pair coefficients keyed by canonically ordered label pairs."""
    labels = sorted(
        ModeLabel(p, pol, t) for p in state.paths for pol in Polarization for t in (0, 1)
    )
    terms = {}
    for i, l1 in enumerate(labels):
        for l2 in labels[i:]:
            amp = state.amplitude(l1, l2)
            if amp != 0:
                terms[(l1, l2)] = amp
    return terms
