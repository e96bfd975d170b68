import os
import sys

# allow running the tests from a checkout without installing the package
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest  # noqa: E402

from vankampen.presentation import Presentation  # noqa: E402
from vankampen.words import BraidWord, Word, braid_action  # noqa: E402


@pytest.fixture
def torus_knot():
    """Artin presentation of the closure of (s1 ... s(n-1))^m, the torus knot T(n, m)."""

    def build(n: int, m: int) -> Presentation:
        action = braid_action(BraidWord(n, tuple((i, 1) for i in range(1, n)) * m))
        gens = action.domain
        return Presentation(gens, tuple(action.images[g] * Word.gen(g, -1) for g in gens))

    return build
