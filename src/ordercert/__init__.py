"""ordercert: exact plane homeomorphism algebra and left-order certificates.

The library realizes a finitely generated group of plane homeomorphisms in
exact rational arithmetic, verifies its defining identities, and checks
machine-readable derivation certificates showing that the group admits no
left-invariant total order.
"""

from .exactpl import (
    PLCocycle,
    PLError,
    PLMap,
    Rational,
    format_rational,
    rational,
)
from .plane import (
    EqualityVerdict,
    Letter,
    PlaneWord,
    WitnessSearchConfig,
    equal_or_unknown,
    plane_word,
    verify_mirrored_relations,
)
from .skew import (
    SkewElement,
    compute_epsilon,
    standard_generators,
    verify_relations,
    word_to_element,
)

__version__ = "0.1.0"

__all__ = [
    "EqualityVerdict", "Letter", "PLCocycle", "PLError", "PLMap",
    "PlaneWord", "Rational", "SkewElement",
    "WitnessSearchConfig", "compute_epsilon", "equal_or_unknown", "format_rational",
    "plane_word", "rational", "standard_generators", "verify_mirrored_relations",
    "verify_relations", "word_to_element", "__version__",
]
