"""ordercert: exact plane homeomorphism algebra and left-order certificates.

The library realizes a finitely generated group of plane homeomorphisms in
exact rational arithmetic, verifies its defining identities, and checks
machine-readable derivation certificates showing that the group admits no
left-invariant total order.  Import each name from its defining module.
"""

__version__ = "0.1.0"
