"""Bounded search for finite non-left-orderability witnesses.

A finite set of non-identity elements g_1 .. g_n witnesses that no
left-invariant order exists when *every* choice of signs s in {+1, -1}^n
puts the identity into the sub-semigroup generated by g_1^(s_1) .. g_n^(s_n)
(otherwise some sign choice yields a positive cone for the subgroup the
atoms generate).  The search is breadth-first over products and bounded, so
it can return a witness or honestly give up; it never fabricates one.

Oracles are total identity-testers for products of signed atoms.  Three are
shipped: exact skew-element algebra, the rank-2 integer lattice (orderable:
the search must come up empty), and a tiny order-2 toy group for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Callable, Optional, Sequence

from ..skew import SkewElement, word_to_element

SignedProduct = tuple  # tuple of atom indices; signs come from the vector


class OracleError(RuntimeError):
    """The oracle could not decide an identity question."""


class ProductOracle:
    """Identity-testing for products of signed atoms.

    ``atoms`` is the list of abstract atom elements; ``mul``, ``identity``
    and ``invert`` make products; ``key`` gives a hashable canonical form
    used to prune the breadth-first closure.
    """

    name = "abstract"

    def __init__(self, atoms, mul, identity, invert, key=None):
        self._atoms = list(atoms)
        self._mul = mul
        self._identity = identity
        self._invert = invert
        self._key = key or (lambda x: x)

    def __len__(self):
        return len(self._atoms)

    def signed_atom(self, index: int, sign: int):
        atom = self._atoms[index]
        return atom if sign > 0 else self._invert(atom)

    def mul(self, x, y):
        return self._mul(x, y)

    def key(self, x):
        return self._key(x)

    def is_identity_element(self, x) -> bool:
        return self.key(x) == self.key(self._identity)

    def product_of(self, signs: Sequence[int], indices: Sequence[int]):
        value = self._identity
        for i in indices:
            value = self._mul(value, self.signed_atom(i, signs[i]))
        return value

    def atom_is_identity(self, index: int) -> bool:
        return self.is_identity_element(self._atoms[index])


def skew_oracle(words: Sequence[str]) -> ProductOracle:
    """Atoms realized as exact skew elements from generator-word strings."""
    elements = [word_to_element(w) for w in words]
    oracle = ProductOracle(
        elements,
        mul=lambda x, y: x.compose(y),
        identity=SkewElement.identity(),
        invert=lambda x: x.invert(),
    )
    oracle.name = "skew"
    return oracle


def lattice_oracle(vectors: Sequence[tuple[int, int]]) -> ProductOracle:
    """Atoms in the free abelian group of rank 2 (left-orderable)."""
    oracle = ProductOracle(
        [tuple(v) for v in vectors],
        mul=lambda x, y: (x[0] + y[0], x[1] + y[1]),
        identity=(0, 0),
        invert=lambda x: (-x[0], -x[1]),
    )
    oracle.name = "lattice"
    return oracle


def order_two_oracle() -> ProductOracle:
    """One atom g with g * g = 1: the smallest witnessable situation."""
    oracle = ProductOracle(
        [1],
        mul=lambda x, y: (x + y) % 2,
        identity=0,
        invert=lambda x: x,
    )
    oracle.name = "test-z2"
    return oracle


@dataclass(frozen=True)
class NonLOWitness:
    """Per sign vector, an explicit product of signed atoms equal to 1."""

    n_atoms: int
    oracle_name: str
    products: dict  # sign vector (tuple of +1/-1) -> tuple of atom indices

    def serialize(self) -> dict:
        return {
            "n_atoms": self.n_atoms,
            "oracle": self.oracle_name,
            "entries": [
                {"signs": list(signs), "product": list(indices)}
                for signs, indices in sorted(self.products.items())
            ],
        }

    @classmethod
    def deserialize(cls, data: dict) -> "NonLOWitness":
        products = {
            tuple(int(s) for s in item["signs"]): tuple(int(i) for i in item["product"])
            for item in data["entries"]
        }
        return cls(int(data["n_atoms"]), data.get("oracle", "abstract"), products)


def _identity_product(oracle: ProductOracle, signs, max_depth: int,
                      max_products: int) -> Optional[tuple]:
    """BFS over products of the signed atoms; shortest identity product."""
    n = len(oracle)
    frontier = []
    seen = set()
    explored = 0
    for i in range(n):
        element = oracle.signed_atom(i, signs[i])
        if oracle.is_identity_element(element):
            return (i,)
        key = oracle.key(element)
        if key not in seen:
            seen.add(key)
            frontier.append(((i,), element))
        explored += 1
    depth = 1
    while frontier and depth < max_depth and explored < max_products:
        next_frontier = []
        for word, element in frontier:
            for i in range(n):
                if explored >= max_products:
                    return None
                explored += 1
                new_element = oracle.mul(element, oracle.signed_atom(i, signs[i]))
                new_word = word + (i,)
                if oracle.is_identity_element(new_element):
                    return new_word
                key = oracle.key(new_element)
                if key not in seen:
                    seen.add(key)
                    next_frontier.append((new_word, new_element))
        frontier = next_frontier
        depth += 1
    return None


def sign_search(oracle: ProductOracle, max_depth: int = 6,
                max_products: int = 10000) -> Optional[NonLOWitness]:
    """Try to witness non-left-orderability of the atoms' group.

    Returns a witness only when every one of the 2^n sign vectors yields an
    identity product within the bounds; returns None otherwise (the search
    is a semi-decision: None means "not found", never "orderable").
    """
    for i in range(len(oracle)):
        if oracle.atom_is_identity(i):
            raise OracleError(f"atom #{i} is the identity; witnesses need non-identity atoms")
    products = {}
    for signs in iter_product((1, -1), repeat=len(oracle)):
        found = _identity_product(oracle, signs, max_depth, max_products)
        if found is None:
            return None
        products[signs] = found
    return NonLOWitness(len(oracle), oracle.name, products)


def verify_nonlo_witness(witness: NonLOWitness, oracle: ProductOracle) -> bool:
    """Re-check a witness from scratch: coverage, non-identity atoms, products."""
    if witness.n_atoms != len(oracle):
        return False
    expected = set(iter_product((1, -1), repeat=witness.n_atoms))
    if set(witness.products) != expected:
        return False
    for i in range(len(oracle)):
        if oracle.atom_is_identity(i):
            return False
    for signs, indices in witness.products.items():
        if not indices:
            return False
        if any(i < 0 or i >= witness.n_atoms for i in indices):
            return False
        if not oracle.is_identity_element(oracle.product_of(signs, indices)):
            return False
    return True
