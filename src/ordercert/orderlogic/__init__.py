"""A checkable inference system for left-order inequalities.

Submodules, each imported directly: ``words`` (formal atom words and
judgments), ``facts`` (atom tables binding each atom to a plane word, and the
facts verified on them), ``rules`` (the rule engine), ``derivation`` (trees,
the checker and the theorem's statement check), and ``scripts`` (the shipped
derivation of the theorem and its atom table).  The checker never loads
``scripts``.
"""
