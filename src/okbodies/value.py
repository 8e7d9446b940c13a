"""Value semantics for the package's model and report classes."""


class Value:
    """Two objects are equal when they have the same type and equal
    `_key()`s, and a hashable one hashes its key.  The key is every
    instance attribute, in the order `__init__` sets them; a class whose
    derived attributes take no part overrides `_key`, and one that holds a
    dict or changes in place sets `__hash__ = None`."""

    def _key(self) -> tuple:
        return tuple(vars(self).values())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())
