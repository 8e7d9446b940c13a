"""Value semantics for the package's model, backend and report classes."""


class Value:
    """Two objects are equal when they have the same type and equal
    instance attributes, and a hashable one hashes their values in the
    order `__init__` sets them.  Derived attributes take part too: each is
    a function of the declared ones, so it changes no answer.  A class
    that holds a dict or changes in place sets `__hash__ = None`."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))
