"""Exception hierarchy shared by all domlab modules."""


class DomlabError(Exception):
    """Base class for all library errors."""


class IndexOutOfRange(DomlabError):
    pass


class SelfLoop(DomlabError):
    pass


class TierExceeded(DomlabError):
    pass


class MalformedGraph6(DomlabError):
    pass


class NoSuchEdge(DomlabError):
    pass


class EmptySet(DomlabError):
    pass


class Disconnected(DomlabError):
    pass


class NotACactus(DomlabError):
    pass


class GirthTooSmall(DomlabError):
    pass


class ParameterOutOfRange(DomlabError):
    pass


class NotATree(DomlabError):
    pass


class NotUnicyclic(DomlabError):
    pass


class TreeCountCapExceeded(DomlabError):
    pass


class UnknownTheoremId(DomlabError):
    pass


class CorpusReadError(DomlabError):
    pass


class Inconclusive(DomlabError):
    """A value was not settled: the node budget ran out before it was
    proven optimal, or its spanning trees were too many to enumerate."""
