"""Exception hierarchy shared by all tangentcat modules."""


class TangentError(Exception):
    """Base class for every error raised by this package."""


class ContextMismatch(TangentError):
    """Operands live over different variable contexts or bases."""


class DomainMismatch(TangentError):
    """Operands live over different coefficient domains."""


class UnsupportedDomain(TangentError):
    """The requested operation needs structure the domain lacks (e.g. subtraction over N)."""


class ResourceLimit(TangentError):
    """A computation exceeded the configured degree cap."""

    def __init__(self, message, degree=None, cap=None):
        super().__init__(message)
        self.degree = degree
        self.cap = cap


class IllDefinedMorphism(TangentError):
    """A claimed algebra morphism does not send relations to relations."""

    def __init__(self, message, relation=None, residue=None):
        super().__init__(message)
        self.relation = relation
        self.residue = residue


class NotSurjective(TangentError):
    """An operation that needs a surjective morphism received one that is not."""


class ShapeMismatch(TangentError):
    """Arities, indices, vector or matrix shapes, or module algebras do not fit."""


class NotASection(TangentError):
    """The provided map is not a section of the bundle map it was paired with."""

    def __init__(self, message, discrepancy=None):
        super().__init__(message)
        self.discrepancy = discrepancy


class InconsistentClassification(TangentError):
    """Computed verdicts violate a theorem-backed implication, or their evidence fails its check."""

    def __init__(self, message, law=None):
        super().__init__(message)
        self.law = law


class EvidenceMismatch(TangentError):
    """Stored evidence failed to replay against the reported verdict."""


class EmbeddingFailure(TangentError):
    """A rational coefficient has no image modulo the sampling prime."""


class ParseError(TangentError):
    """Input text could not be parsed."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

