"""Sentence language for opposition theory.

A sentence is either a single quantifier applied to a quantifier-free
monadic matrix, or a boolean combination of such sentences.  Both levels
share one node family: ``Atom`` and ``Quantified`` are the leaves, and
``Not``, ``And``, ``Or`` and ``Implies`` are the connectives of matrices
and sentences alike.  An atom belongs inside a quantifier and a
quantifier outside one; quantifiers never nest, since the disjunctive
and conjunctive corners of the hexagon only need top-level connectives.
"""

FORALL = "forall"
EXISTS = "exists"
QUANTIFIERS = (FORALL, EXISTS)

FORMS = ("A", "E", "I", "O", "U", "Y")

MIXED = "mixed"
UNIVERSAL_ONLY = "universal-only"
EXISTENTIAL_ONLY = "existential-only"
REPRESENTATIONS = (MIXED, UNIVERSAL_ONLY, EXISTENTIAL_ONLY)

# Which universal label takes the smaller magnitude on a segment.
A_LOW = "a-low"
A_HIGH = "a-high"
UNIVERSAL_MAPS = (A_LOW, A_HIGH)


class _LazyFields:
    """A record class's ``__dataclass_fields__``, built on first access and
    then cached on the class, so that ``dataclasses.fields``, ``asdict``
    and ``is_dataclass`` read records while only they import
    ``dataclasses``."""

    def __get__(self, instance: object, owner: type) -> dict:
        import dataclasses

        missing = dataclasses.MISSING
        fields = [
            (name, owner.__annotations__[name],
             dataclasses.field(default=owner._defaults.get(name, missing)))
            for name in owner._fields
        ]
        owner.__dataclass_fields__ = dataclasses.make_dataclass(
            owner.__name__, fields
        ).__dataclass_fields__
        return owner.__dataclass_fields__


class Record:
    """Base of the package's immutable value classes, in place of frozen
    dataclasses, whose generated code costs every command its start-up.

    A subclass names its fields in ``__slots__`` and the defaults of
    trailing ones in ``_defaults``.  Records are built from positional or
    keyword fields, then ``__post_init__`` checks them; they compare equal
    when of the same class with equal fields, hash by their fields, print
    as ``Name(field=value, ...)``, refuse assignment and deletion, and
    pickle and copy through ``__reduce__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__slots__", ()))
        # each slot's own setter, which the refusing __setattr__ cannot reach
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls._fields)
        if cls._fields:
            cls.__dataclass_fields__ = _LazyFields()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields {names}")
            args = tuple(values[name] for name in names)
        for setter, value in zip(self._setters, args):
            setter(self, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Vocabulary(Record):
    """Ordered collection of unary predicate names."""

    __slots__ = ("predicates",)
    predicates: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ValueError("vocabulary must contain at least one predicate")
        if len(set(self.predicates)) != len(self.predicates):
            raise ValueError("predicate names must be unique")
        for name in self.predicates:
            if not name or not name[0].isupper():
                raise ValueError(f"invalid predicate name: {name!r}")

    def __contains__(self, name: object) -> bool:
        return name in self.predicates

    def __len__(self) -> int:
        return len(self.predicates)

    @classmethod
    def of(cls, *names: str) -> "Vocabulary":
        return cls(tuple(names))


# --- one node family for matrices and sentences ---


class Sentence(Record):
    """A node of a sentence or of the matrix under its quantifier; the
    fieldless base of the six node records, not one itself."""

    __slots__ = ()


class Atom(Sentence):
    """A predicate applied to the bound variable; a leaf of a matrix."""

    __slots__ = ("predicate",)
    predicate: str


class Quantified(Sentence):
    """A quantifier over a matrix; a leaf of a sentence."""

    __slots__ = ("quantifier", "matrix")
    quantifier: str
    matrix: Sentence

    def __post_init__(self) -> None:
        if self.quantifier not in QUANTIFIERS:
            raise ValueError(f"unknown quantifier: {self.quantifier!r}")


class Not(Sentence):
    __slots__ = ("body",)
    body: Sentence


class And(Sentence):
    __slots__ = ("left", "right")
    left: Sentence
    right: Sentence


class Or(Sentence):
    __slots__ = ("left", "right")
    left: Sentence
    right: Sentence


class Implies(Sentence):
    __slots__ = ("left", "right")
    left: Sentence
    right: Sentence


def sentence_predicates(*sentences: Sentence) -> tuple[str, ...]:
    """Predicate names used in the sentences or matrices, in first-occurrence
    order; the one rule by which a corpus or a sentence list gets its vocabulary."""
    found: dict[str, None] = {}
    stack = list(reversed(sentences))
    while stack:
        s = stack.pop()
        if isinstance(s, Atom):
            found[s.predicate] = None
        elif isinstance(s, Quantified):
            stack.append(s.matrix)
        elif isinstance(s, Not):
            stack.append(s.body)
        elif isinstance(s, (And, Or, Implies)):
            stack += (s.right, s.left)
        else:
            raise TypeError(f"not a sentence: {s!r}")
    return tuple(found)


def make_categorical(form: str, predicate: str, representation: str = MIXED) -> Sentence:
    """Build one of the six categorical forms over a unary predicate.

    A and E are the universal affirmative/negative, I and O the
    existential affirmative/negative.  U is the disjunction of A and E,
    Y the conjunction of I and O.  The mixed representation words each
    form with its own quantifier; a single-quantifier representation
    rewrites the other quantifier by the duality ∃M = ¬∀¬M (universal-only)
    or ∀M = ¬∃¬M (existential-only), and writes ¬¬M as M.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form tag: {form!r}")
    if representation not in REPRESENTATIONS:
        raise ValueError(f"unknown representation tag: {representation!r}")

    if form == "U":
        return Or(
            make_categorical("A", predicate, representation),
            make_categorical("E", predicate, representation),
        )
    if form == "Y":
        return And(
            make_categorical("I", predicate, representation),
            make_categorical("O", predicate, representation),
        )

    phi = Atom(predicate)
    quantifier, matrix = {
        "A": (FORALL, phi),
        "E": (FORALL, Not(phi)),
        "I": (EXISTS, phi),
        "O": (EXISTS, Not(phi)),
    }[form]
    kept = {UNIVERSAL_ONLY: FORALL, EXISTENTIAL_ONLY: EXISTS}.get(representation, quantifier)
    if quantifier == kept:
        return Quantified(quantifier, matrix)
    return Not(Quantified(kept, matrix.body if isinstance(matrix, Not) else Not(matrix)))


# --- printing ---

# Precedence levels: -> is 1, | is 2, & is 3, ~ is 4, atoms and quantified
# sentences are 5.  Binary connectives are left-associative, so a right
# operand at the same level needs parentheses.  The parser reads the same
# table.

_NOT_LEVEL = 4
BINARY_CONNECTIVES = {And: ("&", 3), Or: ("|", 2), Implies: ("->", 1)}


def _print(s: Sentence, floor: int) -> str:
    if isinstance(s, Atom):
        return f"{s.predicate}(x)"
    if isinstance(s, Quantified):
        text = f"{s.quantifier} x. {_print(s.matrix, 0)}"
        # a quantifier body extends as far as possible, so any operand
        # position requires parentheses
        return f"({text})" if floor > 0 else text
    if isinstance(s, Not):
        return "~" + _print(s.body, _NOT_LEVEL)
    op, level = BINARY_CONNECTIVES[type(s)]
    text = f"{_print(s.left, level)} {op} {_print(s.right, level + 1)}"
    return f"({text})" if level < floor else text


def print_sentence(s: Sentence) -> str:
    """Render a sentence in the concrete syntax accepted by the parser."""
    return _print(s, 0)
