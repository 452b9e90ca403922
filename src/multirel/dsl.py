"""Term language for relational and multirelational expressions.

Operator tokens are ASCII; the concordance table in the README maps each
token to its usual symbol.  The infix operators, loosest first, as the
table ``_INFIX`` gives them to the lexer, parser and printer:

    comparison     ==  <=  <u=  <d=  <ud=   chains need parentheses
    residual       \\  /                    chains need parentheses
    union          |                        left associative
    intersection   &                        left associative
    composition    ;  @  *                  left associative

``;``, ``@`` and ``*`` are relational, Kleisli and Peleg composition.
Prefix ``-`` (complement) binds tighter than every infix operator, and
postfix ``^`` (converse) tighter still.

Named operations use call syntax, e.g. ``do(R)`` or ``syq(T, S)``.
Constants may take explicit carrier arguments (``Id(X)``, ``mem(Y)``,
``At(X,Y)``, ``eta(pw(X))``).

Multirelations and relations into a materialized powerset are freely
interchangeable: operations that need the other view convert on the fly.

Terms are typed before they are evaluated: ``typecheck`` gives each node
a sort (relation, multirelation or boolean) and carriers, by unification
over one table of operator signatures.  It infers the carriers of constants
given without arguments, and errors name the offending sub-term.
``infer_slots`` runs the same inference over a law's claim and guard to
find the sort and carrier roles of each of its slots, and the role, if
any, that they read only row by row.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, count
from math import prod
from typing import Callable, Mapping

from . import determinise as _det
from . import mrel as _mrel
from . import peleg as _peleg
from . import power as _power
from . import rel as _rel
from .errors import ShapeMismatch, TermSyntaxError, UnboundVariable
from .mrel import MRel
from .rel import Carrier, Rel, bits, require_object, require_size


# ---------------------------------------------------------------------------
# Syntax trees


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class CRef:
    name: str


@dataclass(frozen=True)
class CPow:
    arg: "CRef | CPow"


@dataclass(frozen=True)
class Const:
    name: str
    args: tuple["CRef | CPow", ...] = ()


@dataclass(frozen=True)
class Call:
    op: str
    args: tuple["Term", ...]


@dataclass(frozen=True)
class Un:
    op: str  # "-" or "^"
    arg: "Term"


@dataclass(frozen=True)
class Bin:
    op: str  # ; @ * & | \ /
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Cmp:
    op: str  # == <= <u= <d= <ud=
    left: "Term"
    right: "Term"


Term = Var | Const | Call | Un | Bin | Cmp


# ---------------------------------------------------------------------------
# Lexer


_Tok = namedtuple("_Tok", "kind text pos")


def _lex(text: str) -> list[_Tok]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], i))
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("ident", text[i:j], i))
            i = j
            continue
        forms = _SYMBOLS.get(c, ())
        for form in forms:
            if text.startswith(form, i):
                toks.append(_Tok("op", form, i))
                i += len(form)
                break
        else:
            if len(forms) > 1:  # it begins several tokens, such as '<': name them
                expected = tuple(form for form in _LEVEL if form[0] == c)
                raise TermSyntaxError(f"stray {c!r} at position {i}", i, expected)
            raise TermSyntaxError(f"unexpected character {c!r} at position {i}", i)
    toks.append(_Tok("end", "", n))
    return toks


# ---------------------------------------------------------------------------
# Parser (recursive descent, with precedence climbing over ``_INFIX``)

# The most levels a term may nest: each operator, call, constant with
# carrier arguments, ``pw`` and pair of parentheses around a sub-term is one
# level.  Parsing, checking and evaluating a term recurse once per level.
_MAX_DEPTH = 100


def _require_depth(t: Term) -> None:
    """Refuse ``t`` if it nests deeper than _MAX_DEPTH levels, as ``parse``
    refuses text: each operator, call, constant with carrier arguments and
    ``pw`` is one level.  It walks an explicit stack, so that ``typecheck``
    and ``print_term`` refuse a term built in Python before they recurse
    over it."""
    stack = [(t, 0)]
    while stack:
        t, n = stack.pop()
        kids = t.args if isinstance(t, Const) else (t.arg,) if isinstance(t, CPow) else _operands(t)
        if kids and n == _MAX_DEPTH:
            raise TermSyntaxError(f"term nested deeper than {_MAX_DEPTH} levels", 0)
        stack.extend((k, n + 1) for k in kids)


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.i = 0
        self.open = 0  # levels entered on the way down
        # a parsed sub-term's id -> its levels; the ids stay unique, since
        # every sub-term parsed so far is held by the term being built
        self.depth: dict[int, int] = {}

    def bounded(self, n: int, pos: int) -> int:
        """``n`` levels, refused at ``pos`` if that is past _MAX_DEPTH."""
        if n <= _MAX_DEPTH:
            return n
        raise TermSyntaxError(f"term nested deeper than {_MAX_DEPTH} levels at position {pos}", pos)

    def inside(self, item: Callable, pos: int):
        """``item()``, one level further in, refused before it recurses."""
        self.open = self.bounded(self.open + 1, pos)
        t = item()
        self.open -= 1
        return t

    def up(self, t, pos: int, *kids):
        """``t``, one level above the deepest of ``kids`` (by default, its operands)."""
        below = (self.depth.get(id(k), 0) for k in kids or _operands(t))
        self.depth[id(t)] = self.bounded(1 + max(below), pos)
        return t

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def take(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text:
            raise TermSyntaxError(
                f"expected {text!r} at position {t.pos}, found {t.text!r}",
                t.pos,
                (text,),
            )
        return self.take()

    def parse(self) -> Term:
        t = self.infix()
        end = self.peek()
        if end.kind != "end":
            raise TermSyntaxError(
                f"trailing input at position {end.pos}: {end.text!r}", end.pos
            )
        return t

    def infix(self, loosest: int = 0) -> Term:
        """A term whose infix operators sit at level ``loosest`` of
        ``_INFIX`` or tighter."""
        left = self.prefix()
        while (level := _LEVEL.get(self.peek().text, -1)) >= loosest:
            name, _, assoc, node = _INFIX[level]
            op = self.take()
            left = self.up(node(op.text, left, self.infix(level + 1)), op.pos)
            nxt = self.peek()
            if assoc != "left" and _LEVEL.get(nxt.text) == level:
                raise TermSyntaxError(
                    f"{name} chains need parentheses (position {nxt.pos})", nxt.pos
                )
        return left

    def prefix(self) -> Term:
        if self.peek().text == "-":
            pos = self.take().pos
            return self.up(Un("-", self.inside(self.prefix, pos)), pos)
        t = self.atom()
        while self.peek().text == "^":
            t = self.up(Un("^", t), self.take().pos)
        return t

    def atom(self) -> Term:
        t = self.peek()
        if t.text == "(":
            self.take()
            inner = self.inside(self.infix, t.pos)
            self.expect(")")
            return self.up(inner, t.pos, inner)
        if t.kind != "ident":
            raise TermSyntaxError(
                f"expected a term at position {t.pos}, found {t.text!r}",
                t.pos,
                ("identifier", "("),
            )
        self.take()
        name = t.text
        if name in _OPS:
            args = self.arguments(lambda: self.inside(self.infix, t.pos))
            want = len(_OPS[name].views)
            if len(args) != want:
                raise TermSyntaxError(
                    f"{name} takes {want} argument(s), got {len(args)} "
                    f"(position {t.pos})",
                    t.pos,
                )
            return self.up(Call(name, args), t.pos)
        if name in _CONSTS:
            if self.peek().text != "(":
                return Const(name)
            args = self.arguments(self.carrier_expr)
            want = len(_CONSTS[name].letters)
            if len(args) != want:
                raise TermSyntaxError(
                    f"{name} takes {want} carrier argument(s) (position {t.pos})",
                    t.pos,
                )
            return self.up(Const(name, args), t.pos, *args)
        if self.peek().text == "(":
            raise TermSyntaxError(
                f"unknown operation {name!r} at position {t.pos}", t.pos
            )
        return Var(name)

    def arguments(self, item: Callable) -> tuple:
        """A parenthesized, comma-separated list of ``item``."""
        self.expect("(")
        args = [item()]
        while self.peek().text == ",":
            self.take()
            args.append(item())
        self.expect(")")
        return tuple(args)

    def carrier_expr(self) -> CRef | CPow:
        t = self.peek()
        if t.kind != "ident":
            raise TermSyntaxError(
                f"expected a carrier name at position {t.pos}", t.pos, ("identifier",)
            )
        self.take()
        if t.text == "pw":
            self.expect("(")
            inner = self.inside(self.carrier_expr, t.pos)
            self.expect(")")
            return self.up(CPow(inner), t.pos, inner)
        return CRef(t.text)


def parse(text: str) -> Term:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printer


def _carrier_text(c: CRef | CPow) -> str:
    if isinstance(c, CPow):
        return f"pw({_carrier_text(c.arg)})"
    return c.name


def _show(t: Term) -> tuple[str, int]:
    """The text of ``t`` and its binding level (see ``_LEVEL``)."""
    if isinstance(t, (Bin, Cmp)):
        level = _LEVEL[t.op]
        lt, ll = _show(t.left)
        rt, rl = _show(t.right)
        # a left-associative level admits equal-level left children only
        if ll < level or (ll == level and _INFIX[level].assoc != "left"):
            lt = f"({lt})"
        if rl <= level:
            rt = f"({rt})"
        return f"{lt} {t.op} {rt}", level
    if isinstance(t, Un):
        level = _POSTFIX if t.op == "^" else _PREFIX
        body, inner = _show(t.arg)
        if inner < level:
            body = f"({body})"
        return (f"{body}^" if t.op == "^" else f"-{body}"), level
    if isinstance(t, Var):
        return t.name, _ATOM
    if isinstance(t, Const):
        if t.args:
            return f"{t.name}({', '.join(_carrier_text(a) for a in t.args)})", _ATOM
        return t.name, _ATOM
    if isinstance(t, Call):
        inner = ", ".join(_show(a)[0] for a in t.args)
        return f"{t.op}({inner})", _ATOM
    raise TypeError(f"not a term: {t!r}")


def print_term(t: Term) -> str:
    _require_depth(t)
    return _show(t)[0]


# ---------------------------------------------------------------------------
# Environments

Value = Rel | MRel | bool

# The keys of an environment file, each a map of names.
_SECTIONS = ("carriers", "rels", "mrels")


def env_from_json(data: Mapping) -> dict:
    """Environment files: {"carriers": {...}, "rels": {...}, "mrels": {...}},
    read into a dict of name bindings for evaluation.

    Carriers are either a size or {"size": n, "names": [...]}.
    """
    env: dict[str, Carrier | Rel | MRel] = {}

    def add(name, value):
        if name in env:
            raise ValueError(f"duplicate environment name {name!r}")
        env[name] = value

    def section(key: str) -> dict:
        part = data.get(key, {})
        require_object(part, f"{key!r}", (), None)
        return part

    require_object(data, "an environment", (), _SECTIONS)
    for name, c in section("carriers").items():
        if isinstance(c, int):
            add(name, Carrier(require_size(c, f"carrier {name!r}")))
        else:
            require_object(c, f"carrier {name!r}", ("size",), ("names",))
            names = c.get("names")
            if names is not None:
                if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                    raise ValueError(f"the names of carrier {name!r} must be a list of strings")
                names = tuple(names)
            add(name, Carrier(require_size(c["size"], f"the size of carrier {name!r}"), names))
    for name, r in section("rels").items():
        add(name, Rel.from_json(r))
    for name, m in section("mrels").items():
        add(name, MRel.from_json(m))
    return env


def env_to_json(env: Mapping) -> dict:
    """The environment file of ``env``, names sorted; ``env_from_json``
    reads it back."""
    out = {key: {} for key in _SECTIONS}
    for name in sorted(env):
        v = env[name]
        if isinstance(v, Carrier):
            out["carriers"][name] = (
                v.size if v.names is None else {"size": v.size, "names": list(v.names)}
            )
        else:
            out["mrels" if isinstance(v, MRel) else "rels"][name] = v.to_json()
    return out


# ---------------------------------------------------------------------------
# Sorts and carriers
#
# A multirelation src <-> P(dst) (sort "mrel") is the same arrow as the
# relation src <-> pw(dst) (sort "rel"), and inference works on that
# relation view.  A carrier is an atom (a role name, or a size once carriers
# are concrete), Pw(carrier) or a variable; so is the sort of 0 and U.


class _Var:
    __slots__ = ("ref",)

    def __init__(self):
        self.ref = None


class Pw:
    """The powerset of a carrier, as a carrier type."""

    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


class Sig:
    """The type of a named value: a relation ``src <-> dst`` (sort "rel")
    or a multirelation ``src <-> P(dst)`` (sort "mrel")."""

    __slots__ = ("sort", "src", "dst")

    def __init__(self, sort: str, src, dst):
        self.sort, self.src, self.dst = sort, src, dst


def _find(x):
    while isinstance(x, _Var) and x.ref is not None:
        x = x.ref
    return x


def _unify(a, b) -> bool:
    a, b = _find(a), _find(b)
    if a is b:
        return True
    if isinstance(b, _Var):
        a, b = b, a
    if isinstance(a, _Var):
        if _occurs(a, b):
            return False
        a.ref = b
        return True
    if isinstance(a, Pw) or isinstance(b, Pw):
        return isinstance(a, Pw) and isinstance(b, Pw) and _unify(a.arg, b.arg)
    return a == b


def _occurs(v: _Var, x) -> bool:
    x = _find(x)
    return x is v or (isinstance(x, Pw) and _occurs(v, x.arg))


def _ground(x) -> bool:
    x = _find(x)
    return _ground(x.arg) if isinstance(x, Pw) else not isinstance(x, _Var)


def _show_carrier(x) -> str:
    x = _find(x)
    if isinstance(x, Pw):
        return f"pw({_show_carrier(x.arg)})"
    return "?" if isinstance(x, _Var) else str(x)


def _carrier_value(x) -> Carrier:
    x = _find(x)
    return _rel.pow_carrier(_carrier_value(x.arg)) if isinstance(x, Pw) else Carrier(x)


def _value_type(v):
    if isinstance(v, Carrier):
        return Pw(_value_type(v.base)) if v.base is not None else v.size
    return Sig("mrel" if isinstance(v, MRel) else "rel", _value_type(v.src), _value_type(v.dst))


def env_types(env: Mapping) -> dict:
    """The type of every name bound in ``env``, for ``typecheck``."""
    return {name: _value_type(v) for name, v in env.items()}


# ---------------------------------------------------------------------------
# Operations: one signature and one implementation each


# Signature and implementation of an operation or a constant.  Each operand
# is taken as a relation ("r", or "s" where an open sort follows its
# sibling's), a multirelation ("m") or as it is ("*"), with carriers named
# by letters, "p" for a powerset; "m" operands and "mrel" results name
# (src, base).  An operand marked "~" is read row by row: row i of the value
# depends only on row i of each such operand and the whole of the others, and
# a boolean holds when it holds at every row (see ``_table``).  Sort "same" is
# a multirelation when all operands are, and "?" (0 and U) one where an "m"
# operand or a sibling is one, else a relation.  An ``impl`` that is a
# (relation, multirelation) pair takes the second where all operands are
# multirelations, or, for a constant, where it is one.  Plain named tuples
# keep import cheap.
_Spec = namedtuple("_Spec", "views operands sort result letters impl by_row")


def _spec(sig: str, impl) -> _Spec:
    """Read ``"~r a b, r b c -> rel a c"``, or ``"mrel a a"`` for a constant."""
    args, _, out = sig.rpartition("->")
    args = [a for a in args.split(",") if a.strip()]
    operands = tuple(tuple(a.replace("~", "").split()) for a in args)
    by_row = tuple("~" in a for a in args)
    sort, *result = out.split()
    letters = tuple(dict.fromkeys(c[-1] for c in result))
    return _Spec("".join(o[0] for o in operands), operands, sort, tuple(result), letters, impl,
                 by_row)


# Implementations look kernel functions up on their modules at call time,
# so a wrapper installed on a module attribute (a tracer) sees these calls.
_CONVERSE = _spec("r a b -> rel b a", lambda r: _rel.rel_converse(r))
_COMPLEMENT = _spec(
    "~* a b -> same a b",
    (lambda r: _rel.rel_bool("complement", r), lambda m: _mrel.mrel_bool("complement", m)),
)


def _outer(name: str) -> _Spec:
    return _spec(
        "~* a b, ~* a b -> same a b",
        (lambda r, s: _rel.rel_bool(name, r, s), lambda r, s: _mrel.mrel_bool(name, r, s)),
    )


def _on_mrel(fn: Callable) -> _Spec:
    return _spec("~m a b -> mrel a b", fn)


def _dsup(m: MRel) -> MRel:
    """The union of the univalent same-domain parts of ``m``, gathered
    row by row into one set per source element."""
    rows: list[set[int]] = [set() for _ in range(m.src.size)]
    for part in _peleg.d_subrelations(m):
        for acc, row in zip(rows, part.rows):
            acc.update(row)
    return MRel._from_sets(m.src, m.dst, rows)


# The infix operators, loosest first.  Each level has a name, its tokens,
# whether a chain of them associates to the left or needs parentheses
# ("none"), and the node it builds.  The lexer, parser and printer all read
# this table; ``_OPS`` gives each token its meaning.
_Level = namedtuple("_Level", "name tokens assoc node")
_INFIX = (
    _Level("comparison", ("==", "<=", "<u=", "<d=", "<ud="), "none", Cmp),
    _Level("residual", ("\\", "/"), "none", Bin),
    _Level("union", ("|",), "left", Bin),
    _Level("intersection", ("&",), "left", Bin),
    _Level("composition", (";", "@", "*"), "left", Bin),
)

# Binding levels: each infix token's index in ``_INFIX``, then prefix ``-``,
# postfix ``^`` and atoms, each tighter than the last.
_LEVEL = {token: i for i, level in enumerate(_INFIX) for token in level.tokens}
_PREFIX, _POSTFIX, _ATOM = range(len(_INFIX), len(_INFIX) + 3)

# The lexer's symbol tokens by first character, longest first.
_FORMS = sorted([*_LEVEL, "-", "^", "(", ")", ","], key=len, reverse=True)
_SYMBOLS = {f[0]: tuple(g for g in _FORMS if g[0] == f[0]) for f in _FORMS}


_OPS: dict[str, _Spec] = {
    # named operations
    "cnv": _CONVERSE,
    "cpl": _COMPLEMENT,
    "icpl": _on_mrel(lambda m: _mrel.inner_bool("icomp", m)),
    "up": _on_mrel(lambda m: _mrel.closure("up", m)),
    "down": _on_mrel(lambda m: _mrel.closure("down", m)),
    "convex": _on_mrel(lambda m: _mrel.closure("convex", m)),
    "dual": _on_mrel(lambda m: _mrel.inner_dual(m)),
    "nu": _on_mrel(lambda m: _mrel.split_terminal(m)[0]),
    "tau": _on_mrel(lambda m: _mrel.split_terminal(m)[1]),
    "dom": _spec("r a b -> rel a a", lambda r: _rel.domain(r)),
    "L": _spec("~r a b -> mrel a b", lambda r: _power.power_transpose(r)),
    "a": _spec("~m a b -> rel a b", lambda m: _power.alpha(m)),
    "Pf": _spec("r a b -> rel pa pb", lambda r: _power.image_functor(r)),
    "kl": _spec("m a b -> rel pa pb", lambda m: _peleg.kleisli_lift(m)),
    "pl": _spec("m a b -> rel pa pb", lambda m: _peleg.peleg_lift(m)),
    "do": _on_mrel(lambda m: _det.fusion(m)),
    "di": _on_mrel(lambda m: _det.fission(m)),
    "cfo": _on_mrel(lambda m: _det.cofusion(m)),
    "cfi": _on_mrel(lambda m: _det.cofission(m)),
    "dsup": _spec("m a b -> mrel a b", _dsup),
    "icup": _spec("~m a b, ~m a b -> mrel a b", lambda r, s: _mrel.inner_bool("icup", r, s)),
    "icap": _spec("~m a b, ~m a b -> mrel a b", lambda r, s: _mrel.inner_bool("icap", r, s)),
    "odot": _spec("~m a b, m b c -> mrel a c", lambda r, s: _peleg.odot(r, s)),
    "syq": _spec("r c a, r c b -> rel a b", lambda t, s: _rel.symmetric_quotient(t, s)),
    # operator tokens
    "^": _CONVERSE,
    "-": _COMPLEMENT,
    ";": _spec("~r a b, r b c -> rel a c", lambda r, s: _rel.rel_compose(r, s)),
    "*": _spec("~m a b, m b c -> mrel a c", lambda r, s: _peleg.peleg_compose(r, s)),
    "@": _spec("~m a b, m b c -> mrel a c", lambda r, s: _peleg.kleisli_compose(r, s)),
    "&": _outer("inter"),
    "|": _outer("union"),
    "\\": _spec("s c a, s c b -> rel a b", lambda t, s: _rel.residual("right", t, s)),
    "/": _spec("s a b, s c b -> rel a c", lambda t, s: _rel.residual("left", t, s)),
    "==": _spec("~* a b, ~* a b -> bool", (operator.eq, operator.eq)),
    "<=": _spec(
        "~* a b, ~* a b -> bool",
        (lambda r, s: _rel.is_subrel(r, s), lambda r, s: _mrel.is_submrel(r, s)),
    ),
    "<u=": _spec("~m a b, ~m a b -> bool", lambda r, s: _mrel.preorder("smyth", r, s)),
    "<d=": _spec("~m a b, ~m a b -> bool", lambda r, s: _mrel.preorder("hoare", r, s)),
    "<ud=": _spec("~m a b, ~m a b -> bool", lambda r, s: _mrel.preorder("egli_milner", r, s)),
}


def _flexible(kind: str) -> _Spec:
    return _spec(
        "? a b",
        (lambda a, b: _rel.rel_const(kind, a, b), lambda a, b: _mrel.mrel_const(kind, a, b)),
    )


def _mrel_const(kind: str) -> _Spec:
    return _spec("mrel a b", lambda a, b: _mrel.mrel_const(kind, a, b))


_UNIT = _spec("mrel a a", lambda a: _power.eta(a))

_CONSTS: dict[str, _Spec] = {
    "Id": _spec("rel a a", lambda a: _rel.rel_const("identity", a, a)),
    "0": _flexible("empty"),
    "U": _flexible("universal"),
    "1": _UNIT,
    "eta": _UNIT,
    "ilow": _mrel_const("inner_unit"),
    "ihigh": _mrel_const("inner_counit"),
    "At": _mrel_const("atoms"),
    "coAt": _mrel_const("coatoms"),
    "mem": _spec("rel a pa", lambda a: _power.member_rel(a)),
    "Om": _spec("rel pa pa", lambda a: _power.omega(a)),
    "Cc": _spec("rel pa pa", lambda a: _power.ccomp(a)),
    "mu": _spec("rel ppa pa", lambda a: _power.mu(a)),
}


# ---------------------------------------------------------------------------
# Inference


# A term node with its sort and relation-view carriers; for a constant, its
# letters' carriers and the enclosing term that errors name.
_Node = namedtuple("_Node", "term spec kids sort src dst letters ctx", defaults=(None,) * 4)


def _located(message: str, t: Term) -> ShapeMismatch:
    return ShapeMismatch(f"{message} [in sub-term: {print_term(t)}]")


def _carrier(token: str, letters: dict):
    c = letters.setdefault(token[-1], _Var())
    for _ in token[:-1]:
        c = Pw(c)
    return c


def _lookup(types: Mapping, name: str, t: Term, value: bool):
    try:
        ty = types[name]
    except KeyError:
        raise UnboundVariable(f"unbound name {name!r}") from None
    if isinstance(ty, Sig) != value:
        what = "names a carrier, not a value" if value else "is not a carrier"
        if value and isinstance(types, _Roles):  # a name that is no slot was taken for a role
            slots = ", ".join(repr(n) for n, sig in types.items() if isinstance(sig, Sig))
            what = f"is not a slot of the law (its slots: {slots or 'none'})"
        raise _located(f"{name!r} {what}", t)
    return ty


def _carrier_arg(c: CRef | CPow, types: Mapping, t: Term):
    if isinstance(c, CPow):
        return Pw(_carrier_arg(c.arg, types, t))
    return _lookup(types, c.name, t, False)


def _operands(t: Term) -> tuple[Term, ...]:
    if isinstance(t, Call):
        return t.args
    if isinstance(t, Un):
        return (t.arg,)
    if isinstance(t, (Bin, Cmp)):
        return (t.left, t.right)
    return ()


def _walk(t: Term, types: Mapping, consts: list, ctx: Term) -> _Node:
    if isinstance(t, Var):
        ty = _lookup(types, t.name, t, True)
        return _Node(t, None, (), ty.sort, ty.src, Pw(ty.dst) if ty.sort == "mrel" else ty.dst)
    if isinstance(t, Const):
        spec = _CONSTS[t.name]
        letters = {x: _carrier_arg(a, types, t) for x, a in zip(spec.letters, t.args)}
        src, dst = (_carrier(c, letters) for c in spec.result)
        if spec.sort == "?":  # the target waits for the sort
            sort, dst = _Var(), _Var()
        else:
            sort, dst = spec.sort, Pw(dst) if spec.sort == "mrel" else dst
        consts.append(_Node(t, spec, (), sort, src, dst, letters, ctx))
        return consts[-1]
    spec = _OPS[t.op]
    kids = [_walk(k, types, consts, t) for k in _operands(t)]
    sorts = [_find(k.sort) for k in kids]
    if "bool" in sorts:
        if isinstance(t, Cmp) and t.op == "==" and sorts == ["bool", "bool"]:
            return _Node(t, spec, kids, "bool")
        raise _located("booleans can only be compared with '=='" if isinstance(t, Cmp)
                       else f"{t.op!r} needs relational operands, not a boolean", t)
    letters: dict = {}
    for (view, s, d), kid in zip(spec.operands, kids):
        if view == "m":  # fixes an open sort; a fixed one converts
            _unify(kid.sort, "mrel")
        src, dst = _carrier(s, letters), _carrier(d, letters)
        dst = Pw(dst) if view == "m" else dst
        if not (_unify(kid.src, src) and _unify(kid.dst, dst)):
            raise _located(
                f"{t.op!r} cannot take {print_term(kid.term)}: it is "
                f"{_show_carrier(kid.src)} -> {_show_carrier(kid.dst)} as a relation, "
                f"where {_show_carrier(src)} -> {_show_carrier(dst)} is needed",
                t,
            )
    sort = spec.sort
    if spec.views[0] in "*s":  # a multirelation when all operands are
        # open sorts are one sort, a multirelation beside one; beside a
        # relation they stay open until ``_settle`` or ``infer_slots``
        open_ = [v for v in sorts if isinstance(v, _Var)]
        known = set(sorts) - set(open_)
        for v in open_:
            _unify(v, "mrel" if known == {"mrel"} else open_[0])
        same = "rel" if "rel" in known else _find(sorts[0])
        sort = same if sort == "same" else sort
    if sort == "bool":
        return _Node(t, spec, kids, sort)
    src, dst = (_carrier(c, letters) for c in spec.result)
    return _Node(t, spec, kids, sort, src, Pw(dst) if spec.sort == "mrel" else dst)


class Typed:
    """A term's inferred sort ("rel", "mrel" or "bool") and its evaluator,
    which does no inference and no sort tests.

    ``rows``, where it is not None, is the root's id evaluator: where one
    name is bound to a ``bytes`` row of value ids (see ``_id_row``), it gives
    the id of the value at every place of that row at once, as a ``bytes``
    row, or one id where the term does not read the name or every name is
    bound to a value.  A term has it when it is compiled with tables and its
    root has an id evaluator, so that each of its nodes that reads a name is
    the name or a table node (see ``_compile``)."""

    __slots__ = ("sort", "run", "rows")

    def __init__(self, sort: str, run: Callable[[dict], Value], rows: Callable | None = None):
        self.sort, self.run, self.rows = sort, run, rows


def typecheck(t: Term, types: Mapping) -> Typed:
    """Infer the sort and carriers of every node of ``t``.

    ``types`` maps carrier names to carrier types (a role name, a size or
    ``Pw``) and value names to their ``Sig``.  Raises ShapeMismatch naming
    the offending sub-term, UnboundVariable, or TermSyntaxError for a term
    nested deeper than _MAX_DEPTH levels.  The evaluator keeps nothing from
    one evaluation to the next."""
    return _typecheck(t, types, None)


def _settle(consts: list[_Node]) -> None:
    """Give ``0`` and ``U`` whose sort nothing fixed the sort "rel", and
    each of them the target its sort implies."""
    for node in consts:
        if node.spec.sort == "?":
            dst = _carrier(node.spec.result[1], node.letters)
            sort = _find(node.sort)
            if isinstance(sort, _Var):  # nothing asked for a multirelation
                sort.ref = sort = "rel"
            if not _unify(node.dst, Pw(dst) if sort == "mrel" else dst):
                raise _located(f"{node.term.name} has no carriers that fit here", node.ctx)


def _typecheck(t: Term, types: Mapping, tables: dict | None) -> Typed:
    """``typecheck``, where the evaluator of a checked term keeps what it
    can when ``tables`` is given (see ``_compile``): sub-terms that read no
    name are evaluated here, so this raises CapExceeded where one of them
    is too large to build, and other nodes over small shapes look their
    values up in operator tables kept in ``tables`` (see ``_table``).  The
    caller owns ``tables`` and decides how long they live; with None,
    nothing is kept and nothing is evaluated."""
    _require_depth(t)
    consts: list[_Node] = []
    root = _walk(t, types, consts, t)
    _settle(consts)
    for node in consts:
        if not all(map(_ground, node.letters.values())):
            raise _located(f"cannot infer the carriers of {node.term.name}; give them explicitly",
                           node.ctx)
    code = _compile(root, tables)
    return Typed(_find(root.sort), code.run, code.ids)


# ---------------------------------------------------------------------------
# Value ids for the small shapes
#
# A shape is small when it has at most 256 values: a relation src <-> dst
# with src * dst <= 8, or a multirelation src <-> P(dst) whose relation view
# src <-> pw(dst) is one (src * 2^dst <= 8).  Shapes are told apart by their
# sort and carrier types, so a powerset carrier is not a plain one of its
# size.  A value's id is its bit code: the word of row a at bit a * w, where w
# is the size of the relation view's target; a relation's row is its own
# word, and a multirelation's row has bit m of its word set for each of its
# masks m.  So each value of a shape has one id, and an exhaustive stream
# with no filter runs through the ids in order.  The tables from operand ids
# to value ids belong to whoever compiles with them (``_typecheck``).

_SMALL_CELLS = 8


# Each multirelation row of masks below 8, by its word.
_MASKS = [tuple(bits(word)) for word in range(256)]
_ONE = Carrier(1)  # the source of a one-row value


class _Shape:
    """The values of one small shape by id, the id of each value's rows
    (``ids``), the words of each id's rows (``words``), the bit at which each
    row's word starts (``shifts``), and the shape of its one-row values
    (``row``), where the id of a row is its word."""

    __slots__ = ("size", "shifts", "values", "ids", "words", "row")

    def __init__(self, cls: type, src: Carrier, dst: Carrier, width: int):
        self.size, self.shifts = 1 << src.size * width, [a * width for a in range(src.size)]
        mask = (1 << width) - 1
        self.words = [tuple(i >> at & mask for at in self.shifts) for i in range(self.size)]
        rows = (words if cls is Rel else tuple(map(_MASKS.__getitem__, words))
                for words in self.words)
        self.values = [cls._trusted(src, dst, r) for r in rows]
        self.ids = {v.rows: i for i, v in enumerate(self.values)}
        self.row = self if src == _ONE else _Shape(cls, _ONE, dst, width)

    def id(self, v) -> int:
        return self.ids[v.rows]


class _Bools(_Shape):
    """Booleans as a shape: False is 0 and True is 1."""

    def __init__(self):
        self.size, self.values = 2, (False, True)

    def id(self, v: bool) -> int:
        return int(v)


_BOOLS = _Bools()
_SHAPES: dict[tuple, _Shape] = {}


def _atom(x):
    """A carrier type as a key: a size, a 1-tuple of its base's key for a
    powerset, or the type itself where it is not known."""
    x = _find(x)
    return (_atom(x.arg),) if isinstance(x, Pw) else x


def _size(atom) -> int:
    """The size of a carrier key; more than the cells of any small shape
    where it is not known or is larger."""
    if isinstance(atom, tuple):
        return 1 << min(_size(atom[0]), _SMALL_CELLS + 1)
    return atom if isinstance(atom, int) else _SMALL_CELLS + 1


def _small(sort, src, dst) -> _Shape | None:
    """The shape of the values of a node of ``sort`` with relation-view
    carriers ``src`` and ``dst``, if it is small; else None."""
    if sort == "bool":
        return _BOOLS
    key = (sort, _atom(src), _atom(dst))
    width = _size(key[2])
    if _size(key[1]) * width > _SMALL_CELLS:
        return None
    if key not in _SHAPES:
        cls, dst = (MRel, _find(dst).arg) if sort == "mrel" else (Rel, dst)
        _SHAPES[key] = _Shape(cls, _carrier_value(src), _carrier_value(dst), width)
    return _SHAPES[key]


def _id_row(values: list) -> bytes | None:
    """The ids of ``values``, which share one shape, as a row for
    ``Typed.rows``; None where that shape is not small."""
    sig = _value_type(values[0])
    shape = _small(sig.sort, sig.src, Pw(sig.dst) if sig.sort == "mrel" else sig.dst)
    return shape and bytes(map(shape.id, values))


class _OneRow(dict):
    """The word of one row of ``impl``'s value, or its boolean, at one part
    of each operand: a row's word where ``split`` marks the operand, given to
    ``impl`` as a one-row value, else the id of its value.  With no operand
    split, the word is the id of the whole value."""

    def __init__(self, impl: Callable, shapes: list[_Shape], split: list[bool], out: _Shape):
        super().__init__()
        self.impl, self.shapes, self.split = impl, shapes, split
        self.out = out.row if any(split) and out is not _BOOLS else out

    def __missing__(self, parts: tuple):
        made = self.impl(*((shape.row if cut else shape).values[part]
                           for part, shape, cut in zip(parts, self.shapes, self.split)))
        self[parts] = made if self.out is _BOOLS else self.out.id(made)
        return self[parts]


def _table(impl: Callable, operands: list[tuple], by_row: tuple[bool, ...], out: _Shape,
           tables: dict) -> Callable:
    """The evaluator of the id of ``impl``'s value, given each operand's
    evaluator of its id and its shape, and which operands ``impl`` reads by
    row (``_Spec.by_row``; a boolean has no rows).  Each operand gives an id
    or a row of ids (see ``Typed``), and so does the evaluator: an id where
    every operand gives one, else the row of ids at each place.

    The id is looked up in a flat table of ``tables``, one entry per tuple
    of operand ids, beside a flag for each entry that is filled; a lookup
    fills only the entries it reads.  A ``_OneRow`` table fills an entry:
    the words of the rows found at their places, or whether all hold.  With
    no operand read by row, the whole value is one row.  Nodes with the same
    operation and operand shapes share these tables, ``==`` included."""
    (f, _), *rest = operands
    shapes = [shape for _, shape in operands]
    split = [mark and shape is not _BOOLS for mark, shape in zip(by_row, shapes)]
    key = (impl, *shapes)
    if key not in tables:
        size = prod(shape.size for shape in shapes)
        tables[key] = bytearray(size), bytearray(size), _OneRow(impl, shapes, split, out)
    table, known, one_row = tables[key]
    get, bools = one_row.__getitem__, out is _BOOLS
    rows = next((len(shape.shifts) for shape, cut in zip(shapes, split) if cut), 0)
    # each operand's part at each row, by the id of its value: its row's word
    # where it is read by row, else its id; and the place of each row's word
    parts = [shape.words if cut else [(i,) * (rows or 1) for i in range(shape.size)]
             for shape, cut in zip(shapes, split)]
    shifts = () if bools else out.shifts if rows else out.shifts[:1]
    n, (p, *q) = shapes[-1].size, parts
    at = (lambda i: zip(p[i // n], q[0][i % n])) if q else lambda i: zip(p[i])

    def fill(i: int) -> int:
        found = map(get, at(i))
        table[i] = r = all(found) if bools else sum(map(operator.lshift, found, shifts))
        known[i] = 1
        return r

    def cell(i: int) -> int:
        return table[i] if known[i] else fill(i)

    def along(xs: bytes, start: int, stop: int, step: int = 1) -> bytes:
        """``xs`` through the entries start + step * x, filled first; an id in
        ``xs`` is below the line's length, so its padding is never read."""
        if 0 in xs.translate(known[start:stop:step].ljust(256)):
            for x in set(xs):
                if not known[start + step * x]:
                    fill(start + step * x)
        return xs.translate(table[start:stop:step].ljust(256))

    if not rest:
        def ids(b):
            x = f(b)
            if type(x) is bytes:
                return along(x, 0, n)
            return table[x] if known[x] else fill(x)
        return ids
    ((g, _),) = rest

    def ids(b):
        x, y = f(b), g(b)
        if type(x) is not bytes:
            if type(y) is bytes:
                return along(y, x * n, x * n + n)
            i = x * n + y
            return table[i] if known[i] else fill(i)
        if type(y) is not bytes:
            return along(x, y, len(table), n)
        return bytes(map(cell, [u * n + v for u, v in zip(x, y)]))
    return ids


# ---------------------------------------------------------------------------
# Evaluation


# Conversions between the two views of an arrow src <-> P(dst), as unary
# operations that keep the relation-view carriers.
_TO_REL = _spec("~m a b -> rel a pb", lambda m: _mrel.mrel_to_rel(m))
_TO_MREL = _spec("~r a pb -> mrel a b", lambda r: _mrel.rel_to_mrel(r))


def _operand(kid: _Node, view: str) -> _Node:
    """``kid`` as an operand of ``view``: itself, or a conversion node over
    it where it is of the other sort.  A conversion has no term."""
    sort = _find(kid.sort)
    if view in "rs" and sort == "mrel":
        return _Node(None, _TO_REL, (kid,), "rel", kid.src, kid.dst)
    if view == "m" and sort == "rel":
        return _Node(None, _TO_MREL, (kid,), "mrel", kid.src, kid.dst)
    return kid


# A compiled node: its evaluator, whether it reads a value name, the shape of
# its values where that is small and tables are used, and the evaluator of its
# value's id or row of ids (see ``Typed``) where it has one: a name, a
# constant, or a table node.
_Code = namedtuple("_Code", "run reads shape ids")


def _name_ids(name: str, shape: _Shape) -> Callable[[dict], int | bytes]:
    """The evaluator of the id of a name's value, or of its row of ids where
    it is bound to one."""
    get = shape.ids.__getitem__

    def ids(b):
        v = b[name]
        return v if type(v) is bytes else get(v.rows)
    return ids


def _compile(node: _Node, tables: dict | None) -> _Code:
    """Each node is compiled one way, chosen here from its types alone.
    Where ``tables`` is given, a node is

    - a constant if it reads no name: a constant of the language, a
      constant sub-term, or a conversion of one.  It is evaluated here, so
      a cap error it raises is raised here, and then gives that value;
    - else a table node if its value is of a small shape (see ``_small``)
      and each of its operands has an id evaluator: a name, a constant or a
      table node;
    - else plain, computed at every evaluation.

    Without ``tables``, every node is plain.  Only a name, a constant and a
    table node have an id evaluator, and each of them takes rows (see
    ``Typed``)."""
    t, spec = node.term, node.spec
    sort = _find(node.sort)
    shape = None if tables is None else _small(sort, node.src, node.dst)
    if isinstance(t, Var):
        ids = shape and _name_ids(t.name, shape)
        return _Code(lambda b, name=t.name: b[name], True, shape, ids)
    impl, views = spec.impl, spec.views
    if isinstance(impl, tuple):  # see ``_Spec``
        as_mrel = ({_find(k.sort) for k in node.kids} or {sort}) == {"mrel"}
        impl, views = impl[as_mrel], ("m" if as_mrel else "r") * len(node.kids)
    kids = [_compile(_operand(k, v), tables) for k, v in zip(node.kids, views)]
    reads = any(k.reads for k in kids)
    if isinstance(t, Const):
        carriers = [node.letters[x] for x in spec.letters]
        run = lambda b: impl(*map(_carrier_value, carriers))
    elif reads and shape is not None and all(k.ids for k in kids):
        ids = _table(impl, [(k.ids, k.shape) for k in kids], spec.by_row, shape, tables)
        values = shape.values
        return _Code(lambda b: values[ids(b)], True, shape, ids)
    elif len(kids) == 1:
        f = kids[0].run
        run = lambda b: impl(f(b))
    else:
        f, g = (k.run for k in kids)
        run = lambda b: impl(f(b), g(b))
    if tables is None or reads:
        return _Code(run, reads, shape, None)
    value = run({})
    return _Code(lambda b: value, False, shape, shape and (lambda b, i=shape.id(value): i))


def eval_term(t: Term | Typed, env: Mapping):
    """Evaluate a term.  A raw term is typed against ``env`` first, so a
    shape error names its sub-term before anything is evaluated."""
    if not isinstance(t, Typed):
        t = typecheck(t, env_types(env))
    return t.run(env)


def evaluate(text: str, env: Mapping):
    """Parse and evaluate in one step."""
    return eval_term(parse(text), env)


# ---------------------------------------------------------------------------
# Slots of a law


def value_names(t: Term) -> list[str]:
    """The value names in ``t``, in order of first use."""
    if isinstance(t, Var):
        return [t.name]
    return list(dict.fromkeys(n for k in _operands(t) for n in value_names(k)))


class _Roles(dict):
    """Types in which each name not given is a carrier role of that name."""

    def __missing__(self, name: str) -> str:
        self[name] = name
        return name


def _row_local(roots: list[_Node], sigs: list[Sig]):
    """The carrier that is the source of every slot of ``sigs`` and that
    ``roots`` read only row by row, else None: it is the target of no node
    and occurs under no ``pw``, every operand with it as source is read by
    row (a ``~`` mark), and no boolean is an operand.  Then each row of a
    node that reads a slot depends on that row of the slots alone, since
    the constants of that source let through (``0``, ``U``, ``At``, ...;
    not ``Id``, ``eta`` or ``mem``) have one row at every element."""
    x = _find(sigs[0].src) if sigs else None
    ok = x is not None and not isinstance(x, Pw)
    ok = ok and all(_find(s.src) is x and not _occurs(x, s.dst) for s in sigs)
    nodes = list(roots)
    while ok and nodes:
        node = nodes.pop()
        if _find(node.sort) != "bool":
            ok = not _occurs(x, node.dst) and (_find(node.src) is x or not _occurs(x, node.src))
        for kid, by_row in zip(node.kids, node.spec.by_row if node.kids else ()):
            ok = ok and _find(kid.sort) != "bool" and (by_row or _find(kid.src) is not x)
        nodes.extend(node.kids)
    return x if ok else None


def infer_slots(terms, slots, names=()) -> tuple[tuple[str, ...], list[tuple[str, str, str]], str | None]:
    """The roles of a law, each slot's (sort, src, dst), and its row-local
    role (see ``_row_local``) or None, from the terms that use the slots: a
    claim and its guard, None for no guard.

    ``slots`` gives each slot as (name, sort, src, dst), with None where it
    is to be inferred; a given sort is fixed, a given src or dst is that
    role's name.  A slot is a multirelation where an operand position it
    fills must be one: an ``m`` operand, directly or through its siblings
    under ``&``, ``|``, ``-``, a comparison or a residual (the rule that
    ``typecheck`` applies to ``0`` and ``U``); or where the target of its
    relation view is a powerset.  Otherwise it is a relation.  Slots whose
    carriers must agree share a role.  Carriers written in the terms are
    roles of their own; the others take, in order of first use over the
    slots, the ``names`` given, then X, Y, Z, W, ....  The roles are listed
    in that order, then the written ones in the order they are written.
    Raises ShapeMismatch if the terms are ill-shaped or a slot would range
    over a powerset carrier."""
    types = _Roles((name, Sig(sort or _Var(), _Var(), _Var())) for name, sort, *_ in slots)
    consts: list[_Node] = []
    roots = []
    for t in filter(None, terms):
        _require_depth(t)
        roots.append(_walk(t, types, consts, t))
    sigs = [types[name] for name, *_ in slots]
    # where a slot's sort is open, its Sig's dst is its relation view's target
    for sig in sigs:
        if isinstance(sig.sort, _Var) and isinstance(_find(sig.dst), Pw):
            _unify(sig.sort, "mrel")
    sorts, ends = [], []
    for (name, _, src, dst), sig in zip(slots, sigs):
        sort, target = _find(sig.sort), sig.dst
        if isinstance(sig.sort, _Var):
            if isinstance(sort, _Var):  # nothing asked for a multirelation
                sort.ref = sort = "rel"
            if sort == "mrel" and not _unify(sig.dst, Pw(target := _Var())):
                raise ShapeMismatch(f"{name} is a multirelation but its target is not a powerset")
        sorts.append(sort)
        ends.append(((src, sig.src), (dst, target)))
    _settle(consts)
    # a role takes a name given to it, else the next free one
    written = [n for n, ty in types.items() if isinstance(ty, str)]
    taken = {*types, *(given for given, _ in chain(*ends) if given)}
    fresh = (n for n in chain(names, "XYZWVU", (f"X{i}" for i in count(1))) if n not in taken)
    named: dict[_Var, str] = {}
    for given, c in chain(*ends):
        if given and isinstance(_find(c), _Var):
            named.setdefault(_find(c), given)
    out = []
    for (name, *_), sort, pair in zip(slots, sorts, ends):
        roles = []
        for given, c in pair:
            c = _find(c)
            if isinstance(c, Pw) and not given:
                raise ShapeMismatch(f"{name} would range over {_show_carrier(c)}, a powerset")
            if isinstance(c, _Var) and c not in named:
                named[c] = next(fresh)
                taken.add(named[c])
            roles.append(given or named.get(c, c))
        out.append((sort, *roles))
    local = _row_local(roots, sigs)
    roles = tuple(dict.fromkeys([r for _, *pair in out for r in pair] + written))
    return roles, out, named.get(local, local)
