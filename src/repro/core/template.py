"""GNU Parallel replacement strings.

Implements the full set of *positional* and *path-manipulating* replacement
strings from GNU Parallel (``man parallel``, REPLACEMENT STRINGS):

===========  ==============================================================
``{}``       the input line, unchanged
``{.}``      input with its (last) extension removed
``{/}``      basename of input
``{//}``     dirname of input
``{/.}``     basename with extension removed
``{#}``      job sequence number (1-based)
``{%}``      job slot number (1-based) — the key to the paper's GPU
             isolation idiom (``HIP_VISIBLE_DEVICES=$(({%} - 1))``)
``{N}``      argument from the N-th input source (1-based)
``{N.}``     positional + extension removal, likewise ``{N/}``, ``{N//}``,
             ``{N/.}``
``{=expr=}`` **not supported** (requires embedded Perl); raises
             :class:`~repro.errors.TemplateError`
===========  ==============================================================

As in GNU Parallel, a command with *no* replacement string has ``{}``
appended implicitly.

The implementation tokenizes once at construction (``parse``) and renders
per job — rendering is on the engine's hot dispatch path, so no regex work
happens per job.
"""

from __future__ import annotations

import os
import re
import shlex
from dataclasses import dataclass
from typing import Sequence, Union

from repro.errors import TemplateError

__all__ = ["CommandTemplate", "render_token", "SEQ_TOKEN", "SLOT_TOKEN"]

#: Marker objects distinguishing literal text from replacement tokens.
SEQ_TOKEN = "{#}"
SLOT_TOKEN = "{%}"

# {}, {.}, {/}, {//}, {/.}, {#}, {%}, {3}, {3.}, {3/}, {3//}, {3/.},
# plus the engine-extension {host} (the executing sshlogin; renders as the
# literal "{host}" outside remote runs, so local output is unchanged).
_TOKEN_RE = re.compile(
    r"\{(?:(?P<host>host)|(?P<pos>\d+)?(?P<op>\.|/\.|//|/|#|%)?)\}"
)
_PERL_EXPR_RE = re.compile(r"\{=.*?=\}", re.DOTALL)


@dataclass(frozen=True)
class _Token:
    """One replacement token: optional 1-based position + path operation."""

    pos: int | None  # None = whole current argument group joined / arg 1
    op: str  # "", ".", "/", "//", "/.", "#", "%"


Piece = Union[str, _Token]


def _apply_op(value: str, op: str) -> str:
    """Apply a path-manipulation operation to one argument value."""
    if op == "":
        return value
    if op == ".":
        root, _ext = os.path.splitext(value)
        return root
    if op == "/":
        return os.path.basename(value)
    if op == "//":
        # GNU Parallel renders the dirname of a bare filename as ".",
        # where os.path.dirname gives "".
        return os.path.dirname(value) or "."
    if op == "/.":
        root, _ext = os.path.splitext(os.path.basename(value))
        return root
    raise TemplateError(f"unknown replacement operation {op!r}")


def render_token(
    token: _Token, args: Sequence[str], seq: int, slot: int,
    host: "str | None" = None,
) -> str:
    """Render a single token against an argument group."""
    if token.op == "#":
        return str(seq)
    if token.op == "%":
        return str(slot)
    if token.op == "host":
        # Outside a remote run there is no executing host: render the
        # literal text back, matching what GNU Parallel (which treats
        # {host} as plain text) would pass to the job.
        return host if host is not None else "{host}"
    if token.pos is None:
        # {} over a multi-source argument group joins with a space —
        # matches GNU Parallel when sources are linked/combined.
        if len(args) == 1:
            return _apply_op(args[0], token.op)
        return " ".join(_apply_op(a, token.op) for a in args)
    index = token.pos - 1
    if index < 0 or index >= len(args):
        raise TemplateError(
            f"replacement {{{token.pos}}} out of range for {len(args)} input source(s)"
        )
    return _apply_op(args[index], token.op)


def _compile_token(token: _Token):
    """One token → one render closure ``(args, seq, slot, host) -> str``.

    All per-token decisions (positional index, path operation, seq/slot
    kind) are taken here, once per template, so per-render work is a
    plain call.  Out-of-range positionals surface as IndexError — the
    caller falls back to the checked path for the precise TemplateError.
    """
    op = token.op
    if op == "#":
        return lambda args, seq, slot, host: str(seq)
    if op == "%":
        return lambda args, seq, slot, host: str(slot)
    if op == "host":
        return lambda args, seq, slot, host: host if host is not None else "{host}"
    pos = token.pos
    if pos is not None:
        index = pos - 1
        if index < 0:

            def bad(args, seq, slot, host, pos=pos):
                raise TemplateError(
                    f"replacement {{{pos}}} out of range for "
                    f"{len(args)} input source(s)"
                )

            return bad
        if op == "":
            return lambda args, seq, slot, host, i=index: args[i]
        return lambda args, seq, slot, host, i=index, op=op: _apply_op(args[i], op)
    if op == "":

        def whole(args, seq, slot, host):
            return args[0] if len(args) == 1 else " ".join(args)

        return whole

    def whole_op(args, seq, slot, host, op=op):
        if len(args) == 1:
            return _apply_op(args[0], op)
        return " ".join(_apply_op(a, op) for a in args)

    return whole_op


class CommandTemplate:
    """A parsed command template, renderable per job.

    Parameters
    ----------
    command:
        Either a single shell-command string (tokens substituted textually,
        as GNU Parallel does) or a pre-split argv list (substitution happens
        per argv element).  An argv-mode job is rendered with
        ``shlex.join``, so the shell expands nothing in it; it still runs
        through ``sh -c`` (a builtin such as ``echo`` stays the builtin)
        unless every word is plain, when its words are exec'd directly.
    """

    def __init__(self, command: Union[str, Sequence[str]], implicit_append: bool = True):
        if isinstance(command, str):
            self._argv_mode = False
            self._pieces: list[Piece] = self._parse(command)
            self._source = command
        else:
            command = list(command)
            if not command:
                raise TemplateError("empty command")
            self._argv_mode = True
            self._argv_pieces = [self._parse(word) for word in command]
            self._source = shlex.join(command)
            self._pieces = [p for word in self._argv_pieces for p in word]
        if implicit_append and not self.has_any_token:
            # GNU Parallel appends the input only when the command contains
            # no replacement string at all ({#}/{%} count as replacement
            # strings even though they don't consume the input).
            if self._argv_mode:
                self._argv_pieces.append([_Token(None, "")])
                self._pieces = [p for word in self._argv_pieces for p in word]
            else:
                self._pieces = self._pieces + [" ", _Token(None, "")]
        self._compile()

    def _compile(self) -> None:
        """Precompile the render plan (rendering is the per-job hot path).

        String mode compiles to a ``%``-format string plus one closure per
        token, so an unquoted render is one list comprehension over
        argument-free-as-possible callables and one C-level interpolation
        — no per-render token dispatch (the branch chain the per-token
        ``op`` tests used to cost, measurable in ``render_us_per_job``).
        A template with no tokens at all renders to a cached constant.
        Argv mode precomputes which words are static so only token-bearing
        words are re-rendered per job.
        """
        self._tokens: tuple[_Token, ...] = tuple(
            p for p in self._pieces if isinstance(p, _Token)
        )
        if self._argv_mode:
            self._argv_plan: list[Union[str, list[Piece]]] = [
                word
                if any(isinstance(p, _Token) for p in word)
                else "".join(word)  # type: ignore[arg-type]
                for word in self._argv_pieces
            ]
            self._fmt = ""
            self._fns: tuple = ()
            self._static: str | None = None
        else:
            self._fmt = "".join(
                "%s" if isinstance(p, _Token) else p.replace("%", "%%")
                for p in self._pieces
            )
            self._fns = tuple(_compile_token(t) for t in self._tokens)
            self._static = None if self._tokens else "".join(self._pieces)  # type: ignore[arg-type]

    @staticmethod
    def _parse(text: str) -> list[Piece]:
        if _PERL_EXPR_RE.search(text):
            raise TemplateError(
                "{=perl expression=} replacement strings are not supported "
                "(see DESIGN.md, out of scope)"
            )
        pieces: list[Piece] = []
        last = 0
        for m in _TOKEN_RE.finditer(text):
            if m.start() > last:
                pieces.append(text[last : m.start()])
            if m.group("host"):
                pieces.append(_Token(None, "host"))
                last = m.end()
                continue
            pos = int(m.group("pos")) if m.group("pos") else None
            op = m.group("op") or ""
            if pos is not None and op in ("#", "%"):
                raise TemplateError(f"positional {{{pos}{op}}} is not a valid token")
            pieces.append(_Token(pos, op))
            last = m.end()
        if last < len(text):
            pieces.append(text[last:])
        return pieces

    @property
    def source(self) -> str:
        """The original template text."""
        return self._source

    @property
    def has_any_token(self) -> bool:
        """True if the template contains any GNU replacement string.

        ``{host}`` is excluded: GNU Parallel treats it as literal text, so
        for the implicit-``{}``-append decision it must not count.
        """
        return any(
            isinstance(p, _Token) and p.op != "host" for p in self._pieces
        )

    @property
    def is_static(self) -> bool:
        """True when rendering is input-independent (no tokens at all).

        Only possible with ``implicit_append=False`` (``--pipe`` mode);
        the scheduler renders such a template exactly once per run.
        """
        return not any(isinstance(p, _Token) for p in self._pieces)

    @property
    def has_input_token(self) -> bool:
        """True if any token consumes the input argument(s)."""
        return any(
            isinstance(p, _Token) and p.op not in ("#", "%", "host")
            for p in self._pieces
        )

    @property
    def uses_slot(self) -> bool:
        """True if the template references ``{%}`` (GPU-isolation idiom)."""
        return any(isinstance(p, _Token) and p.op == "%" for p in self._pieces)

    def render(
        self,
        args: Sequence[str],
        seq: int = 1,
        slot: int = 1,
        quote: bool = False,
        host: "str | None" = None,
    ) -> str:
        """Render to a single shell-command string.

        ``quote=True`` (GNU Parallel ``-q``) shell-quotes every substituted
        input value, so arguments containing spaces, quotes, ``;`` or ``$``
        cannot be reinterpreted by the job's shell.  ``{#}``/``{%}`` are
        never quoted (they are always plain integers).  ``host`` fills
        ``{host}`` tokens (remote runs); None renders them back literally.
        """
        if self._argv_mode:
            return shlex.join(self.render_argv(args, seq, slot, host=host))
        if self._static is not None:
            return self._static
        if not quote:
            # The hot path: one closure call per token, one C-level
            # interpolation.  An out-of-range positional raises IndexError
            # here; fall through to the checked loop below, which re-walks
            # the tokens and raises the precise TemplateError.
            try:
                return self._fmt % tuple(
                    [f(args, seq, slot, host) for f in self._fns]
                )
            except IndexError:
                pass
        single = len(args) == 1
        values: list[str] = []
        for token in self._tokens:
            op = token.op
            if op == "#":
                values.append(str(seq))
                continue
            if op == "%":
                values.append(str(slot))
                continue
            if op == "host":
                values.append(host if host is not None else "{host}")
                continue
            if op == "" and single and token.pos is None:
                value = args[0]  # the dominant `cmd {}` case, zero calls
            else:
                value = render_token(token, args, seq, slot)
            values.append(shlex.quote(value) if quote else value)
        return self._fmt % tuple(values)

    def render_argv(
        self, args: Sequence[str], seq: int = 1, slot: int = 1,
        host: "str | None" = None,
    ) -> list[str]:
        """Render to an argv list (argv-mode templates only)."""
        if not self._argv_mode:
            raise TemplateError(
                "render_argv() requires a template built from an argv list"
            )
        argv: list[str] = []
        for entry in self._argv_plan:
            if isinstance(entry, str):  # static word, precomputed
                argv.append(entry)
                continue
            argv.append(
                "".join(
                    render_token(p, args, seq, slot, host=host)
                    if isinstance(p, _Token)
                    else p
                    for p in entry
                )
            )
        return argv

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CommandTemplate({self._source!r})"
