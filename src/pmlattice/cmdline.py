"""The command-line grammar of ``pmlattice``: one table and its reader.

Grammar: ``pmlattice COMMAND [ACTION] [POSITIONAL] [OPTIONS]``, read by one
table (``_GRAMMAR`` plus the options every command shares, ``_COMMON``).
Options go after the command, in any order and between its positionals,
as ``--opt value`` or ``--opt=value``; ``--timing`` takes no value, the
last occurrence of an option wins, and everything after ``--`` is
positional.  A command's positionals (its action, then ``verify``'s
property id or ``corpus emit``'s name) form one run of consecutive words.
Option names must be spelt out: abbreviations such as ``--max-v`` are
not accepted.  ``-h``/``--help`` prints the help of the whole tool or of
one command and exits 0.  Any other malformed command line (an unknown
command, action or option, a missing or non-integer value, a stray word)
exits 2 with a ``precondition``/``usage`` report on stdout and nothing on
stderr.
"""

from __future__ import annotations

from types import SimpleNamespace

from .errors import DEFAULT_TRIPLE_CAP, DEFAULT_VERTEX_CAP, PreconditionViolated


_COMMON = (  # (option, int or bool or None for a string, default, help)
    ("--input", None, None, "GraphFile JSON path"),
    ("--output", None, None, "write the report to this path instead of stdout"),
    ("--max-vertices", int, DEFAULT_VERTEX_CAP,
     "vertex cap for exponential scans (default %(default)s)"),
    ("--seed", int, None, ""),
    ("--timing", bool, False, "include wall time in the report (breaks byte determinism)"),
)
# command -> (help, its actions or None, its optional positional (name, help)
# or None, its own options before the common ones)
_GRAMMAR = {
    "pm": ("perfect matchings", ("list", "count"), None, ()),
    "polytope": ("dimension and faces of P(G)", ("dim", "facets", "codim2"), None, ()),
    "cuts": ("odd cut classification", ("classify", "tight", "separating", "facet"), None, ()),
    "decompose": ("tight cut decomposition", None, None, ()),
    "bvn": ("Birkhoff-von-Neumann test", None, None, ()),
    "intersect": ("find a matching meeting a separating facet-defining cut three times",
                  None, None, ()),
    "basis": ("integral or lattice basis of matchings", ("integral", "lattice"), None, ()),
    "characterize": ("matching lattice vs parity-constrained saturation", None, None, ()),
    "verify": ("run catalog properties", None,
               ("property_id", "property id or 'all' (default all)"),
               (("--property", None, None, "property id (overrides positional)"),
                ("--triple-cap", int, DEFAULT_TRIPLE_CAP,
                 "vertex cap for the nested-triple exhaustion (default %(default)s)"))),
    "corpus": ("bundled and generated graphs", ("list", "emit", "random"),
               ("name", "graph name for 'emit'"),
               (("--vertices", int, None, "vertex count for 'random'"),
                ("--matchings", int, 3,
                 "extra random matchings unioned in (default %(default)s)"))),
}


class UsageError(PreconditionViolated):
    """A malformed command line; ``command`` is as much of the command
    name as was read."""

    def __init__(self, command: str | None, message: str):
        super().__init__("usage", message)
        self.command = command


def _field(option: str) -> str:
    return option[2:].replace("-", "_")


def _is_option(word: str, options: dict) -> bool:
    """Whether a word reads as an option: it starts with ``-`` and is a
    known option (``=value`` aside), or is neither ``-`` alone, a negative
    number nor a phrase with a space."""
    if not word.startswith("-") or word == "-":
        return False
    if word.partition("=")[0] in options:
        return True
    whole, dot, fraction = word[1:].partition(".")
    if (whole.isdecimal() and not dot) or (dot and fraction.isdecimal() and
                                           (not whole or whole.isdecimal())):
        return False
    return " " not in word


def _help_row(left: str, text: str) -> str:
    if len(left) <= 20:
        return f"  {left:22}{text}".rstrip()
    return f"  {left}\n{'':24}{text}".rstrip()


def _help(command: str | None) -> str:
    if command is None:
        return "\n".join(
            [f"usage: pmlattice [-h] {{{','.join(_GRAMMAR)}}} ...", "",
             "Exact analysis of perfect matching polytopes and lattices.", "",
             "commands:"]
            + [_help_row(name, spec[0]) for name, spec in _GRAMMAR.items()]
            + ["", "options:", _help_row("-h, --help", "show this help message and exit")])
    text, actions, optional, own = _GRAMMAR[command]
    options = own + _COMMON
    lefts = [o if kind is bool else f"{o} {_field(o).upper()}" for o, kind, _, _ in options]
    usage = ["[-h]"] + [f"[{left}]" for left in lefts]
    positionals = []
    if actions:
        usage.append(f"{{{','.join(actions)}}}")
        positionals.append(_help_row(f"{{{','.join(actions)}}}", ""))
    if optional:
        usage.append(f"[{optional[0]}]")
        positionals.append(_help_row(*optional))
    lines = [f"usage: pmlattice {command} {' '.join(usage)}", "", text, ""]
    if positionals:
        lines += ["positional arguments:", *positionals, ""]
    lines += ["options:", _help_row("-h, --help", "show this help message and exit")]
    for left, (_, _, default, help_text) in zip(lefts, options):
        lines.append(_help_row(left, help_text.replace("%(default)s", str(default))))
    return "\n".join(lines)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read a command line by the table into its fields: ``command``,
    ``action`` for a command with actions, its positional, and one field
    per option (``--max-vertices`` is ``max_vertices``).  ``-h``/``--help``
    prints help and raises ``SystemExit(0)``; a malformed line raises
    :class:`UsageError`."""
    if argv and argv[0] in ("-h", "--help"):
        print(_help(None))
        raise SystemExit(0)
    if not argv or argv[0] not in _GRAMMAR:
        got = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise UsageError(None, f"{got}; choose one of: {', '.join(_GRAMMAR)}")
    command = argv[0]
    _, actions, optional, own = _GRAMMAR[command]
    slots = (["action"] if actions else []) + ([optional[0]] if optional else [])
    kinds = {option: kind for option, kind, _, _ in own + _COMMON}
    fields = {"command": command, **dict.fromkeys(slots),
              **{_field(option): default for option, _, default, _ in own + _COMMON}}
    words = iter(argv[1:])
    run = None  # the positional run: None before it, then its slots left, [] after it
    rest_positional = False
    for word in words:
        if word == "--" and not rest_positional:
            rest_positional = True
            continue
        if rest_positional or not _is_option(word, kinds):
            if run is None:
                run = list(slots)
            if not run:
                raise UsageError(command, f"unrecognized argument {word!r}")
            slot = run.pop(0)
            if slot == "action" and word not in actions:
                raise UsageError(command, f"invalid action {word!r} for {command}; "
                                          f"choose one of: {', '.join(actions)}")
            fields[slot] = word
            continue
        if run is not None:
            run = []
        if word in ("-h", "--help"):
            print(_help(command))
            raise SystemExit(0)
        option, eq, value = word.partition("=")
        if option not in kinds:
            raise UsageError(command, f"unrecognized option {option!r}")
        kind = kinds[option]
        if kind is bool:
            if eq:
                raise UsageError(command, f"option {option} takes no value")
            fields[_field(option)] = True
            continue
        if not eq:
            value = next(words, None)
            if value is None or _is_option(value, kinds):
                raise UsageError(command, f"option {option} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(command, f"option {option} needs an integer, "
                                          f"not {value!r}") from None
        fields[_field(option)] = value
    if actions and fields["action"] is None:
        raise UsageError(command, f"{command} needs an action, one of: {', '.join(actions)}")
    return SimpleNamespace(**fields)
