"""Help pages and the click group: what a help request or a malformed command line needs.

`page` renders the top-level help page and each command's from the declarations in `cli`: _COMMANDS,
_HELP and the command bodies' docstrings. For those declarations, at every width, its pages are byte
for byte those click 8 renders: the usage line, the paragraphs, the options and commands lists and the
short help of each command, each filled by textwrap. It draws only the shapes these declarations have:
every term narrower than click's 30-column cap, every option with a text, no sentence end within a
short help's limit, and no indented paragraph or run of spaces in a docstring. tests/test_cli.py
compares each page with click's at every COLUMNS value click tells apart, so a declaration that needs
another shape fails there first. `print_help` prints a page under the program name click detects, for
`--help` and `COMMAND --help`, without importing click. `group` builds the click group, which parses
every other command line, reports its usage errors and answers shell completion; its help pages are
`page`'s too. The `cli` argument of each is the module of the commands: `bohmatom.cli`, or `__main__`
where the program runs as `python -m bohmatom.cli`.
"""

from __future__ import annotations

import os
import sys
import textwrap

from .errors import UsageError

_METAVARS = {int: "INTEGER", float: "FLOAT"}
_HELP_OPTION = ("--help", "Show this message and exit.")


def _width() -> int:
    """click's help width: COLUMNS where it is a positive integer, else the terminal's columns (80 where
    stdout is no terminal), at most 80, less 2 and at least 50."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
        except (AttributeError, ValueError, OSError):
            columns = 80
    return max(min(columns, 80) - 2, 50)


def _wrap(text: str, width: int, initial: str, subsequent: str) -> str:
    """text filled by textwrap as click fills it."""
    return textwrap.fill(text, width, initial_indent=initial, subsequent_indent=subsequent)


def _fill(text: str, width: int, indent: str) -> str:
    """A docstring as click fills help text: each paragraph, its words joined by single spaces, filled at
    the indent, one empty line between paragraphs."""
    return "\n\n".join(_wrap(" ".join(par.split()), width, indent, indent) for par in text.split("\n\n"))


def _usage(path: str, args: str, width: int) -> str:
    """The usage line: the arguments beside the command path, or under it where fewer than 20 columns are left."""
    prefix = f"Usage: {path} "
    if width >= len(prefix) + 20:
        return _wrap(args, width, prefix, " " * len(prefix))
    return prefix + "\n" + _wrap(args, width, " " * 11, " " * 11)


def _list(heading: str, rows: list, width: int) -> str:
    """A section of terms and their texts: each text beside its term, in a column 2 wider than the
    longest term, filled to the width."""
    column = max(len(term) for term, _ in rows) + 2
    lines = (_wrap(text, width, f"  {term:{column}}", " " * (column + 2)) for term, text in rows)
    return f"{heading}:\n" + "\n".join(lines)


def _option_row(cli, option) -> tuple[str, str]:
    """An option's term, its flag and metavar, and its text: its help and its [default: ...] and [required]
    notes, where the default is shown wherever it is not None."""
    flag, _, kind, default, required, help_text, show_default = option
    metavar = "FILE" if kind is cli._PATH else f"[{'|'.join(kind)}]" if isinstance(kind, tuple) else _METAVARS[kind]
    notes = [] if default is None else [f"default: ({show_default})" if show_default else f"default: {default}"]
    if required:
        notes.append("required")
    note = f"[{'; '.join(notes)}]" if notes else ""
    return f"{flag} {metavar}", f"{help_text}  {note}" if help_text and note else help_text or note


def page(cli, path: str, command: str | None = None) -> str:
    """The help page of the command, or the top-level page, under its command path (such as
    `bohmatom field`), without the final newline."""
    width = _width()
    if command is None:
        usage, doc, rows = "[OPTIONS] COMMAND [ARGS]...", cli._HELP, []
    else:
        body, options = cli._COMMANDS[command]
        usage, doc, rows = "[OPTIONS]", body.__doc__, [_option_row(cli, option) for option in options]
    text = [_usage(path, usage, width), _fill(doc, width, "  "), _list("Options", [*rows, _HELP_OPTION], width)]
    if command is None:  # each command's short help: its docstring's first paragraph, cut to fit
        limit = width - 6 - max(map(len, cli._COMMANDS))
        rows = [
            (name, textwrap.shorten(
                cli._COMMANDS[name][0].__doc__.partition("\n\n")[0], limit,
                placeholder="...", break_on_hyphens=False, break_long_words=False,
            ))
            for name in sorted(cli._COMMANDS)
        ]
        text.append(_list("Commands", rows, width))
    return "\n\n".join(text)


def _program_name() -> str:
    """The program name click detects: `python -m MODULE` where python ran a module, else the base name of
    sys.argv[0], such as `bohmatom` for the installed script or `-c`."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    if not package:
        return os.path.basename(sys.argv[0])
    name = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    return f"python -m {(package if name == '__main__' else f'{package}.{name}').lstrip('.')}"


def print_help(cli, command: str | None) -> None:
    """Print the command's help page, or the top-level page, as the click group prints it; nothing where
    stdout is closed, as click prints nothing there either."""
    if sys.stdout is not None:
        path = _program_name()
        cli._print([page(cli, path if command is None else f"{path} {command}", command), "\n"])


def group(cli):
    """The click group of the commands, built from cli._COMMANDS."""
    import click

    class Command(click.Command):
        def get_help(self, ctx) -> str:
            return page(cli, ctx.command_path, self.name)

    class Group(click.Group):
        def get_help(self, ctx) -> str:
            return page(cli, ctx.command_path)

        def main(self, *args, **kwargs):
            try:
                return super().main(*args, **kwargs)
            except OSError as exc:  # click's own writes to stdout: a help page or a completion
                cli._stdout_failed(exc)

    def command(command_name, body, options):
        def callback(**params):
            try:
                cli._run(body, params)
            except UsageError as exc:
                raise click.UsageError(str(exc)) from exc

        params = [
            click.Option(
                [flag, param],
                type=(
                    click.Path(dir_okay=False) if kind is cli._PATH
                    else click.Choice(kind) if isinstance(kind, tuple)
                    else kind
                ),
                required=required,
                help=help_text,  # for the descriptions of shell completion; the help pages are page's
                # A required option has no default at all: click then reports it as missing.
                **({} if required else {"default": default}),
            )
            for flag, param, kind, default, required, help_text, _ in options
        ]
        return Command(command_name, callback=callback, params=params, help=body.__doc__)

    return Group("main", commands=[command(name, *spec) for name, spec in cli._COMMANDS.items()])
