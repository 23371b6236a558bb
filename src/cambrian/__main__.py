"""`python -m cambrian`: the console entry, cambrian.cli.entry."""

from .cli import entry

entry()
