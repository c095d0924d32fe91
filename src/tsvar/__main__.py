"""``python -m tsvar``: the ``tsvar`` command."""

from .cli import console_main

console_main()
