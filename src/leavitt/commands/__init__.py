"""The command handlers, one module per family of commands.

Each row of :data:`leavitt.cli.COMMANDS` names the module that holds its
handler, a function named after the command (``-`` read as ``_``).  A
handler takes the reporter, the parsed arguments (with the checked
``limits`` and ``override`` that ``cli.run`` adds) and the loaded operands
in ``COMMANDS`` order, and writes only through the reporter.  ``cli.run``
imports the one module the command needs, so a command compiles neither the
other families' handlers nor the library code only they run; no module here
imports ``cli``.
"""
