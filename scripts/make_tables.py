#!/usr/bin/env python3
"""Regenerate the reference tables; same as `coroots paper-tables`."""

import sys

from coroots.cli import main

if __name__ == "__main__":
    sys.exit(main(["paper-tables", *sys.argv[1:]]))
