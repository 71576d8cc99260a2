#!/usr/bin/env python3
"""Run every cross-check over the catalog; same as `coroots check-all`."""

import sys

from coroots.cli import main

if __name__ == "__main__":
    sys.exit(main(["check-all", *sys.argv[1:]]))
