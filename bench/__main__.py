import sys

from bench.cli import main

sys.exit(main())
