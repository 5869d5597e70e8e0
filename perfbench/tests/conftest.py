import sys
from pathlib import Path

# The benchmark's modules are scripts beside this directory, not a package.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
