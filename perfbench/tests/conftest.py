import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# the benchmark's modules import each other as top-level scripts do, and the
# checkout's package is imported from its source tree as the jobs import it
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
