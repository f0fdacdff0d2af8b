"""Make the benchmark modules and the program under test importable."""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.normpath(os.path.join(HERE, "..", "..", "src")),
                os.path.normpath(os.path.join(HERE, ".."))]
