import os
import sys

from hypothesis import settings

# allow running pytest from a fresh checkout without installing
sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src")))

# Property tests run exact and extended-precision eliminations that take
# milliseconds each; on a loaded machine a per-example deadline only flakes.
settings.register_profile("siac", deadline=None)
settings.load_profile("siac")
