"""Start the reachability collector of ``tools/reach.py`` when ``REACH_DIR`` is set.

Only ``tools/reach.py run`` and its pytest plugin put this directory on
``PYTHONPATH``; it holds nothing else, so no other module is shadowed.
"""

import os

if os.environ.get("REACH_DIR"):
    import importlib.util
    import sys

    _spec = importlib.util.spec_from_file_location(
        "reach", os.path.join(os.path.dirname(os.path.dirname(__file__)), "reach.py")
    )
    _reach = sys.modules["reach"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_reach)
    _reach.start(os.environ["REACH_DIR"])
