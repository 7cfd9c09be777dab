import atexit
import os
import shutil
import tempfile

# isolate the structure-polynomial cache per test session, unless one is given
if not os.environ.get("WITTGRASS_CACHE_DIR"):
    _cache = tempfile.mkdtemp(prefix="wittgrass-test-cache-")
    atexit.register(shutil.rmtree, _cache, ignore_errors=True)
    os.environ["WITTGRASS_CACHE_DIR"] = _cache
