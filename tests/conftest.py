try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, so the suite's result is reproducible;
    # no example database is written
    settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
    settings.load_profile("derandomized")
