"""Default settings, each defined once: the CLI's ``RunConfig`` and the
library signatures that take the same knob both read them from here. This
module imports nothing, so the CLI holds its defaults without loading any
scoring code."""

DEFAULT_DECISION_THRESHOLD = 0.1
DEFAULT_BETA = 2.0
DEFAULT_EPSILON = 1e-4
DEFAULT_SIMILARITY = 0.90
