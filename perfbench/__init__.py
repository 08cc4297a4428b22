"""StreamTune benchmark (see README.md)."""
