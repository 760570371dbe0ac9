"""Statistics and table rendering for experiment reports."""
