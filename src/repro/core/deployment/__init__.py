"""PVN deployment: embedding, installation, isolation, lifecycle."""
