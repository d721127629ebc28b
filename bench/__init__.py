"""The repository's performance benchmark (see ``bench/README.md``)."""
