"""Setuptools entry point.

The project's metadata and dependencies live in ``pyproject.toml``.  This
file stays so that an offline environment without the ``wheel`` package,
where pip cannot build an editable install, can still install the project
with ``python setup.py develop``.
"""

from setuptools import setup

setup()
