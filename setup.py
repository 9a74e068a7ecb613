"""Build script.  The package is pure Python; pyproject.toml holds its
metadata, and `python setup.py build` works offline."""

from setuptools import setup

setup()
